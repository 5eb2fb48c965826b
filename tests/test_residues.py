import itertools
import time

import numpy as np
import pytest

from eisdescent import ResidueRing, cube_values, descent_form_image, residues, rhs_values
from eisdescent.residues import MAX_VERIFY_K, form_image_size, in_form_image

# Pinned from the first verified run: |{form values mod 81}| (a regression
# constant of this build, not an externally given number).
FORM_IMAGE_SIZE_K4 = 1519
CUBES_SIZE_K4 = 171
RHS_SIZE_K4 = 21


# Independent reference arithmetic: plain integer pairs (a, b) = a + b*w
# with w^2 = -1 - w, reduced mod m.
def mul(u, v, m):
    a, b = u
    c, d = v
    return (a * c - b * d) % m, (a * d + b * c - b * d) % m


def form(x, y, m):
    n = (x * x - x * y + y * y) % m
    return (x * n) % m, (y * n) % m


def cube(a, b, m):
    return mul(mul((a, b), (a, b), m), (a, b), m)


def rhs(a, b, m):
    ca, cb = cube(a, b, m)
    return (3 * ca + 6) % m, (3 * cb) % m


def members(image):
    """The set's elements as coordinate pairs (a, b), from its value indices."""
    m = image.ring.modulus
    return {divmod(v, m) for v in image.values.tolist()}


def has(image, a, b):
    return a * image.ring.modulus + b in image.values


def test_ring_validation():
    with pytest.raises(ValueError):
        ResidueRing(0)
    with pytest.raises(ValueError):
        ResidueRing(20)
    assert ResidueRing(4).modulus == 81
    assert ResidueRing(4).size == 6561


class TestImageSets:
    def test_form_image_k1_examples(self):
        image = descent_form_image(ResidueRing(1))
        assert has(image, 1, 0)  # form(1, 0) = 1
        assert has(image, 0, 1)  # form(0, 1) = w
        assert has(image, 0, 0)

    def test_form_image_k1_matches_naive(self):
        image = descent_form_image(ResidueRing(1))
        naive = {form(x, y, 3) for x in range(3) for y in range(3)}
        assert members(image) == naive

    def test_pinned_sizes_k4(self):
        ring = ResidueRing(4)
        assert len(descent_form_image(ring)) == FORM_IMAGE_SIZE_K4
        assert len(cube_values(ring)) == CUBES_SIZE_K4
        assert len(rhs_values(ring)) == RHS_SIZE_K4

    def test_cube_set_k1_contains_plus_minus_one(self):
        cubes = cube_values(ResidueRing(1))
        assert has(cubes, 1, 0)
        assert has(cubes, 2, 0)

    def test_rhs_examples(self):
        assert has(rhs_values(ResidueRing(1)), 0, 0)
        assert has(rhs_values(ResidueRing(4)), 6, 0)

    def test_image_closed_under_cube_multiplication_small_k(self):
        for k in (1, 2):
            m = 3**k
            image = members(descent_form_image(ResidueRing(k)))
            for a in range(m):
                for b in range(m):
                    c = cube(a, b, m)
                    for e in image:
                        assert mul(c, e, m) in image

    def test_projection_maps_image_into_image(self):
        images = {k: members(descent_form_image(ResidueRing(k))) for k in (1, 2, 3, 4)}
        for k_hi, k_lo in itertools.combinations((4, 3, 2, 1), 2):
            m_lo = 3**k_lo
            for a, b in images[k_hi]:
                assert (a % m_lo, b % m_lo) in images[k_lo]

    def test_producers_are_lex_first(self):
        # Every producer of the full 3^k x 3^k grid visited in lexicographic
        # order, the first one kept per value.
        builders = {"form": (descent_form_image, form), "cubes": (cube_values, cube),
                    "rhs": (rhs_values, rhs)}
        for k in (1, 2, 3, 4):
            ring = ResidueRing(k)
            m = ring.modulus
            for name, (build, fn) in builders.items():
                first = {}
                for a in range(m):
                    for b in range(m):
                        va, vb = fn(a, b, m)
                        first.setdefault(va * m + vb, a * m + b)
                image = build(ring)
                assert image.values.tolist() == sorted(first), (name, k)
                producers = image.first_producers(image.values).tolist()
                assert producers == [first[v] for v in sorted(first)], (name, k)
                if name != "form" and k >= 2:
                    box = m // 3
                    assert all(p // m < box and p % m < box for p in producers), (name, k)

    def test_first_producers_reject_non_members(self):
        image = cube_values(ResidueRing(2))
        outside = int(np.setdiff1d(np.arange(image.ring.size), image.values)[0])
        with pytest.raises(KeyError):
            image.first_producers(np.array([outside]))
        with pytest.raises(KeyError):
            image.first_producers(np.sort(np.append(image.values[:3], outside)))

    def test_first_producers_of_no_targets_do_not_scan(self, monkeypatch):
        image = descent_form_image(ResidueRing(3))

        def no_scan(*args):
            raise AssertionError("grid scanned")

        monkeypatch.setattr(residues, "_grid", no_scan)
        empty = image.first_producers(np.empty(0, dtype=np.int64))
        assert empty.size == 0 and empty.dtype == np.int64
        with pytest.raises(AssertionError, match="grid scanned"):
            image.first_producers(image.values[:1])

    def test_scan_above_limit_raises_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ResidueRing(MAX_VERIFY_K + 1)
        assert time.perf_counter() - start < 0.5


class TestClosedFormImage:
    """`in_form_image` and `form_image_size` against the form-image scan."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_predicate_equals_scan_on_every_element(self, k):
        ring = ResidueRing(k)
        image = descent_form_image(ring)
        every = np.arange(ring.size, dtype=np.int64)
        assert np.array_equal(np.flatnonzero(in_form_image(ring, every)), image.values)
        assert form_image_size(ring) == len(image)

    def test_k7_size_and_members(self):
        ring = ResidueRing(7)
        image = descent_form_image(ring)
        assert form_image_size(ring) == len(image) == 1_103_767
        assert in_form_image(ring, image.values).all()

    def test_sizes_up_to_k8(self):
        sizes = [form_image_size(ResidueRing(k)) for k in range(1, 9)]
        assert sizes == [7, 21, 169, 1519, 13629, 122641, 1103767, 9933861]

    @pytest.mark.parametrize("k", (7, 8))
    def test_predicate_equals_gcd_formula_at_every_valuation(self, k):
        # pi^j e for j = 0..2k-1 and units e from a box, 0, and random elements;
        # each norm's 3-valuation is j, so both lookups of the norm table run.
        ring = ResidueRing(k)
        m = ring.modulus
        units = [(a, b) for a in range(12) for b in range(12) if (a * a - a * b + b * b) % 3]
        values, power = [0], (1, 0)
        for j in range(2 * k):
            values += [a * m + b for a, b in (mul(power, e, m) for e in units)]
            power = mul(power, (1, 2), m)  # times pi = 1 + 2w
        values = np.array(values + list(np.random.default_rng(k).integers(0, ring.size, 5000)))
        a, b = np.divmod(values, m)
        norm = a * a - a * b + b * b
        assert {v3(int(n)) for n in norm[1:1 + 2 * k * len(units)]} == set(range(2 * k))
        assert np.array_equal(in_form_image(ring, values), gcd_formula(ring, values))
        assert in_form_image(ring, values[:1])[0]  # v = 0


def v3(n):
    j = 0
    while n % 3 == 0:
        n, j = n // 3, j + 1
    return j


def gcd_formula(ring, values):
    """The closed form with the 3-valuation of the norm taken by a gcd."""
    a, b = np.divmod(values, ring.modulus)
    norm = a * a - a * b + b * b
    top = ring.size  # 3^(2k)
    pi_power = np.gcd(norm, top)  # 3^j; top for v = 0
    valuation_ok = np.isin(pi_power, [3 ** j for j in range(0, 2 * ring.k, 3)])
    every_unit = 9 * pi_power >= top
    unit_norm_ok = (norm // pi_power) % 9 == 1
    return (pi_power == top) | (valuation_ok & (every_unit | unit_norm_ok))


@pytest.mark.parametrize("k", range(1, 8))
def test_rhs_box_scan_equals_full_ring_scan(k):
    ring = ResidueRing(k)
    box = rhs_values(ring)
    full = residues._scan("rhs", ring, residues._rhs_coords, ring.modulus)
    assert box.side == {1: 1, 2: 3}.get(k, 3 ** (k - 2))
    assert np.array_equal(box.values, full.values)
    assert np.array_equal(box.first_producers(box.values), full.first_producers(full.values))


@pytest.mark.parametrize("k", range(2, 9))
def test_rhs_is_three_times_shifted_cubes_one_level_down(k):
    # 3(z^3 + 2) mod 3^k = 3 y, y = (z^3 + 2) mod 3^(k-1), coordinate by coordinate
    m, lower = 3**k, 3 ** (k - 1)
    ca, cb = np.divmod(cube_values(ResidueRing(k - 1)).values, lower)
    expected = np.sort(3 * ((ca + 2) % lower) * m + 3 * cb)
    assert np.array_equal(rhs_values(ResidueRing(k)).values, expected)


def test_csv_dump(tmp_path):
    ring = ResidueRing(1)
    cubes = cube_values(ring)
    path = tmp_path / "cubes.csv"
    cubes.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# ring=3^1 set=cubes"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert rows == sorted(rows)
    assert set(rows) == members(cubes)
    # one partial chunk (these 7 rows), and several chunks ending in a partial
    # one (the 122,641 form-image rows at k = 6, written below)
    assert 7 < residues._CSV_ROWS < 122_641 // 2 and 122_641 % residues._CSV_ROWS
    assert form_image_size(ResidueRing(6)) == 122_641


@pytest.mark.parametrize("scan, k", [(cube_values, k) for k in range(1, MAX_VERIFY_K + 1)]
                         + [(rhs_values, k) for k in range(1, MAX_VERIFY_K + 1)]
                         + [(descent_form_image, k) for k in range(1, 7)])
def test_csv_bytes_equal_plain_formatting(tmp_path, scan, k):
    # 1- to 4-digit coordinates; several chunks and a partial last one for the
    # form image at k = 6, the cubes from k = 7 and the right-hand side at 8.
    # Compared as bytes: pytest explains a str mismatch by a line diff, which
    # takes minutes on texts this long.
    image = scan(ResidueRing(k))
    path = tmp_path / "set.csv"
    image.write_csv(str(path))
    m = 3**k
    plain = "".join(f"{v // m},{v % m}\n" for v in image.values.tolist())
    assert path.read_bytes() == f"# ring=3^{k} set={image.name}\n{plain}".encode("ascii")
