import itertools
import random
import time

import pytest

from eisdescent import (
    EisensteinInt,
    ResidueRing,
    cube_values,
    descent_form_image,
    rhs_values,
)
from eisdescent.residues import MAX_VERIFY_K

# Pinned from the first verified run: |{form values mod 81}| (a regression
# constant of this build, not an externally given number).
FORM_IMAGE_SIZE_K4 = 1519
CUBES_SIZE_K4 = 171
RHS_SIZE_K4 = 21


def test_ring_validation():
    with pytest.raises(ValueError):
        ResidueRing(0)
    with pytest.raises(ValueError):
        ResidueRing(20)
    assert ResidueRing(4).modulus == 81
    assert ResidueRing(4).size == 6561


class TestReduce:
    def test_examples(self):
        ring = ResidueRing(4)
        e = ring.reduce(EisensteinInt(1, 2))
        assert (e.a, e.b) == (1, 2)
        e = ring.reduce(EisensteinInt(-1, 0))
        assert (e.a, e.b) == (80, 0)

    def test_ring_homomorphism_on_random_pairs(self):
        rng = random.Random(21)
        ring = ResidueRing(3)
        for _ in range(100):
            x = EisensteinInt(rng.randint(-500, 500), rng.randint(-500, 500))
            y = EisensteinInt(rng.randint(-500, 500), rng.randint(-500, 500))
            assert ring.reduce(x * y) == ring.reduce(x) * ring.reduce(y)
            assert ring.reduce(x + y) == ring.reduce(x) + ring.reduce(y)


class TestElementArithmetic:
    def test_pi_squared_vanishes_mod_three(self):
        ring = ResidueRing(1)
        pi = ring.element(1, 2)
        assert pi * pi == ring.zero()

    def test_multiplicative_identity(self):
        ring = ResidueRing(2)
        x = ring.element(5, 7)
        assert x * ring.one() == x

    def test_omega_cubes_to_one(self):
        ring = ResidueRing(3)
        assert ring.element(0, 1) ** 3 == ring.one()

    def test_mixed_rings_rejected(self):
        a = ResidueRing(1).element(1, 0)
        b = ResidueRing(2).element(1, 0)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a + b

    def test_pow_matches_repeated_multiplication(self):
        ring = ResidueRing(2)
        x = ring.element(4, 7)
        acc = ring.one()
        for n in range(8):
            assert x**n == acc
            acc = acc * x


class TestEnumeration:
    def test_k1_has_nine_elements_starting_at_zero(self):
        ring = ResidueRing(1)
        elems = list(ring)
        assert len(elems) == 9
        assert (elems[0].a, elems[0].b) == (0, 0)

    def test_lexicographic_order_and_count(self):
        ring = ResidueRing(2)
        coords = [(e.a, e.b) for e in ring]
        assert coords == sorted(coords)
        assert len(coords) == len(set(coords)) == 9**2

    def test_k4_count(self):
        assert sum(1 for _ in ResidueRing(4)) == 6561


class TestImageSets:
    def test_form_image_k1_examples(self):
        ring = ResidueRing(1)
        image = descent_form_image(ring)
        assert ring.element(1, 0) in image  # form(1, 0) = 1
        assert ring.element(0, 1) in image  # form(0, 1) = w
        assert ring.element(0, 0) in image

    def test_form_image_k1_matches_naive(self):
        ring = ResidueRing(1)
        image = descent_form_image(ring)
        naive = set()
        for x in range(3):
            for y in range(3):
                n = (x * x - x * y + y * y) % 3
                naive.add(((x * n) % 3, (y * n) % 3))
        assert {(e.a, e.b) for e in image} == naive

    def test_pinned_sizes_k4(self):
        ring = ResidueRing(4)
        assert len(descent_form_image(ring)) == FORM_IMAGE_SIZE_K4
        assert len(cube_values(ring)) == CUBES_SIZE_K4
        assert len(rhs_values(ring)) == RHS_SIZE_K4

    def test_cube_set_k1_contains_plus_minus_one(self):
        ring = ResidueRing(1)
        cubes = cube_values(ring)
        assert ring.element(1, 0) in cubes
        assert ring.element(2, 0) in cubes

    def test_rhs_examples(self):
        assert ResidueRing(1).element(0, 0) in rhs_values(ResidueRing(1))
        assert ResidueRing(4).element(6, 0) in rhs_values(ResidueRing(4))

    def test_membership_requires_same_ring(self):
        image = descent_form_image(ResidueRing(1))
        with pytest.raises(ValueError):
            ResidueRing(2).element(1, 0) in image

    def test_image_closed_under_cube_multiplication_small_k(self):
        for k in (1, 2):
            ring = ResidueRing(k)
            image = descent_form_image(ring)
            members = {(e.a, e.b) for e in image}
            for u in ring:
                c = u**3
                for e in image:
                    prod = c * e
                    assert (prod.a, prod.b) in members

    def test_projection_maps_image_into_image(self):
        images = {k: descent_form_image(ResidueRing(k)) for k in (1, 2, 3, 4)}
        for k_hi, k_lo in itertools.combinations((4, 3, 2, 1), 2):
            lo_ring = ResidueRing(k_lo)
            for e in images[k_hi]:
                assert lo_ring.element(e.a, e.b) in images[k_lo]

    def test_producers_are_lex_first(self):
        # Independent reference: plain integer pairs (a, b) = a + b*w with
        # w^2 = -1 - w, every producer of the full 3^k x 3^k grid visited in
        # lexicographic order, the first one kept per value.
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
                assert image.producers.tolist() == [first[v] for v in sorted(first)], (name, k)
                if name != "form" and k >= 2:
                    box = m // 3
                    assert all(p // m < box and p % m < box
                               for p in image.producers.tolist()), (name, k)

    def test_scan_above_limit_raises_before_allocating(self):
        ring = ResidueRing(MAX_VERIFY_K + 1)
        for build in (descent_form_image, cube_values, rhs_values):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                build(ring)
            assert time.perf_counter() - start < 0.5


def test_csv_dump(tmp_path):
    ring = ResidueRing(1)
    cubes = cube_values(ring)
    path = tmp_path / "cubes.csv"
    cubes.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# ring=3^1 set=cubes"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert rows == sorted(rows)
    assert set(rows) == {(e.a, e.b) for e in cubes}
