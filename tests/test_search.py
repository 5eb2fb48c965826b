import hashlib
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisdescent import (
    INFINITY,
    OMEGA,
    DescentClassification,
    DescentKind,
    EisensteinInt,
    EisensteinRational,
    classify,
    descent_form,
    descent_form_preimage,
    enumerate_rationals,
    is_cube,
    parse_element,
    search,
    specialize,
)
from eisdescent import eisenstein
from eisdescent.cli import main
from eisdescent.descent import _cover_coefficients, _homogeneous_value, _past_norm_filter
from eisdescent.intfactor import icbrt

search_module = importlib.import_module("eisdescent.search")  # the package's `search` is the function

TARGET_COVER = [6, 0, 0, 3]  # f(z) = 3 z^3 + 6
# the prime powers whose cube residues the prefilter's two tables combine,
# 819 = 7 * 9 * 13 and 703 = 19 * 37
PRIME_POWERS = (7, 9, 13, 19, 37)
# the lowest height whose points reach past the first block of the enumeration
FIRST_BLOCK = next(search_module._point_blocks(100))
PAST_FIRST_BLOCK = int(max(abs(FIRST_BLOCK[0]).max(), FIRST_BLOCK[1].max())) + 1


def python_lowest_terms(height):
    """The pure-Python walk the numpy blocks replace: the pinned visiting order."""
    yield 0, 1
    for h in range(1, height + 1):
        for q in range(1, h + 1):
            if math.gcd(h, q) == 1:
                yield h, q
                yield -h, q
        for p in range(1, h):
            if math.gcd(p, h) == 1:
                yield p, h
                yield -p, h


def oracle_count(height):
    """Independent double-loop-with-gcd count of lowest-terms rationals."""
    count = 0
    for p in range(-height, height + 1):
        for q in range(1, height + 1):
            if math.gcd(abs(p), q) == 1:
                count += 1
    return count


class TestEnumerateRationals:
    def test_height_one(self):
        assert set(enumerate_rationals(1)) == {0, 1, -1}

    def test_height_two(self):
        values = list(enumerate_rationals(2))
        assert set(values) == {0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)}
        assert len(values) == 7

    def test_order_is_pinned(self):
        # search reports its Descends points in this order
        F = Fraction
        assert list(enumerate_rationals(3)) == [
            0, 1, -1, 2, -2, F(1, 2), F(-1, 2),
            3, -3, F(3, 2), F(-3, 2), F(1, 3), F(-1, 3), F(2, 3), F(-2, 3),
        ]

    def test_count_matches_oracle(self):
        for height in (1, 2, 3, 10, 25):
            values = list(enumerate_rationals(height))
            assert len(values) == oracle_count(height)
            assert len(set(values)) == len(values)

    def test_nondecreasing_height_and_lowest_terms(self):
        last_height = 0
        for v in enumerate_rationals(12):
            h = max(abs(v.numerator), v.denominator)
            assert h >= last_height
            assert h <= 12
            last_height = h

    def test_bad_bound(self):
        for height in (0, -1):
            with pytest.raises(ValueError, match="height must be >= 1"):
                list(enumerate_rationals(height))

    def test_blocks_list_the_python_walk_in_order(self):
        assert PAST_FIRST_BLOCK < 60  # the range below crosses a block boundary
        for height in range(1, 61):
            blocks = list(search_module._point_blocks(height))
            pairs = [pair for p, q in blocks for pair in zip(p.tolist(), q.tolist())]
            assert pairs == list(python_lowest_terms(height)), height
            assert [Fraction(*pair) for pair in pairs] == list(enumerate_rationals(height))


class TestSearch:
    def test_target_cover_small_height(self):
        report = search(TARGET_COVER, 5)
        assert report.counts["Descends"] == 0
        assert report.descends == ()
        assert report.n_points == oracle_count(5) + 1
        assert sum(report.counts.values()) == report.n_points
        assert report.infinity == {"a": "3", "classification": "NoDescent"}

    def test_target_cover_height_one(self):
        report = search(TARGET_COVER, 1)
        # points 0, 1, -1 and infinity; values 6, 9, 3, 3, all non-descending
        assert report.n_points == 4
        assert report.counts == {
            "Descends": 0, "Disconnected": 0, "NoDescent": 4, "Undefined": 0,
        }

    def test_identity_cover_rational_values_never_descend(self):
        report = search([0, 1], 5)
        assert report.counts["Descends"] == 0
        assert report.counts["Disconnected"] == 2   # z = 1 and z = -1
        assert report.counts["Undefined"] == 2      # z = 0 and infinity
        assert report.infinity == {"a": None, "classification": "Undefined"}

    @pytest.mark.parametrize("coeffs,infinity", [
        ([6, 0, 0, 3], {"a": "3", "classification": "NoDescent"}),
        ([1, 0, 0, 0, 1], {"a": None, "classification": "Undefined"}),
        ([2, 0, 0, 0, 0, OMEGA], {"a": None, "classification": "Undefined"}),
        ([0, 0, 0, 0, 0, 0, OMEGA], {"a": "1*w", "classification": "Descends"}),
        ([2, 0, 0, 0, 0, 0, 0, 0, 0, 1], {"a": "1", "classification": "Disconnected"}),
        ([Fraction(1, 2), 0, 0, parse_element("2/3*w")],
         {"a": "2/3*w", "classification": "NoDescent"}),
        ([Fraction(1, 2), 0, 0, parse_element("1/8*w")],
         {"a": "1/8*w", "classification": "Descends"}),
    ])
    def test_infinity_entry_by_degree(self, coeffs, infinity):
        # infinity is a branch point exactly when 3 does not divide the degree;
        # otherwise its value is the leading coefficient
        report = search(coeffs, 3)
        assert report.infinity == infinity
        finite = dict(report.counts)
        finite[infinity["classification"]] -= 1
        assert sum(finite.values()) == report.counters["points"] == report.n_points - 1

    def test_descends_points_exist_for_shifted_cover(self):
        # t^3 = z + (6+3w): at z = 0 the value is 6+3w, a descending point.
        from eisdescent import EisensteinInt, EisensteinRational
        shifted = [EisensteinRational(EisensteinInt(6, 3)), 1]
        report = search(shifted, 2)
        assert report.counts["Descends"] >= 1
        entry = next(e for e in report.descends if e["z"] == "0")
        assert entry == {"a": "6+3*w", "witness": {"x": "2", "y": "1"}, "z": "0"}

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            search([7], 3)

    def test_fingerprint_tracks_parameters(self, capsys):
        fingerprints = set()
        for coeffs, height in [("6,0,0,3", "2"), ("6,0,0,3", "3"), ("0,1", "2")]:
            assert main(["search", "--coeffs", coeffs, "--height", height]) == 0
            fingerprints.add(json.loads(capsys.readouterr().out)["fingerprint"])
        assert len(fingerprints) == 3


# (coefficients, height): degrees 1, 2, 3, 6, 7 and 9, denominators and
# w-parts, zero constant terms, all-Disconnected and all-Descends covers
DIFFERENTIAL_COVERS = [
    ("0,1", 12),
    ("6+3*w,1", 10),
    ("0,1/2*w", 10),
    ("1,2,3", 10),
    ("6,0,0,3", 12),
    ("0,0,0,1", 10),
    ("0,0,0,w", 10),
    ("1,0,0,w", 30),
    ("0,0,0,27/8*w", 8),
    ("-3,0,0,2/7", 10),
    ("1,2,3,4,5,6,7", 6),
    ("0,0,0,0,0,0,w", 6),
    ("1/3+1/2*w,-2/5,0,0,0,0,0,7/9*w", 6),
    ("0,0,0,0,0,0,0,0,0,1", 5),
    ("2,0,0,0,0,0,0,0,0,-1/3*w", 5),
    ("1/2,0,0,1/8*w", 8),
]


def composed_classify(a):
    """classify by the composition of the public deciders: 0 is Undefined,
    a cube is Disconnected, and a form value Descends with its preimage."""
    if not a:
        return DescentClassification(DescentKind.UNDEFINED)
    if is_cube(a)[0]:
        return DescentClassification(DescentKind.DISCONNECTED)
    witness = descent_form_preimage(a)
    if witness is not None:
        return DescentClassification(DescentKind.DESCENDS, witness)
    return DescentClassification(DescentKind.NO_DESCENT)


def reference_value(coeffs, z0):
    """f(z0) by plain Q(w) arithmetic; at infinity the leading coefficient
    when 3 divides the degree, else None (a branch point)."""
    degree = max(i for i, c in enumerate(coeffs) if c)
    if z0 is INFINITY:
        return coeffs[degree] if degree % 3 == 0 else None
    return sum((c * z0 ** i for i, c in enumerate(coeffs)), EisensteinRational(0))


def reference_points(coeffs, height):
    """(z0, classification) for every point of height <= `height` and infinity,
    by `composed_classify` on `reference_value`; a branch point is Undefined."""
    points = []
    for z0 in list(enumerate_rationals(height)) + [INFINITY]:
        a = reference_value(coeffs, z0)
        cls = DescentClassification(DescentKind.UNDEFINED) if a is None else composed_classify(a)
        points.append((z0, cls))
    return points


def reference_search(points):
    """counts, n_points and descends of the points `reference_points` lists."""
    counts = {kind.value: 0 for kind in DescentKind}
    descends = []
    for z0, cls in points:
        counts[cls.kind.value] += 1
        if cls.kind is DescentKind.DESCENDS and z0 is not INFINITY:
            w = cls.witness
            descends.append({"z": str(z0), "a": str(w.value),
                             "witness": {"x": str(w.x), "y": str(w.y)}})
    return counts, len(points), descends


@pytest.mark.parametrize("text,height", DIFFERENTIAL_COVERS)
def test_search_matches_pointwise_specialize(text, height):
    coeffs = [parse_element(part) for part in text.split(",")]
    a = reference_value(coeffs, INFINITY)
    for h in (1, height, PAST_FIRST_BLOCK):
        report = search(coeffs, h)
        points = reference_points(coeffs, h)
        for z0, cls in points:
            assert specialize(coeffs, z0) == cls, z0  # kind and witness
        counts, n_points, descends = reference_search(points)
        assert report.counts == counts
        assert report.n_points == n_points
        assert list(report.descends) == descends
        assert report.infinity == {"a": None if a is None else str(a),
                                   "classification": points[-1][1].kind.value}


def refuse_to_factor(*args):
    raise AssertionError("factoring called")


@pytest.mark.parametrize("coeffs,height,kinds", [
    ([0, 0, 0, OMEGA], 20, {"Descends", "Undefined"}),
    ([OMEGA, 0, 0, 1], 40, {"Descends", "Disconnected", "NoDescent"}),
    ([0, 0, 0, 1], 20, {"Disconnected", "Undefined"}),
])
def test_search_never_factors(monkeypatch, coeffs, height, kinds):
    monkeypatch.setattr(eisenstein, "factor", refuse_to_factor)
    monkeypatch.setattr(eisenstein, "factor_int", refuse_to_factor)
    report = search(coeffs, height)
    assert {kind for kind, n in report.counts.items() if n} == kinds


def test_differential_covers_reach_every_kind():
    kinds = set()
    for text, height in DIFFERENTIAL_COVERS:
        counts = search([parse_element(part) for part in text.split(",")], height).counts
        kinds |= {kind for kind, n in counts.items() if n}
    assert kinds == {kind.value for kind in DescentKind}


small = st.integers(-30, 30)


@st.composite
def nonzero_elements(draw):
    """Nonzero a in Q(w): arbitrary, a form value, a cube, or w times a cube."""
    shape = draw(st.sampled_from(["any", "form", "cube", "w-cube"]))
    den = draw(st.integers(1, 12))
    if shape == "form":
        a = descent_form(Fraction(draw(small), den), Fraction(draw(small), den))
    else:
        a = EisensteinRational(EisensteinInt(draw(small), draw(small)), den)
        if shape != "any":
            a = a ** 3 * (EisensteinInt(0, 1) if shape == "w-cube" else 1)
    if not a:
        a = EisensteinRational(1)
    return a


@settings(max_examples=300, deadline=None)
@given(nonzero_elements(),
       st.fractions(min_value=-40, max_value=40, max_denominator=40).filter(bool))
def test_classification_depends_on_the_value_up_to_cubes(a, s):
    # search classifies s^3 f(z) in place of f(z), and reads the witness back
    scaled = classify(s ** 3 * a)
    cls = classify(a)
    assert scaled.kind is cls.kind
    if cls.kind is DescentKind.DESCENDS:
        assert (scaled.witness.x, scaled.witness.y) == (s * cls.witness.x, s * cls.witness.y)


values = st.one_of(
    nonzero_elements(),
    st.just(EisensteinRational(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3),
    st.builds(lambda a, sign: sign * a ** 3,
              st.one_of(nonzero_elements(), st.fractions(max_denominator=50).filter(bool)),
              st.sampled_from([1, -1])),
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_classify_matches_the_composition_of_cube_test_and_preimage(a):
    assert classify(a) == composed_classify(a)


def norm_of_g(scaled, e, p, q):
    """N(G) for G = sum of D^3 c_i p^i q^(e-i), term by term (no Horner)."""
    n = len(scaled) - 1
    ga = sum(a * p ** (n - j) * q ** (e - n + j) for j, (a, _) in enumerate(scaled))
    gb = sum(b * p ** (n - j) * q ** (e - n + j) for j, (_, b) in enumerate(scaled))
    return ga * ga - ga * gb + gb * gb


coordinates = st.one_of(st.integers(-9, 9), st.integers(-10**7, 10**7))


@st.composite
def covers(draw, degree):
    """D^3 c_i as coordinate pairs, leading coefficient first, for random c_i in
    Q(w) with denominators and w-parts."""
    coeffs = [EisensteinRational(EisensteinInt(draw(coordinates), draw(coordinates)),
                                 draw(st.integers(1, 40)))
              for _ in range(degree + 1)]
    if not coeffs[-1]:
        coeffs[-1] = EisensteinRational(1)
    d3 = math.lcm(*(c.den for c in coeffs)) ** 3
    return [(c.num.a * (d3 // c.den), c.num.b * (d3 // c.den)) for c in reversed(coeffs)]


@pytest.mark.parametrize("degree", range(1, 10))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_modular_filter_rejects_only_non_cube_norms(degree, data):
    scaled = data.draw(covers(degree))
    height = data.draw(st.sampled_from([1, 2, PAST_FIRST_BLOCK - 1, PAST_FIRST_BLOCK,
                                        PAST_FIRST_BLOCK + 20]))
    e = -(-degree // 3) * 3
    residues = [(a % search_module._M, b % search_module._M) for a, b in scaled]
    cube_residues = {m: {x ** 3 % m for x in range(m)} for m in PRIME_POWERS}
    for p, q in search_module._point_blocks(height):
        # the evaluator of a block past the int64 bound keeps, as Python ints,
        # exactly the points whose N(G) passes, with G at each
        kept = search_module._object_values(scaled, residues, e, p, q)
        assert [x.dtype for x in kept] == [object] * 4
        expected = []
        for pq in zip(p.tolist(), q.tolist()):
            norm = norm_of_g(scaled, e, *pq)
            if all(norm % m in cube_residues[m] for m in cube_residues):
                expected.append(pq)
            else:
                root = icbrt(norm)
                assert root ** 3 != norm, pq
        assert list(zip(*(x.tolist() for x in kept))) == [
            (*pq, *_homogeneous_value(scaled, e, *pq)) for pq in expected]


@pytest.mark.parametrize("degree", range(1, 10))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_modular_and_exact_evaluation_agree_mod_m(degree, data):
    # one Horner loop serves both: exact on Python ints, and reduced mod _M at
    # every step on the int64 arrays of the prefilter
    scaled = data.draw(covers(degree))
    e = -(-degree // 3) * 3
    m = search_module._M
    residues = [(a % m, b % m) for a, b in scaled]
    points = data.draw(st.lists(st.tuples(st.integers(-499, 499), st.integers(1, 499)),
                                min_size=1, max_size=40))
    points += [(-499, 499), (499, 1), (1, 0)]  # the largest coordinates, and infinity
    p, q = (np.array(column, dtype=np.int64) for column in zip(*points))
    ga, gb = _homogeneous_value(residues, e, p % m, q % m, m)
    assert ga.dtype == gb.dtype == np.int64
    for i, (pi, qi) in enumerate(points):
        xa, xb = _homogeneous_value(scaled, e, pi, qi)
        assert xa * xa - xa * xb + xb * xb == norm_of_g(scaled, e, pi, qi)
        assert (int(ga[i]), int(gb[i])) == (xa % m, xb % m), (pi, qi)
        assert _homogeneous_value(residues, e, pi % m, qi % m, m) == (xa % m, xb % m)


def test_cube_residue_tables_mark_exactly_the_cubes_and_are_built_once():
    tables = search_module._joint_residues()
    assert [m for m, _ in tables] == [819, 703]
    assert math.prod(m for m, _ in tables) == search_module._M
    for m, table in tables:
        cubes = sorted({x ** 3 % m for x in range(m)})
        assert table.dtype == bool and table.shape == (m,)
        assert table.nonzero()[0].tolist() == cubes, m
    assert search_module._joint_residues() is tables


def test_coprime_table_is_the_gcd_at_the_largest_height():
    with pytest.raises(ValueError, match="largest height allowed at degree 1 is 706$"):
        search([0, 1], 707)
    coprime = search_module._coprime(706)
    assert coprime.shape == (707, 707)
    expected = [[math.gcd(n, d) == 1 for d in range(1, 707)] for n in range(1, 707)]
    assert coprime[1:, 1:].tolist() == expected


def per_prime_power_tables():
    """One bool table per prime power of PRIME_POWERS, True at its cube residues."""
    tables = {}
    for m in PRIME_POWERS:
        tables[m] = np.zeros(m, dtype=bool)
        tables[m][[x ** 3 % m for x in range(m)]] = True
    return tables


def per_modulus_residue_mask(norm):
    """The prefilter as one table per prime power of PRIME_POWERS, ANDed."""
    mask = np.ones(norm.shape, dtype=bool)
    for m, table in per_prime_power_tables().items():
        mask &= table[norm % m]
    return mask


def test_joint_prefilter_equals_the_per_modulus_tables_and_is_built_once():
    joint = search_module._joint_residues()
    assert search_module._joint_residues() is joint
    tables = per_prime_power_tables()
    for (m, table), moduli in zip(joint, (PRIME_POWERS[:3], PRIME_POWERS[3:]), strict=True):
        # by the CRT, the cube residues mod m are those mod each of its prime powers
        assert math.prod(moduli) == m
        x = np.arange(m)
        assert np.array_equal(table, np.logical_and.reduce([tables[k][x % k] for k in moduli]))
    every = np.arange(search_module._M, dtype=np.int64)
    rng = np.random.default_rng(27)
    norms = rng.integers(0, 2**62, 100_000)
    for norm in (every, norms):
        assert np.array_equal(search_module._is_cube_residue(norm), per_modulus_residue_mask(norm))


def test_the_prefilter_reads_only_int64_norms(monkeypatch):
    # an int64 block (heights up to 10 here) goes straight to the exact cube
    # root; each block past the bound is filtered once, on N(G) mod _M from
    # G mod _M
    seen = []
    is_cube_residue = search_module._is_cube_residue
    monkeypatch.setattr(search_module, "_is_cube_residue",
                        lambda norm: seen.append(norm) or is_cube_residue(norm))
    report = search(coefficients("0,0,0,1000000*w"), 60)
    assert {block[0].dtype for block in report.blocks} == {np.dtype(np.int64), np.dtype(object)}
    blocks = list(search_module._point_blocks(60, 10))
    past = [len(p) for p, q in blocks if max(p.max(), -p.min(), q.max()) > 10]
    assert len(seen) == len(past) == len(blocks) - 1
    assert all(norm.dtype == np.int64 for norm in seen)
    assert [len(norm) for norm in seen] == past


def test_search_counters_account_for_every_finite_point(capsys):
    # the prefilter runs past the int64 bound only: 6*10^12 + 3*10^12 z^3 has
    # no int64 block, so there it rejects all but 178 points
    for coeffs, height, pinned in [
        ("6,0,0,3", 60, None),
        ("0,0,0,w", 30, None),
        ("w,0,0,1", 40, None),
        ("6,0,0,3", 200, {"points": 48927, "modular_rejects": 0,
                          "norm_rejects": 48927, "cube_root_calls": 0, "int64_points": 48927}),
        ("0,0,0,w", 60, {"points": 4407, "modular_rejects": 0,
                         "norm_rejects": 0, "cube_root_calls": 4406, "int64_points": 4407}),
        ("6000000000000,0,0,3000000000000", 200, {"points": 48927, "modular_rejects": 48749,
                                                  "norm_rejects": 178, "cube_root_calls": 0,
                                                  "int64_points": 0}),
    ]:
        report = search([parse_element(c) for c in coeffs.split(",")], height)
        assert main(["search", "--coeffs", coeffs, "--height", str(height)]) == 0
        c = json.loads(capsys.readouterr().out)["counters"]
        assert set(c) == {"points", "modular_rejects", "norm_rejects", "cube_root_calls",
                          "int64_points"}
        assert c == report.counters
        finite = dict(report.counts)
        finite[report.infinity["classification"]] -= 1
        assert c["points"] == report.n_points - 1 == sum(finite.values())
        assert c["modular_rejects"] + c["norm_rejects"] == finite["NoDescent"]
        assert c["cube_root_calls"] == finite["Disconnected"] + finite["Descends"]
        assert 0 <= c["int64_points"] <= c["points"]
        if c["int64_points"] == c["points"]:  # the prefilter runs past the bound only
            assert c["modular_rejects"] == 0
        if pinned is not None:
            assert c == pinned


def coefficients(text):
    return [parse_element(part) for part in text.split(",")]


def test_cube_scaling_runs_the_big_int_path_to_the_same_kinds():
    # 10^6 w = 100^3 w: G is 10^6 times that of w z^3 at every point, so the
    # kinds agree and r grows by 10^4; int64 is exact only while
    # 3 (10^6 T^3)^2 < 2^62, for blocks of largest height T <= 10
    small, large = search(coefficients("0,0,0,w"), 60), search(coefficients("0,0,0,1000000*w"), 60)
    assert small.counters["int64_points"] == small.counters["points"] == 4407
    assert large.counters["int64_points"] <= oracle_count(10)
    assert large.counts == small.counts
    assert ({k: v for k, v in large.counters.items() if k != "int64_points"}
            == {k: v for k, v in small.counters.items() if k != "int64_points"})
    assert large.findings == tuple((p, q, 10**6 * ga, 10**6 * gb, 10**4 * r)
                                   for p, q, ga, gb, r in small.findings)


def test_points_on_both_sides_of_the_int64_bound_match_specialize():
    # 3 (10^4 T^3)^2 < 2^62 holds for T <= 49, so the bound fails in the
    # second block of height 60
    coeffs = coefficients("0,0,0,10000*w")
    report = search(coeffs, 60)
    assert 0 < report.counters["int64_points"] < report.counters["points"]
    points = [(z0, specialize(coeffs, z0)) for z0 in list(enumerate_rationals(60)) + [INFINITY]]
    counts, n_points, descends = reference_search(points)
    assert report.counts == counts
    assert report.n_points == n_points
    assert list(report.descends) == descends
    assert report.infinity["classification"] == points[-1][1].kind.value


# distinct primes are coprime denominators; the last is the largest below 10^6
PRIMES = [n for n in range(2, 200) if all(n % k for k in range(2, n))] + [999_983]


@st.composite
def rational_covers(draw):
    """f of degree 1 to 9 over Q(w), constant term first, about half its
    coefficients 0, the others with distinct prime denominators or any up
    to 10^6."""
    degree = draw(st.integers(1, 9))
    if draw(st.booleans()):
        dens = draw(st.lists(st.sampled_from(PRIMES), min_size=degree + 1,
                             max_size=degree + 1, unique=True))
    else:
        dens = draw(st.lists(st.integers(1, 10**6), min_size=degree + 1, max_size=degree + 1))
    coeffs = [EisensteinRational(EisensteinInt(draw(coordinates), draw(coordinates)), den)
              if draw(st.booleans()) else EisensteinRational(0) for den in dens]
    if not coeffs[-1]:
        coeffs[-1] = EisensteinRational(1, dens[-1])
    return coeffs


@settings(max_examples=300, deadline=None)
@given(rational_covers())
@example([0, 0, 0, EisensteinRational(OMEGA, 1000)])  # T = 10, s^3 = 10^12
@example([0, EisensteinRational(OMEGA, 35211)])  # T = 1; D = 35,212 has no int64 block
@example([0] * 9 + [EisensteinRational(1, 11)])  # T = 6, e = 9
def test_the_int64_bound_keeps_a_blocks_text_in_int64(coeffs):
    # a nonzero D^3 c_i has a coordinate of size >= D^3/den >= D^2, so at the
    # last int64 height T, where B = weight T^e has 3 B^2 < 2^62, s^3 = D^3 T^e
    # and r s with r <= icbrt(3 B^2) stay below 2^63 (T = 0: no int64 block)
    _, scaled, d, e = _cover_coefficients(coeffs)
    weight = sum(abs(a) + abs(b) for a, b in scaled)
    assert weight >= d * d
    last = 0
    while 3 * (weight * (last + 1) ** e) ** 2 < 2 ** 62:
        last += 1
    bound = weight * last ** e
    assert d ** 3 * last ** e < 2 ** 63
    assert icbrt(3 * bound * bound) * d * last ** (e // 3) < 2 ** 63


@pytest.mark.parametrize("seed_error", [0.0, -0.99, 0.99])
def test_int64_cube_root_is_the_floor_at_and_beside_every_cube(monkeypatch, seed_error):
    # every k with k^3 < 2^62, at k^3 - 1, k^3 and k^3 + 1, whose floors are
    # k - 1, k and k; icbrt gives the same on a sample that includes the top.
    # np.cbrt is all but exact here, so seeds moved by almost 1 either way
    # exercise the two integer corrections.
    cbrt = np.cbrt
    monkeypatch.setattr(np, "cbrt", lambda x: cbrt(x) + seed_error)
    top = icbrt(2**62 - 1)
    assert top ** 3 < 2**62 <= (top + 1) ** 3
    k = np.arange(1, top + 1, dtype=np.int64)
    cubes = k * k * k
    for shift, expected in ((-1, k - 1), (0, k), (1, k)):
        assert np.array_equal(search_module._int64_cbrt(cubes + shift), expected), shift
    assert search_module._int64_cbrt(np.array([0, 2**62 - 1])).tolist() == [0, top]
    sample = np.r_[1:2000, 2000:top:997, top - 2000:top + 1]
    n = np.concatenate([sample ** 3 - 1, sample ** 3, sample ** 3 + 1])
    assert search_module._int64_cbrt(n).tolist() == [icbrt(x) for x in n.tolist()]


def report_section(coeffs, height, capsys):
    """sha256 of the CLI document's "report" section, its lines to the end,
    and the document's counters."""
    assert main(["search", f"--coeffs={coeffs}", "--height", str(height)]) == 0
    out = capsys.readouterr().out
    section = out[out.index('\n  "report": {') + 1:]
    return hashlib.sha256(section.encode("ascii")).hexdigest(), json.loads(out)["counters"]


@pytest.mark.parametrize("coeffs,height,last,sha", [
    # 3 (28 T^6)^2 < 2^62 up to T = 18; 3 (10^6 T^3)^2 < 2^62 up to T = 10
    ("1,2,3,4,5,6,7", 30, 18, "64404b423f2b310b3b1291990659e524bb291ac80439054d8e833b8d31962ae7"),
    ("0,0,0,1000000*w", 60, 10, "acc5dd193d32517c5be901acf921861320a09dfc07d576864548c5df9484d096"),
    # D = 1000: 3 (10^6 T^3)^2 < 2^62 up to T = 10, findings on both sides
    ("0,0,0,1/1000*w", 60, 10, "7efb16a209c1a1091cced0eaa6a5788ee9ab866637bb329fc573fe887514ba29"),
])
def test_a_block_ends_at_the_last_height_within_the_int64_bound(capsys, coeffs, height, last,
                                                                sha):
    # every point of height <= last is decided in int64, and the report
    # section keeps the bytes it had when such covers had no int64 block
    section_sha, counters = report_section(coeffs, height, capsys)
    assert counters["int64_points"] == oracle_count(last)
    assert section_sha == sha
    cover = coefficients(coeffs)
    report = search(cover, height)
    points = [(z0, specialize(cover, z0)) for z0 in list(enumerate_rationals(height)) + [INFINITY]]
    counts, n_points, descends = reference_search(points)
    assert report.counts == counts and report.n_points == n_points
    assert list(report.descends) == descends


@pytest.mark.parametrize("cut", [1, 2, 10, 18, PAST_FIRST_BLOCK, 59, 60, 99])
def test_blocks_end_at_the_cut_and_keep_the_walk(cut):
    blocks = list(search_module._point_blocks(60, cut))
    pairs = [pair for p, q in blocks for pair in zip(p.tolist(), q.tolist())]
    assert pairs == list(python_lowest_terms(60))
    tops = [int(max(abs(p).max(), q.max())) for p, q in blocks]
    assert tops == sorted(set(tops)) and tops[-1] == 60
    assert cut in tops or cut > 60


def test_array_cube_test_agrees_with_the_past_norm_filter():
    # 5,000 each of random elements, cubes, w times cubes and form values, all
    # with N(G) < 2^62; r = floor(N(G)^(1/3)), a cube root only for the last
    # three.  Times the cube 10^12 = (10^4)^3, as object arrays, they are past
    # 2^63, as G and r are in a block past the int64 bound.
    rng = np.random.default_rng(26)
    a, b = rng.integers(-2**30, 2**30, (2, 5000))
    x, y = rng.integers(-700, 701, (2, 5000))
    ca, cb = eisenstein._mul(*eisenstein._mul(x, y, x, y), x, y)
    fa, fb = eisenstein._mul(*eisenstein._mul(x, y, x, y), x - y, -y)
    for dtype, scale in [(np.int64, 1), (object, 10**12)]:
        ga = np.concatenate([a, ca, -cb, fa]).astype(dtype) * scale  # w (c + d w) = -d + (c - d) w
        gb = np.concatenate([b, cb, ca - cb, fb]).astype(dtype) * scale
        assert len(ga) == 20_000 and np.all((ga != 0) | (gb != 0))
        r = np.array([icbrt(n) for n in (ga * ga - ga * gb + gb * gb).tolist()], dtype=dtype)
        assert ga.dtype == gb.dtype == r.dtype == dtype
        if scale > 1:
            assert max(abs(v) for v in ga.tolist() + gb.tolist()) > 2**63
        found = search_module._descends_past_filter(ga, gb, r)
        expected = [_past_norm_filter(*t) == "Descends"
                    for t in zip(ga.tolist(), gb.tolist(), r.tolist())]
        assert found.tolist() == expected
        assert set(expected) == {True, False}


def corrupt(block, column, i, delta):
    """`block` with `delta` added to column `column` of its finding i."""
    columns = [x.copy() for x in block]
    columns[column][i] += delta
    return tuple(columns)


@pytest.mark.parametrize("coeffs,height,dtype", [("0,0,0,w", 30, np.int64),
                                                 ("0,0,0,1000000*w", 30, object)])
@pytest.mark.parametrize("column", [2, 3, 4])  # ga, gb, r
def test_block_check_names_the_first_failing_point(coeffs, height, dtype, column):
    block = next(b for b in search(coefficients(coeffs), height).blocks if b[0].dtype == dtype)
    checked = search_module._checked_block(*block)
    assert all(x is y for x, y in zip(checked, block, strict=True))
    mid = len(block[0]) // 2
    for i in (mid, mid + 1):
        for delta in (1, -1):
            z = Fraction(int(block[0][i]), int(block[1][i]))
            with pytest.raises(AssertionError, match=f"^witness at z={z} fails the form check$"):
                search_module._checked_block(*corrupt(block, column, i, delta))
    # two bad points: the first in report order is named
    twice = corrupt(corrupt(block, column, mid + 1, 1), column, mid, 1)
    z = Fraction(int(block[0][mid]), int(block[1][mid]))
    with pytest.raises(AssertionError, match=f"^witness at z={z} fails"):
        search_module._checked_block(*twice)


def test_block_check_takes_values_past_int64():
    # the identities are checked on Python ints: G = 10^30 w p^3 is exact
    p = np.array([1, 2, 3], dtype=object)
    q = np.array([1, 1, 1], dtype=object)
    gb = 10**30 * p ** 3
    block = (p, q, 0 * gb, gb, 10**20 * p ** 2)
    search_module._checked_block(*block)
    with pytest.raises(AssertionError, match="^witness at z=2 fails the form check$"):
        search_module._checked_block(*corrupt(block, 3, 1, 1))


def two_identity_failures(ga, gb, r):
    """Where G = ga + gb*w fails G^2 conj(G) = r^3 G or conj(G) G^3 = r^3 G^2,
    the form check and the Galois identity, on Python ints: the oracle."""
    failed = []
    for a, b, root in zip(ga.tolist(), gb.tolist(), r.tolist()):
        norm = root ** 3
        g2a, g2b = eisenstein._mul(a, b, a, b)
        fa, fb = eisenstein._mul(g2a, g2b, a - b, -b)
        ha, hb = eisenstein._mul(fa, fb, a, b)
        failed.append((fa, fb) != (a * norm, b * norm) or (ha, hb) != (g2a * norm, g2b * norm))
    return failed


def norm_of(a, b):
    return a * a - a * b + b * b


# |ga|, |gb| <= B with 3 B^2 < 2^62, the bound of an int64 block
EDGE = math.isqrt((2**62 - 1) // 3)


def check_cases():
    """(ga, gb, r) int64 arrays, each G != 0: some pass the form check, most fail."""
    rng = np.random.default_rng(2700)
    n = 400
    x, y = rng.integers(-1000, 1001, (2, n))
    x[x == 0] = 1
    cases = {}
    a, b = rng.integers(-2**30, 2**30, (2, n))  # random G, r the floor of the cube root
    a[a == 0] = 1
    cases["random"] = (a, b, np.array([icbrt(v) for v in norm_of(a, b).tolist()]))
    ca, cb = eisenstein._mul(*eisenstein._mul(x, y, x, y), x, y)  # cubes, N = N(x + y w)^3
    fa, fb = eisenstein._mul(*eisenstein._mul(x, y, x, y), x - y, -y)  # form values
    exact = (np.concatenate([ca, -cb, fa]), np.concatenate([cb, ca - cb, fb]),
             np.tile(norm_of(x, y), 3))
    cases["exact"] = exact
    cases["r plus one"] = (exact[0], exact[1], exact[2] + 1)
    cases["r minus one"] = (exact[0], exact[1], exact[2] - 1)
    # N(r + w) = r^2 - r + 1 and N(r + 1 + w) = r^2 + r + 1, so these G have
    # N(G) = (r + 1)(r^2 - r + 1) = r^3 + 1 and (r - 1)(r^2 + r + 1) = r^3 - 1
    r = norm_of(x, y) - 1
    cases["norm r^3 + 1"] = (*eisenstein._mul(x, y, r, 1), r)
    r = norm_of(x, y) + 1
    cases["norm r^3 - 1"] = (*eisenstein._mul(x, y, r + 1, 1), r)
    # coordinates at the int64 bound, r up to 2^21 - 1
    a, b = rng.integers(EDGE - 1000, EDGE + 1, (2, n)) * rng.choice([-1, 1], (2, n))
    cases["edge"] = (a, b, rng.integers(1, 2**21, n))
    cases["edge exact"] = tuple(v[exact[2] > 2**19] for v in exact)
    # only G within the bound, as in an int64 block
    within = {name: (abs(ga) <= EDGE) & (abs(gb) <= EDGE) & (r < 2**21)
              for name, (ga, gb, r) in cases.items()}
    cases = {name: tuple(v[within[name]] for v in case) for name, case in cases.items()}
    # a few failures among passing findings, so the first is not the first point
    failing = ("r plus one", "r minus one", "norm r^3 + 1", "norm r^3 - 1", "edge")
    mixed = [np.concatenate(vs) for vs in zip(cases["exact"], *(
        tuple(v[:3] for v in cases[name]) for name in failing))]
    order = rng.permutation(len(mixed[0]))
    cases["mixed"] = tuple(v[order] for v in mixed)
    return cases


@pytest.mark.parametrize("name,case", list(check_cases().items()))
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_block_check_fails_exactly_where_the_two_identities_do(name, case, dtype):
    ga, gb, r = (np.asarray(v, dtype=np.int64) for v in case)
    assert len(ga) >= 100 and np.all((ga != 0) | (gb != 0)) and np.all(r >= 0)
    failed = two_identity_failures(ga, gb, r)
    if name == "exact":
        assert not any(failed)
    elif name != "edge exact":
        assert any(failed)
    p = np.arange(1, len(ga) + 1)  # z = i + 1 names the finding i
    block = tuple(v.astype(dtype) for v in (p, np.ones_like(p), ga, gb, r))
    for i, bad in enumerate(failed):
        one = tuple(v[i:i + 1] for v in block)
        if bad:
            message = f"^witness at z={i + 1} fails the form check$"
            with pytest.raises(AssertionError, match=message):
                search_module._checked_block(*one)
        else:
            search_module._checked_block(*one)
    if any(failed):
        with pytest.raises(AssertionError, match=f"^witness at z={failed.index(True) + 1} fails"):
            search_module._checked_block(*block)
    else:
        search_module._checked_block(*block)
