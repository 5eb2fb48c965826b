import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from eisdescent.intfactor import icbrt

search_module = importlib.import_module("eisdescent.search")  # the package's `search` is the function

TARGET_COVER = [6, 0, 0, 3]  # f(z) = 3 z^3 + 6
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

    def test_fingerprint_tracks_parameters(self):
        a = search(TARGET_COVER, 2).input_fingerprint
        b = search(TARGET_COVER, 3).input_fingerprint
        c = search([0, 1], 2).input_fingerprint
        assert len({a, b, c}) == 3


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
    cube_residues = {m: {x ** 3 % m for x in range(m)} for m in search_module._MODULI}
    for p, q in search_module._point_blocks(height):
        mask = search_module._cube_residue_mask(residues, e, p, q).tolist()
        for keep, pq in zip(mask, zip(p.tolist(), q.tolist())):
            norm = norm_of_g(scaled, e, *pq)
            assert keep == all(norm % m in cube_residues[m] for m in cube_residues), pq
            if not keep:
                root = icbrt(norm)
                assert root ** 3 != norm, pq


def test_cube_residue_tables_mark_exactly_the_cubes_and_are_built_once():
    tables = search_module._cube_residues()
    assert len(tables) == len(search_module._MODULI)
    for m, table in zip(search_module._MODULI, tables):
        cubes = sorted({x ** 3 % m for x in range(m)})
        assert table.dtype == bool and table.shape == (m,)
        assert table.nonzero()[0].tolist() == cubes, m
    assert search_module._cube_residues() is tables


def test_search_counters_account_for_every_finite_point():
    # the last two are pinned from the walk that counted point by point
    for coeffs, height, pinned in [
        (TARGET_COVER, 60, None),
        ([0, 0, 0, OMEGA], 30, None),
        ([OMEGA, 0, 0, 1], 40, None),
        (TARGET_COVER, 200, {"points": 48927, "modular_rejects": 48749,
                             "norm_rejects": 178, "cube_root_calls": 0}),
        ([0, 0, 0, OMEGA], 60, {"points": 4407, "modular_rejects": 0,
                                "norm_rejects": 0, "cube_root_calls": 4406}),
    ]:
        report = search(coeffs, height)
        doc = report.to_document()
        c = doc["counters"]
        assert set(c) == {"points", "modular_rejects", "norm_rejects", "cube_root_calls"}
        assert c == report.counters
        finite = dict(report.counts)
        finite[report.infinity["classification"]] -= 1
        assert c["points"] == report.n_points - 1 == sum(finite.values())
        assert c["modular_rejects"] + c["norm_rejects"] == finite["NoDescent"]
        assert c["cube_root_calls"] == finite["Disconnected"] + finite["Descends"]
        if pinned is not None:
            assert c == pinned
    assert search(TARGET_COVER, 60).counters["modular_rejects"] > 0
