import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisdescent import (
    INFINITY,
    OMEGA,
    DescentKind,
    EisensteinInt,
    EisensteinRational,
    classify,
    descent_form,
    enumerate_rationals,
    parse_element,
    search,
    specialize,
)
from eisdescent import eisenstein

TARGET_COVER = [6, 0, 0, 3]  # f(z) = 3 z^3 + 6


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
        with pytest.raises(ValueError):
            list(enumerate_rationals(0))


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
]


def reference_search(coeffs, height):
    """counts, n_points and descends from `specialize` point by point."""
    counts = {kind.value: 0 for kind in DescentKind}
    descends = []
    points = list(enumerate_rationals(height)) + [INFINITY]
    for z0 in points:
        cls = specialize(coeffs, z0)
        counts[cls.kind.value] += 1
        if cls.kind is DescentKind.DESCENDS and z0 is not INFINITY:
            w = cls.witness
            descends.append({"z": str(z0), "a": str(w.value),
                             "witness": {"x": str(w.x), "y": str(w.y)}})
    return counts, len(points), descends


@pytest.mark.parametrize("text,height", DIFFERENTIAL_COVERS)
def test_search_matches_pointwise_specialize(text, height):
    coeffs = [parse_element(part) for part in text.split(",")]
    for h in (1, height):
        report = search(coeffs, h)
        counts, n_points, descends = reference_search(coeffs, h)
        assert report.counts == counts
        assert report.n_points == n_points
        assert list(report.descends) == descends


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
