import math
from fractions import Fraction

import pytest

from eisdescent import enumerate_rationals, search

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
