import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisdescent import (
    INFINITY,
    PI,
    DescentKind,
    DescentWitness,
    EisensteinInt,
    EisensteinRational,
    InvalidWitnessError,
    NotDivisibleError,
    classify,
    descent_form,
    descent_form_preimage,
    galois_commutes,
    is_cube,
    pi_divides_both_factors,
    reduce_by_pi,
    specialize,
)
from eisdescent.eisenstein import UNITS
from eisdescent.intfactor import exact_cbrt


def form_by_direct_product(x, y):
    """Independent evaluation of (x + w y)^2 (x + w^2 y) term by term."""
    u = EisensteinRational.from_coords(x, y)
    v = EisensteinRational.from_coords(Fraction(x) - Fraction(y), -Fraction(y))
    return u * u * v


def rand_fraction(rng, bound=100):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


TARGET_COVER = [6, 0, 0, 3]  # f(z) = 3 z^3 + 6


class TestDescentForm:
    def test_examples(self):
        assert descent_form(1, 0) == 1
        assert descent_form(2, 1) == EisensteinRational(EisensteinInt(6, 3))
        assert descent_form(1, 2) == EisensteinRational(EisensteinInt(3, 6))
        assert descent_form(1, 1) == EisensteinRational(EisensteinInt(1, 1))

    def test_agrees_with_direct_product(self):
        rng = random.Random(31)
        for _ in range(300):
            x = rand_fraction(rng, 30)
            y = rand_fraction(rng, 30)
            assert descent_form(x, y) == form_by_direct_product(x, y)

    def test_norm_is_cube_of_point_norm(self):
        rng = random.Random(32)
        for _ in range(300):
            x = rand_fraction(rng, 30)
            y = rand_fraction(rng, 30)
            alpha = EisensteinRational.from_coords(x, y)
            assert descent_form(x, y).norm() == alpha.norm() ** 3


class TestPreimage:
    def test_examples(self):
        w = descent_form_preimage(EisensteinRational(EisensteinInt(6, 3)))
        assert (w.x, w.y) == (2, 1)
        assert descent_form_preimage(EisensteinRational(EisensteinInt(3, 0))) is None
        w = descent_form_preimage(EisensteinRational(0))
        assert (w.x, w.y) == (0, 0)

    @pytest.mark.parametrize("bad", [1.5, "x", None, 0.0])
    def test_rejects_non_elements(self, bad):
        with pytest.raises(TypeError, match="expects an element of Q"):
            descent_form_preimage(bad)

    def test_roundtrip_random(self):
        rng = random.Random(33)
        for _ in range(300):
            x = rand_fraction(rng)
            y = rand_fraction(rng)
            if x == 0 and y == 0:
                continue
            w = descent_form_preimage(descent_form(x, y))
            assert w is not None
            assert (w.x, w.y) == (x, y)

    def test_conjugation_equivariance_of_solvability(self):
        rng = random.Random(34)
        for _ in range(100):
            a = EisensteinRational.from_coords(rand_fraction(rng, 20), rand_fraction(rng, 20))
            assert (descent_form_preimage(a) is None) == (
                descent_form_preimage(a.conj()) is None
            )

    def test_rational_values_solvable_iff_cube(self):
        # form(x, y) is rational exactly when y = 0, so a rational a has a
        # preimage exactly when it is a cube.
        for a in [2, 3, 5, 9, Fraction(4, 9)]:
            assert descent_form_preimage(Fraction(a)) is None
        for a in [1, -1, 8, Fraction(-27, 8), Fraction(1, 64)]:
            w = descent_form_preimage(Fraction(a))
            assert w is not None and w.y == 0


small = st.integers(-50, 50)


@st.composite
def cube_norm_elements(draw):
    """Nonzero a in Q(w) with N(a) a rational cube: u*c^3*alpha*N(alpha)^m
    for a unit u, rationals c, alpha != 0 and m in {1, 4}, or a cube."""
    alpha = EisensteinRational(EisensteinInt(draw(small), draw(small)), draw(st.integers(1, 20)))
    if not alpha:
        alpha = EisensteinRational(EisensteinInt(1, 2))
    if draw(st.booleans()):
        return alpha**3
    c = Fraction(draw(small.filter(bool)), draw(st.integers(1, 20)))
    unit = draw(st.sampled_from(UNITS))
    return alpha * unit * c**3 * alpha.norm() ** draw(st.sampled_from([1, 4]))


@settings(max_examples=300, deadline=None)
@given(cube_norm_elements())
def test_every_element_with_cube_norm_has_a_preimage(a):
    n = a.norm()
    assert exact_cbrt(n.numerator) is not None and exact_cbrt(n.denominator) is not None
    w = descent_form_preimage(a)
    assert w is not None
    assert form_by_direct_product(w.x, w.y) == a


class TestWitness:
    def test_witness_validated_on_construction(self):
        value = descent_form(2, 1)
        DescentWitness(Fraction(2), Fraction(1), value)
        with pytest.raises(InvalidWitnessError):
            DescentWitness(Fraction(1), Fraction(0), value)


class TestClassify:
    def test_examples(self):
        assert classify(EisensteinRational(1)).kind is DescentKind.DISCONNECTED
        cls = classify(EisensteinRational(EisensteinInt(6, 3)))
        assert cls.kind is DescentKind.DESCENDS
        assert (cls.witness.x, cls.witness.y) == (2, 1)
        assert classify(EisensteinRational(3)).kind is DescentKind.NO_DESCENT
        assert classify(EisensteinRational(0)).kind is DescentKind.UNDEFINED
        assert classify(INFINITY).kind is DescentKind.UNDEFINED

    def test_verdict_invariants(self):
        rng = random.Random(35)
        for _ in range(100):
            a = EisensteinRational.from_coords(rand_fraction(rng, 15), rand_fraction(rng, 15))
            cls = classify(a)
            cube, _ = is_cube(a)
            if cls.kind is DescentKind.DESCENDS:
                assert not cube
                assert galois_commutes(a, cls.witness)
            elif cls.kind is DescentKind.DISCONNECTED:
                assert cube and a
            elif cls.kind is DescentKind.UNDEFINED:
                assert not a

    def test_str_forms(self):
        assert str(classify(EisensteinRational(1))) == "Disconnected"
        assert str(classify(EisensteinRational(EisensteinInt(6, 3)))) == \
            "Descends(x=2, y=1)"


class TestGaloisCommutes:
    def test_examples(self):
        a = EisensteinRational(EisensteinInt(6, 3))
        assert galois_commutes(a, DescentWitness(Fraction(2), Fraction(1), a))
        b = EisensteinRational(EisensteinInt(1, 1))
        assert galois_commutes(b, DescentWitness(Fraction(1), Fraction(1), b))

    def test_wrong_witness_rejected(self):
        a = EisensteinRational(EisensteinInt(6, 3))
        other = descent_form(1, 0)
        w = DescentWitness(Fraction(1), Fraction(0), other)
        with pytest.raises(InvalidWitnessError):
            galois_commutes(a, w)

    def test_zero_rejected(self):
        w = descent_form_preimage(EisensteinRational(0))
        with pytest.raises(InvalidWitnessError):
            galois_commutes(EisensteinRational(0), w)

    def test_identity_holds_for_all_witnesses(self):
        rng = random.Random(36)
        for _ in range(200):
            x = rand_fraction(rng, 40)
            y = rand_fraction(rng, 40)
            if x == 0 and y == 0:
                continue
            a = descent_form(x, y)
            assert galois_commutes(a, DescentWitness(x, y, a))


class TestReduceByPi:
    def test_example(self):
        assert reduce_by_pi(1, 2) == (-1, 0)
        assert descent_form(-1, 0) == -1

    def test_three_zero(self):
        x2, y2 = reduce_by_pi(3, 0)
        pi_cubed = EisensteinRational(PI**3)
        assert descent_form(x2, y2) * pi_cubed == descent_form(3, 0)

    def test_not_divisible_rejected(self):
        with pytest.raises(NotDivisibleError):
            reduce_by_pi(1, 1)

    def test_reduction_identity_random(self):
        rng = random.Random(37)
        pi_cubed = EisensteinRational(PI**3)
        for _ in range(200):
            g = EisensteinInt(rng.randint(-300, 300), rng.randint(-300, 300))
            beta = g * PI
            x, y = beta.a, beta.b
            x2, y2 = reduce_by_pi(x, y)
            assert descent_form(x2, y2) * pi_cubed == descent_form(x, y)


class TestPiDividesBothFactors:
    def test_examples(self):
        assert pi_divides_both_factors(1, 2) is True
        assert pi_divides_both_factors(2, 1) is True  # form = 6+3w, pi-valuation 3
        with pytest.raises(NotDivisibleError):
            pi_divides_both_factors(1, 0)

    def test_random_pi_multiples(self):
        rng = random.Random(38)
        for _ in range(200):
            g = EisensteinInt(rng.randint(-300, 300), rng.randint(-300, 300))
            beta = g * PI
            assert pi_divides_both_factors(beta.a, beta.b) is True


class TestSpecialize:
    def test_target_cover_at_small_points(self):
        assert specialize(TARGET_COVER, 0).kind is DescentKind.NO_DESCENT   # a = 6
        assert specialize(TARGET_COVER, 1).kind is DescentKind.NO_DESCENT   # a = 9
        assert specialize(TARGET_COVER, -1).kind is DescentKind.NO_DESCENT  # a = 3

    def test_infinity_of_cubic_uses_leading_coefficient(self):
        cls = specialize(TARGET_COVER, INFINITY)
        assert cls.kind is DescentKind.NO_DESCENT  # a = 3
        # cover t^3 = z^3 + 1: leading coefficient 1 is a cube
        assert specialize([1, 0, 0, 1], INFINITY).kind is DescentKind.DISCONNECTED

    def test_infinity_of_non_cubic_is_undefined(self):
        assert specialize([0, 1], INFINITY).kind is DescentKind.UNDEFINED
        assert specialize([1, 2, 3], INFINITY).kind is DescentKind.UNDEFINED

    @pytest.mark.parametrize("coeffs,kind", [
        ([6, 0, 0, 3], DescentKind.NO_DESCENT),                     # degree 3: 3
        ([1, 0, 0, 0, 1], DescentKind.UNDEFINED),                    # degree 4: branch point
        ([2, 0, 0, 0, 0, EisensteinInt(0, 1)], DescentKind.UNDEFINED),  # degree 5
        ([1, 0, 0, 0, 0, 0, EisensteinInt(0, 1)], DescentKind.DESCENDS),  # degree 6: w = form(0, 1)
        ([2, 0, 0, 0, 0, 0, 0, 0, 0, 1], DescentKind.DISCONNECTED),  # degree 9: the cube 1
    ])
    def test_infinity_by_degree(self, coeffs, kind):
        assert specialize(coeffs, INFINITY).kind is kind
        # In the chart z = 1/u, t = s/u^(e/3), e = 3*ceil(n/3), the cover is
        # s^3 = u^e f(1/u) and infinity is u = 0.
        e = -(-(len(coeffs) - 1) // 3) * 3
        chart = list(reversed(coeffs + [0] * (e + 1 - len(coeffs))))
        assert specialize(chart, 0).kind is kind

    def test_identity_cover(self):
        assert specialize([0, 1], 1).kind is DescentKind.DISCONNECTED
        assert specialize([0, 1], Fraction(1, 2)).kind is DescentKind.NO_DESCENT

    def test_eisenstein_coefficients_accepted(self):
        cls = specialize([EisensteinRational(EisensteinInt(6, 3)), 0, 1], 0)
        assert cls.kind is DescentKind.DESCENDS

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            specialize([5], 0)
        with pytest.raises(ValueError):
            specialize([0, 0, 0], 0)
