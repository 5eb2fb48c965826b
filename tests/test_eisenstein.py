import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eisdescent import (
    OMEGA,
    PI,
    UNITS,
    EisensteinInt,
    EisensteinRational,
    canonical_associate,
    eisenstein_gcd,
    factor,
    is_cube,
    pi_valuation,
)
from eisdescent import eisenstein
from eisdescent.eisenstein import _cube_root
from eisdescent.intfactor import exact_cbrt, icbrt

W = OMEGA


def rand_int_element(rng, bound):
    while True:
        x = EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if x:
            return x


def rand_rational_element(rng, bound=30):
    return EisensteinRational.from_coords(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
    )


class TestRingBasics:
    def test_omega_minimal_polynomial(self):
        assert W * W == EisensteinInt(-1, -1)
        assert W * W + W + 1 == 0
        assert W**3 == 1

    def test_pi_squared_is_minus_three(self):
        assert PI * PI == EisensteinInt(-3, 0)
        assert PI.norm() == 3

    def test_inverse_of_omega(self):
        winv = EisensteinRational(W).inverse()
        assert winv == EisensteinRational(EisensteinInt(-1, -1))

    def test_mixed_int_arithmetic(self):
        assert 2 + W == EisensteinInt(2, 1)
        assert 3 * W - 1 == EisensteinInt(-1, 3)
        assert (1 - W) * (1 - W * W) == EisensteinInt(3, 0)

    def test_units_closed_under_mul_and_conj(self):
        units = set(UNITS)
        assert len(units) == 6
        for u in UNITS:
            assert u.norm() == 1
            assert u.conj() in units
            for v in UNITS:
                assert u * v in units


class TestConjugationAndNorm:
    def test_conj_examples(self):
        assert EisensteinInt(1, 2).conj() == EisensteinInt(-1, -2)
        assert PI.conj() == -PI
        assert EisensteinInt(5, 0).conj() == 5
        assert EisensteinInt(2, 3).conj().conj() == EisensteinInt(2, 3)

    def test_norm_examples(self):
        assert EisensteinInt(1, 2).norm() == 3
        assert EisensteinInt(5, 0).norm() == 25
        assert EisensteinInt(1, 1).norm() == 1  # 1 + w = -w^2 is a unit

    def test_norm_multiplicative_and_conj_invariant(self):
        rng = random.Random(1)
        for _ in range(300):
            x = rand_int_element(rng, 50)
            y = rand_int_element(rng, 50)
            assert (x * y).norm() == x.norm() * y.norm()
            assert x.conj().norm() == x.norm()
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()

    def test_rational_conj_is_field_automorphism(self):
        rng = random.Random(2)
        for _ in range(100):
            x = rand_rational_element(rng)
            y = rand_rational_element(rng)
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()
            assert x.conj().conj() == x
            assert x.norm() == x * x.conj()


class TestDivmod:
    def test_pi_divides_three(self):
        q, r = divmod(EisensteinInt(3, 0), PI)
        assert r == 0
        assert q * PI == 3

    def test_divide_by_one(self):
        alpha = EisensteinInt(17, -5)
        assert divmod(alpha, EisensteinInt(1, 0)) == (alpha, EisensteinInt(0, 0))

    def test_one_by_two(self):
        q, r = divmod(EisensteinInt(1, 0), EisensteinInt(2, 0))
        assert r != 0
        assert (EisensteinInt(1, 0) - q * 2).norm() < 4

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(EisensteinInt(1, 0), EisensteinInt(0, 0))

    def test_remainder_norm_shrinks(self):
        rng = random.Random(3)
        for _ in range(500):
            a = rand_int_element(rng, 10**6)
            b = rand_int_element(rng, 10**3)
            q, r = divmod(a, b)
            assert a == q * b + r
            assert r.norm() < b.norm()


class TestReflectedOperators:
    """The reflected operators, and the NotImplemented each binary operator
    returns for an operand outside its ring, so that Python tries the other
    operand's method or raises TypeError."""

    def test_int_divmod_and_floordiv_by_an_element(self):
        rng = random.Random(31)
        for _ in range(200):
            n, beta = rng.randint(-10**6, 10**6), rand_int_element(rng, 10**3)
            q, r = divmod(n, beta)  # int.__divmod__ declines; __rdivmod__ runs
            assert (q, r) == divmod(EisensteinInt(n), beta)
            assert n == q * beta + r and r.norm() < beta.norm()
            assert EisensteinInt(n) // beta == q
            assert EisensteinInt(n) % beta == r
        # 7 conj(pi) / N(pi) = (-7 - 14w)/3 rounds to -2 - 5w; 3/pi = -pi exactly
        assert divmod(7, PI) == (EisensteinInt(-2, -5), EisensteinInt(-1, -1))
        assert EisensteinInt(3) // PI == -PI

    def test_int_and_fraction_minus_an_element(self):
        assert 3 - EisensteinInt(1, 1) == EisensteinInt(2, -1)
        a = EisensteinRational(EisensteinInt(1, 2), 3)
        assert 1 - a == EisensteinRational(EisensteinInt(2, -2), 3)
        assert Fraction(1, 2) - a == EisensteinRational(EisensteinInt(1, -4), 6)
        assert W - a == EisensteinRational(EisensteinInt(-1, 1), 3)
        rng = random.Random(32)
        for _ in range(200):
            x, y = rand_rational_element(rng), rand_rational_element(rng)
            n = rng.randint(-50, 50)
            assert n - x == EisensteinRational(n) - x and (n - x) + x == n
            assert x.num - y == EisensteinRational(x.num) - y

    def test_int_fraction_and_element_divided_by_a_rational(self):
        a = EisensteinRational(EisensteinInt(1, 2), 3)
        assert 1 / a == a.inverse() == EisensteinRational(EisensteinInt(-1, -2), 1)
        assert Fraction(2, 3) / a == EisensteinRational(EisensteinInt(-2, -4), 3)
        assert W / EisensteinRational(2) == EisensteinRational(W, 2)
        rng = random.Random(33)
        for _ in range(200):
            x = rand_rational_element(rng)
            if x:
                n = rng.randint(-50, 50)
                assert n / x == EisensteinRational(n) / x and (n / x) * x == n
        with pytest.raises(ZeroDivisionError):
            1 / EisensteinRational(0)

    def test_an_int_element_defers_to_a_rational_operand(self):
        # EisensteinInt's operators return NotImplemented for a rational, and
        # EisensteinRational's reflected operators give the exact answer
        a, h = EisensteinInt(2, 1), EisensteinRational(1, 2)
        assert a + h == EisensteinRational(EisensteinInt(5, 2), 2)
        assert a - h == EisensteinRational(EisensteinInt(3, 2), 2)
        assert a * h == EisensteinRational(a, 2)
        assert a == EisensteinRational(a) and a != h

    @pytest.mark.parametrize("other", [1.5, "1", None, 1j])
    def test_operands_outside_the_ring_raise_type_error(self, other):
        a, x = EisensteinInt(2, 1), EisensteinRational(EisensteinInt(2, 1), 3)
        assert a != other and x != other
        assert not (a == other or x == other)
        ops = [lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u / v, lambda u, v: u ** v, divmod, lambda u, v: u // v,
               lambda u, v: u % v]
        for u in (a, x):
            for op in ops:
                with pytest.raises(TypeError):
                    op(u, other)
                with pytest.raises(TypeError):
                    op(other, u)

    def test_powers_outside_their_range_raise_type_error(self):
        with pytest.raises(TypeError):
            EisensteinInt(2, 1) ** -1
        with pytest.raises(TypeError):
            EisensteinInt(2, 1) ** Fraction(1, 2)
        with pytest.raises(TypeError):
            EisensteinRational(2) ** Fraction(1, 2)
        assert EisensteinRational(2) ** -2 == EisensteinRational(1, 4)
        with pytest.raises(TypeError, match="cannot build EisensteinRational from 1.5"):
            EisensteinRational(1.5)


class TestGcd:
    def test_examples(self):
        assert eisenstein_gcd(EisensteinInt(3, 0), PI) == PI
        assert eisenstein_gcd(EisensteinInt(12, -7), EisensteinInt(1, 0)) == 1
        assert eisenstein_gcd(EisensteinInt(6, 0), EisensteinInt(4, 0)) == 2

    def test_gcd_of_zero_and_alpha(self):
        assert eisenstein_gcd(EisensteinInt(0, 0), EisensteinInt(0, 3)) == \
            canonical_associate(EisensteinInt(0, 3))

    def test_gcd_zero_zero_raises(self):
        with pytest.raises(ValueError):
            eisenstein_gcd(EisensteinInt(0, 0), EisensteinInt(0, 0))

    def test_divides_both_and_common_divisors_divide_it(self):
        rng = random.Random(4)
        for _ in range(100):
            d = rand_int_element(rng, 30)
            a = d * rand_int_element(rng, 30)
            b = d * rand_int_element(rng, 30)
            g = eisenstein_gcd(a, b)
            assert a % g == 0
            assert b % g == 0
            assert g % d == 0


class TestCanonicalAssociate:
    def test_norm_three_maps_to_pi(self):
        for u in UNITS:
            assert canonical_associate(u * PI) == PI

    def test_rule_positive_a_lex_minimal(self):
        rng = random.Random(5)
        for _ in range(200):
            x = rand_int_element(rng, 40)
            c = canonical_associate(x)
            associates = [u * x for u in UNITS]
            assert c in associates
            if x.norm() != 3:
                candidates = [(y.a, y.b) for y in associates if y.a > 0]
                assert (c.a, c.b) == min(candidates)
            for y in associates:
                assert canonical_associate(y) == c

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_associate(EisensteinInt(0, 0))


class TestPiValuation:
    def test_examples(self):
        v, cof = pi_valuation(EisensteinInt(3, 0))
        assert v == 2 and cof.norm() == 1
        assert pi_valuation(PI) == (1, EisensteinInt(1, 0))
        assert pi_valuation(EisensteinInt(1, 1)) == (0, EisensteinInt(1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pi_valuation(EisensteinInt(0, 0))

    def test_consistency_with_norm_and_factor(self):
        rng = random.Random(6)
        for _ in range(100):
            x = rand_int_element(rng, 500)
            v, cof = pi_valuation(x)
            assert PI**v * cof == x
            n = x.norm()
            v3 = 0
            while n % 3 == 0:
                n //= 3
                v3 += 1
            assert v3 == v
            exps = dict((p, e) for p, e in factor(x).factors)
            assert exps.get(PI, 0) == v


class TestFactor:
    def test_pi_cubed_times_unit(self):
        f = factor(EisensteinInt(6, 3))
        assert f.unit == W
        assert f.factors == ((PI, 3),)
        assert f.value() == EisensteinInt(6, 3)

    def test_split_seven(self):
        f = factor(EisensteinInt(7, 0))
        assert f.value() == 7
        assert len(f.factors) == 2
        for p, e in f.factors:
            assert p.norm() == 7
            assert e == 1
            assert canonical_associate(p) == p

    def test_unit_input(self):
        f = factor(EisensteinInt(-1, 0))
        assert f.unit == -1
        assert f.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(EisensteinInt(0, 0))

    def test_inert_prime_has_square_norm(self):
        f = factor(EisensteinInt(10, 0))
        primes = {(p.a, p.b): e for p, e in f.factors}
        assert primes[(2, 0)] == 1  # 2 is inert, norm 4
        assert f.value() == 10

    def test_roundtrip_500_random_norm_up_to_1e12(self):
        from eisdescent.intfactor import is_probable_prime

        rng = random.Random(8)
        seen_norm = 0
        for _ in range(500):
            x = rand_int_element(rng, 577_000)
            assert x.norm() <= 10**12
            seen_norm = max(seen_norm, x.norm())
            f = factor(x)
            assert f.value() == x
            assert f.unit in UNITS
            prev = None
            for p, e in f.factors:
                assert e >= 1
                assert canonical_associate(p) == p
                n = p.norm()
                # split/ramified primes have prime norm; inert ones are
                # rational primes p = 2 (mod 3) of norm p^2
                assert is_probable_prime(n) or (
                    p.b == 0 and p.a % 3 == 2 and is_probable_prime(p.a)
                    and n == p.a * p.a
                )
                key = (n, p.a, p.b)
                if prev is not None:
                    assert prev < key
                prev = key
        assert seen_norm > 10**10  # the sample really exercises large norms

    def test_prime_with_60_bit_norm_is_fast(self):
        from eisdescent.intfactor import is_probable_prime

        rng = random.Random(60)
        while True:
            x = EisensteinInt(rng.randint(2**29, 2**30), rng.randint(-2**30, -2**29))
            n = x.norm()
            if n.bit_length() == 60 and is_probable_prime(n):
                break
        start = time.perf_counter()
        f = factor(x)
        assert time.perf_counter() - start < 1.0
        assert f.value() == x
        assert len(f.factors) == 1
        prime, e = f.factors[0]
        assert e == 1 and prime.norm() == n

    def test_exponents_are_read_from_alpha(self, monkeypatch):
        rng = random.Random(13)
        inputs = [EisensteinInt(6, 3), EisensteinInt(10, 0), EisensteinInt(7, 0)]
        inputs += [rand_int_element(rng, 10**4) * 9 * 7 for _ in range(30)]
        cases = [(x, factor(x), eisenstein.factor_int(x.norm())) for x in inputs]
        for x, expected, counts in cases:
            for p in counts:
                # an over-reported exponent (odd for an inert p): exponents
                # still come from alpha, so the result does not change
                over = dict(counts)
                over[p] += 1
                monkeypatch.setattr(eisenstein, "factor_int", lambda n, c=over: dict(c))
                assert factor(x) == expected
                # a dropped prime leaves a non-unit behind
                dropped = {q: e for q, e in counts.items() if q != p}
                monkeypatch.setattr(eisenstein, "factor_int", lambda n, c=dropped: dict(c))
                with pytest.raises(ValueError, match="is not a unit"):
                    factor(x)

    def test_split_prime_rejects_non_split_input(self):
        from eisdescent.eisenstein import _split_prime

        for p in (5, 91):  # 5 = 2 (mod 3); 91 = 7 * 13 is not prime
            with pytest.raises(ValueError):
                _split_prime(p)


class TestIsCube:
    def test_examples(self):
        ok, root = is_cube(EisensteinRational(EisensteinInt(-27, 0), 8))
        assert ok and root == EisensteinRational.from_coords(Fraction(-3, 2), 0)
        assert is_cube(EisensteinRational(W)) == (False, None)
        assert is_cube(EisensteinRational(EisensteinInt(6, 3))) == (False, None)
        ok, root = is_cube(EisensteinRational(0))
        assert ok and root == EisensteinRational(0)

    def test_witness_always_cubes_back(self):
        rng = random.Random(9)
        for _ in range(100):
            beta = rand_rational_element(rng, 9)
            ok, root = is_cube(beta**3)
            assert ok
            assert root**3 == beta**3

    def test_units_times_cubes(self):
        rng = random.Random(10)
        for _ in range(50):
            beta = rand_rational_element(rng, 6)
            if not beta:
                continue
            cube = beta**3
            assert is_cube(cube * W)[0] is False
            assert is_cube(cube * EisensteinInt(1, 1))[0] is False
            assert is_cube(-cube)[0] is True

    def test_root_rule(self):
        # rational input: the real root
        assert is_cube(Fraction(-27, 8)) == (True, Fraction(-3, 2))
        assert is_cube(8) == (True, 2)
        assert is_cube(-1) == (True, -1)
        assert is_cube(Fraction(4, 27)) == (False, None)
        # otherwise the one root whose trace 2x - y lies in [-sqrt(N), sqrt(N)]:
        # of 2+w, w(2+w) = -1+w and w^2(2+w) = -1-2w (traces 3, -3, 0; N = 3)
        # it is -1-2w
        two_w = EisensteinInt(2, 1)
        assert is_cube(two_w**3) == (True, EisensteinInt(-1, -2))
        assert is_cube(EisensteinRational(two_w**3, 27)) == (
            True, EisensteinRational(EisensteinInt(-1, -2), 3))
        assert is_cube(PI**3) == (True, PI)  # trace 0
        # 3+w, -1+2w, -2-3w have traces 5, -4, -1 and N = 7
        assert is_cube(125 * EisensteinInt(3, 1)**3) == (True, EisensteinInt(-10, -15))

    def test_root_trace_lies_in_the_middle(self):
        rng = random.Random(11)
        for _ in range(200):
            beta = rand_rational_element(rng, 40)
            if beta.is_rational():
                continue
            ok, root = is_cube(beta**3 * rng.choice((1, -1)))
            x, y = root.num.a, root.num.b
            assert ok and (2 * x - y) ** 2 <= x * x - x * y + y * y
            assert root in (beta, beta * W, beta * W * W, -beta, -beta * W, -beta * W * W)


def strip_by_divmod(alpha, prime):
    """The reference for `_strip`: the Euclidean divide-out loop it replaced."""
    e = 0
    while True:
        q, r = divmod(alpha, prime)
        if r:
            return e, alpha
        alpha, e = q, e + 1


def _above(p):
    prime = eisenstein._split_prime(p)
    return [prime, canonical_associate(prime.conj())]


# pi, inert primes, and both primes above split primes
STRIP_PRIMES = [PI, EisensteinInt(2), EisensteinInt(5), EisensteinInt(11)]
STRIP_PRIMES += _above(7) + _above(13) + _above(97) + _above(1_000_003)

coordinates = st.one_of(st.integers(-50, 50), st.integers(-2**200, 2**200))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(STRIP_PRIMES), st.integers(0, 6), coordinates, coordinates,
       st.sampled_from(UNITS))
@example(PI, 6, 2**200, -2**200, UNITS[1])
@example(_above(7)[1], 3, 0, 1, UNITS[2])
def test_strip_and_pi_valuation_match_the_divmod_loop(prime, j, x, y, unit):
    assume(x or y)
    alpha = unit * prime**j * EisensteinInt(x, y)
    for p in STRIP_PRIMES:
        e, cofactor = eisenstein._strip(alpha, p)
        assert (e, cofactor) == strip_by_divmod(alpha, p)
        assert isinstance(cofactor, EisensteinInt)
    assert eisenstein._strip(alpha, prime)[0] >= j
    assert pi_valuation(alpha) == strip_by_divmod(alpha, PI)


def cube_by_factoring(delta):
    """Oracle: delta != 0 is a cube iff every prime exponent is divisible by
    3 and the unit is 1 or -1 (the cubes of the six units)."""
    f = factor(delta)
    return all(e % 3 == 0 for _, e in f.factors) and f.unit in (1, -1)


def test_cube_root_decision_matches_factoring():
    rng = random.Random(12)
    seen = set()
    for i in range(3000):
        if i % 2:
            delta = rand_int_element(rng, 10**4)
        else:
            delta = rand_int_element(rng, 21) ** 3 * rng.choice(UNITS)
        n = exact_cbrt(delta.norm())
        root = None if n is None else _cube_root(delta.a, delta.b, n)
        assert (root is not None) == cube_by_factoring(delta)
        if root is not None:
            assert EisensteinInt(*root) ** 3 == delta
        seen.add(root is not None)
    assert seen == {True, False}


def test_cube_residue_tables_are_the_cube_residues():
    assert eisenstein._CUBES_MOD_7 == {x ** 3 % 7 for x in range(7)}
    assert eisenstein._CUBES_MOD_13 == {x ** 3 % 13 for x in range(13)}
    # _cube_root sends w to 2 and 4 mod 7, to 3 and 9 mod 13
    for p, roots in ((7, [2, 4]), (13, [3, 9])):
        assert [x for x in range(p) if (x * x + x + 1) % p == 0] == roots
    assert [(m, w) for m, w, _ in eisenstein._RESIDUE_MAPS] == [(7, 2), (7, 4), (13, 3), (13, 9)]
    tables = eisenstein._cube_residue_tables()
    for (m, w, cubes), (tm, tw, table) in zip(eisenstein._RESIDUE_MAPS, tables, strict=True):
        assert (tm, tw) == (m, w) and table.dtype == bool
        assert table.nonzero()[0].tolist() == sorted(cubes)
    assert eisenstein._cube_residue_tables() is tables


def test_cube_root_matches_brute_force_over_a_box():
    box = 100
    cubes = {}
    for x in range(-8, 9):
        for y in range(-8, 9):
            c = EisensteinInt(x, y) ** 3
            if abs(c.a) <= box and abs(c.b) <= box:
                cubes[c.a, c.b] = (x, y)
    # cubes of multiples of 91 = 7 * 13 map to 0 under every residue map,
    # and so do their products with w, which only the bisection rejects
    big = []
    for x in range(-2, 3):
        for y in range(-2, 3):
            c = EisensteinInt(91 * x, 91 * y) ** 3
            cubes[c.a, c.b] = (91 * x, 91 * y)
            big += [c, c * OMEGA, c + EisensteinInt(1, 0), c + EisensteinInt(0, 91 ** 3)]
    elements = [EisensteinInt(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    for g in elements + big:
        n = icbrt(g.norm())
        root = _cube_root(g.a, g.b, n)
        if (g.a, g.b) in cubes:
            assert root is not None and EisensteinInt(*root) ** 3 == g, g
        else:
            assert root is None, g


def test_cube_root_rejects_a_residue_miss_before_bisecting():
    # w p^3 with 7 not dividing p is 2 p^3 or 4 p^3 mod 7, never a cube residue
    p = 10 ** 30 + 1
    with mock.patch.object(eisenstein.math, "isqrt", side_effect=AssertionError("bisected")):
        assert _cube_root(0, p ** 3, p * p) is None


coordinate = st.integers(-(2**64), 2**64)


@settings(max_examples=300, deadline=None)
@given(coordinate, coordinate, st.sampled_from(UNITS))
def test_unit_times_cube_is_a_cube_iff_unit_is_plus_or_minus_one(x, y, unit):
    beta = EisensteinInt(x, y)
    if not beta:
        beta = EisensteinInt(1, 0)
    ok, root = is_cube(unit * beta**3)
    assert ok is (unit in (1, -1))
    if ok:
        assert root**3 == unit * beta**3


def reference_format(an, bn, den):
    """(an + bn*w)/den rendered part by part through Fraction."""
    a, b = Fraction(an, den), Fraction(bn, den)
    if not (a or b):
        return "0"
    text = str(a) if a else ""
    if b:
        if text:
            text += ("+" if b > 0 else "-") + str(abs(b)) + "*w"
        else:
            text = str(b) + "*w"
    return text


small = st.integers(-30, 30)


@settings(max_examples=500, deadline=None)
@given(small | coordinate, small | coordinate, st.integers(1, 36) | st.integers(1, 2**64))
def test_format_element_matches_fraction_reference(an, bn, den):
    assert eisenstein._format_element(an, bn, den) == reference_format(an, bn, den)


@pytest.mark.parametrize("an,bn,den,text", [
    (0, 0, 1, "0"), (0, 0, 7, "0"), (4, 0, 1, "4"), (0, -4, 1, "-4*w"),
    (6, -9, 12, "1/2-3/4*w"), (-6, 9, 3, "-2+3*w"), (0, 5, 10, "1/2*w"), (-3, 0, 9, "-1/3"),
])
def test_format_element_cases(an, bn, den, text):
    assert eisenstein._format_element(an, bn, den) == text
    assert str(EisensteinRational(EisensteinInt(an, bn), den)) == text


class TestEisensteinRational:
    def test_always_reduced(self):
        x = EisensteinRational(EisensteinInt(6, -9), -12)
        assert x.den > 0
        from math import gcd
        assert gcd(gcd(abs(x.num.a), abs(x.num.b)), x.den) == 1
        assert x == EisensteinRational(EisensteinInt(-2, 3), 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            EisensteinRational(EisensteinInt(1, 0), 0)

    def test_inverse_and_divide(self):
        rng = random.Random(11)
        for _ in range(100):
            x = rand_rational_element(rng)
            if not x:
                continue
            assert x * x.inverse() == 1
            y = rand_rational_element(rng)
            assert (y / x) * x == y

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            EisensteinRational(0).inverse()

    def test_field_axioms_spot_check(self):
        rng = random.Random(12)
        for _ in range(100):
            x = rand_rational_element(rng)
            y = rand_rational_element(rng)
            z = rand_rational_element(rng)
            assert (x + y) * z == x * z + y * z
            assert x + (y + z) == (x + y) + z
            assert x * (y * z) == (x * y) * z

    def test_fraction_interop(self):
        x = EisensteinRational.from_coords(Fraction(1, 2), Fraction(-5, 3))
        assert x.coords == (Fraction(1, 2), Fraction(-5, 3))
        assert x * Fraction(6) == EisensteinRational(EisensteinInt(3, -10), 1)
        assert EisensteinRational(EisensteinInt(3, 0), 6) == Fraction(1, 2)
        assert hash(EisensteinRational(EisensteinInt(3, 0), 6)) == hash(Fraction(1, 2))

    def test_equal_values_hash_equal(self):
        groups = [
            [1, Fraction(1), EisensteinInt(1), EisensteinRational(1)],
            [-7, Fraction(-14, 2), EisensteinInt(-7, 0), EisensteinRational(EisensteinInt(-21), 3)],
            [Fraction(1, 2), EisensteinRational(EisensteinInt(3, 0), 6)],
            [EisensteinInt(1, 1), EisensteinRational(EisensteinInt(1, 1))],
            [EisensteinInt(-4, 6), EisensteinRational(EisensteinInt(-8, 12), 2)],
        ]
        for group in groups:
            for x in group:
                for z in group:
                    assert x == z and hash(x) == hash(z), (x, z)
            assert len(set(group)) == 1, group
        assert EisensteinInt(1, 1) != Fraction(1) and EisensteinInt(2) != Fraction(1, 2)
        rng = random.Random(13)
        for _ in range(200):
            x = rand_int_element(rng, 10**6)
            assert len({x, EisensteinRational(x)}) == 1

    def test_powers_including_negative(self):
        x = EisensteinRational(PI, 2)
        assert x**3 * x**-3 == 1
        assert x**0 == 1
        rng = random.Random(14)
        checked = 0
        while checked < 200:
            x = rand_rational_element(rng)
            if x.den == 1 or not x:
                continue
            checked += 1
            for n in range(-4, 7):
                expected = EisensteinRational(1)
                for _ in range(abs(n)):
                    expected = expected * x
                if n < 0:
                    expected = expected.inverse()
                assert x**n == expected, (x, n)
        with pytest.raises(ZeroDivisionError):
            EisensteinRational(0) ** -1
