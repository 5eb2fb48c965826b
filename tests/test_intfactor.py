import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisdescent import intfactor
from eisdescent.intfactor import TRIAL_LIMIT, exact_cbrt, factor_int, icbrt, is_probable_prime

SEMIPRIME_64 = (2**32 - 5) * (2**32 - 17)


def test_small_factorizations():
    assert factor_int(1) == {}
    assert factor_int(2) == {2: 1}
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(10**12) == {2: 12, 5: 12}


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor_int(0)


def trial_division(n):
    """Reference factorization: divide by every d from 2 while d * d <= n."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def next_prime(n):
    while trial_division(n) != {n: 1}:
        n += 1
    return n


# primes on both sides of TRIAL_LIMIT = 10,000; 9973 is the largest below it
BOUNDARY_PRIMES = (9949, 9967, 9973, 10007, 10009, 10037)


@st.composite
def near_limit_products(draw):
    n = 2 ** draw(st.integers(0, 40)) * 3 ** draw(st.integers(0, 12))
    for p in BOUNDARY_PRIMES:
        n *= p ** draw(st.integers(0, 4))
    return n


def test_small_primes_are_the_primes_up_to_the_limit():
    expected = [p for p in range(2, TRIAL_LIMIT + 1) if trial_division(p) == {p: 1}]
    assert intfactor._SMALL_PRIMES == expected
    assert intfactor._PRIMORIAL == math.prod(expected)


@settings(max_examples=200, deadline=None)
@given(near_limit_products())
@example(1)
@example(9973 * 10007)
@example(2**40 * 3**7 * 9967**3)
def test_factor_int_matches_trial_division_near_the_limit(n):
    assert factor_int(n) == trial_division(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**7).map(next_prime))
@example(9973)
@example(10007)
@example(100_000_007)
def test_factor_int_of_a_prime(p):
    assert factor_int(p) == {p: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(TRIAL_LIMIT + 1, TRIAL_LIMIT**2 - 1)
       .filter(lambda n: max(trial_division(n)) > TRIAL_LIMIT))
@example(2 * 3**3 * 10007)
@example(9973 * 10009)
def test_factor_int_with_a_cofactor_above_the_limit(n):
    assert factor_int(n) == trial_division(n)


def test_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        fac = factor_int(n)
        prod = 1
        for p, e in fac.items():
            assert is_probable_prime(p), p
            prod *= p**e
        assert prod == n


def test_hard_semiprime():
    # both factors above the trial-division limit
    p, q = 1_000_003, 1_000_033
    assert factor_int(p * q) == {p: 1, q: 1}


def test_rho_budget_raises_fast(monkeypatch):
    assert factor_int(SEMIPRIME_64) == {2**32 - 5: 1, 2**32 - 17: 1}
    monkeypatch.setattr(intfactor, "RHO_STEPS", 1000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="64-bit cofactor"):
        factor_int(SEMIPRIME_64)
    assert time.perf_counter() - start < 1.0


def test_rho_step_is_charged_by_the_cofactor_size(monkeypatch):
    # two 150-bit primes: a step on their product costs ceil(bits/128)^2 = 9
    rng = random.Random(300)
    p, q = (next(n for n in iter(lambda: rng.getrandbits(150) | 1 << 149 | 1, 0)
                 if is_probable_prime(n)) for _ in range(2))
    assert 257 <= (p * q).bit_length() <= 384
    monkeypatch.setattr(intfactor, "RHO_STEPS", 9 * 1000)
    with pytest.raises(ValueError) as err:
        factor_int(p * q)
    spent = re.search(r"after (\d+) rho steps: a step on it costs 9 of the "
                      r"RHO_STEPS = 9000 units", str(err.value))
    assert spent and int(spent[1]) <= 1000


def test_one_budget_serves_every_split_of_a_call(monkeypatch):
    primes = [next(n for n in range(2**24 + 2**20 * i + 1, 2**25, 2) if is_probable_prime(n))
              for i in range(8)]
    offers, spends = [], []
    brent_rho = intfactor._brent_rho

    def spy(n, rng, units):
        g, spent = brent_rho(n, rng, units)
        offers.append(units)
        spends.append(spent)
        return g, spent

    monkeypatch.setattr(intfactor, "_brent_rho", spy)
    n = math.prod(primes)
    assert factor_int(n) == {p: 1 for p in primes}
    assert len(offers) >= 3
    assert offers == sorted(offers, reverse=True) and offers[0] < intfactor.RHO_STEPS
    # The same call with one unit left for its last split: the earlier splits
    # run as before (rho is seeded by n), and the last one gives up although a
    # budget per split of that size would have paid for every split.
    budget = intfactor.RHO_STEPS - offers[-1] + 1
    assert max(spends) + n.bit_length() * 4 < budget
    monkeypatch.setattr(intfactor, "RHO_STEPS", budget)
    with pytest.raises(ValueError, match=f"after 0 rho steps: .* RHO_STEPS = {budget} "
                                         "units a factor_int call may spend"):
        factor_int(n)


def test_tests_of_a_large_cofactor_are_charged_before_they_run():
    # 10007 is above TRIAL_LIMIT, so the whole power is the cofactor; its
    # primality and perfect-power tests cost bits * ceil(bits/128)^2 units,
    # more than RHO_STEPS = 2^22 once bits > 4096.
    n = 10007**309
    assert n.bit_length() == 4107
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"on a 4107-bit cofactor: its primality and "
                                         r"perfect-power tests cost 4107 steps, 4472523 of "
                                         r"the RHO_STEPS = 4194304 units"):
        factor_int(n)
    assert time.perf_counter() - start < 0.1


def test_repeated_primes_cost_one_rho_split(monkeypatch):
    p = next(n for n in range(2**35 + 1, 2**36, 2) if is_probable_prime(n))
    q = next(n for n in range(2**35 + 2**34 + 1, 2**36, 2) if is_probable_prime(n))
    calls = []
    brent_rho = intfactor._brent_rho
    monkeypatch.setattr(intfactor, "_brent_rho", lambda n, *args: calls.append(n) or brent_rho(n, *args))
    assert factor_int((p * q) ** 3) == {p: 3, q: 3}
    assert len(calls) <= 1
    calls.clear()
    assert factor_int(p**5 * q**2 * 7) == {7: 1, p: 5, q: 2}
    assert len(calls) <= 1


def test_perfect_powers_of_large_primes():
    p = 1_000_003
    for k in range(1, 8):
        assert factor_int(p**k) == {p: k}
    assert factor_int(p**6 * 1_000_033**4) == {p: 6, 1_000_033: 4}


def test_iroot_floor():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(0, 2 ** rng.randrange(1, 300))
        k = rng.randrange(2, 9)
        r = intfactor.iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_primality_edges():
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2**61 - 1)


def test_icbrt_exact_and_floor():
    for n in list(range(0, 200)) + [10**18, 10**18 + 1]:
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(0, 10**12)
        assert exact_cbrt(m**3) == m
        assert exact_cbrt(-(m**3)) == -m
    assert exact_cbrt(9) is None
    assert exact_cbrt(-10) is None
    with pytest.raises(ValueError):
        icbrt(-1)


def test_icbrt_matches_isqrt_style_bounds():
    # perfect cubes and off-by-one neighbours
    for m in (1, 7, 12, 10**6):
        c = m**3
        assert icbrt(c) == m
        assert icbrt(c - 1) == m - 1
        assert icbrt(c + 1) == m
        assert math.isqrt(m * m) == m  # sanity on the stdlib primitive we lean on
