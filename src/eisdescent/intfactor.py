"""Exact integer helpers: factorization and integer cube roots.

Everything here is plain-integer arithmetic (no floating point anywhere);
the rest of the package relies on these results being exact.  Only
`eisenstein.factor`, and so only the `factor` command, factors: `classify`,
`solve` and `search` use the integer roots alone, so the rho budget below
and its usage error never apply to them.

Factorization first takes out every prime up to TRIAL_LIMIT: one gcd with
their product, _PRIMORIAL (built once at import), names the ones that
divide n, and only those are divided out.  Brent's variant of Pollard rho
splits what is left, with a deterministic Miller-Rabin test to decide when
to stop.  Rho's work grows like the square root of the cofactor's
smallest prime factor, and the cost of one step (a modular squaring and a
product) with the cofactor's size.  So a factor_int call may spend
RHO_STEPS = 2^22 units in all, a rho step on a b-bit cofactor costing
ceil(b/128)^2 of them, and the Miller-Rabin and perfect-power tests that
precede each split b steps, charged before they run.  One split may take
up to 2^22 steps up to 128 bits, 2^20 up to 256, and a cofactor above
4,096 bits is refused before its tests.  Past the budget the call gives up
with ValueError, whose message names the bound.  On a 2-core x86 VM
(Python 3.11), products of two random primes split in 0.01-0.06 s at 64
bits and 0.2-1.0 s at 80 bits; at 88 bits three split in 0.2-1.5 s and
four gave up after 1.7-2.6 s.  Rho gave up after 2.2-3.1 s at 96 bits and
2.2 s at 128.  The prime 2^3217 - 1 passes its tests in 1.2 s.  A norm
made of 80, 120 or 160 split primes of 22 bits (1,760-3,520 bits) gives
up after 0.16-0.25 s, where a budget per split factored it in 0.55-3.4 s,
and one of 300 such primes, like that of a random 1,000-digit element,
gives up at once.  A prime already found is divided out of every later
cofactor, and a perfect power r^k is reduced to r before any rho run, so
repeated primes, as in (pq)^3, cost one split, not one per copy.
"""

from __future__ import annotations

import math
from random import Random

TRIAL_LIMIT = 10_000
RHO_STEPS = 1 << 22


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


_SMALL_PRIMES = _primes_upto(TRIAL_LIMIT)
_PRIMORIAL = math.prod(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _step_units(bits: int) -> int:
    """The units of RHO_STEPS that one step on b-bit integers costs: ceil(b/128)^2."""
    return (-(-bits // 128)) ** 2


def _brent_rho(n: int, rng: Random, units: int) -> tuple[int, int]:
    """One nontrivial factor of composite odd n (Brent's cycle finding), and
    the units spent.  Raises ValueError rather than spend more than `units`."""
    unit = _step_units(n.bit_length())
    limit = units // unit
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            # a round costs at most 2r squarings; the last is cut to what is left
            r = min(r, (limit - steps) // 2)
            if not r:
                raise ValueError(f"factoring gave up on a {n.bit_length()}-bit "
                                 f"cofactor after {steps} rho steps: a step on it "
                                 f"costs {unit} of the RHO_STEPS = {RHO_STEPS} "
                                 f"units a factor_int call may spend")
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps * unit


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor_int requires n >= 1")
    factors: dict[int, int] = {}
    # g is the squarefree product of n's primes up to TRIAL_LIMIT, so the
    # walk stops at the largest of them.
    g = math.gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n == 1:
        return factors
    # Remaining cofactor has no prime factor below TRIAL_LIMIT.  Entries are
    # (cofactor, multiplicity); primes already found and perfect powers are
    # taken out before rho, so a repeated prime costs no second rho run.
    rng = Random(n)
    left = RHO_STEPS
    stack = [(n, 1)]
    found: list[int] = []
    while stack:
        m, e = stack.pop()
        for p in found:
            while m % p == 0:
                factors[p] += e
                m //= p
        if m == 1:
            continue
        # the primality and perfect-power tests below cost b rho steps
        bits = m.bit_length()
        cost = bits * _step_units(bits)
        if cost > left:
            raise ValueError(f"factoring gave up on a {bits}-bit cofactor: its primality "
                             f"and perfect-power tests cost {bits} steps, {cost} of the "
                             f"RHO_STEPS = {RHO_STEPS} units a factor_int call may "
                             f"spend, and {left} are left")
        left -= cost
        if is_probable_prime(m):
            factors[m] = e
            found.append(m)
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
            continue
        g, spent = _brent_rho(m, rng, left)
        left -= spent
        stack.append((m // g, e))
        stack.append((g, e))
    return factors


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k and k >= 2 least, or (m, 1), for m free of primes
    up to TRIAL_LIMIT: then r > TRIAL_LIMIT >= 2^13, which bounds k."""
    # the least such k is prime, as r^(ab) = (r^b)^a; _SMALL_PRIMES runs past
    # the bound on k for every m below 2^130,000
    for k in _SMALL_PRIMES:
        if k > m.bit_length() // (TRIAL_LIMIT.bit_length() - 1):
            break
        r = iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def iroot(n: int, k: int) -> int:
    """Floor of the real k-th root of n >= 0 (k >= 2), by integer Newton
    iteration from above."""
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0."""
    return iroot(n, 3)


def exact_cbrt(n: int) -> int | None:
    """Integer cube root of n (any sign) if n is a perfect cube, else None."""
    neg = n < 0
    r = icbrt(-n if neg else n)
    if r * r * r != abs(n):
        return None
    return -r if neg else r
