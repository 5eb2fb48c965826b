"""Exact integer helpers: factorization and integer cube roots.

Everything here is plain-integer arithmetic (no floating point anywhere);
the rest of the package relies on these results being exact.  Only
`eisenstein.factor`, and so only the `factor` command, factors: `classify`,
`solve` and `search` use the integer roots alone, so the rho budget below
and its usage error never apply to them.

Factorization is trial division for small primes followed by Brent's
variant of Pollard rho, with a deterministic Miller-Rabin test to decide
when to stop.  Rho's work grows like the square root of the cofactor's
smallest prime factor, so each rho split gives up with ValueError after
RHO_STEPS = 2^22 modular squarings: 2.5-3.3 s on a 96-bit cofactor on a
2-core x86 VM (Python 3.11), where products of two random primes took
0.06 s at 64 bits, 0.7-1.1 s at 80 bits and 0.7-1.4 s at 88 bits, and two
at 96 bits gave up.  A call makes fewer splits than it has prime factors
above TRIAL_LIMIT (with multiplicity), so its rho work is at most RHO_STEPS
times that count.  A prime already found is divided out of every later
cofactor, and a perfect power r^k is reduced to r before any rho run, so
repeated primes, as in (pq)^3, cost one split, not one per copy.
"""

from __future__ import annotations

import math
from random import Random

TRIAL_LIMIT = 10_000
RHO_STEPS = 1 << 22

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


def _brent_rho(n: int, rng: Random) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle finding).

    Raises ValueError rather than pass RHO_STEPS modular squarings."""
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            if steps + 2 * r > RHO_STEPS:  # a round costs at most 2r squarings
                raise ValueError(f"factoring gave up on a {n.bit_length()}-bit "
                                 f"cofactor after {steps} rho steps")
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
            return g


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor_int requires n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d <= TRIAL_LIMIT and d * d <= n:
        for step in (0, 2):  # 6k-1, 6k+1
            q = d + step
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        d += 6
    if n == 1:
        return factors
    # Remaining cofactor has no prime factor below TRIAL_LIMIT.  Entries are
    # (cofactor, multiplicity); primes already found and perfect powers are
    # taken out before rho, so a repeated prime costs no second rho run.
    rng = Random(n)
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
        if is_probable_prime(m):
            factors[m] = e
            found.append(m)
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
            continue
        g = _brent_rho(m, rng)
        stack.append((m // g, e))
        stack.append((g, e))
    return factors


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k and k >= 2 least, or (m, 1), for m free of primes
    up to TRIAL_LIMIT: then r > TRIAL_LIMIT >= 2^13, which bounds k."""
    for k in range(2, m.bit_length() // (TRIAL_LIMIT.bit_length() - 1) + 1):
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
