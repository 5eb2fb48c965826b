"""Independent reference mathematics for checking eisdescent outputs.

Nothing here imports eisdescent: every check the benchmark makes rests on
this module's own arithmetic, so a defect in the code under test cannot
also hide itself in its own oracle.

Elements of Z[w] and Q(w) are plain pairs (a, b) meaning a + b*w, with
int or Fraction coordinates and w^2 = -1 - w.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

ONE = (1, 0)
W = (0, 1)
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))


# -- Z[w] / Q(w) arithmetic on pairs -------------------------------------

def mul(p, q):
    a, b = p
    c, d = q
    return (a * c - b * d, a * d + b * c - b * d)


def power(p, n: int):
    out = ONE
    for _ in range(n):
        out = mul(out, p)
    return out


def conj(p):
    a, b = p
    return (a - b, -b)


def norm(p):
    a, b = p
    return a * a - a * b + b * b


def scale(p, s):
    return (p[0] * s, p[1] * s)


def form(x, y):
    """(x + w y)^2 (x + w^2 y), computed as a product, not via the norm."""
    alpha = (x, y)
    return mul(mul(alpha, alpha), conj(alpha))


# -- integers --------------------------------------------------------------

# Deterministic Miller-Rabin bases for every n < 2^64 (Sinclair's set).
_MR64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Primality; exact below 2^64, probabilistic (47 prime bases) above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR64 if n < 1 << 64 else _SMALL_PRIMES
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_cbrt(n: int) -> int | None:
    """Exact integer cube root of n (any sign), or None.

    Bisection, started from a floating-point guess when n is small enough
    for the guess to be within one of the root.
    """
    m = abs(n)
    if m.bit_length() <= 96:
        guess = round(m ** (1 / 3))
        lo, hi = max(0, guess - 2), guess + 2
    else:
        lo, hi = 0, 1 << (m.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**3 < m:
            lo = mid + 1
        else:
            hi = mid
    if lo**3 != m:
        return None
    return -lo if n < 0 else lo


def is_rational_cube(q: Fraction) -> bool:
    return int_cbrt(q.numerator) is not None and int_cbrt(q.denominator) is not None


# -- element text ----------------------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_ELEMENT = re.compile(
    rf"(?P<x>{_RAT})(?:(?P<sign>[+-])(?P<y>\d+(?:/\d+)?)\*w)?|(?P<yonly>{_RAT})\*w"
)


def parse_element(text: str):
    """Parse the CLI's element output shape: "A/B+C/D*w", "-3", "1/2*w"."""
    m = _ELEMENT.fullmatch(text)
    if m is None:
        raise ValueError(f"not an element string: {text!r}")
    if m.group("yonly") is not None:
        return (Fraction(0), Fraction(m.group("yonly")))
    y = Fraction(m.group("y") or 0)
    if m.group("sign") == "-":
        y = -y
    return (Fraction(m.group("x")), y)


def format_element(p) -> str:
    """An input string in the CLI grammar for the element p."""
    x, y = Fraction(p[0]), Fraction(p[1])
    sign = "+" if y >= 0 else "-"
    return f"{x}{sign}{abs(y)}*w"


# -- finite rings Z[w]/(3^k) ------------------------------------------------

_ROWS = 64  # grid rows per numpy chunk, which keeps the oracle's memory small


def _mul_mod(a, b, c, d, m):
    return (a * c - b * d) % m, (a * d + b * c - b * d) % m


def _scan_bits(k: int, values) -> np.ndarray:
    """Bitset over Z[w]/(3^k) of values(first, second, m) across the grid."""
    m = 3**k
    bits = np.zeros(m * m, dtype=bool)
    second = np.arange(m, dtype=np.int64)[np.newaxis, :]
    for lo in range(0, m, _ROWS):
        first = np.arange(lo, min(lo + _ROWS, m), dtype=np.int64)[:, np.newaxis]
        va, vb = values(first, second, m)
        bits[(va * m + vb).ravel()] = True
    return bits


def _form_grid(x, y, m):
    sq = _mul_mod(x, y, x, y, m)
    return _mul_mod(sq[0], sq[1], (x - y) % m, (-y) % m, m)


def _cube_grid(a, b, m):
    sq = _mul_mod(a, b, a, b, m)
    return _mul_mod(sq[0], sq[1], a, b, m)


def _rhs_grid(a, b, m):
    ca, cb = _cube_grid(a, b, m)
    return (3 * (ca + 2)) % m, (3 * cb) % m


def form_image_bits(k: int) -> np.ndarray:
    return _scan_bits(k, _form_grid)


def cube_bits(k: int) -> np.ndarray:
    return _scan_bits(k, _cube_grid)


def rhs_bits(k: int) -> np.ndarray:
    return _scan_bits(k, _rhs_grid)


def closure_failures(k: int) -> int:
    """Number of (cube, form value) products that leave the form image."""
    m = 3**k
    image = form_image_bits(k)
    sv = np.nonzero(image)[0]
    sa, sb = sv // m, sv % m
    bad = 0
    for u in np.nonzero(cube_bits(k))[0].tolist():
        wa, wb = _mul_mod(u // m, u % m, sa, sb, m)
        bad += int(np.count_nonzero(~image[wa * m + wb]))
    return bad


def no_solution_counterexamples(k: int) -> list[tuple[int, int, int, int]]:
    """Sorted (x, y, za, zb) lex-first producers of each common value.

    Brute force in pure Python, so only for small k.
    """
    m = 3**k
    image: dict[tuple, tuple] = {}
    for x in range(m):
        for y in range(m):
            v = form(x, y)
            image.setdefault((v[0] % m, v[1] % m), (x, y))
    rhs: dict[tuple, tuple] = {}
    for za in range(m):
        for zb in range(m):
            c = power((za, zb), 3)
            rhs.setdefault(((3 * (c[0] + 2)) % m, (3 * c[1]) % m), (za, zb))
    return sorted(image[v] + rhs[v] for v in image.keys() & rhs.keys())


def congruent_mod(p, q, m: int) -> bool:
    return (p[0] - q[0]) % m == 0 and (p[1] - q[1]) % m == 0


def rhs_csv_bytes(k: int) -> bytes:
    """The exact CSV `dump-set rhs` must write: header then "a,b" rows in order."""
    m = 3**k
    values = np.nonzero(rhs_bits(k))[0]
    rows = [f"# ring=3^{k} set=rhs\n"]
    rows.extend(f"{v // m},{v % m}\n" for v in values.tolist())
    return "".join(rows).encode("ascii")


# -- rational points --------------------------------------------------------

def rationals_of_height(height: int) -> list[Fraction]:
    """Every p/q in lowest terms with max(|p|, q) <= height, by a gcd count."""
    out = [Fraction(0)]
    for p in range(1, height + 1):
        for q in range(1, height + 1):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
                out.append(Fraction(-p, q))
    return out
