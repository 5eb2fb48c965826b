"""Exact arithmetic in Z[w] and Q(w), where w is a primitive cube root of unity.

Elements are written a + b*w with w satisfying w^2 = -1 - w.  The ring Z[w]
is norm-Euclidean (norm N(a+b*w) = a^2 - a*b + b^2), hence a PID; the prime
above 3 is pi = 1 + 2*w, with pi^2 = -3 and N(pi) = 3.  The nontrivial field
automorphism (complex conjugation) sends w to w^2, i.e. a + b*w to
(a - b) - b*w.

All coordinates are arbitrary-precision integers; rationals in Q(w) are kept
as a Z[w] numerator over a positive integer denominator, always in lowest
terms.  Values are immutable and every operation is pure, so everything here
is safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .intfactor import exact_cbrt, factor_int

__all__ = [
    "EisensteinInt",
    "EisensteinRational",
    "Factorization",
    "OMEGA",
    "PI",
    "UNITS",
    "canonical_associate",
    "eisenstein_gcd",
    "factor",
    "is_cube",
    "pi_valuation",
]


def _fmt_frac(n: int, d: int) -> str:
    """n/d in lowest terms for d >= 1, as an integer when d divides n."""
    g = math.gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _format_element(an: int, bn: int, den: int) -> str:
    """Render (an + bn*w)/den, den >= 1, in the element grammar, lowest terms per part."""
    if an == 0 and bn == 0:
        return "0"
    s = ""
    if an != 0:
        s = _fmt_frac(an, den)
    if bn != 0:
        if s:
            s += "+" if bn > 0 else "-"
            s += _fmt_frac(abs(bn), den) + "*w"
        else:
            s = _fmt_frac(bn, den) + "*w"
    return s


def _mul(a, b, c, d):
    """(a + b w)(c + d w), w^2 = -1 - w, as coordinates: ints or int64 arrays."""
    return a * c - b * d, a * d + b * c - b * d


class EisensteinInt:
    """An element a + b*w of Z[w]."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int = 0) -> None:
        self._a = int(a)
        self._b = int(b)

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    def __repr__(self) -> str:
        return f"EisensteinInt({self._a}, {self._b})"

    def __str__(self) -> str:
        return _format_element(self._a, self._b, 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._a == other and self._b == 0
        if isinstance(other, EisensteinInt):
            return self._a == other._a and self._b == other._b
        if isinstance(other, Fraction):
            return self._b == 0 and other == self._a
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __add__(self, other):
        other = _as_int_element(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_int_element(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self._a - other._a, self._b - other._b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self._a, -self._b)

    def __mul__(self, other):
        other = _as_int_element(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(*_mul(self._a, self._b, other._a, other._b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> EisensteinInt:
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = EisensteinInt(1, 0)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> EisensteinInt:
        """Galois conjugate (w -> w^2): a + b*w -> (a - b) - b*w."""
        return EisensteinInt(self._a - self._b, -self._b)

    def norm(self) -> int:
        """Field norm a^2 - a*b + b^2; nonnegative, zero only at zero."""
        return self._a * self._a - self._a * self._b + self._b * self._b

    def __divmod__(self, other):
        """Norm-Euclidean division: self = q*other + r with N(r) < N(other).

        q is obtained by rounding the exact coordinates of self/other to
        nearest integers, which gives N(r) <= (3/4) N(other).
        """
        other = _as_int_element(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Z[w]")
        ta, tb = _mul(self._a, self._b, other._a - other._b, -other._b)  # self conj(other)
        d = other.norm()
        q = EisensteinInt((2 * ta + d) // (2 * d), (2 * tb + d) // (2 * d))  # ties round up
        r = self - q * other
        return q, r

    def __rdivmod__(self, other):
        other = _as_int_element(other)
        if other is None:
            return NotImplemented
        return divmod(other, self)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]


def _as_int_element(x) -> EisensteinInt | None:
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return None


OMEGA = EisensteinInt(0, 1)
PI = EisensteinInt(1, 2)

# The unit group of Z[w]: 1, -1, w, -w, w^2, -w^2.
UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(-1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(0, -1),
    EisensteinInt(-1, -1),
    EisensteinInt(1, 1),
)


class EisensteinRational:
    """An element of Q(w): a Z[w] numerator over a positive integer denominator.

    Always stored in lowest terms (gcd of both numerator coordinates and the
    denominator is 1) with denominator > 0, so equality is coordinatewise.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den: int = 1) -> None:
        n = _as_int_element(num)
        if n is None:
            raise TypeError(f"cannot build EisensteinRational from {num!r}")
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            n, den = -n, -den
        g = math.gcd(math.gcd(abs(n.a), abs(n.b)), den)
        if g > 1:
            n = EisensteinInt(n.a // g, n.b // g)
            den //= g
        self._num = n
        self._den = den

    @classmethod
    def from_coords(cls, x, y) -> EisensteinRational:
        """Build x + y*w from rational coordinates x, y."""
        x = Fraction(x)
        y = Fraction(y)
        den = math.lcm(x.denominator, y.denominator)
        num = EisensteinInt(x.numerator * (den // x.denominator),
                            y.numerator * (den // y.denominator))
        return cls(num, den)

    @property
    def num(self) -> EisensteinInt:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @property
    def coords(self) -> tuple[Fraction, Fraction]:
        """Rational coordinates (x, y) with self = x + y*w."""
        return Fraction(self._num.a, self._den), Fraction(self._num.b, self._den)

    def is_rational(self) -> bool:
        return self._num.b == 0

    def __repr__(self) -> str:
        return f"EisensteinRational({self._num!r}, {self._den})"

    def __str__(self) -> str:
        return _format_element(self._num.a, self._num.b, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # Equal to the hash of the equal int, Fraction or EisensteinInt.
        if self._den == 1:
            return hash(self._num)
        if self._num.b == 0:
            return hash(Fraction(self._num.a, self._den))
        return hash((self._num.a, self._num.b, self._den))

    def __add__(self, other):
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return EisensteinRational(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> EisensteinRational:
        return EisensteinRational(-self._num, self._den)

    def __mul__(self, other):
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return EisensteinRational(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> EisensteinRational:
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        # 1/(n/d) = d * conj(n) / N(n)
        return EisensteinRational(self._num.conj() * self._den, self._num.norm())

    def __truediv__(self, other):
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_rational_element(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> EisensteinRational:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** -n
        return EisensteinRational(self._num**n, self._den**n)

    def conj(self) -> EisensteinRational:
        return EisensteinRational(self._num.conj(), self._den)

    def norm(self) -> Fraction:
        return Fraction(self._num.norm(), self._den * self._den)


def _as_rational_element(x) -> EisensteinRational | None:
    if isinstance(x, EisensteinRational):
        return x
    if isinstance(x, (int, EisensteinInt)):
        return EisensteinRational(x, 1)
    if isinstance(x, Fraction):
        return EisensteinRational(EisensteinInt(x.numerator, 0), x.denominator)
    return None


def _cleared(a, error: str) -> tuple[EisensteinRational, int, int]:
    """a in Q(w) as (a, ga, gb): G = ga + gb*w = den^3 a = num den^2 is in
    Z[w] for a = num/den.  Raises TypeError(error) for anything else."""
    a = _as_rational_element(a)
    if a is None:
        raise TypeError(error)
    return a, a.num.a * a.den ** 2, a.num.b * a.den ** 2


def canonical_associate(alpha: EisensteinInt) -> EisensteinInt:
    """The canonical representative among the six associates of alpha != 0.

    Rule: the associate with a > 0 whose (a, b) is lexicographically least,
    except that elements of norm 3 (the associates of pi) are represented by
    pi = 1 + 2*w itself.  This pins factorizations and gcds to one output.
    """
    if not alpha:
        raise ValueError("zero has no canonical associate")
    if alpha.norm() == 3:
        return PI
    a, b = alpha.a, alpha.b
    # alpha, w*alpha, w^2*alpha and their negatives, as coordinate pairs
    turns = ((a, b), (-b, a - b), (b - a, -a))
    return EisensteinInt(*min(c for x, y in turns for c in ((x, y), (-x, -y)) if c[0] > 0))


def eisenstein_gcd(alpha: EisensteinInt, beta: EisensteinInt) -> EisensteinInt:
    """Canonical-associate generator of the ideal (alpha, beta), not both zero."""
    alpha = _as_int_element(alpha)
    beta = _as_int_element(beta)
    if not alpha and not beta:
        raise ValueError("gcd(0, 0) is undefined")
    while beta:
        _, r = divmod(alpha, beta)
        alpha, beta = beta, r
    return canonical_associate(alpha)


def pi_valuation(alpha: EisensteinInt) -> tuple[int, EisensteinInt]:
    """(v, cofactor) with alpha = pi^v * cofactor and pi not dividing cofactor.

    v equals the 3-adic valuation of N(alpha), since pi is the only prime
    above 3 and N(pi) = 3.
    """
    alpha = _as_int_element(alpha)
    if not alpha:
        raise ValueError("pi-adic valuation of zero is undefined")
    return _strip(alpha, PI)


def _strip(alpha: EisensteinInt, prime: EisensteinInt) -> tuple[int, EisensteinInt]:
    """(e, cofactor) with alpha = prime^e * cofactor and prime not dividing cofactor;
    prime divides a + b*w iff N(prime) divides both coordinates of (a + b*w) conj(prime)."""
    a, b = alpha.a, alpha.b
    c, d, n = prime.a - prime.b, -prime.b, prime.norm()  # conj(prime), N(prime)
    e = 0
    while True:
        ta, tb = _mul(a, b, c, d)
        if ta % n or tb % n:
            return e, EisensteinInt(a, b)
        a, b = ta // n, tb // n
        e += 1


def _split_prime(p: int) -> EisensteinInt:
    """A canonical prime of norm p for a rational prime p = 1 (mod 3).

    t = g^((p-1)/3) mod p, for the first g with t != 1, is a primitive cube
    root of unity mod p, so p divides t^2 + t + 1 = (t - w)(t - w^2) and
    gcd(p, t - w) is a prime of norm p.
    """
    if p % 3 == 1:
        for g in range(2, p):
            t = pow(g, (p - 1) // 3, p)
            if t != 1:
                prime = eisenstein_gcd(EisensteinInt(p, 0), EisensteinInt(t, -1))
                if prime.norm() == p:
                    return prime
                break
    raise ValueError(f"{p} is not a split prime")


@dataclass(frozen=True)
class Factorization:
    """unit * prod(prime^e for prime, e in factors), as `factor` returns it.

    Each prime is in canonical-associate form and either has prime integer
    norm or is an inert rational prime p = 2 (mod 3) of norm p^2; `factor`
    gives distinct factors sorted by (norm, a, b).  Construction raises
    ValueError when `unit` is not one of the six units of Z[w]: this is
    `factor`'s final check, the one that catches a prime `factor_int` missed.
    """

    unit: EisensteinInt
    factors: tuple[tuple[EisensteinInt, int], ...]

    def __post_init__(self) -> None:
        if self.unit not in UNITS:
            raise ValueError(f"{self.unit} is not a unit of Z[w]")
        object.__setattr__(self, "factors", tuple(self.factors))

    def value(self) -> EisensteinInt:
        out = self.unit
        for prime, exp in self.factors:
            out = out * prime**exp
        return out

    def __str__(self) -> str:
        parts = [f"({p})^{e}" if e > 1 else f"({p})" for p, e in self.factors]
        head = str(self.unit)
        return " * ".join([head] + parts) if parts else head


def factor(alpha: EisensteinInt) -> Factorization:
    """Canonical prime factorization of a nonzero alpha in Z[w].

    One loop over the primes above each rational p dividing N(alpha), as
    `factor_int` reports them: pi for p = 3, p itself for an inert
    p = 2 (mod 3), and for a split p = 1 (mod 3) a canonical prime of norm p
    and the canonical associate of its conjugate.  Each prime is divided out
    of alpha until it no longer divides, so exponents are read from alpha
    itself, not from N(alpha).  What is left must be a unit: if `factor_int`
    missed a prime, the `Factorization` built from the leftover raises
    ValueError.
    """
    alpha = _as_int_element(alpha)
    if not alpha:
        raise ValueError("cannot factor zero")
    entries: list[tuple[EisensteinInt, int]] = []
    for p in factor_int(alpha.norm()):
        if p == 3:
            primes = (PI,)
        elif p % 3 == 2:
            primes = (EisensteinInt(p),)
        else:
            prime = _split_prime(p)
            primes = (prime, canonical_associate(prime.conj()))
        for prime in primes:
            e, alpha = _strip(alpha, prime)
            if e:
                entries.append((prime, e))
    entries.sort(key=lambda pe: (pe[0].norm(), pe[0].a, pe[0].b))
    return Factorization(alpha, entries)


# The cube residues modulo the split primes 7 and 13.  w maps to 2 and to 4
# mod 7, and to 3 and to 9 mod 13, the roots of x^2 + x + 1 there.
_CUBES_MOD_7 = frozenset({0, 1, 6})
_CUBES_MOD_13 = frozenset({0, 1, 5, 8, 12})
_RESIDUE_MAPS = ((7, 2, _CUBES_MOD_7), (7, 4, _CUBES_MOD_7),
                 (13, 3, _CUBES_MOD_13), (13, 9, _CUBES_MOD_13))  # (m, w mod m, cubes)


@functools.cache
def _cube_residue_tables() -> tuple:
    """(m, w mod m, a bool table True at the cube residues mod m) for each
    map of _RESIDUE_MAPS: `_cube_root`'s residue tests, for int64 arrays."""
    import numpy as np

    return tuple((m, w, np.isin(np.arange(m), sorted(cubes))) for m, w, cubes in _RESIDUE_MAPS)


def _cube_root(a: int, b: int, n: int) -> tuple[int, int] | None:
    """(x, y) with (x + y*w)^3 = a + b*w and N(x + y*w) = n >= 0, or None.

    Residues first: sending w to a root of x^2 + x + 1 mod 7 or mod 13 is a
    ring map from Z[w] onto that residue field, so a cube of Z[w] lands on a
    cube residue under each of the four maps; a + b*w that misses one is no
    cube.  A non-cube passes all four with probability about 2.7 %.
    The cube roots beta, w*beta, w^2*beta of a + b*w all lie in Z[w] when
    one does, and their traces t = 2x - y are the three roots of
    t^3 - 3nt = 2a - b, because beta^3 + conj(beta)^3 = t^3 - 3nt.  The
    cubic decreases on [-sqrt(n), sqrt(n)], which holds one of them, so
    integer bisection finds it.  Then 3y^2 = 4n - t^2 and x = (t + y)/2
    leave beta and conj(beta), which share t and n; y >= 0 is tried first,
    and a candidate is returned only when it cubes to a + b*w exactly.
    """
    if any((a + w * b) % m not in cubes for m, w, cubes in _RESIDUE_MAPS):
        return None
    trace = 2 * a - b
    lo = -math.isqrt(n)
    hi = -lo
    # least t in [lo, hi] with t^3 - 3nt <= trace
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * (mid * mid - 3 * n) > trace:
            lo = mid + 1
        else:
            hi = mid
    t = lo
    if t * (t * t - 3 * n) != trace:
        return None
    y2, rem = divmod(4 * n - t * t, 3)
    s = math.isqrt(y2)
    if rem or s * s != y2 or (t + s) % 2:
        return None
    for y in (s, -s):
        x = (t + y) // 2
        # (x + y*w)^3 = (x^3 - 3xy^2 + y^3) + 3xy(x - y)*w
        if x * (x * x - 3 * y * y) + y * y * y == a and 3 * x * y * (x - y) == b:
            return x, y
    return None


def is_cube(a) -> tuple[bool, EisensteinRational | None]:
    """Decide whether a in Q(w) is a cube; return a cube root if so.

    A rational a is a cube in Q(w) exactly when it is one in Q, and the root
    returned is then the real one (-3/2 for -27/8).  Otherwise denominators
    are cleared (a is a cube iff G = num * den^2 = den^3 a is a cube in Z[w],
    because Z[w] is integrally closed), n = N(G)^(1/3) must be an
    integer, and `_cube_root` decides with integer arithmetic alone; nothing
    is factored.  The root returned for a non-rational a is the unique one
    whose trace 2x - y lies in [-sqrt(N), sqrt(N)], N its norm: the traces
    of the three roots are distinct unless a is rational.  Every root
    returned cubes to a exactly.
    """
    a, ga, gb = _cleared(a, "is_cube expects an element of Q(w)")
    if a.is_rational():
        rn, rd = exact_cbrt(a.num.a), exact_cbrt(a.den)
        if rn is None or rd is None:
            return False, None
        return True, EisensteinRational(rn, rd)
    n = exact_cbrt(ga * ga - ga * gb + gb * gb)
    root = None if n is None else _cube_root(ga, gb, n)
    if root is None:
        return False, None
    return True, EisensteinRational(EisensteinInt(*root), a.den)
