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

import math
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
    f = Fraction(n, d)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_element(an: int, bn: int, den: int) -> str:
    """Render (an + bn*w)/den in the element grammar, lowest terms per part."""
    if an == 0 and bn == 0:
        return "0"
    s = ""
    if an != 0:
        s = _fmt_frac(an, den)
    if bn != 0:
        f = Fraction(bn, den)
        if s:
            s += "+" if f > 0 else "-"
            s += _fmt_frac(abs(f.numerator), f.denominator) + "*w"
        else:
            s = _fmt_frac(f.numerator, f.denominator) + "*w"
    return s


def _round_nearest(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (ties round up)."""
    return (2 * p + q) // (2 * q)


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
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self._a, self._b, other._a, other._b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

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
        t = self * other.conj()
        d = other.norm()
        q = EisensteinInt(_round_nearest(t._a, d), _round_nearest(t._b, d))
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
            return self.inverse() ** (-n)
        result = EisensteinRational(EisensteinInt(1, 0), 1)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


def _exact_div(alpha: EisensteinInt, beta: EisensteinInt) -> EisensteinInt:
    q, r = divmod(alpha, beta)
    if r:
        raise ValueError(f"{beta} does not divide {alpha}")
    return q


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
    v = 0
    while True:
        q, r = divmod(alpha, PI)
        if r:
            return v, alpha
        alpha = q
        v += 1


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


class Factorization:
    """Unit times a product of canonical prime powers, reproducing the input.

    Each prime is in canonical-associate form and either has prime integer
    norm or is an inert rational prime p = 2 (mod 3) of norm p^2.  Factors
    are distinct and sorted by (norm, a, b).
    """

    __slots__ = ("_unit", "_factors")

    def __init__(self, unit: EisensteinInt, factors) -> None:
        if unit not in UNITS:
            raise ValueError(f"{unit} is not a unit of Z[w]")
        self._unit = unit
        self._factors = tuple(factors)

    @property
    def unit(self) -> EisensteinInt:
        return self._unit

    @property
    def factors(self) -> tuple[tuple[EisensteinInt, int], ...]:
        return self._factors

    def value(self) -> EisensteinInt:
        out = self._unit
        for prime, exp in self._factors:
            out = out * prime**exp
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Factorization):
            return NotImplemented
        return self._unit == other._unit and self._factors == other._factors

    def __repr__(self) -> str:
        return f"Factorization({self._unit!r}, {self._factors!r})"

    def __str__(self) -> str:
        parts = [f"({p})^{e}" if e > 1 else f"({p})" for p, e in self._factors]
        head = str(self._unit)
        return " * ".join([head] + parts) if parts else head


def factor(alpha: EisensteinInt) -> Factorization:
    """Canonical prime factorization of a nonzero alpha in Z[w].

    Factors N(alpha) over Z, then lifts each rational prime: 3 contributes
    pi, p = 2 (mod 3) stays inert, and p = 1 (mod 3) splits into a canonical
    prime of norm p and its conjugate, with exponents read off by exact
    division.
    """
    alpha = _as_int_element(alpha)
    if not alpha:
        raise ValueError("cannot factor zero")
    remaining = alpha
    entries: list[tuple[EisensteinInt, int]] = []
    for p, e in sorted(factor_int(alpha.norm()).items()):
        if p == 3:
            for _ in range(e):
                remaining = _exact_div(remaining, PI)
            entries.append((PI, e))
        elif p % 3 == 2:
            if e % 2:
                raise AssertionError(f"odd exponent for inert prime {p}")
            inert = EisensteinInt(p, 0)
            for _ in range(e // 2):
                remaining = _exact_div(remaining, inert)
            entries.append((inert, e // 2))
        else:
            prime = _split_prime(p)
            e1 = 0
            while True:
                q, r = divmod(remaining, prime)
                if r:
                    break
                remaining = q
                e1 += 1
            conj_prime = canonical_associate(prime.conj())
            for _ in range(e - e1):
                remaining = _exact_div(remaining, conj_prime)
            if e1:
                entries.append((prime, e1))
            if e - e1:
                entries.append((conj_prime, e - e1))
    entries.sort(key=lambda pe: (pe[0].norm(), pe[0].a, pe[0].b))
    return Factorization(remaining, entries)


def _cube_root(a: int, b: int, n: int) -> tuple[int, int] | None:
    """(x, y) with (x + y*w)^3 = a + b*w and N(x + y*w) = n >= 0, or None.

    The cube roots beta, w*beta, w^2*beta of a + b*w all lie in Z[w] when
    one does, and their traces t = 2x - y are the three roots of
    t^3 - 3nt = 2a - b, because beta^3 + conj(beta)^3 = t^3 - 3nt.  The
    cubic decreases on [-sqrt(n), sqrt(n)], which holds one of them, so
    integer bisection finds it.  Then 3y^2 = 4n - t^2 and x = (t + y)/2
    leave beta and conj(beta), which share t and n; y >= 0 is tried first,
    and a candidate is returned only when it cubes to a + b*w exactly.
    """
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
    are cleared (a is a cube iff delta = num * den^2 is a cube in Z[w],
    because Z[w] is integrally closed), n = N(delta)^(1/3) must be an
    integer, and `_cube_root` decides with integer arithmetic alone; nothing
    is factored.  The root returned for a non-rational a is the unique one
    whose trace 2x - y lies in [-sqrt(N), sqrt(N)], N its norm: the traces
    of the three roots are distinct unless a is rational.  Every root
    returned cubes to a exactly.
    """
    a = _as_rational_element(a)
    if a is None:
        raise TypeError("is_cube expects an element of Q(w)")
    if a.is_rational():
        rn, rd = exact_cbrt(a.num.a), exact_cbrt(a.den)
        if rn is None or rd is None:
            return False, None
        return True, EisensteinRational(rn, rd)
    delta = a.num * (a.den * a.den)
    n = exact_cbrt(delta.norm())
    root = None if n is None else _cube_root(delta.a, delta.b, n)
    if root is None:
        return False, None
    return True, EisensteinRational(EisensteinInt(*root), a.den)
