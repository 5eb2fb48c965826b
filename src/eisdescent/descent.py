"""Arithmetic-descent classification for the cyclic cube cover t^3 = z over Q(w).

The Q(w)-rational points of the cover whose specialization is a field
extension descending to Q are exactly the values of the descent form

    form(x, y) = (x + w y)^2 (x + w^2 y) = (x + w y) * N(x + w y),   x, y in Q,

minus the cubes of Q(w).  A nonzero cube means the fiber is disconnected; 0
and the point at infinity lie on the branch locus and are classified
Undefined.  The form is inverted constructively: form(x, y) = a forces
N(x + w y) = N(a)^(1/3), so the only candidate is a divided by that rational
cube root.

The descended extension itself is never built; instead the commutation of
the two Galois actions is certified by the radical-free identity
a^2 = conj(a) * (x + w y)^3, which a valid witness satisfies exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .eisenstein import (
    PI,
    EisensteinInt,
    EisensteinRational,
    _as_rational_element,
    _cleared,
    _cube_root,
    is_cube,  # unused here; perfbench/tracer.py binds descent.is_cube
)
from .intfactor import exact_cbrt, icbrt

__all__ = [
    "INFINITY",
    "DescentClassification",
    "DescentKind",
    "DescentWitness",
    "InvalidWitnessError",
    "NotDivisibleError",
    "classify",
    "descent_form",
    "descent_form_preimage",
    "galois_commutes",
    "pi_divides_both_factors",
    "reduce_by_pi",
    "specialize",
]


class NotDivisibleError(ValueError):
    """Raised when a pi-divisibility precondition fails."""


class InvalidWitnessError(ValueError):
    """Raised when a claimed witness does not evaluate to its value."""


class _InfinityType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()


def descent_form(x, y) -> EisensteinRational:
    """form(x, y) = (x + w y) * N(x + w y) for rational x, y."""
    alpha = EisensteinRational.from_coords(x, y)
    return alpha * alpha.norm()


@dataclass(frozen=True)
class DescentWitness:
    """Rational (x, y) with form(x, y) equal to `value` (checked here)."""

    x: Fraction
    y: Fraction
    value: EisensteinRational

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if descent_form(self.x, self.y) != self.value:
            raise InvalidWitnessError(
                f"form({self.x}, {self.y}) != {self.value}"
            )


class DescentKind(Enum):
    DESCENDS = "Descends"
    DISCONNECTED = "Disconnected"
    NO_DESCENT = "NoDescent"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class DescentClassification:
    """Verdict for one specialization point; witness present iff Descends."""

    kind: DescentKind
    witness: Optional[DescentWitness] = None

    def __post_init__(self) -> None:
        if (self.kind is DescentKind.DESCENDS) != (self.witness is not None):
            raise ValueError("witness must accompany exactly the Descends kind")

    def __str__(self) -> str:
        if self.witness is not None:
            return f"{self.kind.value}(x={self.witness.x}, y={self.witness.y})"
        return self.kind.value


def descent_form_preimage(a) -> Optional[DescentWitness]:
    """The unique rational (x, y) with form(x, y) = a, if any.

    N(form(x, y)) = N(x + w y)^3, so N(a) must be the cube of a rational
    r >= 0, and the only candidate is x + w y = a / r.  Conversely, every
    nonzero a whose norm is a rational cube r^3 is a form value: N(a/r) =
    N(a)/r^2 = r, so form(a/r) = (a/r) * r = a.  N(a) = N(G)/den^6 for
    G = den^3 a in Z[w], so it is a rational cube exactly when the integer
    N(G) is a perfect cube R^3, and then a/r = G/(R den); `DescentWitness`
    evaluates the form on it.  For a = 0 the preimage is (0, 0).
    """
    a, ga, gb = _cleared(a, "descent_form_preimage expects an element of Q(w)")
    r = exact_cbrt(ga * ga - ga * gb + gb * gb)
    if r is None:
        return None
    return _witness(a, ga, gb, r) if r else DescentWitness(0, 0, a)


def _witness(a, ga: int, gb: int, r: int) -> DescentWitness:
    """The witness x + w y = G/(r den) of a = G/den^3, where r^3 = N(G) > 0."""
    return DescentWitness(Fraction(ga, r * a.den), Fraction(gb, r * a.den), a)


def _classify_integral(ga: int, gb: int) -> tuple[str, int]:
    """The kind of the specialization at G = ga + gb*w in Z[w], and r.

    kind is a `DescentKind` value and r = floor(N(G)^(1/3)); G/r is the
    witness when G Descends.  0 is Undefined (branch locus).  If G is a
    cube b^3 or a form value form(x, y), its norm is N(b)^3 or
    N(x + w y)^3, the cube of a rational; N(G) is an integer, so it is then
    a perfect integer cube.  A G whose N(G) is not one is NoDescent after
    one integer cube root.  Past that filter N(G) = r^3 with r >= 1, and
    every such G is a form value: N(G/r) = N(G)/r^2 = r, so
    form(G/r) = (G/r) * r = G.  G is therefore Disconnected when it is a
    cube and Descends with the witness G/r otherwise.  A cube root b of G
    has N(b) = r, so `_cube_root` on G, r decides with integers alone, and
    Disconnected rests on an exact b^3 = G; `_past_norm_filter` makes that
    last step.
    """
    if not (ga or gb):
        return "Undefined", 0
    norm = ga * ga - ga * gb + gb * gb
    r = icbrt(norm)
    if r * r * r != norm:
        return "NoDescent", r
    return _past_norm_filter(ga, gb, r), r


def _past_norm_filter(ga: int, gb: int, r: int) -> str:
    """The kind of G = ga + gb*w with N(G) = r^3, r >= 1: Disconnected when
    G is a cube, Descends (with the witness G/r) otherwise; see
    `_classify_integral`."""
    return "Disconnected" if _cube_root(ga, gb, r) is not None else "Descends"


def classify(a) -> DescentClassification:
    """Classify the specialization of t^3 = z at a point a of Q(w) or infinity.

    0 and infinity are Undefined (branch locus); a nonzero cube is
    Disconnected; a non-cube value of the descent form Descends with its
    witness; anything else does not descend.  a is classified by
    `_classify_integral` on G = den^3 * a, which has the same kind since
    den^3 is a cube, and the witness G/r of G gives a's witness G/(r den).
    """
    if a is INFINITY:
        return DescentClassification(DescentKind.UNDEFINED)
    a, ga, gb = _cleared(a, "classify expects an element of Q(w) or INFINITY")
    kind, r = _classify_integral(ga, gb)
    witness = _witness(a, ga, gb, r) if kind == "Descends" else None
    return DescentClassification(DescentKind(kind), witness)


def galois_commutes(a, witness: DescentWitness) -> bool:
    """Check a^2 = conj(a) * (x + w y)^3 exactly for a witness of a != 0.

    This is the radical-free form of the statement that conjugation extends
    to the specialization field compatibly with the cyclic cover action.
    """
    a = _as_rational_element(a)
    if a is None or not a:
        raise InvalidWitnessError("galois_commutes requires a nonzero value")
    if descent_form(witness.x, witness.y) != a:
        raise InvalidWitnessError("witness does not evaluate to the value")
    alpha = EisensteinRational.from_coords(witness.x, witness.y)
    return a * a == a.conj() * alpha**3


def reduce_by_pi(x: int, y: int) -> tuple[int, int]:
    """Integers (x', y') with form(x', y') * pi^3 = form(x, y).

    Requires pi | form(x, y), equivalently pi | (x + w y); then
    x' + w y' = -(x + w y) / pi does the job, since N(pi) = 3 = -pi^2.
    """
    beta = EisensteinInt(x, y)
    q, r = divmod(beta, PI)
    if r:
        raise NotDivisibleError("pi does not divide the form at this point")
    return -q.a, -q.b


def pi_divides_both_factors(x: int, y: int) -> bool:
    """Given pi | form(x, y) for integers x, y, check pi divides both linear
    factors (x + w y) and (x + w^2 y).  True for every valid input; exposed
    as a directly testable proposition."""
    beta = EisensteinInt(x, y)
    gamma = beta.conj()  # x + w^2 y
    form = beta * beta * gamma
    if divmod(form, PI)[1]:
        raise NotDivisibleError("pi does not divide the form at this point")
    return divmod(beta, PI)[1] == 0 and divmod(gamma, PI)[1] == 0


def _cover_coefficients(coefficients: Sequence) -> tuple[list, list, int, int]:
    """f of t^3 = f(z) as elements of Q(w), constant term first, and in integer form.

    The integer form is scaled, D^3 c_i as coordinate pairs from the leading
    coefficient c_n down, with D the lcm of the denominators, then D and
    e = 3*ceil(n/3).  Raises TypeError for an entry that is not in Q(w) and
    ValueError when f has degree < 1.
    """
    coeffs = []
    for c in coefficients:
        ce = _as_rational_element(c)
        if ce is None:
            raise TypeError(f"bad coefficient {c!r}")
        coeffs.append(ce)
    degree = -1
    for i, c in enumerate(coeffs):
        if c:
            degree = i
    if degree < 1:
        raise ValueError("cover polynomial must have degree >= 1")
    d = math.lcm(*(c.den for c in coeffs))
    d3 = d ** 3
    scaled = [(c.num.a * (d3 // c.den), c.num.b * (d3 // c.den))
              for c in reversed(coeffs[:degree + 1])]
    return coeffs, scaled, d, -(-degree // 3) * 3


def _homogeneous_value(scaled, e: int, p, q, m: int = 0) -> tuple:
    """G(p, q) = sum of D^3 c_i p^i q^(e-i), the cover at the point (p : q) of P^1.

    scaled and e are those of `_cover_coefficients`.  G is homogeneous of
    degree e, a multiple of 3.  At p/q, G = (D q^(e/3))^3 f(p/q) is f(p/q)
    times a cube, so it has the classification of f(p/q).  At infinity,
    (1 : 0), G = D^3 c_e: D^3 times the leading coefficient when 3 | n, and
    0 (a branch point) otherwise.  `search` runs the same loop on Python
    ints at each point of a block past its int64 bound, and on a block's
    int64 arrays of points within it, where with m = 0 it is exact while
    every value fits, which `search` proves from the bound before the call.
    With m > 0 each step is reduced mod m, giving G mod m for `search`'s
    prefilter; p, q and scaled must then lie in [0, m), and for m <= 2^20 no
    value reaches 2^60 (c_e q^(e-n) and q^(e-n+1) with e - n <= 2).
    """
    ga = gb = 0
    qk = q ** (e + 1 - len(scaled))  # q^(e-n), then one more q per term
    for ca, cb in scaled:
        ga = ga * p + ca * qk
        gb = gb * p + cb * qk
        qk *= q
        if m:
            ga, gb, qk = ga % m, gb % m, qk % m
    return ga, gb


def specialize(coefficients: Sequence, z0) -> DescentClassification:
    """Classify the specialization of t^3 = f(z) at z = z0 (or infinity).

    `coefficients` lists f from the constant term up.  z0 = p/q is the point
    (p : q) of P^1 and INFINITY is (1 : 0); the value there is G(p, q)/s^3
    of `_homogeneous_value`, with s = D q^(e/3), or s = D at infinity.
    """
    coeffs, scaled, d, e = _cover_coefficients(coefficients)
    p, q = (1, 0) if z0 is INFINITY else Fraction(z0).as_integer_ratio()
    ga, gb = _homogeneous_value(scaled, e, p, q)
    s = d * q ** (e // 3) if q else d
    return classify(EisensteinRational(EisensteinInt(ga, gb), s ** 3))
