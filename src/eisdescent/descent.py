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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .eisenstein import (
    PI,
    EisensteinInt,
    EisensteinRational,
    _as_rational_element,
    is_cube,
)
from .intfactor import exact_cbrt

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
    N(a)/r^2 = r, so form(a/r) = (a/r) * r = a.  So a has a preimage exactly
    when N(a) is a rational cube; `DescentWitness` evaluates the form on it.
    For a = 0 the preimage is (0, 0).
    """
    a = _as_rational_element(a)
    if a is None:
        raise TypeError("descent_form_preimage expects an element of Q(w)")
    if not a:
        return DescentWitness(Fraction(0), Fraction(0), EisensteinRational(0))
    n = a.norm()
    rn = exact_cbrt(n.numerator)
    if rn is None:
        return None
    rd = exact_cbrt(n.denominator)
    if rd is None:
        return None
    x, y = (a / Fraction(rn, rd)).coords
    return DescentWitness(x, y, a)


def classify(a) -> DescentClassification:
    """Classify the specialization of t^3 = z at a point a of Q(w) or infinity.

    0 and infinity are Undefined (branch locus); a nonzero cube is
    Disconnected; a non-cube value of the descent form Descends with its
    witness; anything else does not descend.
    """
    if a is INFINITY:
        return DescentClassification(DescentKind.UNDEFINED)
    a = _as_rational_element(a)
    if a is None:
        raise TypeError("classify expects an element of Q(w) or INFINITY")
    if not a:
        return DescentClassification(DescentKind.UNDEFINED)
    cube, _ = is_cube(a)
    if cube:
        return DescentClassification(DescentKind.DISCONNECTED)
    witness = descent_form_preimage(a)
    if witness is not None:
        return DescentClassification(DescentKind.DESCENDS, witness)
    return DescentClassification(DescentKind.NO_DESCENT)


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


def _cover_coefficients(coefficients: Sequence) -> tuple[list[EisensteinRational], int]:
    """f of t^3 = f(z) as elements of Q(w), constant term first, and its degree.

    Raises TypeError for an entry that is not in Q(w) and ValueError when f
    has degree < 1.
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
    return coeffs, degree


def _value_at_infinity(coeffs: Sequence, degree: int) -> Optional[EisensteinRational]:
    """The value of t^3 = f(z) at infinity, or None when infinity is a branch point.

    With e = 3*ceil(n/3) for f of degree n, the chart z = 1/u, t = s/u^(e/3)
    gives s^3 = u^e f(1/u), whose value at u = 0 is the leading coefficient
    c_n when 3 divides n and 0 otherwise.
    """
    return coeffs[degree] if degree % 3 == 0 else None


def specialize(coefficients: Sequence, z0) -> DescentClassification:
    """Classify the specialization of t^3 = f(z) at z = z0 (or infinity).

    `coefficients` lists f from the constant term up.  When 3 divides the
    degree of f, infinity is not a branch point and is classified by the
    leading coefficient of f; for other degrees it is classified Undefined.
    """
    coeffs, degree = _cover_coefficients(coefficients)
    if z0 is INFINITY:
        a = _value_at_infinity(coeffs, degree)
        if a is None:
            return DescentClassification(DescentKind.UNDEFINED)
        return classify(a)
    z0 = Fraction(z0)
    acc = coeffs[degree]
    for i in range(degree - 1, -1, -1):
        acc = acc * z0 + coeffs[i]
    return classify(acc)
