"""Height-ordered enumeration of rational points and descent search over a cover.

The height of p/q in lowest terms (q > 0) is max(|p|, q).  The search walks
every rational of height at most H plus the point at infinity, classifies
the specialization of t^3 = f(z) at each, and reports the tally; for the
cover t^3 = 3(z^3 + 2) no point descends, at any height.

A point is classified on an integer element of Z[w], never on f(z) itself,
and each step is exact:

* Cube scaling.  Let D be the lcm of the coefficient denominators and
  e = 3*ceil(n/3) for f of degree n.  With s = D * q^(e/3),
  G = s^3 f(p/q) = sum of D^3 c_i p^i q^(e-i) lies in Z[w].  Multiplying or
  dividing by the cube s^3 keeps cubes cubes, and form values form values,
  since s^3 form(x, y) = form(s x, s y) for the homogeneous cubic form.  So
  G and f(z) have the same classification, and the witness of f(z) is that
  of G divided by s.
* Homogeneous evaluation.  p and q are integers, so G is two integer
  Horner sums, one per coordinate, with no fraction anywhere.
* Norm filter.  If G is a cube b^3 or a form value form(x, y), its norm is
  N(b)^3 or N(x + w y)^3, the cube of a rational; N(G) is an integer, so it
  is then a perfect integer cube.  A point whose N(G) is not one is
  NoDescent after one integer cube root.
* Past the filter, N(G) = r^3 for an integer r >= 1, and every such G is a
  form value: N(G/r) = N(G)/r^2 = r, so form(G/r) = (G/r) * r = G.  G is
  therefore Disconnected when it is a cube and Descends with the witness
  G/r otherwise.  A cube root b of G has N(b) = r, so `_cube_root` on G, r
  decides with integers alone, and Disconnected rests on an exact b^3 = G.
  A Descends point is checked once, in Z[w]: the form, G^2 conj(G) = r^3 G
  (form(G/r) = G times r^3), and the Galois identity of `galois_commutes`
  for f(z) = G/s^3 and x + w y = G/(r s), which is G^2 r^3 = conj(G) G^3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .descent import (
    INFINITY,
    DescentKind,
    _cover_coefficients,
    galois_commutes,  # unused here; perfbench/tracer.py binds search.galois_commutes
    specialize,
)
from .eisenstein import EisensteinInt, EisensteinRational, _cube_root
from .intfactor import icbrt
from .reports import fingerprint, make_document

__all__ = ["MAX_SEARCH_POINTS", "SearchReport", "enumerate_rationals", "search"]

# The one bound on the walk, checked against (2H + 1) * H + 1 >= the number of
# points of height <= H (p in [-H, H], q in [1, H], plus infinity) before it
# starts.  The largest height it allows is 499, 303,664 points.  There the CLI
# took 15.3 s and peaked at 619 MB on t^3 = w z^3, where every finite nonzero
# point descends and each finding is held until the report is written, and
# 1.3 s and 33 MB on t^3 = 3(z^3 + 2) (2-core x86 VM, Python 3.11).
MAX_SEARCH_POINTS = 500_000


def _lowest_terms(height: int) -> Iterator[tuple[int, int]]:
    """(p, q) with q >= 1 and gcd(p, q) = 1 for every p/q of height <= height.

    Each value appears exactly once, in nondecreasing height; 0 = 0/1
    (height 1) comes first.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    yield 0, 1
    for h in range(1, height + 1):
        for q in range(1, h + 1):
            if math.gcd(h, q) == 1:
                yield h, q
                yield -h, q
        for p in range(1, h):
            if math.gcd(p, h) == 1:
                yield p, h
                yield -p, h


def enumerate_rationals(height: int) -> Iterator[Fraction]:
    """All p/q in lowest terms with |p| <= height and 1 <= q <= height, in
    the order `search` visits them: nondecreasing height, 0 first."""
    return (Fraction(p, q) for p, q in _lowest_terms(height))


@dataclass(frozen=True)
class SearchReport:
    """Classification tally for one cover and height bound.

    counts covers the finite points and infinity, so its values sum to
    n_points; every Descends finding carries its witness and has passed the
    Galois-commutation identity.
    """

    height: int
    coefficients: tuple[str, ...]
    counts: dict[str, int]
    n_points: int
    descends: tuple[dict, ...]
    infinity: dict
    elapsed_s: float

    @property
    def params(self) -> dict:
        return {"coeffs": list(self.coefficients), "height": self.height}

    @property
    def input_fingerprint(self) -> str:
        return fingerprint(self.params)

    def to_document(self) -> dict:
        report = {
            "height": self.height,
            "coefficients": list(self.coefficients),
            "counts": dict(sorted(self.counts.items())),
            "n_points": self.n_points,
            "descends": list(self.descends),
            "infinity": self.infinity,
        }
        return make_document(report, self.params, self.elapsed_s)


def _classify_points(coeffs, degree: int, height: int) -> tuple[dict[str, int], list[dict]]:
    """Tally the finite points of height <= `height`; see the module docstring."""
    counts = {kind.value: 0 for kind in DescentKind}
    undefined, no_descent = DescentKind.UNDEFINED.value, DescentKind.NO_DESCENT.value
    disconnected, descends = DescentKind.DISCONNECTED.value, DescentKind.DESCENDS.value
    found = []
    coeffs = coeffs[:degree + 1]
    d = math.lcm(*(c.den for c in coeffs))
    d3 = d ** 3
    # D^3 c_i as integer coordinates, leading coefficient first
    scaled = [(c.num.a * (d3 // c.den), c.num.b * (d3 // c.den)) for c in reversed(coeffs)]
    (lead_a, lead_b), lower = scaled[0], scaled[1:]
    e = -(-degree // 3) * 3  # 3 * ceil(n / 3)
    for p, q in _lowest_terms(height):
        # homogeneous Horner: c_n p^n q^(e-n) first, c_0 q^e last
        qk = q ** (e - degree)
        ga, gb = lead_a * qk, lead_b * qk
        for ca, cb in lower:
            qk *= q
            ga = ga * p + ca * qk
            gb = gb * p + cb * qk
        if not (ga or gb):
            counts[undefined] += 1
            continue
        norm = ga * ga - ga * gb + gb * gb
        root = icbrt(norm)
        if root * root * root != norm:
            counts[no_descent] += 1
            continue
        if _cube_root(ga, gb, root) is not None:
            counts[disconnected] += 1
            continue
        counts[descends] += 1
        z0 = Fraction(p, q)
        g, r3 = EisensteinInt(ga, gb), root ** 3
        g2 = g * g
        form = g2 * g.conj()  # r^3 form(G/r)
        if form != g * r3:
            raise AssertionError(f"witness at z={z0} fails the form check")
        if g2 * r3 != form * g:  # G^2 r^3 = conj(G) G^3
            raise AssertionError(f"witness at z={z0} fails the Galois identity")
        s = d * q ** (e // 3)
        found.append({
            "z": str(z0),
            "a": str(EisensteinRational(g, s ** 3)),  # f(p/q)
            "witness": {"x": str(Fraction(ga, root * s)), "y": str(Fraction(gb, root * s))},
        })
    return counts, found


def search(coefficients: Sequence, height: int) -> SearchReport:
    """Classify every rational point of height <= `height`, plus infinity.

    `coefficients` lists f of t^3 = f(z) from the constant term up; entries
    may be integers, Fractions, or elements of Q(w).  A height whose point
    bound (2H + 1) * H + 1 exceeds MAX_SEARCH_POINTS raises ValueError before
    any point is walked.
    """
    start = time.perf_counter()
    coeffs, degree = _cover_coefficients(coefficients)
    bound = (2 * height + 1) * height + 1
    if height >= 1 and bound > MAX_SEARCH_POINTS:
        raise ValueError(f"height {height} allows up to {bound} points, "
                         f"above the bound MAX_SEARCH_POINTS = {MAX_SEARCH_POINTS}")

    counts, descends = _classify_points(coeffs, degree, height)
    inf_cls = specialize(coeffs, INFINITY)
    counts[inf_cls.kind.value] += 1
    infinity_entry = {
        "a": str(coeffs[3]) if degree == 3 else None,
        "classification": inf_cls.kind.value,
    }

    coeff_strs = tuple(str(c) for c in coeffs)
    return SearchReport(
        height=height,
        coefficients=coeff_strs,
        counts=counts,
        n_points=sum(counts.values()),
        descends=tuple(descends),
        infinity=infinity_entry,
        elapsed_s=time.perf_counter() - start,
    )
