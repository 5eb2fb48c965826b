"""Height-ordered enumeration of rational points and descent search over a cover.

The height of p/q in lowest terms (q > 0) is max(|p|, q).  The search walks
every rational of height at most H plus the point at infinity, classifies
the specialization of t^3 = f(z) at each, and reports the tally; for the
cover t^3 = 3(z^3 + 2) no point descends, at any height.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .descent import INFINITY, DescentKind, _cover_coefficients, galois_commutes, specialize
from .reports import fingerprint, make_document

__all__ = ["SearchReport", "enumerate_rationals", "search"]


def enumerate_rationals(height: int) -> Iterator[Fraction]:
    """All p/q in lowest terms with |p| <= height and 1 <= q <= height.

    Each value appears exactly once, in nondecreasing height; 0 (height 1)
    comes first.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    yield Fraction(0)
    for h in range(1, height + 1):
        for q in range(1, h + 1):
            if math.gcd(h, q) == 1:
                yield Fraction(h, q)
                yield Fraction(-h, q)
        for p in range(1, h):
            if math.gcd(p, h) == 1:
                yield Fraction(p, h)
                yield Fraction(-p, h)


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


def _classify_points(coeffs, points: list[Fraction]) -> tuple[dict[str, int], list[dict]]:
    counts = {kind.value: 0 for kind in DescentKind}
    found = []
    for z0 in points:
        cls = specialize(coeffs, z0)
        counts[cls.kind.value] += 1
        if cls.kind is DescentKind.DESCENDS:
            w = cls.witness
            value = w.value
            if not galois_commutes(value, w):
                raise AssertionError(f"witness at z={z0} fails the Galois identity")
            found.append({
                "z": str(z0),
                "a": str(value),
                "witness": {"x": str(w.x), "y": str(w.y)},
            })
    return counts, found


def search(coefficients: Sequence, height: int) -> SearchReport:
    """Classify every rational point of height <= `height`, plus infinity.

    `coefficients` lists f of t^3 = f(z) from the constant term up; entries
    may be integers, Fractions, or elements of Q(w).
    """
    start = time.perf_counter()
    coeffs, degree = _cover_coefficients(coefficients)

    points = list(enumerate_rationals(height))
    counts, descends = _classify_points(coeffs, points)
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
        n_points=len(points) + 1,
        descends=tuple(descends),
        infinity=infinity_entry,
        elapsed_s=time.perf_counter() - start,
    )
