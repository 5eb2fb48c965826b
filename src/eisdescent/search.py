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
  of G divided by s.  Infinity is the point (1 : 0), where s = D and
  G = D^3 c_e: D^3 times the leading coefficient when 3 divides n, and 0,
  a branch point, otherwise.
* Homogeneous evaluation.  p and q are integers, so G is two integer
  Horner sums, one per coordinate, with no fraction anywhere.
  `descent._homogeneous_value`, which `specialize` shares, computes them at
  (p : q) for each point p/q and at (1 : 0) for infinity.
* Modular prefilter.  An integer cube is a cube residue modulo every m, so
  a point whose N(G) is not a cube residue modulo one of 7, 9, 13, 19, 37
  is NoDescent with no big integer involved.  G mod M, M = 7*9*13*19*37 =
  575,757, depends only on p and q mod M, so the Horner sums and the norm
  run in int64 over a block of points in one numpy pass; every product is
  below 2^40 at any height.  Points come in blocks of whole heights in the
  order of `enumerate_rationals`, so the survivors reach the exact path in
  report order.  numpy is imported by the functions that build and filter
  the blocks, not by the module, so importing it does not load numpy.
* Norm filter.  `descent._classify_integral`, shared with `classify`,
  decides each surviving G and holds the argument: G is NoDescent unless
  N(G) is a perfect integer cube r^3.
* Past the filter, the same function finds G Disconnected when it is a
  cube and Descends with the witness G/r otherwise.
  A Descends point is checked once, in Z[w]: the form, G^2 conj(G) = r^3 G
  (form(G/r) = G times r^3), and the Galois identity of `galois_commutes`
  for f(z) = G/s^3 and x + w y = G/(r s), which is G^2 r^3 = conj(G) G^3.
  Its finding is text built from the same integers: p/q is already in
  lowest terms, and G/s^3 and G/(r s) are reduced part by part with one gcd
  each.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from .descent import (
    DescentKind,
    _classify_integral,
    _cover_coefficients,
    _homogeneous_value,
    galois_commutes,  # unused here; perfbench/tracer.py binds search.galois_commutes
    specialize,  # unused here; perfbench/tracer.py binds search.specialize
)
from .eisenstein import _fmt_frac, _format_element
from .reports import fingerprint, make_document

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that scan, so that commands which never
# scan start without it.

__all__ = ["MAX_SEARCH_WORK", "SearchReport", "enumerate_rationals", "search"]

# The one bound on the walk, checked before it starts against the work
# ((2H + 1) * H + 1) * (n + 1) for f of degree n: (2H + 1) * H + 1 >= the
# number of points of height <= H (p in [-H, H], q in [1, H], plus infinity),
# and the prefilter and the Horner sum take n + 1 steps per point.  At degree 3
# it allows H <= 499, 303,664 points.  There the CLI took 6.2-6.6 s and peaked
# at 317 MB on t^3 = w z^3, where every finite nonzero point descends and each
# finding is held until the report is written, and 0.3-0.4 s and 33 MB on
# t^3 = 3(z^3 + 2), where the modular prefilter rejects all but 1,283 points.
# At degree 99 it allows H <= 99, where t^3 = w z^99 took 3.0 s and 60 MB for
# 6.6 MB of JSON, and at degree 3000 H <= 17, where f = 1 + z + ... + z^3000
# took 0.5 s and 35 MB (2-core x86 VM, Python 3.11, numpy 2.4).
MAX_SEARCH_WORK = 2_000_000


# The modular prefilter: a perfect cube is a cube residue modulo each of
# _MODULI.  Residues mod their product _M = 575,757 stay below 2^20, so every
# product of two in the int64 Horner sums is below 2^40.  One small table per
# modulus marks its cube residues.
_MODULI = (7, 9, 13, 19, 37)
_M = math.prod(_MODULI)


@functools.cache
def _cube_residues() -> tuple[np.ndarray, ...]:
    """One bool table per modulus of _MODULI, True at its cube residues."""
    import numpy as np

    return tuple(np.array([any(x ** 3 % m == r for x in range(m)) for r in range(m)])
                 for m in _MODULI)


# A block of the enumeration holds whole heights and ends at the first height
# that brings its candidates p/q (before the gcd test) to this many.
_BLOCK_POINTS = 4096


def _point_blocks(height: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """int64 arrays (p, q), q >= 1, gcd(p, q) = 1, listing every p/q of height
    <= height once, a block of whole heights at a time.

    The order is nondecreasing height; 0 = 0/1 (height 1) comes first.
    Within height h come h/q and -h/q for q = 1..h, then p/h and -p/h for
    p = 1..h-1.
    """
    import numpy as np

    if height < 1:
        raise ValueError("height must be >= 1")
    lo = 1
    while lo <= height:
        hi, size = lo, 0
        while hi <= height and size < _BLOCK_POINTS:
            size += 4 * hi - 2
            hi += 1
        heights = np.arange(lo, hi, dtype=np.int64)
        # 2h - 1 magnitudes per height h: h/1 .. h/h, then 1/h .. (h-1)/h
        runs = 2 * heights - 1
        h = np.repeat(heights, runs)
        x = np.arange(1, h.size + 1) - np.repeat(np.cumsum(runs) - runs, runs)
        first = x <= h
        num = np.where(first, h, x - h)
        den = np.where(first, x, h)
        coprime = np.gcd(num, den) == 1
        num, den = num[coprime], den[coprime]
        p, q = np.empty(2 * num.size, dtype=np.int64), np.empty(2 * num.size, dtype=np.int64)
        p[0::2], p[1::2] = num, -num
        q[0::2] = q[1::2] = den
        if lo == 1:
            p, q = np.concatenate(([0], p)), np.concatenate(([1], q))
        yield p, q
        lo = hi


def enumerate_rationals(height: int) -> Iterator[Fraction]:
    """All p/q in lowest terms with |p| <= height and 1 <= q <= height, in
    the order `search` visits them: nondecreasing height, 0 first."""
    for p, q in _point_blocks(height):
        for pair in zip(p.tolist(), q.tolist()):
            yield Fraction(*pair)


def _cube_residue_mask(residues, e: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """False at the points p/q where N(G) is not a cube residue modulo one of
    _MODULI, so is not a perfect cube.

    `residues` lists D^3 c_i mod _M as coordinate pairs, leading coefficient
    first; G = sum of D^3 c_i p^i q^(e-i) as in the module docstring.
    """
    import numpy as np

    p, q = p % _M, q % _M
    qk = np.ones_like(q)
    for _ in range(e + 1 - len(residues)):  # q^(e-n), n + 1 coefficients
        qk = qk * q % _M
    (lead_a, lead_b), lower = residues[0], residues[1:]
    ga, gb = lead_a * qk % _M, lead_b * qk % _M
    for ca, cb in lower:
        qk = qk * q % _M
        ga = (ga * p + ca * qk) % _M
        gb = (gb * p + cb * qk) % _M
    norm = ga * ga - ga * gb + gb * gb  # >= 0, below 2^40
    mask = np.ones(p.shape, dtype=bool)
    for m, table in zip(_MODULI, _cube_residues()):
        mask &= table[norm % m]
    return mask


def _mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b w)(c + d w) with w^2 = -1 - w, as coordinates."""
    return a * c - b * d, a * d + b * c - b * d


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
    counters: dict[str, int]
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
        return make_document(report, self.params, self.elapsed_s, self.counters)


def _classify_points(scaled, d: int, e: int,
                     height: int) -> tuple[dict[str, int], list[dict], dict[str, int]]:
    """Tally the finite points of height <= `height`; see the module docstring.

    `scaled`, d and e are those of `descent._cover_coefficients`.  Also
    returns the counters of the walk: the points, those rejected by the
    modular prefilter and by the norm filter, and the `_cube_root` calls.
    """
    import numpy as np

    counts = {kind.value: 0 for kind in DescentKind}
    no_descent, descends = DescentKind.NO_DESCENT.value, DescentKind.DESCENDS.value
    modular_rejects = 0
    found = []
    residues = [(a % _M, b % _M) for a, b in scaled]
    for ps, qs in _point_blocks(height):
        keep = _cube_residue_mask(residues, e, ps, qs)
        modular_rejects += len(ps) - int(np.count_nonzero(keep))
        for p, q in zip(ps[keep].tolist(), qs[keep].tolist()):
            ga, gb = _homogeneous_value(scaled, e, p, q)
            kind, root = _classify_integral(ga, gb)
            counts[kind] += 1
            if kind != descends:
                continue
            norm = root * root * root
            g2a, g2b = _mul(ga, gb, ga, gb)
            fa, fb = _mul(g2a, g2b, ga - gb, -gb)  # G^2 conj(G) = r^3 form(G/r)
            if (fa, fb) != (ga * norm, gb * norm):
                raise AssertionError(f"witness at z={Fraction(p, q)} fails the form check")
            if (g2a * norm, g2b * norm) != _mul(fa, fb, ga, gb):  # G^2 r^3 = conj(G) G^3
                raise AssertionError(f"witness at z={Fraction(p, q)} fails the Galois identity")
            s = d * q ** (e // 3)
            rs = root * s
            found.append({
                "z": f"{p}/{q}" if q != 1 else str(p),  # p/q is in lowest terms
                "a": _format_element(ga, gb, s ** 3),  # f(p/q) = G/s^3
                "witness": {"x": _fmt_frac(ga, rs), "y": _fmt_frac(gb, rs)},
            })
    counts[no_descent] += modular_rejects
    counters = {
        "points": sum(counts.values()),
        "modular_rejects": modular_rejects,
        "norm_rejects": counts[no_descent] - modular_rejects,
        "cube_root_calls": counts[DescentKind.DISCONNECTED.value] + counts[descends],
    }
    return counts, found, counters


def search(coefficients: Sequence, height: int) -> SearchReport:
    """Classify every rational point of height <= `height`, plus infinity.

    `coefficients` lists f of t^3 = f(z) from the constant term up; entries
    may be integers, Fractions, or elements of Q(w).  A height whose work
    ((2H + 1) * H + 1) * (n + 1) at degree n exceeds MAX_SEARCH_WORK raises
    ValueError before any point is walked.
    """
    start = time.perf_counter()
    coeffs, scaled, d, e = _cover_coefficients(coefficients)
    n = len(scaled) - 1
    work = ((2 * height + 1) * height + 1) * (n + 1)
    if height >= 1 and work > MAX_SEARCH_WORK:
        top = math.isqrt(MAX_SEARCH_WORK // (2 * n + 2))
        while top and ((2 * top + 1) * top + 1) * (n + 1) > MAX_SEARCH_WORK:
            top -= 1
        raise ValueError(f"height {height} at degree {n} needs work "
                         f"((2H + 1) H + 1)(n + 1) = {work}, above the bound "
                         f"MAX_SEARCH_WORK = {MAX_SEARCH_WORK}; the largest "
                         f"height allowed at degree {n} is {top}")

    counts, descends, counters = _classify_points(scaled, d, e, height)
    ga, gb = _homogeneous_value(scaled, e, 1, 0)  # infinity is (1 : 0)
    inf_kind = _classify_integral(ga, gb)[0]
    counts[inf_kind] += 1
    infinity_entry = {
        "a": _format_element(ga, gb, d ** 3) if ga or gb else None,
        "classification": inf_kind,
    }

    coeff_strs = tuple(str(c) for c in coeffs)
    return SearchReport(
        height=height,
        coefficients=coeff_strs,
        counts=counts,
        n_points=sum(counts.values()),
        descends=tuple(descends),
        infinity=infinity_entry,
        counters=counters,
        elapsed_s=time.perf_counter() - start,
    )
