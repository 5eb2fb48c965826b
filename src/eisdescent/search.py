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
  Horner sums, one per coordinate, with no fraction anywhere, over the
  nonzero terms of f alone (`descent._cover_terms`, found once per
  search): between terms gap apart the sums take a factor p^gap and the
  power of q a factor q^gap, so a dense f takes the plain Horner loop's
  steps.  One evaluator, `descent._homogeneous_value`, serves
  `specialize`, `search` and the prefilter below, at (p : q) for each
  point p/q and at (1 : 0) for infinity.  Points come in blocks of whole
  heights in the order of `enumerate_rationals`, each decided by the
  steps below on its arrays, so findings come out in report order.  A
  block's points are the coprime (h, c), c <= h, of its heights h, read
  in one `nonzero` over its rows of the `_coprime` table stacked twice,
  once for h/c and once for c/h.  The evaluator runs in one numpy pass on
  a block's int64 arrays of p and q, or past the bound below on Python
  ints a point at a time.  numpy is imported by the functions that build
  and filter the blocks, not by the module, so importing it does not load
  numpy.
* The int64 bound.  Let B = sum of (|a| + |b|) over the scaled
  coefficients D^3 c_i = a + b w, times T^e for T the largest height in a
  block.  Every Horner partial sum, every power of p and q it takes and
  both coordinates of G are at most B, and N(G) = ga^2 - ga gb + gb^2 at
  most 3 B^2.  A block also ends at the
  largest height where 3 B^2 < 2^62, and the blocks up to it are decided in
  exact int64.  A block past the bound takes the same steps on object
  arrays of Python ints, save three: the prefilter runs first, G is
  evaluated a point at a time, and the norm filter's cube root is `icbrt`.
  The bound also keeps an int64 block's text in int64: a nonzero D^3 c_i
  has a coordinate of size at least D^3/v >= D^2, v <= D its denominator,
  so D^2 T^e <= B < 2^30.2, s^3 = D * D^2 q^e < 2^45.3 and
  r s < 2^20.7 * 2^15.1.
* Modular prefilter.  An integer cube is a cube residue modulo every m, so
  a point whose N(G) is not one mod 819 = 7*9*13 or mod 703 = 19*37 is
  NoDescent.  Each table marks x^3 mod m, by the CRT the residues that are
  cube residues modulo each of 7, 9, 13, 19 and 37; the second is read only
  at the 45 of 819 residues that pass the first.  Only a block past the
  bound is filtered, on G mod M = 819 * 703 = 575,757, which depends only on
  p and q mod M, so the evaluator reduced mod M at each step, its powers by
  square-and-multiply, and the norm run in int64, all below 2^60, and only
  the points that pass become Python
  ints.  An int64 block goes straight to the norm filter: its exact cube
  root rejects every point the prefilter would, and the prefilter in front
  of it saved no measured time (README).
* Norm filter.  G is NoDescent unless N(G) is a perfect integer cube r^3
  (the argument is `descent._classify_integral`'s, shared with
  `classify`).  Within the bound r is taken from a float64 seed, the
  rounded-down `np.cbrt` of N(G), within 1 of the true cube root, and
  corrected to the exact floor with int64 cubes: down by one where
  r^3 > N(G), then up by one where (r + 1)^3 <= N(G); r < 2^21, so
  (r + 1)^3 < 2^63.  Past the bound r is `icbrt` of each N(G).  G = 0,
  N(G) = 0, is Undefined.  Only points with N(G) = r^3 > 0 go on, and a
  block none of whose norms is a cube stops here.
* Past the filter, `descent._past_norm_filter`, the last step of
  `_classify_integral`, finds G Disconnected when it is a cube and Descends
  with the witness G/r otherwise.  The residue tests that open `_cube_root`
  run first on the block's arrays: a G that fails one is no cube, so
  Descends, and only the rest reach `_past_norm_filter`.
* The Descends findings of a block are checked once, on its arrays: the
  form, G^2 conj(G) = r^3 G (form(G/r) = G times r^3), and the Galois
  identity of `galois_commutes` for f(z) = G/s^3 and x + w y = G/(r s),
  conj(G) G^3 = r^3 G^2, are G (N(G) - r^3) = 0 and G^2 (N(G) - r^3) = 0.
  Z[w] is a domain and G != 0, so both hold exactly when
  G conj(G) = ga^2 - ga gb + gb^2 = r^3, the one sum checked; in int64
  its partial sums are at most 3 B^2 < 2^62.  The findings are held as the
  block's columns (p, q, ga, gb, r), and `to_report` hands the blocks to
  `reports.dumps_document` as a `RenderedList`.  p/q is in lowest terms;
  G/s^3 and G/(r s) are reduced part by part with one gcd each.  A block's
  text is one string: bytes gathered from decimal digit columns for an
  int64 block, and the texts of its findings joined for a block past the
  bound, each from `_finding_strings`, which also makes the dicts of
  `SearchReport.descends`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from .descent import (
    DescentKind,
    _classify_integral,
    _cover_coefficients,
    _cover_terms,
    _homogeneous_value,
    _past_norm_filter,
    galois_commutes,  # unused here; perfbench/tracer.py binds search.galois_commutes
    specialize,  # unused here; perfbench/tracer.py binds search.specialize
)
from .eisenstein import _cube_residue_tables, _fmt_frac, _format_element
from .intfactor import _step_units, icbrt
from .reports import RenderedList, _digits, _gathered

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that scan, so that commands which never
# scan start without it.

__all__ = ["MAX_SEARCH_WORK", "SearchReport", "enumerate_rationals", "search"]

# The one bound on the walk, checked before it starts against the work
# ((2H + 1) * H + 1) * (n + 1) * c for f of degree n: (2H + 1) * H + 1 >= the
# number of points of height <= H (p in [-H, H], q in [1, H], plus infinity),
# the Horner sum takes at most n + 1 steps per point, one per nonzero term (so
# does the prefilter's, mod _M, past the int64 bound), and c = ceil(b/128)^2
# charges each step by the b bits of the largest scaled coefficient D^3 c_i,
# as `intfactor` charges a rho step; c = 1 up to 128 bits, so the heights
# below hold for such coefficients.  At degree 3 it allows H <= 499, 303,664
# points; on t^3 = w z^3, where every finite nonzero point descends and the
# findings are held as int64 columns until the writer renders them, a test
# bounds the CLI's peak RSS there at 160 MB.  At degree 99 it allows H <= 99,
# at degree 3000 H <= 17, and with the 3,001-digit 10^3000 w at z^3
# (b = 9,966, c = 6,084) H <= 6.  BENCH_31.json records the wall time and peak
# RSS of the CLI at these heights.
MAX_SEARCH_WORK = 2_000_000


# The modular prefilter: a perfect cube is a cube residue modulo every m.  Two
# tables mark the cube residues mod 819 = 7*9*13 and mod 703 = 19*37, which by
# the CRT are the residues that are cube residues modulo each of 7, 9, 13, 19
# and 37.  Residues mod their product _M = 575,757 stay below 2^20, so the
# int64 Horner sums of `descent._homogeneous_value` stay below 2^60.
_M = 819 * 703


@functools.cache
def _joint_residues() -> tuple[tuple[int, np.ndarray], ...]:
    """(m, table) for m = 819 and 703: True at the cube residues mod m."""
    import numpy as np

    joint = []
    for m in (819, 703):
        table = np.zeros(m, dtype=bool)
        table[np.arange(m) ** 3 % m] = True
        joint.append((m, table))
    return tuple(joint)


# A block of the enumeration holds whole heights and ends at the first height
# that brings its candidates p/q (before the coprimality test) to this many.
_BLOCK_POINTS = 16384


def _coprime(height: int) -> np.ndarray:
    """A (height + 1)^2 bool table, True at [n, d], 1 <= n, d <= height, where
    gcd(n, d) = 1: sieved by clearing the multiples of each d >= 2."""
    import numpy as np

    coprime = np.ones((height + 1, height + 1), dtype=bool)
    for d in range(2, height + 1):
        coprime[d::d, d::d] = False
    return coprime


def _point_blocks(height: int, cut: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """int64 arrays (p, q), q >= 1, gcd(p, q) = 1, listing every p/q of height
    <= height once, a block of whole heights at a time; a block also ends at
    the height `cut`.  Coprimality is read from one `_coprime` table.

    The order is nondecreasing height; 0 = 0/1 (height 1) comes first.
    Within height h come h/q and -h/q for q = 1..h, then p/h and -p/h for
    p = 1..h-1.
    """
    import numpy as np

    if height < 1:
        raise ValueError("height must be >= 1")
    coprime = _coprime(height)
    lo = 1
    while lo <= height:
        hi, size = lo, 0
        while hi <= height and size < _BLOCK_POINTS:
            size += 4 * hi - 2
            hi += 1
            if hi - 1 == cut:
                break
        # the pairs (h, c) of the block's heights h with c <= h coprime, in
        # one pass over its rows, stacked twice: h/c for c <= h, then c/h for c < h
        heights = np.arange(lo, hi)[:, np.newaxis]
        c = np.arange(1, hi)
        rows = coprime[lo:hi, 1:hi]
        h, run, c = np.stack((rows & (c <= heights), rows & (c < heights)), axis=1).nonzero()
        h += lo
        c += 1
        num, den = np.where(run, c, h), np.where(run, h, c)
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


def _is_cube_residue(norm: np.ndarray) -> np.ndarray:
    """True where the int64 values norm >= 0, each congruent to an N(G) mod
    _M, are a cube residue mod 819 and mod 703."""
    (m1, first), (m2, second) = _joint_residues()
    mask = first[norm % m1]
    rest = mask.nonzero()[0]  # 45 of the 819 residues mod m1 pass
    mask[rest] = second[norm[rest] % m2]
    return mask


def _int64_cbrt(n: np.ndarray) -> np.ndarray:
    """floor(n^(1/3)) for int64 values 0 <= n < 2^62, exactly.

    The float cube root is within 1 of the true one, so one step down where
    r^3 > n and one step up where (r + 1)^3 <= n give the floor; r < 2^21,
    so (r + 1)^3 < 2^63.
    """
    import numpy as np

    r = np.cbrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r * r > n
    r += (r + 1) * (r + 1) * (r + 1) <= n
    return r


def _object_values(cover, residues, p: np.ndarray, q: np.ndarray) -> tuple:
    """(p, q, ga, gb) as object arrays at the points p/q, int64 arrays, that
    pass the prefilter on G mod _M, in int64 from `residues`, the terms of
    `cover` mod _M; G = ga + gb*w is then evaluated on Python ints a point at
    a time, which holds one point's partial sums and at high degree beats
    numpy's object loops."""
    import numpy as np

    ga, gb = _homogeneous_value(residues, p % _M, q % _M, _M)
    keep = _is_cube_residue(ga * ga - ga * gb + gb * gb)  # >= 0, below 2^40
    p, q = p[keep].astype(object), q[keep].astype(object)
    ga, gb = np.empty(len(p), dtype=object), np.empty(len(p), dtype=object)
    for i, point in enumerate(zip(p.tolist(), q.tolist())):
        ga[i], gb[i] = _homogeneous_value(cover, *point)
    return p, q, ga, gb


def _object_cbrt(n: np.ndarray) -> np.ndarray:
    """floor(n^(1/3)) for an object array of Python ints n >= 0, by `icbrt`."""
    import numpy as np

    return np.array([icbrt(v) for v in n.tolist()], dtype=object)


def _descends_past_filter(ga: np.ndarray, gb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """True where G = ga + gb*w, int64 or object arrays with N(G) = r^3 >= 1,
    Descends, as `descent._past_norm_filter` decides: a G that fails one of
    the residue tests of `_cube_root` is no cube, and only the others reach it."""
    import numpy as np

    maybe_cube = np.ones(ga.shape, dtype=bool)
    for m, w, table in _cube_residue_tables():
        maybe_cube &= table[((ga + w * gb) % m).astype(np.int64, copy=False)]
    found = ~maybe_cube
    for i in maybe_cube.nonzero()[0].tolist():
        found[i] = _past_norm_filter(int(ga[i]), int(gb[i]), int(r[i])) == "Descends"
    return found


def _checked_block(p, q, ga, gb, r) -> tuple:
    """The columns (p, q, ga, gb, r) of a block's Descends findings, int64 or
    object arrays, once every G = ga + gb*w != 0 passes the form check:
    G conj(G) = ga^2 - ga gb + gb^2 = r^3, which holds exactly when
    G^2 conj(G) = r^3 G, the form check, and conj(G) G^3 = r^3 G^2, the
    Galois identity, both hold.  On an int64 block, within the bound B of the
    module docstring, every partial sum is at most 3 B^2 < 2^62 and
    r^3 < 2^63, so it is exact."""
    bad = (ga * ga - ga * gb + gb * gb != r * r * r).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise AssertionError(f"witness at z={Fraction(int(p[i]), int(q[i]))} fails the form check")
    return p, q, ga, gb, r


def _finding_strings(finding: tuple[int, int, int, int, int], d: int,
                     e: int) -> tuple[str, str, str, str]:
    """z, a = f(z) and the witness's x and y of the finding (p, q, ga, gb, r),
    as text; d and e are those of `descent._cover_coefficients`."""
    p, q, ga, gb, r = finding
    s = d * q ** (e // 3)
    rs = r * s
    return (f"{p}/{q}" if q != 1 else str(p),  # p/q is in lowest terms
            _format_element(ga, gb, s ** 3),  # f(p/q) = G/s^3
            _fmt_frac(ga, rs), _fmt_frac(gb, rs))  # x + w y = G/(r s)


def _fraction(n: np.ndarray, d: np.ndarray, reduce: bool = True) -> list[np.ndarray]:
    """uint8 columns of n/d as `_fmt_frac` writes it, for int64 arrays, d >= 1:
    sign, numerator, slash and denominator, with the byte 0 where unwritten.
    With reduce=False n/d must already be in lowest terms."""
    import numpy as np

    if reduce:
        g = np.gcd(n, d)
        n, d = n // g, d // g
    whole = (d == 1)[:, np.newaxis]
    sign = np.where(n < 0, ord("-"), 0).astype(np.uint8)[:, np.newaxis]
    return [sign, _digits(np.abs(n)), np.where(whole, np.uint8(0), np.uint8(ord("/"))),
            np.where(whole, np.uint8(0), _digits(d))]


def _block_text(p, q, ga, gb, s3, rs, indent: str) -> str:
    """What `SearchReport._render_finding` writes for each finding of a block,
    joined by "," and `indent`, gathered from int64 columns: p, q, G = ga +
    gb*w != 0, s^3 and r s as in the module docstring."""
    import numpy as np

    i1 = indent + "  "
    i2 = i1 + "  "

    def text(t: str) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(t.encode("ascii"), dtype=np.uint8), (len(p), len(t)))

    def part(keep: np.ndarray, columns) -> list[np.ndarray]:
        # a part of a = f(z) is written only where its coordinate is nonzero
        if not keep.any():
            return []
        return columns() if keep.all() else [np.where(keep[:, np.newaxis], c, np.uint8(0))
                                             for c in columns()]

    def b_part() -> list[np.ndarray]:
        # the w part's sign: "+" after an a part, "-" when negative
        sign = np.where(gb < 0, ord("-"), np.where(ga != 0, ord("+"), 0)).astype(np.uint8)
        return [sign[:, np.newaxis], *_fraction(np.abs(gb), s3)[1:], text("*w")]

    columns = [text(f'{{{i1}"a": "'),
               *part(ga != 0, lambda: _fraction(ga, s3)),
               *part(gb != 0, b_part),
               text(f'",{i1}"witness": {{{i2}"x": "'), *_fraction(ga, rs),
               text(f'",{i2}"y": "'), *_fraction(gb, rs),
               text(f'"{i1}}},{i1}"z": "'), *_fraction(p, q, reduce=False),
               text(f'"{indent}}},{indent}')]
    return str(_gathered(columns)[:-len(indent) - 1], "ascii")  # less the last separator


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Classification tally for one cover and height bound.

    counts covers the finite points and infinity, so its values sum to
    n_points; every Descends finding has passed the form check and the
    Galois-commutation identity.  A finding is held as its integers
    (p, q, ga, gb, r): the point p/q in lowest terms, G = ga + gb*w and
    r^3 = N(G); `blocks` holds them as columns, one tuple of five int64 or
    object arrays per block of the walk that found any, and `findings` as
    tuples.  `scale` is (d, e) of `descent._cover_coefficients`, which
    with p and q give s = d * q^(e/3), f(p/q) = G/s^3 and the witness G/(r s).
    `to_report` gives the document's "report" section; `counters` goes in the
    document beside it.
    """

    height: int
    coefficients: tuple[str, ...]
    counts: dict[str, int]
    n_points: int
    blocks: tuple[tuple[np.ndarray, ...], ...]
    scale: tuple[int, int]
    infinity: dict
    counters: dict[str, int]

    @property
    def findings(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Each Descends finding as (p, q, ga, gb, r), in report order."""
        return tuple(finding for block in self.blocks
                     for finding in zip(*(x.tolist() for x in block)))

    @property
    def descends(self) -> tuple[dict, ...]:
        """Each Descends finding as {"z", "a", "witness": {"x", "y"}}."""
        texts = (_finding_strings(finding, *self.scale) for finding in self.findings)
        return tuple({"z": z, "a": a, "witness": {"x": x, "y": y}} for z, a, x, y in texts)

    def _render_finding(self, finding: tuple[int, int, int, int, int], indent: str) -> str:
        # the text json.dumps(sort_keys=True, indent=2) writes for the dict
        # `descends` holds; every string is made of [0-9/+*w-], so needs no
        # escaping
        z, a, x, y = _finding_strings(finding, *self.scale)
        i1 = indent + "  "
        i2 = i1 + "  "
        return (f'{{{i1}"a": "{a}",{i1}"witness": {{{i2}"x": "{x}",{i2}"y": "{y}"'
                f'{i1}}},{i1}"z": "{z}"{indent}}}')

    def _render_block(self, block: tuple, indent: str) -> str:
        # an int64 block is gathered whole, its s^3 and r s below 2^63 by the
        # int64 bound (module docstring); any other, its findings' texts joined
        p, q, ga, gb, r = block
        if p.dtype != object:
            d, e = self.scale
            return _block_text(p, q, ga, gb, d ** 3 * q ** e, r * (d * q ** (e // 3)), indent)
        return ("," + indent).join(self._render_finding(finding, indent)
                                   for finding in zip(*(x.tolist() for x in block)))

    def to_report(self) -> dict:
        """Its "descends" member is a `RenderedList` that `dumps_document`
        writes as the list `descends` holds."""
        return {
            "height": self.height,
            "coefficients": list(self.coefficients),
            "counts": dict(sorted(self.counts.items())),
            "n_points": self.n_points,
            "descends": RenderedList(self.blocks, self._render_block),
            "infinity": self.infinity,
        }


def _classify_points(cover, e: int, height: int) -> tuple[dict[str, int], list[tuple],
                                                         dict[str, int]]:
    """Tally the finite points of height <= `height`; see the module docstring.

    `cover` and e are the `descent._cover_terms` and e of the cover.  Also returns
    the Descends findings as the checked columns (p, q, ga, gb, r) of each
    block that has any, and the counters of the walk: the points, those
    rejected by the modular prefilter (which runs past the int64 bound only)
    and by the norm filter, the `_cube_root` calls, and the points decided
    in int64.
    """
    import numpy as np

    counts = {kind.value: 0 for kind in DescentKind}
    no_descent, descends = DescentKind.NO_DESCENT.value, DescentKind.DESCENDS.value
    modular_rejects = int64_points = 0
    blocks = []
    terms, gaps, low = cover
    residues = tuple((gap, a % _M, b % _M) for gap, a, b in terms), gaps, low
    weight = sum(abs(a) + abs(b) for _, a, b in terms)
    # the largest height T with 3 B^2 < 2^62, B = weight * T^e: every Horner
    # partial sum and both coordinates of G are at most B, each power of p and
    # q at most T^e <= B, and N(G) <= 3 B^2, so blocks up to T are exact in int64
    last = 0
    while last < height and 3 * (weight * (last + 1) ** e) ** 2 < 2 ** 62:
        last += 1
    for ps, qs in _point_blocks(height, last):
        points = len(ps)
        if max(ps.max(), -ps.min(), qs.max()) <= last:  # the block's largest height
            int64_points += points
            ga, gb = _homogeneous_value(cover, ps, qs)
        else:
            # G mod _M in int64 first: only the points it keeps reach Python ints
            ps, qs, ga, gb = _object_values(cover, residues, ps, qs)
            modular_rejects += points - len(ps)
        norm = ga * ga - ga * gb + gb * gb
        root = _object_cbrt(norm) if norm.dtype == object else _int64_cbrt(norm)
        cube = root * root * root == norm
        cubes = int(np.count_nonzero(cube))
        counts[no_descent] += len(norm) - cubes
        if not cubes:
            continue  # no point of the block passes the norm filter
        counts[DescentKind.UNDEFINED.value] += int(np.count_nonzero(norm == 0))
        past = cube & (norm > 0)
        del norm  # so a block's big-int norms are not held through the next block
        ps, qs, ga, gb, root = ps[past], qs[past], ga[past], gb[past], root[past]
        found = _descends_past_filter(ga, gb, root)
        counts[descends] += int(np.count_nonzero(found))
        counts[DescentKind.DISCONNECTED.value] += len(found) - int(np.count_nonzero(found))
        if found.any():
            blocks.append(_checked_block(*(x[found] for x in (ps, qs, ga, gb, root))))
    counts[no_descent] += modular_rejects
    counters = {
        "points": sum(counts.values()),
        "modular_rejects": modular_rejects,
        "norm_rejects": counts[no_descent] - modular_rejects,
        "cube_root_calls": counts[DescentKind.DISCONNECTED.value] + counts[descends],
        "int64_points": int64_points,
    }
    return counts, blocks, counters


def search(coefficients: Sequence, height: int) -> SearchReport:
    """Classify every rational point of height <= `height`, plus infinity.

    `coefficients` lists f of t^3 = f(z) from the constant term up; entries
    may be integers, Fractions, or elements of Q(w).  A height whose work
    ((2H + 1) * H + 1) * (n + 1) * ceil(b/128)^2 at degree n, for b the bits
    of the largest scaled coefficient, exceeds MAX_SEARCH_WORK raises
    ValueError before any point is walked.
    """
    coeffs, scaled, d, e = _cover_coefficients(coefficients)
    n = len(scaled) - 1
    bits = max(abs(x).bit_length() for pair in scaled for x in pair)
    charge = _step_units(bits)
    per_point = (n + 1) * charge
    work = ((2 * height + 1) * height + 1) * per_point
    if height >= 1 and work > MAX_SEARCH_WORK:
        top = math.isqrt(MAX_SEARCH_WORK // (2 * per_point))
        while top and ((2 * top + 1) * top + 1) * per_point > MAX_SEARCH_WORK:
            top -= 1
        rule = (f"((2H + 1) H + 1)(n + 1) = {work}," if charge == 1 else
                f"((2H + 1) H + 1)(n + 1) c = {work}, where c = ceil(b/128)^2 = "
                f"{charge} for the b = {bits} bits of the largest D^3 c_i,")
        raise ValueError(f"height {height} at degree {n} needs work {rule} above "
                         f"the bound MAX_SEARCH_WORK = {MAX_SEARCH_WORK}; the largest "
                         f"height allowed at degree {n} is {top}")

    cover = _cover_terms(scaled, e)
    counts, blocks, counters = _classify_points(cover, e, height)
    ga, gb = _homogeneous_value(cover, 1, 0)  # infinity is (1 : 0)
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
        blocks=tuple(blocks),
        scale=(d, e),
        infinity=infinity_entry,
        counters=counters,
    )
