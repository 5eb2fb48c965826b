"""Image sets in the finite rings Z[w]/(3^k): numpy scans and a closed form.

An element of Z[w]/(3^k) is the coordinate pair (a, b), a, b in [0, 3^k),
standing for a + b w with w^2 = -1 - w; it is never an object here, only
the index a*m + b (m = 3^k) into the ring's 9^k elements.  `ResidueRing`
holds k, and its constructor is where k is bounded (1 <= k <= MAX_VERIFY_K).
The image sets needed by the lemma verifier are computed by scanning a
coordinate grid with numpy, in chunks to bound memory, into a bitset over
those indices; a set keeps only its sorted member indices.  The
lexicographically first producer of a value, which counterexample reports
name, is found by `ResidueSet.first_producers`, which scans the grid again
for just the values asked about.  `ResidueSet.write_csv` writes rows as
bytes gathered from the decimal digit columns of `reports._digits`, never
formatting an int in Python.  numpy is imported by the functions that scan
and by `in_form_image`, not by the module, so importing it (and the CLI)
does not load numpy.

Cubes are scanned over the box z in [0, 3^(k-1))^2 when k >= 2:
(z + 3^(k-1) t)^3 = z^3 (mod 3^k), since the cross terms carry a factor
3 * 3^(k-1) and the t^3 term 3^(3(k-1)), with 3(k-1) >= k.  The right-hand
side is 3y with y = (z^3 + 2) mod 3^(k-1), so z is scanned over the cube box
of k - 1 ([0, 3)^2 for k = 2; z = 0 alone for k = 1, where y lies in the
one-element ring) and y recorded in a 9^(k-1) bitset.  Multiplying by 3
embeds Z[w]/(3^(k-1)) in Z[w]/(3^k) and keeps the order of the indices, so
3y per coordinate lists the members in order.  Reducing both coordinates
of z never increases them, so the lexicographically first producer always
lies in the box.

The form image phi(Z[w]/(3^k)), phi(u) = u^2 conj(u), is not periodic in
this way and its scan covers the full grid.  Membership in it also has a
closed form, `in_form_image`, and so has its size, `form_image_size`: a
check that only asks whether a few values lie in the image needs no scan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .reports import _digits, _gathered

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that scan, so that commands which never
# scan start without it.

__all__ = [
    "MAX_VERIFY_K",
    "ResidueRing",
    "ResidueSet",
    "cube_values",
    "descent_form_image",
    "form_image_size",
    "in_form_image",
    "rhs_values",
]

# The one bound on k.  A scan holds a bool per element of the ring it records
# into (43 MB at k = 8 for the form image and cubes, 4.8 MB for the right-hand
# side, recorded mod 3^(k-1)) and the int64 member indices; at k = 8 `dump-set
# form-image` peaks at 160 MB, `verify cube-closure` at 128 MB and `verify
# no-solution` at 49 MB.  The cube map's unreduced values stay below
# 3 * 3^(3k) <= 3^25 and norms below 3^(2k) <= 3^16, so int64 holds them.
MAX_VERIFY_K = 8
_CHUNK_CELLS = 1 << 20
_CSV_ROWS = 1 << 14  # rows gathered per write (160 KB at k >= 7); 2^13..2^17 time alike
ValueFn = Callable[..., tuple]  # (first, second, m) -> (value a, value b), int64 arrays


@dataclass(frozen=True)
class ResidueRing:
    """Z[w]/(3^k) for 1 <= k <= MAX_VERIFY_K, the only place k is checked."""

    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_VERIFY_K:
            raise ValueError(f"k must be in 1..{MAX_VERIFY_K}, got {self.k}")

    @property
    def modulus(self) -> int:
        return 3**self.k

    @property
    def size(self) -> int:
        return 9**self.k


class ResidueSet:
    """An exhaustively computed subset of Z[w]/(3^k).

    `values` holds the member indices (a*m + b) in increasing order.  The set
    keeps its scan, value_fn over [0, side)^2 into the full ring, for
    `first_producers`; a producer index encodes the scan input (x*m + y for
    the form image, a*m + b of z for the cube and right-hand-side scans).
    """

    __slots__ = ("name", "ring", "value_fn", "side", "values")

    def __init__(self, name: str, ring: ResidueRing, value_fn: ValueFn, side: int,
                 values: np.ndarray) -> None:
        self.name = name
        self.ring = ring
        self.value_fn = value_fn
        self.side = side
        self.values = values

    def __len__(self) -> int:
        return int(self.values.size)

    def first_producers(self, targets: np.ndarray) -> np.ndarray:
        """Smallest producer index of each member in the sorted int64 `targets`.

        Scans the grid once more, unless `targets` is empty; a target that is
        not a member raises KeyError.
        """
        import numpy as np

        if targets.size == 0:
            return np.empty(0, dtype=np.int64)
        found = np.minimum(np.searchsorted(self.values, targets), self.values.size - 1)
        member = self.values[found] == targets
        if not member.all():
            raise KeyError(f"not in set {self.name}: {targets[~member]}")
        m = self.ring.modulus
        first_producer = np.full(targets.size, self.ring.size, dtype=np.int64)
        for first, second, values in _grid(m, self.value_fn, self.side):
            pos = np.minimum(np.searchsorted(targets, values), targets.size - 1)
            hit = targets[pos] == values
            np.minimum.at(first_producer, pos[hit], (first * m + second).ravel()[hit])
        return first_producer

    def write_csv(self, path: str) -> None:
        """Rows "a,b" in enumeration order, after a "# ring=3^k set=..." header."""
        import numpy as np

        with open(path, "wb") as fh:
            fh.write(f"# ring=3^{self.ring.k} set={self.name}\n".encode("ascii"))
            for lo in range(0, self.values.size, _CSV_ROWS):
                a, b = np.divmod(self.values[lo:lo + _CSV_ROWS], self.ring.modulus)
                comma, newline = (np.full((a.size, 1), ord(c), dtype=np.uint8) for c in ",\n")
                fh.write(_gathered([_digits(a), comma, _digits(b), newline]))


def _grid(m: int, value_fn: ValueFn, side: int):
    """Yield (first column, second row, flat value indices) per chunk of [0, side)^2."""
    import numpy as np

    rows = max(1, _CHUNK_CELLS // side)
    second = np.arange(side, dtype=np.int64)[np.newaxis, :]
    for lo in range(0, side, rows):
        first = np.arange(lo, min(lo + rows, side), dtype=np.int64)[:, np.newaxis]
        va, vb = value_fn(first, second, m)
        yield first, second, (va * m + vb).ravel()


def _members(m: int, value_fn: ValueFn, side: int) -> np.ndarray:
    """The sorted indices mod m of the values value_fn takes over [0, side)^2."""
    import numpy as np

    bitset = np.zeros(m * m, dtype=bool)
    for _, _, values in _grid(m, value_fn, side):
        bitset[values] = True
    return bitset.nonzero()[0]


def _scan(name: str, ring: ResidueRing, value_fn: ValueFn, side: int) -> ResidueSet:
    """The set of values value_fn takes over the grid [0, side)^2."""
    return ResidueSet(name, ring, value_fn, side, _members(ring.modulus, value_fn, side))


def _cube_side(k: int) -> int:
    # z^3 mod 3^k depends only on z mod 3^(k-1) once k >= 2 (module docstring).
    return 3 ** (k - 1) if k >= 2 else 3


# The kernels keep fused formulas, not `eisenstein._mul`: each numpy operation
# makes a temporary over a whole chunk, and the fused forms make fewer of them.
def _form_values(x: np.ndarray, y: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    # (x + w y)^2 (x + w^2 y) = (x + w y) * (x^2 - x y + y^2)
    n = (x * x - x * y + y * y) % m
    return (x * n) % m, (y * n) % m


def _cube_coords(a: np.ndarray, b: np.ndarray, m: int,
                 shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # (a + b w)^3 + shift = (a^3 + b^3 - 3 a b^2 + shift) + 3 a b (a - b) w,
    # reduced once per coordinate (bound at MAX_VERIFY_K).
    ab = a * b
    return (a * a * a + b * b * b - 3 * ab * b + shift) % m, (3 * ab * (a - b)) % m


def _rhs_coords(a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    ca, cb = _cube_coords(a, b, m)
    return (3 * ca + 6) % m, (3 * cb) % m


def descent_form_image(ring: ResidueRing) -> ResidueSet:
    """{(x + w y)^2 (x + w^2 y) mod 3^k : x, y rational-integer residues}.

    x and y range over Z/(3^k) only, not the full ring; a producer index
    encodes (x, y) as x*m + y.
    """
    return _scan("form-image", ring, _form_values, ring.modulus)


def cube_values(ring: ResidueRing) -> ResidueSet:
    """{z^3 : z over the full ring}; a producer index encodes z."""
    return _scan("cubes", ring, _cube_coords, _cube_side(ring.k))


def rhs_values(ring: ResidueRing) -> ResidueSet:
    """{3(z^3 + 2) : z over the full ring}; a producer index encodes z."""
    # 3y with y = (z^3 + 2) mod 3^(k-1), scanned over z mod 3^(k-2) (module
    # docstring); 3^(k-1) = 1 at k = 1.
    import numpy as np

    side = _cube_side(ring.k - 1) if ring.k >= 2 else 1
    folded = ring.modulus // 3
    plus_two = functools.partial(_cube_coords, shift=2)
    ya, yb = np.divmod(_members(folded, plus_two, side), folded)
    return ResidueSet("rhs", ring, _rhs_coords, side, 3 * (ya * ring.modulus + yb))


# The closed form.  Write pi = 1 + 2w, pi^2 = -3, so that (3^k) = (pi^(2k)), and
# let v != 0 have the lift (a, b) in [0, 3^k)^2, an element of Z[w] of
# pi-valuation j < 2k.  Then N(v) = a^2 - ab + b^2 = 3^j N(u) with u = v / pi^j
# a unit of Z[w], so j is the 3-valuation of N(v), and v is in the image
# exactly when
#   * j = 0 (mod 3): phi(pi^i e) = (-1)^i pi^(3i) phi(e) since conj(pi) = -pi,
#     and phi of a unit is a unit;
#   * and u mod pi^n, n = 2k - j, lies in phi(units mod pi^n).  -1 = phi(-1) is
#     in the image, so the sign (-1)^i is free.  For n <= 2 every unit
#     passes: a unit e mod 3 has N(e) = 1, so phi(e) = e N(e) = e.  For n >= 3,
#     u passes exactly when N(u) = 1 (mod 9).  At n = 2K even, if
#     N(u) = c^3 (mod 3^K) then e = u/c has phi(e) = e N(e) = u, and the cubes
#     of (Z/3^K)^x are the units = +-1 (mod 9), while a norm of a unit is
#     1 (mod 3); conversely N(phi(e)) = N(e)^3.  At n odd, u passes when one of
#     its three lifts mod pi^(n+1) does, and changing u by pi^3 x changes N(u)
#     by 3 Tr(+-u conj(pi x)) + 27 N(x), a multiple of 9 because the trace of a
#     multiple of pi is a multiple of 3: so N(u) mod 9, and the test, depends
#     on u mod pi^3 alone.
# Counting units mod pi^n (2 * 3^(n-1) of them, a third of which pass when
# n >= 3) gives `form_image_size`.
def in_form_image(ring: ResidueRing, values: np.ndarray) -> np.ndarray:
    """Which of the int64 indices `values` lie in the form image, as a bool array.

    The closed form argued above: no scan, a few array operations on the norms
    of the lifts.
    """
    import numpy as np

    a, b = np.divmod(values, ring.modulus)
    norm = a * a - a * b + b * b  # below 3^(2k) <= 3^16
    hi, lo = np.divmod(norm, _CODE_SPAN)
    codes = _norm_codes()
    # lo = 0 exactly when 3^8 | N, and then N = 3^8 hi: j = 8 + v3(hi).
    return _image_by_code(ring.k)[codes[lo] + (lo == 0) * codes[hi]]


_CODE_SPAN = 3**8


@functools.cache
def _norm_codes() -> np.ndarray:
    """9 j + (r / 3^j) mod 9, j = v3(r), for r in [0, 3^8); 72 (j = 8) at r = 0.

    For a norm N = r (mod 3^8) the code gives j = v3(N) and N(u) mod 9
    whenever j <= 6; at j = 7 only j is exact, and 3 does not divide 7.
    """
    import numpy as np

    j = np.zeros(_CODE_SPAN, dtype=np.int64)
    for i in range(1, 9):
        j[::3**i] += 1
    return 9 * j + np.arange(_CODE_SPAN) // 3**j % 9


@functools.cache
def _image_by_code(k: int) -> np.ndarray:
    """Membership of v in the image mod 3^k by the code 9 j + N(u) mod 9 of N(v)."""
    import numpy as np

    j, unit_norm = np.divmod(np.arange(9 * 17), 9)  # j = 16 for N = 0
    zero = j >= 2 * k  # only v = 0 has N(v) = 0 (mod 3^(2k))
    every_unit = j >= 2 * k - 2  # n = 2k - j <= 2
    return zero | ((j % 3 == 0) & (every_unit | (unit_norm == 1)))


def form_image_size(ring: ResidueRing) -> int:
    """|phi(Z[w]/(3^k))|: 0, plus the passing units mod pi^(2k - j), j = 0, 3, ... < 2k."""
    def passing_units(n: int) -> int:
        return 2 * 3 ** (n - 1) if n <= 2 else 2 * 3 ** (n - 2)

    return 1 + sum(passing_units(2 * ring.k - j) for j in range(0, 2 * ring.k, 3))
