"""Exhaustive image sets in the finite rings Z[w]/(3^k), scanned with numpy.

An element of Z[w]/(3^k) is the coordinate pair (a, b), a, b in [0, 3^k),
standing for a + b w with w^2 = -1 - w; it is never an object here, only
the index a*m + b (m = 3^k) into the ring's 9^k elements.  `ResidueRing`
holds k, and its constructor is where k is bounded (1 <= k <= MAX_VERIFY_K).
The image sets needed by the lemma verifier are computed by scanning a
coordinate grid with numpy and stored as a dense bitset over those indices,
alongside the lexicographically first producer of every value so that
counterexample reports are reproducible.

A scan scatters every producer index into a dense array of 9^k slots with
np.minimum.at, so each slot ends up holding the smallest producer of its
value whatever order the grid is visited in.  The grid is processed in
chunks only to bound memory.

Cubes and the right-hand side 3(z^3 + 2) are scanned over the box
z in [0, 3^(k-1))^2 when k >= 2: (z + 3^(k-1) t)^3 = z^3 (mod 3^k), since the
cross terms carry a factor 3 * 3^(k-1) and the t^3 term 3^(3(k-1)), with
3(k-1) >= k.  Reducing both coordinates mod 3^(k-1) never increases them, so
the lexicographically first producer always lies in the box.  The form image
is not periodic mod 3^(k-1) and is scanned over the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_VERIFY_K",
    "ResidueRing",
    "ResidueSet",
    "cube_values",
    "descent_form_image",
    "rhs_values",
]

# The one bound on k.  A scan allocates 9^k int64 slots: 344 MB at k = 8,
# 3.1 GB at k = 9.  Intermediates stay below 2 * 9^k, far inside int64.
MAX_VERIFY_K = 8
_CHUNK_CELLS = 1 << 20


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
    """An exhaustively computed subset of Z[w]/(3^k), as a dense bitset.

    `values` holds the member indices (a*m + b) in increasing order and
    `producers` the smallest producer index that hit each value, where a
    producer index encodes the scan input (x*m + y for the form image,
    a*m + b of z for the cube and right-hand-side scans).
    """

    __slots__ = ("name", "ring", "values", "producers", "bitset")

    def __init__(self, name: str, ring: ResidueRing, values: np.ndarray,
                 producers: np.ndarray) -> None:
        self.name = name
        self.ring = ring
        self.values = values
        self.producers = producers
        bitset = np.zeros(ring.size, dtype=bool)
        bitset[values] = True
        self.bitset = bitset

    def __len__(self) -> int:
        return int(self.values.size)

    def producer_of(self, value_index: int) -> int:
        """Smallest producer index for a member value (lex-first witness)."""
        pos = int(np.searchsorted(self.values, value_index))
        if pos >= len(self.values) or self.values[pos] != value_index:
            raise KeyError(f"value index {value_index} not in set {self.name}")
        return int(self.producers[pos])

    def write_csv(self, path: str) -> None:
        """Rows "a,b" in enumeration order, after a "# ring=3^k set=..." header."""
        m = self.ring.modulus
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# ring=3^{self.ring.k} set={self.name}\n")
            for v in self.values:
                fh.write(f"{int(v) // m},{int(v) % m}\n")


def _scan_grid(ring: ResidueRing,
               value_fn: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]],
               side: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate value_fn over the (first, second) grid [0, side)^2.

    Returns the distinct value indices and, per value, the smallest producer
    index first*m + second that reached it.
    """
    m = ring.modulus
    unseen = ring.size
    first_producer = np.full(unseen, unseen, dtype=np.int64)
    rows = max(1, _CHUNK_CELLS // side)
    second = np.arange(side, dtype=np.int64)[np.newaxis, :]
    for lo in range(0, side, rows):
        first = np.arange(lo, min(lo + rows, side), dtype=np.int64)[:, np.newaxis]
        va, vb = value_fn(first, second, m)
        np.minimum.at(first_producer, (va * m + vb).ravel(), (first * m + second).ravel())
    values = np.flatnonzero(first_producer < unseen)
    return values, first_producer[values]


def _box_side(ring: ResidueRing) -> int:
    # z^3 mod 3^k depends only on z mod 3^(k-1) once k >= 2 (module docstring).
    return ring.modulus // 3 if ring.k >= 2 else ring.modulus


def _form_values(x: np.ndarray, y: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    # (x + w y)^2 (x + w^2 y) = (x + w y) * (x^2 - x y + y^2)
    n = (x * x - x * y + y * y) % m
    return (x * n) % m, (y * n) % m


def _cube_coords(a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    a2 = (a * a - b * b) % m
    b2 = (2 * a * b - b * b) % m
    va = (a2 * a - b2 * b) % m
    vb = (a2 * b + b2 * a - b2 * b) % m
    return va, vb


def _rhs_coords(a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    ca, cb = _cube_coords(a, b, m)
    return (3 * ca + 6) % m, (3 * cb) % m


def descent_form_image(ring: ResidueRing) -> ResidueSet:
    """{(x + w y)^2 (x + w^2 y) mod 3^k : x, y rational-integer residues}.

    x and y range over Z/(3^k) only, not the full ring; producer indices
    encode the lex-first (x, y) as x*m + y.
    """
    values, producers = _scan_grid(ring, _form_values, ring.modulus)
    return ResidueSet("form-image", ring, values, producers)


def cube_values(ring: ResidueRing) -> ResidueSet:
    """{z^3 : z over the full ring}; producers encode the lex-first z."""
    values, producers = _scan_grid(ring, _cube_coords, _box_side(ring))
    return ResidueSet("cubes", ring, values, producers)


def rhs_values(ring: ResidueRing) -> ResidueSet:
    """{3(z^3 + 2) : z over the full ring}; producers encode the lex-first z."""
    values, producers = _scan_grid(ring, _rhs_coords, _box_side(ring))
    return ResidueSet("rhs", ring, values, producers)
