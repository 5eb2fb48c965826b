"""The finite rings Z[w]/(3^k): elements, reduction, and exhaustive image sets.

A ring element is a coordinate pair (a, b) with a, b in [0, 3^k), multiplied
with the usual w^2 = -1 - w reduction; the ring has 9^k elements.  The image
sets needed by the lemma verifier are computed by scanning a coordinate grid
with numpy and storing each set as a dense bitset indexed by a*m + b
(m = 3^k), alongside the lexicographically first producer of every value so
that counterexample reports are reproducible.

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

from typing import Callable, Iterator

import numpy as np

from .eisenstein import EisensteinInt

__all__ = [
    "MAX_VERIFY_K",
    "ResidueElement",
    "ResidueRing",
    "ResidueSet",
    "cube_values",
    "descent_form_image",
    "rhs_values",
]

MAX_K = 19  # 3^19 keeps every intermediate product inside int64
MAX_VERIFY_K = 8  # a scan allocates 9^k int64 slots: 344 MB at k = 8
_CHUNK_CELLS = 1 << 20


class ResidueRing:
    """Z[w]/(3^k) for k >= 1."""

    __slots__ = ("_k", "_m")

    def __init__(self, k: int) -> None:
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
        self._k = k
        self._m = 3**k

    @property
    def k(self) -> int:
        return self._k

    @property
    def modulus(self) -> int:
        return self._m

    @property
    def size(self) -> int:
        return self._m * self._m

    def element(self, a: int, b: int) -> ResidueElement:
        return ResidueElement(a % self._m, b % self._m, self)

    def reduce(self, alpha: EisensteinInt) -> ResidueElement:
        """Coordinatewise reduction Z[w] -> Z[w]/(3^k); a ring homomorphism."""
        return self.element(alpha.a, alpha.b)

    def zero(self) -> ResidueElement:
        return ResidueElement(0, 0, self)

    def one(self) -> ResidueElement:
        return ResidueElement(1, 0, self)

    def __iter__(self) -> Iterator[ResidueElement]:
        """All 9^k elements exactly once, lexicographic in (a, b)."""
        for a in range(self._m):
            for b in range(self._m):
                yield ResidueElement(a, b, self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueRing):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(("ResidueRing", self._k))

    def __repr__(self) -> str:
        return f"ResidueRing(k={self._k})"


class ResidueElement:
    """An element of Z[w]/(3^k), coordinates always reduced mod 3^k."""

    __slots__ = ("_a", "_b", "_ring")

    def __init__(self, a: int, b: int, ring: ResidueRing) -> None:
        self._a = a
        self._b = b
        self._ring = ring

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @property
    def ring(self) -> ResidueRing:
        return self._ring

    @property
    def index(self) -> int:
        return self._a * self._ring.modulus + self._b

    def _check_ring(self, other: ResidueElement) -> None:
        if self._ring != other._ring:
            raise ValueError("cannot mix elements of different residue rings")

    def __add__(self, other: ResidueElement) -> ResidueElement:
        if not isinstance(other, ResidueElement):
            return NotImplemented
        self._check_ring(other)
        m = self._ring.modulus
        return ResidueElement((self._a + other._a) % m, (self._b + other._b) % m, self._ring)

    def __neg__(self) -> ResidueElement:
        m = self._ring.modulus
        return ResidueElement(-self._a % m, -self._b % m, self._ring)

    def __sub__(self, other: ResidueElement) -> ResidueElement:
        if not isinstance(other, ResidueElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: ResidueElement) -> ResidueElement:
        if not isinstance(other, ResidueElement):
            return NotImplemented
        self._check_ring(other)
        m = self._ring.modulus
        a, b, c, d = self._a, self._b, other._a, other._b
        return ResidueElement((a * c - b * d) % m, (a * d + b * c - b * d) % m, self._ring)

    def __pow__(self, n: int) -> ResidueElement:
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = self._ring.one()
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueElement):
            return NotImplemented
        return self._ring == other._ring and self._a == other._a and self._b == other._b

    def __hash__(self):
        return hash((self._ring.k, self._a, self._b))

    def __repr__(self) -> str:
        return f"ResidueElement({self._a}, {self._b}, k={self._ring.k})"


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

    def __contains__(self, element: ResidueElement) -> bool:
        if element.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return bool(self.bitset[element.index])

    def __iter__(self) -> Iterator[ResidueElement]:
        m = self.ring.modulus
        for v in self.values:
            yield ResidueElement(int(v) // m, int(v) % m, self.ring)

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
    if ring.k > MAX_VERIFY_K:
        raise ValueError(f"scans need k <= {MAX_VERIFY_K}, got {ring.k}")
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
