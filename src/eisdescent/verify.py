"""Exhaustive verification of two residue-ring facts behind the no-descent result.

Both checks live in Z[w]/(3^k) and reduce to membership tests in the form
image, decided in closed form by `residues.in_form_image` with no scan of
the 9^k grid:

  * cube-closure: every product of a cube with a value of the descent form
    (over rational-integer residues x, y) is again such a value;
  * no-solution: the descent form never equals 3(z^3 + 2), for any
    rational-integer residues x, y and any ring element z.

Cube-closure is a subset test.  As x, y range over Z/(3^k), x + w y covers
the whole ring, so the form image is phi(Z[w]/(3^k)) with phi(u) = u^2 conj(u).
phi is multiplicative, so the image is a multiplicative monoid containing 1,
and it is closed under cubes exactly when every cube lies in it: then
image * cubes is inside image * image = image, and conversely c^3 = c^3 phi(1).
Every cube does lie in it, at every k: writing c = pi^j e with e a unit,
c^3 = phi((-pi)^j e^2 conj(e)^-1).  The check confirms it for k = 1..8.

No-solution tests each value of the right-hand side, scanned over a box of
z, for membership in the image.  The form-image scan runs only when some
value lies in it, to name the lexicographically first (x, y) producing it.
The check fails for k = 1, 2 and holds from k = 3 (modulus 27) on, hence
also at modulus 81, the modulus at which both checks are certified for the
cover t^3 = 3(z^3 + 2); the minimal-modulus scan finds k = 3.  Reports are
deterministic: counterexample lists are sorted and capped at a fixed size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .residues import (
    ResidueRing,
    cube_values,
    descent_form_image,
    form_image_size,
    in_form_image,
    rhs_values,
)

__all__ = [
    "VerificationReport",
    "minimal_modulus",
    "verify_cube_closure",
    "verify_no_solution",
]

COUNTEREXAMPLE_CAP = 100


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive check over Z[w]/(3^k).

    holds is true exactly when no counterexample exists; the list carries at
    most COUNTEREXAMPLE_CAP assignments (sorted), with the full count kept
    separately.
    """

    lemma: str  # "cube-closure" | "no-solution"
    k: int
    holds: bool
    counterexamples: tuple[dict, ...]
    counterexample_count: int
    set_sizes: dict[str, int]

    def to_report(self) -> dict:
        """The document's byte-stable "report" section."""
        return {
            "lemma": self.lemma,
            "k": self.k,
            "holds": self.holds,
            "counterexample_count": self.counterexample_count,
            "counterexamples": list(self.counterexamples),
            "set_sizes": dict(sorted(self.set_sizes.items())),
        }


def verify_cube_closure(k: int) -> VerificationReport:
    """Check that the form image mod 3^k is closed under multiplication by cubes.

    For every cube value u and every form value s, u*s must land back in the
    form image.  Since the image is a multiplicative monoid containing 1
    (module docstring), that holds exactly when every cube is in the image,
    one closed-form membership test per cube.  A cube u outside the image is
    listed as c^3 * form(1, 0), c its lex-first cube root.
    """
    ring = ResidueRing(k)
    m = ring.modulus
    cubes = cube_values(ring)
    outside = cubes.values[~in_form_image(ring, cubes.values)]
    roots = sorted(divmod(c, m) for c in cubes.first_producers(outside).tolist())
    counterexamples = tuple(
        {"c": [ca, cb], "x": 1, "y": 0} for ca, cb in roots[:COUNTEREXAMPLE_CAP]
    )
    sizes = {"cubes": len(cubes), "form_image": form_image_size(ring), "ring": ring.size}
    return VerificationReport(
        lemma="cube-closure",
        k=k,
        holds=not roots,
        counterexamples=counterexamples,
        counterexample_count=len(roots),
        set_sizes=sizes,
    )


def verify_no_solution(k: int) -> VerificationReport:
    """Check that the form image and {3(z^3 + 2)} are disjoint mod 3^k.

    Counterexamples list, per common value, the lex-first (x, y) producing
    it as a form value and the lex-first z producing it on the right-hand
    side.  Fails for k = 1, 2 and holds for every k >= 3 (so also at k = 4).
    """
    ring = ResidueRing(k)
    m = ring.modulus
    rhs = rhs_values(ring)

    common = rhs.values[in_form_image(ring, rhs.values)]
    failures = []
    if common.size:
        failures = sorted(
            (p // m, p % m, zp // m, zp % m)
            for p, zp in zip(descent_form_image(ring).first_producers(common).tolist(),
                             rhs.first_producers(common).tolist()))
    counterexamples = tuple(
        {"x": x, "y": y, "z": [za, zb]}
        for x, y, za, zb in failures[:COUNTEREXAMPLE_CAP]
    )
    sizes = {"form_image": form_image_size(ring), "rhs": len(rhs), "ring": ring.size}
    return VerificationReport(
        lemma="no-solution",
        k=k,
        holds=common.size == 0,
        counterexamples=counterexamples,
        counterexample_count=int(common.size),
        set_sizes=sizes,
    )


def minimal_modulus(max_k: int) -> int | None:
    """Smallest k <= max_k for which the no-solution check holds, if any."""
    ResidueRing(max_k)  # reject an out-of-range max_k before scanning
    for k in range(1, max_k + 1):
        if verify_no_solution(k).holds:
            return k
    return None
