#!/usr/bin/env python3
"""Height-bounded descent search over covers t^3 = f(z).

For the cover t^3 = 3(z^3 + 2) no rational point descends (the point at
infinity included, where the projective model has residue value 3); the
search confirms this empirically point by point.  A shifted cover is run
afterwards to show what a descending point looks like in a report.
"""

from eisdescent import enumerate_rationals, search
from eisdescent.cli import main

print("rationals of height <= 2, in enumeration order:")
print("  ", ", ".join(str(q) for q in enumerate_rationals(2)))
print()

print("== the cover t^3 = 3(z^3 + 2) ==")
report = search([6, 0, 0, 3], 25)
print(f"height bound {report.height}: {report.n_points} points classified")
for kind, count in sorted(report.counts.items()):
    print(f"  {kind:>12}: {count}")
print(f"  at infinity: a = {report.infinity['a']} -> "
      f"{report.infinity['classification']}")
assert report.counts["Descends"] == 0

print()
print("== a cover that does have descending points: t^3 = z + (6+3w) ==")
assert main(["search", "--coeffs", "6+3*w,1", "--height", "2"]) == 0
