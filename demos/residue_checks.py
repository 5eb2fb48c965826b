#!/usr/bin/env python3
"""Exhaustive residue-ring checks behind the no-descent result.

Two facts about Z[w]/(3^k) are re-verified by exhaustive enumeration:

  cube-closure  every cube times a value of the descent form (x, y integer
                residues) is again a value of the form;
  no-solution   the form never equals 3(z^3 + 2), z over the whole ring.

The no-solution check fails for k = 1, 2 (explicit counterexamples below)
and holds from k = 3 on.  Cube-closure holds for every k: the form image is
a multiplicative monoid that contains every cube, so the check is one subset
test and runs here up to k = 6 (modulus 729).
"""

from eisdescent import minimal_modulus, verify_cube_closure, verify_no_solution
from eisdescent.cli import main

print("== no-solution check: form(x, y) = 3(z^3 + 2) in Z[w]/(3^k) ==")
for k in (1, 2, 3, 4):
    report = verify_no_solution(k)
    line = f"k={k} (mod {3 ** k:>2}): holds={report.holds}"
    if not report.holds:
        first = report.counterexamples[0]
        line += (f"   e.g. x={first['x']} y={first['y']} "
                 f"z={first['z'][0]}+{first['z'][1]}w")
    print(line + f"   set sizes {report.set_sizes}")

print()
print("smallest k for which the check holds:", minimal_modulus(6))

print()
print("== cube-closure check: cubes lie in the form image, a monoid ==")
for k in range(1, 7):
    report = verify_cube_closure(k)
    print(f"k={k}: holds={report.holds}   "
          f"|cubes|={report.set_sizes['cubes']} "
          f"|form image|={report.set_sizes['form_image']}")

print()
print("== a full certificate document (k = 4) ==")
assert main(["verify", "no-solution", "--k", "4"]) == 0
