"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All arithmetic assertions are exact (zero tolerance); the only tolerances
are the stated wall-clock budgets.
"""

import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np

from eisdescent import (
    PI,
    DescentKind,
    EisensteinInt,
    EisensteinRational,
    UNITS,
    classify,
    descent_form,
    descent_form_preimage,
    factor,
    galois_commutes,
    is_cube,
    pi_divides_both_factors,
    pi_valuation,
    reduce_by_pi,
    verify_cube_closure,
    verify_no_solution,
)
from eisdescent.cli import main

TARGET_COVER_COEFFS = "6,0,0,3"  # f(z) = 3(z^3 + 2)


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    else:
        print(f"ACCEPTANCE {num}: PASS - {description} "
              f"({time.perf_counter() - start:.2f}s)")


def run_cli(*argv: str) -> tuple[int, dict, float]:
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, json.loads(buffer.getvalue()), elapsed


def test_acceptance_1_no_solution_mod_81():
    with criterion(1, "no-solution check holds mod 81 (ring size 6561, < 10 s)"):
        code, doc, elapsed = run_cli("verify", "no-solution", "--k", "4")
        assert code == 0
        report = doc["report"]
        assert report["holds"] is True
        assert report["set_sizes"]["ring"] == 6561
        assert report["counterexamples"] == []
        assert report["counterexample_count"] == 0
        assert elapsed < 10.0


def test_acceptance_2_cube_closure_mod_81():
    with criterion(2, "cube-closure check holds mod 81 (< 60 s)"):
        code, doc, elapsed = run_cli("verify", "cube-closure", "--k", "4")
        assert code == 0
        assert doc["report"]["holds"] is True
        assert elapsed < 60.0


def _mul_mod(p, q, m):
    """Product in Z[w]/(m) of pairs (a, b) = a + b w, with w^2 = -1 - w."""
    a, b = p
    c, d = q
    return ((a * c - b * d) % m, (a * d + b * c - b * d) % m)


def _form_mod(x, y, m):
    """(x + w y)^2 (x + w^2 y) mod m, using x + w^2 y = (x - y) - y w."""
    beta = (x, y)
    return _mul_mod(_mul_mod(beta, beta, m), (x - y, -y), m)


def _rhs_mod(z, m):
    """3(z^3 + 2) mod m."""
    z3 = _mul_mod(_mul_mod(z, z, m), z, m)
    return ((3 * z3[0] + 6) % m, (3 * z3[1]) % m)


def test_acceptance_3_minimal_modulus():
    # The no-solution check fails mod 3 and 9 and holds from 27 = pi^6 on:
    # for integer x, y the form (x + w y) N(x + w y) has pi-valuation
    # divisible by 3, while 3(z^3 + 2) has pi-valuation 2 or 4, so the two
    # sides cannot agree mod pi^6.  The enumerations below check this without
    # eisdescent.residues or eisdescent.verify.
    with criterion(3, "minimal modulus is 3^3, with k = 1, 2 failing"):
        code, doc, _ = run_cli("minimal-modulus", "--max-k", "6")
        assert code == 0
        assert doc["report"]["minimal_k"] == 3, (
            f"minimal modulus measured at k={doc['report']['minimal_k']}, "
            "criterion expects k=3"
        )
        for k in (1, 2):
            report = verify_no_solution(k)
            assert not report.holds, (
                f"verify_no_solution(k={k}) holds; expected a counterexample"
            )
            assert report.counterexample_count >= 1
            m = 3**k
            for ce in report.counterexamples:
                assert _form_mod(ce["x"], ce["y"], m) == _rhs_mod(tuple(ce["z"]), m)
        report = verify_no_solution(3)
        assert report.holds
        assert report.counterexample_count == 0
        assert report.counterexamples == ()

        # independent enumeration: the value sets meet mod 9, not mod 27
        for k, meet in ((2, True), (3, False)):
            m = 3**k
            forms = {_form_mod(x, y, m) for x in range(m) for y in range(m)}
            rhs = {_rhs_mod((a, b), m) for a in range(m) for b in range(m)}
            assert bool(forms & rhs) is meet, f"k={k}"

        # the valuation argument, over a full residue system of Z[w]/(27)
        three, two = EisensteinInt(3, 0), EisensteinInt(2, 0)
        for a in range(27):
            for b in range(27):
                z = beta = EisensteinInt(a, b)
                assert pi_valuation(three * (z**3 + two))[0] in (2, 4)
                if beta:  # form(a, b) = beta * N(beta)
                    form = beta * EisensteinInt(beta.norm(), 0)
                    assert pi_valuation(form)[0] % 3 == 0


def test_acceptance_4_target_cover_search_height_50():
    with criterion(4, "cover t^3 = 3(z^3+2): no descending point, height <= 50 "
                      "(< 60 s)"):
        code, doc, elapsed = run_cli(
            "search", "--coeffs", TARGET_COVER_COEFFS, "--height", "50")
        assert code == 0
        report = doc["report"]
        # exact-zero tolerance: this cover has no descending points, so any
        # Descends finding is a build-failing bug
        assert report["counts"]["Descends"] == 0
        assert report["descends"] == []
        assert report["infinity"] == {"a": "3", "classification": "NoDescent"}
        expected_points = 1 + sum(
            1
            for p in range(-50, 51)
            for q in range(1, 51)
            if math.gcd(abs(p), q) == 1
        )
        assert report["n_points"] == expected_points
        assert sum(report["counts"].values()) == expected_points
        assert elapsed < 60.0


def test_acceptance_8_target_cover_search_at_the_point_bound():
    height = 499  # the largest height MAX_SEARCH_POINTS allows
    with criterion(8, "cover t^3 = 3(z^3+2): no descending point, height <= 499, "
                      "Disconnected = cube numerators 3p^3 + 6q^3 (< 1 s)"):
        code, doc, elapsed = run_cli(
            "search", "--coeffs", TARGET_COVER_COEFFS, "--height", str(height))
        assert code == 0
        report = doc["report"]
        assert report["counts"]["Descends"] == 0
        assert report["descends"] == []
        # f(p/q) = (3p^3 + 6q^3)/q^3 is rational and never 0: a cube exactly
        # when its numerator is, and a rational non-cube is no form value.
        # Count the lowest-terms p/q and the cube numerators on a full grid.
        p, q = np.meshgrid(np.arange(-height, height + 1), np.arange(1, height + 1))
        coprime = np.gcd(p, q) == 1
        p, q = p[coprime], q[coprime]
        numerators = 3 * p**3 + 6 * q**3  # below 2^31
        roots = np.rint(np.cbrt(numerators)).astype(np.int64)
        cubes = int(np.count_nonzero(roots**3 == numerators))
        assert report["n_points"] == p.size + 1
        assert report["counts"] == {"Descends": 0, "Disconnected": cubes,
                                    "NoDescent": p.size + 1 - cubes, "Undefined": 0}
        assert report["infinity"] == {"a": "3", "classification": "NoDescent"}
        assert elapsed < 1.0


def test_acceptance_5_descent_form_property_suite():
    with criterion(5, "1000 random points: exact preimage round-trip, Descends "
                      "verdicts, Galois identity"):
        rng = random.Random(501)
        descends_seen = 0
        for _ in range(1000):
            x = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            y = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            if x == 0 and y == 0:
                continue
            a = descent_form(x, y)
            w = descent_form_preimage(a)
            assert w is not None
            assert (w.x, w.y) == (x, y)  # exact, unique preimage
            if not is_cube(a)[0]:
                cls = classify(a)
                assert cls.kind is DescentKind.DESCENDS
                assert galois_commutes(a, cls.witness)  # a^2 = conj(a)(x+wy)^3
                descends_seen += 1
        assert descends_seen > 900


def test_acceptance_6_pi_reduction_property_suite():
    with criterion(6, "500 random pi-divisible points: exact pi^3 reduction and "
                      "divisibility of both factors"):
        rng = random.Random(601)
        pi_cubed = EisensteinRational(PI**3)
        for _ in range(500):
            gamma = EisensteinInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
            beta = gamma * PI  # guarantees pi | (x + w y)
            x, y = beta.a, beta.b
            x2, y2 = reduce_by_pi(x, y)
            assert descent_form(x2, y2) * pi_cubed == descent_form(x, y)
            assert pi_divides_both_factors(x, y) is True


def test_acceptance_7_core_oracle_equivalence():
    with criterion(7, "cube oracle, factor round-trips, pi^2 = -3, naive "
                      "verifier oracle at k = 1"):
        # (1 + 2w)^2 = -3 exactly
        assert PI * PI == EisensteinInt(-3, 0)

        # is_cube agrees with a bounded brute-force oracle on 200 inputs
        numerators = range(-3, 4)
        denominators = (1, 2)
        candidates = {
            EisensteinRational.from_coords(Fraction(xn, xd), Fraction(yn, yd))
            for xn in numerators for xd in denominators
            for yn in numerators for yd in denominators
        }
        cubes_by_value = {}
        for c in candidates:
            cubes_by_value.setdefault(c**3, c)

        def oracle_is_cube(value):
            return value in cubes_by_value

        rng = random.Random(701)
        roots = sorted(candidates, key=lambda c: (c.num.a, c.num.b, c.den))
        omega = EisensteinRational(EisensteinInt(0, 1))
        checked = 0
        while checked < 200:
            beta = rng.choice(roots)
            if not beta:
                continue
            cube_input = beta**3
            noncube_input = cube_input * omega
            got, root = is_cube(cube_input)
            assert got == oracle_is_cube(cube_input) == True  # noqa: E712
            assert root is not None and root**3 == cube_input
            got, _ = is_cube(noncube_input)
            assert got == oracle_is_cube(noncube_input) == False  # noqa: E712
            checked += 2

        # factor round-trips on 500 random elements of norm <= 10^12
        for _ in range(500):
            alpha = EisensteinInt(rng.randint(-577_000, 577_000),
                                  rng.randint(-577_000, 577_000))
            if not alpha:
                continue
            assert alpha.norm() <= 10**12
            f = factor(alpha)
            assert f.value() == alpha
            assert f.unit in UNITS

        # verifier results at k = 1 match an independent naive triple loop
        def mul3(p, q):
            a, b = p
            c, d = q
            return ((a * c - b * d) % 3, (a * d + b * c - b * d) % 3)

        ring_elems = [(a, b) for a in range(3) for b in range(3)]
        image = set()
        for x in range(3):
            for y in range(3):
                n = (x * x - x * y + y * y) % 3
                image.add(((x * n) % 3, (y * n) % 3))
        naive_closure = all(
            mul3(mul3(mul3(z, z), z), s) in image
            for z in ring_elems for s in image
        )
        naive_no_solution = True
        for z in ring_elems:
            z3 = mul3(mul3(z, z), z)
            rhs = ((3 * z3[0] + 6) % 3, (3 * z3[1]) % 3)
            if rhs in image:
                naive_no_solution = False
        assert verify_cube_closure(1).holds == naive_closure
        assert verify_no_solution(1).holds == naive_no_solution
