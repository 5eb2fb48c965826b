"""The benchmark's three workloads: their CLI commands and output checks.

A workload is a list of `Op`s, each one `eisdescent` command line plus a
check of its output that relies only on `oracle` (never on the code under
test).  Every workload is built from a seed; the same seed gives the same
commands in the same order.  The expected answers are computed here, before
anything is timed.

Why these workloads (see README.md for the full metric mapping):

* residue-lemmas is the only one that calls `residues`: a large ring
  (k = 7), many small rings (the k = 1..5 sweep) and CSV output, so a
  large-k gain that costs small k or output shows.
* cover-search is `search` and `descent`: a cover where the norm filter
  rejects every point, and one where every finite nonzero point descends.
* classify-factor is `intfactor` and prime splitting in `eisenstein`, on a
  ladder of sizes, plus one factor op bounded by a per-op time limit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle

RUN_DIR = ".perfbench_runs"  # relative to the checkout root; git-ignored
DUMP_PATH = f"{RUN_DIR}/rhs_k7.csv"


@dataclass
class Op:
    """One CLI call; `check(code, stdout)` returns a list of problems."""

    name: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    group: str
    size: int = 0  # points searched, for the search throughput figures


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[list[str]]
    bounded: Op | None = None  # run as a child process under BOUNDED_LIMIT_S
    speed: str = "python"  # the calibration whose speed drift tracks this workload's


def report_section(stdout: str) -> str:
    """The exact bytes of the document's "report" member as printed."""
    start = stdout.find('\n  "report": ')
    if start < 0:
        raise ValueError("no report section in the output")
    return stdout[start:]


def section_sha(stdout: str) -> str:
    return hashlib.sha256(report_section(stdout).encode()).hexdigest()


def _parsed(code: int, stdout: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(stdout)["report"], []
    except (ValueError, KeyError) as exc:
        return None, [f"unreadable output: {exc}"]


def _checker(body: Callable[[dict], list[str]], pin: str | None = None):
    def check(code: int, stdout: str) -> list[str]:
        report, problems = _parsed(code, stdout)
        if report is None:
            return problems
        problems = body(report)
        if pin is not None and section_sha(stdout) != pin:
            problems.append("report bytes differ from the pinned sha256")
        return problems
    return check


# -- residue-lemmas -----------------------------------------------------------

SWEEP_KS = (1, 2, 3, 4, 5)


def _verify_check(lemma: str, k: int, sizes: dict, count: int, examples: list[dict]):
    m = 3**k

    def body(r: dict) -> list[str]:
        problems = []
        # The valuation argument: the form has pi-valuation divisible by 3,
        # the right side has valuation 2 or 4 once k >= 3, and z^3 = -2 (mod 9)
        # has no solution; cube-closure holds through k = 5.
        holds = k >= 3 if lemma == "no-solution" else True
        if r.get("lemma") != lemma or r.get("k") != k:
            problems.append("wrong lemma or k echoed")
        if r.get("holds") is not holds:
            problems.append(f"holds={r.get('holds')}, expected {holds}")
        if r.get("set_sizes") != sizes:
            problems.append(f"set sizes {r.get('set_sizes')} != {sizes}")
        if r.get("counterexample_count") != count:
            problems.append(f"counterexample_count {r.get('counterexample_count')} != {count}")
        if r.get("counterexamples") != examples:
            problems.append("counterexample list differs from the brute-force list")
        for ce in r.get("counterexamples") or []:
            z = tuple(ce["z"])
            lhs = oracle.form(ce["x"], ce["y"])
            c = oracle.power(z, 3)
            if not oracle.congruent_mod(lhs, (3 * (c[0] + 2), 3 * c[1]), m):
                problems.append(f"counterexample {ce} is not a solution mod 3^{k}")
        return problems
    return body


def residue_lemmas(seed: int, pins: dict) -> Workload:
    rng = random.Random(f"residue-lemmas/{seed}")
    checks = {}
    for k in (*SWEEP_KS, 7):
        image = oracle.form_image_bits(k)
        rhs = oracle.rhs_bits(k)
        common = int(np.count_nonzero(image & rhs))
        if (common == 0) != (k >= 3):
            raise AssertionError(f"oracle contradicts the valuation argument at k={k}")
        examples = []
        if k <= 2:
            examples = [{"x": x, "y": y, "z": [za, zb]}
                        for x, y, za, zb in oracle.no_solution_counterexamples(k)][:100]
        sizes = {"form_image": int(image.sum()), "rhs": int(rhs.sum()), "ring": 9**k}
        checks["no-solution", k] = _verify_check("no-solution", k, sizes, common, examples)
        if k in SWEEP_KS:
            sizes = {"cubes": int(oracle.cube_bits(k).sum()), "form_image": sizes["form_image"],
                     "ring": 9**k}
            checks["cube-closure", k] = _verify_check(
                "cube-closure", k, sizes, oracle.closure_failures(k), [])

    ops = [
        Op("verify_nosol_k7", ["verify", "no-solution", "--k", "7"],
           checks["no-solution", 7], "large"),
        Op("verify_closure_k5", ["verify", "cube-closure", "--k", "5"],
           checks["cube-closure", 5], "large"),
    ]
    for k in SWEEP_KS:
        ops.append(Op(f"sweep_nosol_k{k}", ["verify", "no-solution", "--k", str(k)],
                      checks["no-solution", k], "sweep"))
        ops.append(Op(f"sweep_closure_k{k}", ["verify", "cube-closure", "--k", str(k)],
                      checks["cube-closure", k], "sweep"))
    ops.append(Op("minimal_modulus_8", ["minimal-modulus", "--max-k", "8"], lambda r: (
        [] if r == {"max_k": 8, "minimal_k": 3} else [f"minimal modulus report {r}"]),
        "minimal"))

    csv = oracle.rhs_csv_bytes(7)
    csv_sha = hashlib.sha256(csv).hexdigest()
    rhs7 = csv.count(b"\n") - 1

    def dump(r: dict) -> list[str]:
        problems = []
        if r != {"set": "rhs", "k": 7, "path": DUMP_PATH, "size": rhs7}:
            problems.append(f"dump-set report {r}")
        with open(DUMP_PATH, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != csv_sha:
                problems.append("CSV differs from the independently computed rhs set")
        return problems

    ops.append(Op("dump_rhs_k7", ["dump-set", "rhs", "--k", "7", "--path", DUMP_PATH],
                  dump, "dump"))
    for op in ops:
        op.check = _checker(op.check, pins.get(op.name))
    rng.shuffle(ops)
    warmup = [["verify", "no-solution", "--k", "3"],
              ["dump-set", "rhs", "--k", "2", "--path", f"{RUN_DIR}/warmup.csv"]]
    return Workload("residue-lemmas", ops, warmup, speed="numpy")


# -- cover-search -------------------------------------------------------------

TARGET = ("6,0,0,3", 200)  # t^3 = 3(z^3 + 2), the paper's cover
DESCENDING = ("0,0,0,w", 60)  # t^3 = w z^3: every finite nonzero point descends


def _search_counts(r: dict, n_points: int, expected: dict) -> list[str]:
    problems = []
    counts = r.get("counts", {})
    if r.get("n_points") != n_points:
        problems.append(f"n_points {r.get('n_points')} != gcd count {n_points}")
    if sum(counts.values()) != n_points:
        problems.append("counts do not sum to n_points")
    if counts != expected:
        problems.append(f"counts {counts} != {expected}")
    return problems


def cover_search(seed: int, pins: dict) -> Workload:
    rng = random.Random(f"cover-search/{seed}")

    coeffs, height = TARGET
    points = oracle.rationals_of_height(height)
    n_target = len(points) + 1  # plus the point at infinity
    # f(p/q) = (3p^3 + 6q^3)/q^3 is rational: it is a cube iff the numerator
    # is, it is never 0, and a rational non-cube is never a form value.
    cubes = sum(1 for z in points
                if oracle.int_cbrt(3 * z.numerator**3 + 6 * z.denominator**3) is not None)
    target_counts = {"Descends": 0, "Disconnected": cubes, "NoDescent": n_target - cubes,
                     "Undefined": 0}

    def target(r: dict) -> list[str]:
        problems = _search_counts(r, n_target, target_counts)
        if r.get("descends") != []:
            problems.append("a descending point on the target cover")
        if r.get("infinity") != {"a": "3", "classification": "NoDescent"}:
            problems.append(f"infinity entry {r.get('infinity')}")
        return problems

    coeffs_d, height_d = DESCENDING
    nonzero = set(oracle.rationals_of_height(height_d)) - {Fraction(0)}
    n_desc = len(nonzero) + 2
    desc_counts = {"Descends": n_desc - 1, "Disconnected": 0, "NoDescent": 0, "Undefined": 1}

    def descending(r: dict) -> list[str]:
        problems = _search_counts(r, n_desc, desc_counts)
        found = r.get("descends", [])
        if {Fraction(d["z"]) for d in found} != nonzero or len(found) != len(nonzero):
            problems.append("descending points are not exactly the nonzero rationals")
        for d in found:
            z = Fraction(d["z"])
            a = oracle.parse_element(d["a"])
            x, y = Fraction(d["witness"]["x"]), Fraction(d["witness"]["y"])
            if a != (0, z**3) or oracle.form(x, y) != a:
                problems.append(f"witness at z={z} fails form(x, y) = f(z)")
                break
        if r.get("infinity") != {"a": "1*w", "classification": "Descends"}:
            problems.append(f"infinity entry {r.get('infinity')}")
        return problems

    ops = [
        Op("search_target", ["search", "--coeffs", coeffs, "--height", str(height)],
           _checker(target, pins.get("search_target")), "target", n_target),
        Op("search_descending", ["search", "--coeffs", coeffs_d, "--height", str(height_d)],
           _checker(descending, pins.get("search_descending")), "descending", n_desc),
    ]
    rng.shuffle(ops)
    warmup = [["search", "--coeffs", coeffs, "--height", "5"],
              ["search", "--coeffs", coeffs_d, "--height", "5"]]
    return Workload("cover-search", ops, warmup)


# -- classify-factor ------------------------------------------------------------

CLASSIFY_BITS = (12, 18, 24)  # prime-norm sizes inside the classify inputs
FACTOR_BITS = (12, 20, 28, 36, 44)  # norm sizes of the factor inputs
PER_CELL = 4  # inputs per (kind, size)
BOUNDED_BITS = 60
BOUNDED_LIMIT_S = 5.0


def prime_element(rng: random.Random, bits: int, spread: float):
    """An element of Z[w] whose norm is a `bits`-bit prime.

    Its smallest coordinate over all associates and conjugates is `spread`
    times the largest that coordinate can be for a `bits`-bit norm.  The cost
    of finding a prime of given norm depends on that coordinate, so fixing it
    by a ladder of spreads makes totals comparable from seed to seed; the
    seed still picks the prime.
    """
    s = max(1, int(spread * math.isqrt((1 << bits) // 3)))
    while True:
        # b >= 2s keeps s the smallest of |s|, |b|, |b - s|; the norm grows
        # with b, so the b giving a `bits`-bit norm form one range [lo, hi].
        lo = 2 * s
        while (s * s - s * lo + lo * lo).bit_length() < bits:
            lo = max(lo + 1, (s + math.isqrt(max(0, (1 << (bits + 1)) - 3 * s * s))) // 2)
        hi = (s + math.isqrt((1 << (bits + 2)) - 3 * s * s)) // 2
        while (s * s - s * hi + hi * hi).bit_length() > bits:
            hi -= 1
        first = rng.randrange(lo, hi + 1) if lo <= hi else lo
        for i in range(hi - lo + 1):
            b = lo + (first - lo + i) % (hi - lo + 1)
            if oracle.is_prime(s * s - s * b + b * b):
                p = oracle.mul(rng.choice(oracle.UNITS), (s, b))
                return oracle.conj(p) if rng.random() < 0.5 else p
        s = max(1, s - 1)


def _strata(i: int) -> float:
    return (i + 0.5) / PER_CELL


def _classify_check(value, kind: str, witness=None):
    def body(r: dict) -> list[str]:
        problems = []
        if oracle.parse_element(r.get("element", "")) != value:
            problems.append("element echoed wrongly")
        if r.get("classification") != kind:
            problems.append(f"classified {r.get('classification')}, built as {kind}")
        w = r.get("witness")
        if kind == "Descends":
            xy = (Fraction(w["x"]), Fraction(w["y"])) if w else None
            if xy is None or oracle.form(*xy) != value:
                problems.append("witness does not satisfy form(x, y) = a")
            elif witness is not None and xy != witness:
                problems.append("witness differs from the unique preimage")
        elif w is not None:
            problems.append("witness on a non-descending point")
        return problems
    return _checker(body)


def factor_check(value):
    """Check a `factor` report: it multiplies back and every prime is prime."""
    def body(r: dict) -> list[str]:
        problems = []
        if oracle.parse_element(r.get("element", "")) != value:
            problems.append("element echoed wrongly")
        unit = oracle.parse_element(r.get("unit", ""))
        if unit not in oracle.UNITS:
            problems.append(f"{r.get('unit')} is not a unit")
        product = unit
        for f in r.get("factors", []):
            p = oracle.parse_element(f["prime"])
            e = f["exponent"]
            if p[0].denominator != 1 or p[1].denominator != 1 or e < 1:
                problems.append(f"bad factor entry {f}")
                continue
            p = (int(p[0]), int(p[1]))
            inert = p[1] == 0 and p[0] % 3 == 2 and oracle.is_prime(p[0])
            if not (inert or oracle.is_prime(oracle.norm(p))):
                problems.append(f"{f['prime']} is not prime")
            product = oracle.mul(product, oracle.power(p, e))
        if product != value:
            problems.append("factors do not multiply back to the input")
        return problems
    return _checker(body)


def _rational_scale(rng: random.Random):
    return Fraction(rng.randrange(1, 31), rng.randrange(1, 31))


def classify_factor(seed: int, pins: dict) -> Workload:
    rng = random.Random(f"classify-factor/{seed}")
    ops = []

    def add(name: str, command: str, value, check) -> None:
        ops.append(Op(name, [command, "--", oracle.format_element(value)], check, command))

    for bits in CLASSIFY_BITS:
        for i in range(PER_CELL):
            unit = rng.choice(oracle.UNITS)
            alpha = oracle.scale(oracle.mul(unit, prime_element(rng, bits, _strata(i))),
                                 _rational_scale(rng))
            # conj(alpha)/alpha has valuation -1 at the split prime dividing
            # alpha, so form(alpha) is not a cube: it descends, alpha the witness.
            a = oracle.form(*alpha)
            add(f"classify/form/{bits}/{i}", "classify", a, _classify_check(a, "Descends", alpha))
            gamma = oracle.scale(prime_element(rng, bits, _strata(i)), _rational_scale(rng))
            cube = oracle.power(gamma, 3)
            add(f"classify/cube/{bits}/{i}", "classify", cube,
                _classify_check(cube, "Disconnected"))
            # w is not a cube in Q(w), and w*gamma^3 = form of w*gamma^2/conj(gamma).
            wc = oracle.mul(oracle.W, cube)
            add(f"classify/wcube/{bits}/{i}", "classify", wc, _classify_check(wc, "Descends"))
            while True:
                half = 1 << (bits // 2)
                num = (rng.randrange(-half, half), rng.randrange(1, half))
                den = rng.randrange(1, 31)
                if not oracle.is_rational_cube(Fraction(oracle.norm(num), den * den)):
                    break
            # A norm that is not a rational cube rules out cubes and form values.
            nn = (Fraction(num[0], den), Fraction(num[1], den))
            add(f"classify/nonnorm/{bits}/{i}", "classify", nn, _classify_check(nn, "NoDescent"))
    for bits in FACTOR_BITS:
        for i in range(PER_CELL):
            p = prime_element(rng, bits, _strata(i))
            add(f"factor/prime/{bits}/{i}", "factor", p, factor_check(p))
            c = _composite(rng, bits)
            add(f"factor/composite/{bits}/{i}", "factor", c, factor_check(c))
    rng.shuffle(ops)
    p = prime_element(rng, BOUNDED_BITS, 0.5 + 0.5 * rng.random())
    bounded = Op(f"factor/prime/{BOUNDED_BITS}/bounded",
                 ["factor", "--", oracle.format_element(p)], factor_check(p), "bounded")
    warmup = [["classify", "6+3*w"], ["factor", "1980-366*w"]]
    return Workload("classify-factor", ops, warmup, bounded)


def _composite(rng: random.Random, bits: int):
    """unit * pi^e * (2 or nothing) * two split primes, norm about `bits` bits."""
    e = rng.randrange(3)
    two = rng.random() < 0.5
    rest = bits - round(e * math.log2(3)) - (2 if two else 0)
    h = rest // 2
    out = oracle.mul(rng.choice(oracle.UNITS), oracle.power((1, 2), e))
    if two:
        out = oracle.scale(out, 2)
    out = oracle.mul(out, prime_element(rng, h, rng.random()))
    return oracle.mul(out, prime_element(rng, rest - h, rng.random()))


WORKLOADS = {
    "residue-lemmas": residue_lemmas,
    "cover-search": cover_search,
    "classify-factor": classify_factor,
}
