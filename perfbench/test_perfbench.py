"""Self-tests of the benchmark: seeded inputs, tracer wiring, and oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from eisdescent import cli  # noqa: E402

PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    (ROOT / workloads.RUN_DIR).mkdir(exist_ok=True)


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def corrupt(stdout: str, edit) -> str:
    document = json.loads(stdout)
    edit(document["report"])
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def residue():
    return {op.name: op for op in workloads.residue_lemmas(5, PINS["residue-lemmas"]).ops}


@pytest.fixture(scope="module")
def cover():
    return {op.name: op for op in workloads.cover_search(5, PINS["cover-search"]).ops}


@pytest.fixture(scope="module")
def classify_factor():
    return workloads.classify_factor(5, {})


def test_same_seed_gives_same_inputs(classify_factor, cover):
    again = workloads.classify_factor(5, {})
    assert [op.argv for op in again.ops] == [op.argv for op in classify_factor.ops]
    assert again.bounded.argv == classify_factor.bounded.argv
    other = workloads.classify_factor(6, {})
    assert [op.argv for op in other.ops] != [op.argv for op in classify_factor.ops]
    assert ([op.argv for op in workloads.cover_search(5, {}).ops]
            == [op.argv for op in cover.values()])


def test_prime_elements_have_prime_norms_of_the_asked_size():
    import random

    rng = random.Random(0)
    for bits in (3, 12, 44, 60):
        for spread in (0.125, 0.875):
            a, b = workloads.prime_element(rng, bits, spread)
            n = oracle.norm((a, b))
            assert n.bit_length() == bits and oracle.is_prime(n)


def bound_names():
    return [(owner, attr) for owner, attr, _, _ in tracer.BINDINGS] + [
        (tracer.search, "enumerate_rationals")] + [
        (cli._SET_BUILDERS, key) for key in cli._SET_BUILDERS]


def lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_attaches_records_and_detaches_cleanly():
    originals = [lookup(owner, attr) for owner, attr in bound_names()]
    plain = call(["classify", "6+3*w"])
    trace = tracer.Tracer()
    trace.attach()
    try:
        assert all(lookup(o, a) is not f for (o, a), f in zip(bound_names(), originals))
        with pytest.raises(RuntimeError):
            trace.attach()
        traced = call(["classify", "6+3*w"])
    finally:
        trace.detach()
    assert all(lookup(o, a) is f for (o, a), f in zip(bound_names(), originals))
    assert workloads.report_section(traced[1]) == workloads.report_section(plain[1])
    names = [span[0] for span in trace.spans]
    for name in ("cli.main", "parsing.parse", "descent.classify", "eisenstein.is_cube",
                 "eisenstein.factor", "intfactor.factor_int", "reports.dumps"):
        assert name in names
    for i, (_, start, end, parent, _) in enumerate(trace.spans):
        assert start <= end and -1 <= parent < i
    layers = trace.per_layer()
    assert layers["descent.classify.calls"] == 1 and layers["residues.cells"] == 0
    call(["classify", "6+3*w"])
    assert len(trace.spans) == len(names)  # nothing recorded after detach


def test_tracer_counts_residue_scans(residue):
    trace = tracer.Tracer()
    trace.attach()
    try:
        code, stdout = call(["verify", "no-solution", "--k", "3"])
    finally:
        trace.detach()
    assert residue["sweep_nosol_k3"].check(code, stdout) == []
    layers = trace.per_layer()
    assert layers["residues.cells"] == 2 * 9**3
    assert layers["verify.no_solution.self_s"] > 0


def test_residue_oracles_reject_corrupted_reports(residue):
    op = residue["sweep_nosol_k2"]
    code, stdout = call(op.argv)
    assert op.check(code, stdout) == []
    assert op.check(1, stdout)

    def flip(r):
        r["holds"] = True

    def move(r):
        r["counterexamples"][0]["x"] += 1

    def resize(r):
        r["set_sizes"]["rhs"] += 1

    for edit in (flip, move, resize):
        assert op.check(code, corrupt(stdout, edit))
    assert op.check(code, stdout.replace('"k": 2', '"k":  2'))  # pinned bytes

    op = residue["minimal_modulus_8"]
    code, stdout = call(op.argv)
    assert op.check(code, stdout) == []
    assert op.check(code, corrupt(stdout, lambda r: r.update(minimal_k=4)))

    op = residue["dump_rhs_k7"]
    code, stdout = call(op.argv)
    assert op.check(code, stdout) == []
    path = ROOT / workloads.DUMP_PATH
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert op.check(code, stdout)


def test_cover_oracles_reject_corrupted_reports(cover):
    op = cover["search_descending"]
    code, stdout = call(op.argv)
    assert op.check(code, stdout) == []

    def witness(r):
        r["descends"][5]["witness"]["y"] = "7"

    def count(r):
        r["n_points"] += 1

    def drop(r):
        r["descends"].pop()

    for edit in (witness, count, drop):
        assert op.check(code, corrupt(stdout, edit))

    op = cover["search_target"]
    code, stdout = call(op.argv)
    assert op.check(code, stdout) == []

    def recount(r):
        r["counts"]["NoDescent"] -= 1
        r["counts"]["Disconnected"] += 1

    assert op.check(code, corrupt(stdout, recount))


def test_classify_and_factor_oracles_reject_corrupted_reports(classify_factor):
    seen = set()
    for op in classify_factor.ops:
        kind = op.name.split("/")[1]
        if kind in seen:
            continue
        seen.add(kind)
        code, stdout = call(op.argv)
        assert op.check(code, stdout) == [], op.name
        if op.group == "classify":
            def reclass(r):
                r["classification"] = "NoDescent" if r["classification"] != "NoDescent" \
                    else "Disconnected"
            assert op.check(code, corrupt(stdout, reclass)), op.name
            if "witness" in stdout and json.loads(stdout)["report"]["witness"]:
                def shift(r):
                    r["witness"]["x"] = str(oracle.Fraction(r["witness"]["x"]) + 1)
                assert op.check(code, corrupt(stdout, shift)), op.name
        else:
            def bump(r):
                r["factors"][0]["exponent"] += 1

            def merge(r):  # a product of two primes is not prime
                p = oracle.parse_element(r["factors"][0]["prime"])
                r["factors"][0]["prime"] = oracle.format_element(oracle.mul(p, (2, 0)))
            assert op.check(code, corrupt(stdout, bump)), op.name
            assert op.check(code, corrupt(stdout, merge)), op.name
    assert seen == {"form", "cube", "wcube", "nonnorm", "prime", "composite"}


def test_bounded_op_times_out_without_hanging(classify_factor):
    runner = run.Runner(cli, run.Speed("python"))
    for _ in range(2):  # an op counts once however often it runs
        outcome = runner.run_bounded(classify_factor.bounded, 0.5)
        assert outcome["timed_out"]
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 1, 0)
    assert runner.executions == 2
