"""Benchmark runner for eisdescent: one workload per fresh process.

    python3 perfbench/run.py --workload residue-lemmas --seed 1 --seconds 20 --trace 0

Runs the workload's CLI commands in rounds through `eisdescent.cli.main`
(stdout captured, single-threaded) for `--seconds`, checks every output
against `oracle`, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  The line before it is a
{"detail": ...} record: machine, seed, per-command figures and problems.

Times are scaled to a reference machine speed.  On a machine shared with
other tenants the speed of the same code drifts by 20% and more between
30-second windows, which repetition does not average out.  So before each
command the run times a short fixed calibration (pure-Python integer and
Fraction work, or numpy work for the numpy-bound residue-lemmas workload),
and each command time is scaled by REFERENCE_S / (median calibration time
of the samples just before and after it).  Raw medians are kept in the
detail record.  Set-up time is sampled by fresh interpreters spread over
the whole run, one between rounds, so that it too spans the run's drift.

--trace 0 reports the end-to-end metrics.  --trace 1 makes the same
untraced rounds, then one more round with `tracer` attached, and reports
the per-layer metrics.  `--workload all` runs every workload, each in its
own process, and prints all their metrics by name and unit.

Exit codes: 0 with a result, 2 when the program's sources are not next to
the benchmark, 3 when the run would overrun its time limit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_ROUNDS = 3
SETUP_SPAWNS = 11  # at least this many set-up samples: a few first, then one per round
SETUP_FIRST = 3
MAX_PROBLEMS = 20
CALIBRATION_SHARE = 0.1  # calibration time before an op, as a share of the op's time
LOCAL_SAMPLES = 8  # fewer calibration samples around an op: scale by its round's
# Typical median calibration times in runs on a 2-vCPU Intel Xeon VM with
# Python 3.11.7 and numpy 2.4.6; reported times are scaled to this speed.
REFERENCE_S = {"python": 0.0025, "numpy": 0.0029}


def _calibrate_python() -> None:
    """Small-int and big-int work: integer square roots, then reduced Fractions."""
    n = (1 << 44) + 7
    for a in range(1, 6_000):
        math.isqrt(4 * n - 3 * a * a)
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i * i - 3, 6 * i + 1) * Fraction(7, i % 29 + 1)
        acc = Fraction(acc.numerator % 1_000_003, acc.denominator % 999_983 + 1)


_CALIBRATION_ARRAY = np.random.default_rng(0).integers(0, 1 << 40, 200_000)


def _calibrate_numpy() -> None:
    np.sort((_CALIBRATION_ARRAY * 7919) % 1_000_003)


CALIBRATIONS = {"python": _calibrate_python, "numpy": _calibrate_numpy}


class Speed:
    """Calibration samples taken between ops, to scale times to REFERENCE_S."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[float] = []

    def sample(self, budget_s: float = 0.0) -> None:
        """Take calibration samples for at least `budget_s`, and at least one."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            CALIBRATIONS[self.kind]()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
            if spent >= budget_s:
                return

    def scale(self, since: int = 0, until: int | None = None) -> float:
        """REFERENCE_S over the median of the samples `since` to `until`."""
        return REFERENCE_S[self.kind] / statistics.median(self.samples[since:until])


def _program_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(times: list[float], count: int = 1) -> None:
    """Append the wall times of `count` fresh interpreters importing eisdescent.cli.

    Not scaled: start-up is mostly kernel and loader work, and scaling it by
    the Python calibration doubled its run-to-run spread (8 % to 17 %).
    """
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import eisdescent.cli"], env=_program_env(),
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "eisdescent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """95, or the highest percentile with at least ten samples beyond it."""
    return max(0.0, min(95.0, 100.0 * (1 - 10 / n)))


class Runner:
    """Runs ops in-process, checks them, and keeps their timings.

    Ops are counted by name: `attempted` is the number of distinct ops run,
    and an op is failed (or wrong) if any of its executions was.  So the
    counts depend on the workload, not on how many rounds fit in the time.
    """

    def __init__(self, cli, speed: Speed) -> None:
        self.cli = cli
        self.speed = speed
        self.last: dict[str, float] = {}
        self.raw: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}  # scaled
        self.sections: dict[str, str] = {}
        self.executions = 0
        self.attempted_ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.wrong_ops: set[str] = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.attempted_ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def wrong(self) -> int:
        return len(self.wrong_ops)

    def call(self, argv: list[str]) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def run(self, op) -> float:
        self.speed.sample(CALIBRATION_SHARE * self.last.get(op.name, 0.0))
        elapsed, code, stdout, stderr = self.call(op.argv)
        self.last[op.name] = elapsed
        self.check(op, code, stdout, stderr)
        return elapsed

    def run_round(self, ops) -> None:
        """Run each op once; keep raw times and times scaled by the speed around each.

        An op's speed is the median of the calibration samples just before
        and just after it, or of its whole round when those are fewer than
        LOCAL_SAMPLES (the short ops of classify-factor).
        """
        marks, times = [], []
        for op in ops:
            marks.append(len(self.speed.samples))
            times.append(self.run(op))
        marks.append(len(self.speed.samples))
        self.speed.sample(CALIBRATION_SHARE * times[-1])
        marks.append(len(self.speed.samples))
        for i, (op, elapsed) in enumerate(zip(ops, times)):
            lo, hi = marks[i], marks[i + 2]
            if hi - lo < LOCAL_SAMPLES:
                lo, hi = marks[0], marks[-1]
            self.raw.setdefault(op.name, []).append(elapsed)
            self.samples.setdefault(op.name, []).append(elapsed * self.speed.scale(lo, hi))

    def check(self, op, code, stdout: str, stderr: str) -> None:
        self.executions += 1
        self.attempted_ops.add(op.name)
        if code is None:
            problems = [f"raised: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"]
        else:
            try:
                problems = op.check(code, stdout)
                if code == 0:
                    sha = workloads.section_sha(stdout)
                    if self.sections.setdefault(op.name, sha) != sha:
                        problems.append("report bytes changed between runs of the same command")
            except Exception as exc:  # a malformed report must count, not crash the run
                problems = [f"check raised {exc!r}"]
        self.fail(op.name, problems, wrong=True)

    def fail(self, name: str, problems: list[str], wrong: bool) -> None:
        if not problems:
            return
        self.failed_ops.add(name)
        if wrong:
            self.wrong_ops.add(name)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{name}: {'; '.join(problems)}")

    def medians(self, raw: bool = False) -> dict[str, float]:
        return {name: statistics.median(v)
                for name, v in (self.raw if raw else self.samples).items()}

    def run_bounded(self, op, limit_s: float) -> dict:
        """Run one op as a CLI child process under a hard time limit."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "eisdescent", *op.argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_program_env(), text=True)
        try:
            stdout, _ = proc.communicate(timeout=limit_s)
        except subprocess.TimeoutExpired:
            self.executions += 1
            self.attempted_ops.add(op.name)
            self.fail(op.name, [f"no result within {limit_s} s"], wrong=False)
            return {"op": op.name, "timed_out": True, "limit_s": limit_s}
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        elapsed = time.perf_counter() - start
        self.check(op, proc.returncode, stdout, "")
        return {"op": op.name, "timed_out": False, "seconds": elapsed}


STEP_UNITS = {
    "verify_nosol_k7_s": "s", "verify_closure_k5_s": "s", "lemma_sweep_s": "s",
    "dump_set_k7_s": "s", "search_target_pts_per_s": "1/s",
    "search_descending_pts_per_s": "1/s", "classify_p50_ms": "ms", "classify_p95_ms": "ms",
    "factor_p95_ms": "ms", "classify_factor_ops_per_s": "1/s",
}


def steps(workload, runner: Runner) -> dict[str, float]:
    """The workload's own figures (see STEP_UNITS), from scaled times."""
    med = runner.medians()
    if workload.name == "residue-lemmas":
        return {
            "verify_nosol_k7_s": med["verify_nosol_k7"],
            "verify_closure_k5_s": med["verify_closure_k5"],
            "lemma_sweep_s": sum(v for k, v in med.items() if k.startswith("sweep_")),
            "dump_set_k7_s": med["dump_rhs_k7"],
        }
    if workload.name == "cover-search":
        size = {op.name: op.size for op in workload.ops}
        return {
            "search_target_pts_per_s": size["search_target"] / med["search_target"],
            "search_descending_pts_per_s": size["search_descending"] / med["search_descending"],
        }
    groups: dict[str, list[float]] = {"classify": [], "factor": []}
    for op in workload.ops:
        groups[op.group].extend(runner.samples[op.name])
    both = groups["classify"] + groups["factor"]
    return {
        "classify_p50_ms": 1000 * percentile(groups["classify"], 50),
        "classify_p95_ms": 1000 * percentile(
            groups["classify"], tail_percentile(len(groups["classify"]))),
        "factor_p95_ms": 1000 * percentile(
            groups["factor"], tail_percentile(len(groups["factor"]))),
        "classify_factor_ops_per_s": len(both) / sum(both),
    }


def run_workload(args) -> int:
    if not (SRC / "eisdescent" / "cli.py").is_file():
        print(f"error: the eisdescent sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    from eisdescent import cli

    if Path(cli.__file__).resolve().parent != SRC / "eisdescent":
        print(f"error: imported eisdescent from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    (ROOT / workloads.RUN_DIR).mkdir(exist_ok=True)

    pins = json.loads((HERE / "pins.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, pins.get(args.workload, {}))
    setup: list[float] = []
    if not args.trace:
        measure_setup(setup, SETUP_FIRST)
    speed = Speed(workload.speed)
    runner = Runner(cli, speed)
    for argv in workload.warmup:
        runner.call(argv)

    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        runner.run_round(workload.ops)
        rounds += 1
        if not args.trace:
            measure_setup(setup)
    if not args.trace:
        measure_setup(setup, SETUP_SPAWNS - len(setup))
    med = runner.medians()
    round_s = sum(med.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "speed": {"kind": speed.kind, "samples": len(speed.samples),
                  "median_s": statistics.median(speed.samples),
                  "reference_s": REFERENCE_S[speed.kind]},
        "command_medians_s": med,
        "command_medians_raw_s": runner.medians(raw=True),
        "steps": {k: {"value": v, "unit": STEP_UNITS[k]}
                  for k, v in steps(workload, runner).items()},
    }
    if workload.name == "classify-factor":
        n = {g: sum(len(runner.samples[op.name]) for op in workload.ops if op.group == g)
             for g in ("classify", "factor")}
        detail["percentiles"] = {
            "classify_p95_ms": {"percentile": tail_percentile(n["classify"]),
                                "samples": n["classify"]},
            "factor_p95_ms": {"percentile": tail_percentile(n["factor"]),
                              "samples": n["factor"]},
        }

    if args.trace:
        import tracer

        trace = tracer.Tracer()
        mark = len(speed.samples)
        trace.attach()
        try:
            traced_s = sum(runner.run(op) for op in workload.ops)
        finally:
            trace.detach()
        scale = speed.scale(mark)
        spans_path = f"{workloads.RUN_DIR}/spans-{args.workload}-seed{args.seed}.jsonl.gz"
        trace.write(spans_path)
        detail.update(spans_file=spans_path, spans=len(trace.spans))
        metrics = {name: {"value": _scaled(name, value, scale), "unit": _layer_unit(name)}
                   for name, value in trace.per_layer().items()}
        metrics["trace.overhead_frac"] = {"value": traced_s * scale / round_s - 1, "unit": "1"}
        for name, unit in STEP_UNITS.items():
            value = detail["steps"][name]["value"] if name in detail["steps"] else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "cmd_geomean_ms": {"value": 1000 * statistics.geometric_mean(med.values()),
                               "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail["setup_runs_s"] = setup

    if workload.bounded is not None:
        detail["bounded"] = runner.run_bounded(workload.bounded, workloads.BOUNDED_LIMIT_S)
    if args.trace:
        metrics["ops_failed_frac"] = {"value": runner.failed / runner.attempted, "unit": "1"}
    detail["executions"] = runner.executions
    detail["failed_ops"] = sorted(runner.failed_ops)
    detail["problems"] = runner.problems
    for line in runner.problems:
        print(f"problem: {line}", file=sys.stderr)

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _scaled(name: str, value: float, scale: float) -> float:
    if name.endswith("per_s"):
        return value / scale
    return value * scale if name.endswith("_s") else value


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "1"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; print each metric by name and unit."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        results[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        shown = dict(result["metrics"])
        if not args.trace:
            shown.update(detail["steps"])
            shown["ops_failed_frac"] = {"value": result["failed"] / result["attempted"],
                                        "unit": "1"}
        for metric, m in shown.items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    def overrun(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(RUN_LIMIT_S)
    try:
        return run_workload(args)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
