import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

from eisdescent import EisensteinInt, cli, descent_form, eisenstein, intfactor, parse_element
from eisdescent.cli import main

search_module = importlib.import_module("eisdescent.search")  # the package's `search` is the function
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestVerifyCommand:
    def test_no_solution_k4(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "no-solution", "--k", "4")
        assert code == 0
        assert doc["report"]["holds"] is True
        assert doc["report"]["set_sizes"]["ring"] == 6561
        assert doc["report"]["counterexamples"] == []

    def test_failed_check_is_a_finding_not_an_error(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "no-solution", "--k", "2")
        assert code == 0
        assert doc["report"]["holds"] is False
        assert doc["report"]["counterexample_count"] >= 1

    def test_expect_holds_mismatch_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "no-solution", "--k", "2",
                                 "--expect-holds", "true")
        assert code == 1
        assert err == "expected holds=True, got holds=False\n"
        assert json.loads(out)["report"]["holds"] is False

    def test_expect_holds_match_exits_0(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "cube-closure", "--k", "2",
                             "--expect-holds", "true")
        assert code == 0

    def test_k_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-solution", "--k", "99")
        assert code == 2
        assert "error" in err


# One CLI call in a new interpreter, which then reports whether it loaded numpy
# and its own high-water mark, VmHWM in KiB.  Not ru_maxrss: on Linux a child
# inherits its parent's ru_maxrss across fork/exec, so that figure would read
# pytest's peak whenever pytest has grown past the bound.
_CHILD_SCRIPT = """
import sys
from eisdescent.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1], file=sys.stderr)
sys.exit(code)
"""


def run_fresh(*argv):
    """(stdout, numpy loaded, VmHWM in MB) of a CLI call that must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *_, numpy_loaded, peak_kib = proc.stderr.split()
    return proc.stdout, numpy_loaded == "True", int(peak_kib) / 1024


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads VmHWM from /proc/self/status")


@linux_only
def test_verify_k8_peak_rss_under_75_mb():
    # No 9^k scan of the form image: membership is decided in closed form, and
    # the right-hand side, 3 (z^3 + 2) mod 3^8, is recorded mod 3^7 in a 4.8 MB
    # bitset (about 50 MB for the process; 92 MB with a 9^8 bitset, 260 MB
    # with the form-image scan).
    out, _, peak_mb = run_fresh("verify", "no-solution", "--k", "8")
    assert json.loads(out)["report"]["holds"] is True
    assert peak_mb < 75


@linux_only
def test_dump_rhs_k8_peak_rss_under_75_mb(tmp_path):
    # The same scan as verify's, then the 122,643 members written as CSV.
    path = tmp_path / "rhs8.csv"
    out, _, peak_mb = run_fresh("dump-set", "rhs", "--k", "8", "--path", str(path))
    assert json.loads(out)["report"]["size"] == 122_643
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 122_644  # header and rows
    assert peak_mb < 75


@linux_only
def test_dump_form_image_k8_peak_rss_under_180_mb(tmp_path):
    # The 9^8 scan's 43 MB bitset and its 9,933,861 int64 members (79 MB),
    # then the rows gathered in chunks of residues._CSV_ROWS: about 160 MB.
    path = tmp_path / "image8.csv"
    out, _, peak_mb = run_fresh("dump-set", "form-image", "--k", "8", "--path", str(path))
    assert json.loads(out)["report"]["size"] == 9_933_861
    with open(path, "rb") as fh:
        assert sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) \
            == 9_933_862  # header and rows
    assert peak_mb < 180


@linux_only
def test_all_descends_search_h250_peak_rss_under_65_mb():
    # Every finite nonzero point descends and the findings are held as int64
    # columns (p, q, ga, gb, r) per block until the writer renders them, one
    # block's text at a time: about 42 MB for the process (60 MB with the
    # whole document joined into one string, 68 MB with a tuple of ints per
    # finding, 104 MB with a dict of strings, 179 MB with Fraction-built
    # findings and json's indented encoder).
    out, _, peak_mb = run_fresh("search", "--coeffs", "0,0,0,w", "--height", "250")
    assert json.loads(out)["report"]["counts"]["Descends"] == 76_095
    assert peak_mb < 65


@linux_only
def test_all_descends_search_at_the_largest_height_peaks_under_80_mb():
    # H = 499, the largest height MAX_SEARCH_WORK allows at degree 3: 303,662
    # finite findings and 46 MB of JSON, about 52 MB for the process with the
    # findings held as int64 columns per block and written one block's text
    # at a time (138 MB with the whole document joined into one string,
    # 181 MB with a tuple of ints per finding, 314 MB with a dict of
    # strings).  The counts are read from the text, since parsing every
    # finding would cost this process more than the child.
    out, _, peak_mb = run_fresh("search", "--coeffs", "0,0,0,w", "--height", "499")
    start = out.index('"counts": ') + len('"counts": ')
    counts = json.loads(out[start:out.index("}", start) + 1])
    assert counts == {"Descends": 303_663, "Disconnected": 0, "NoDescent": 0, "Undefined": 1}
    assert out.count('"witness": {') == 303_662  # every finite point but 0; infinity too descends
    assert peak_mb < 80


# numpy is imported only by the functions that scan the finite rings or the
# cover's points, so the one-shot commands start without it.
@linux_only
@pytest.mark.parametrize("argv", [
    ("classify", "--", "6+3*w"),
    ("solve", "--", "6+3*w"),
    ("factor", "--", "1980-366*w"),
    ("reduce", "3", "6"),
])
def test_one_shot_commands_start_without_numpy(argv):
    # about 20 MB without numpy; importing it took the process to about 32 MB
    _, numpy_loaded, peak_mb = run_fresh(*argv)
    assert not numpy_loaded
    assert peak_mb < 25


@linux_only
@pytest.mark.parametrize("argv", [
    ("verify", "no-solution", "--k", "3"),
    ("search", "--coeffs", "6,0,0,3", "--height", "5"),
])
def test_scanning_commands_import_numpy_when_they_scan(argv):
    _, numpy_loaded, _ = run_fresh(*argv)
    assert numpy_loaded


def test_importing_the_cli_leaves_numpy_out():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, eisdescent.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_package_names_stay_plain_attributes():
    from eisdescent import ResidueRing, enumerate_rationals, search

    assert isinstance(search, FunctionType)
    assert isinstance(ResidueRing, type)
    assert isinstance(enumerate_rationals, FunctionType)


class TestMinimalModulusCommand:
    def test_found(self, capsys):
        code, doc, _ = run_json(capsys, "minimal-modulus", "--max-k", "4")
        assert code == 0
        assert doc["report"]["minimal_k"] == 3

    def test_not_found(self, capsys):
        code, doc, _ = run_json(capsys, "minimal-modulus", "--max-k", "2")
        assert code == 0
        assert doc["report"]["minimal_k"] is None


class TestClassifyCommand:
    def test_disconnected(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1")
        assert code == 0
        assert doc["report"]["classification"] == "Disconnected"

    def test_descends_with_witness(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "6+3*w")
        assert code == 0
        assert doc["report"]["classification"] == "Descends"
        assert doc["report"]["witness"] == {"x": "2", "y": "1"}

    def test_no_descent(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "3")
        assert code == 0
        assert doc["report"]["classification"] == "NoDescent"
        assert doc["report"]["witness"] is None

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "w^2")
        assert code == 2
        assert "position" in err

    def test_negative_element_after_double_dash(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--", "-1/2")
        assert code == 0
        assert doc["report"]["element"] == "-1/2"
        assert doc["report"]["classification"] == "NoDescent"
        # without "--" argparse reads -1/2 as an option
        with pytest.raises(SystemExit) as exc:
            main(["classify", "-1/2"])
        assert exc.value.code == 2


def refuse_to_factor(*args):
    raise AssertionError("factoring called")


class TestClassifyWithoutFactoring:
    # gamma = pi_p * pi_q for the primes p = 2^48 + 21, q = 2^48 + 75, both
    # 1 mod 3, so N(w gamma^3) = (pq)^3 with pq a 97-bit semiprime that rho
    # cannot split within RHO_STEPS
    P, Q = 2**48 + 21, 2**48 + 75
    GAMMA = EisensteinInt(-289019180290221, -273269434749583)

    def test_large_w_cube_descends_fast(self, capsys):
        assert self.GAMMA.norm() == self.P * self.Q
        assert self.P % 3 == self.Q % 3 == 1
        assert intfactor.is_probable_prime(self.P) and intfactor.is_probable_prime(self.Q)
        value = EisensteinInt(0, 1) * self.GAMMA**3
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "classify", str(value))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        report = doc["report"]
        assert report["classification"] == "Descends"
        x, y = (Fraction(report["witness"][k]) for k in ("x", "y"))
        assert descent_form(x, y) == value

    @pytest.mark.parametrize("element,kind", [
        ("-27/8", "Disconnected"),
        (str(EisensteinInt(1234, -567) ** 3), "Disconnected"),
        (str(EisensteinInt(0, 1) * EisensteinInt(1234, -567) ** 3), "Descends"),
        ("6+5*w", "NoDescent"),  # norm 31 is not a cube
    ])
    def test_classify_never_factors(self, capsys, monkeypatch, element, kind):
        monkeypatch.setattr(eisenstein, "factor", refuse_to_factor)
        monkeypatch.setattr(eisenstein, "factor_int", refuse_to_factor)
        code, doc, _ = run_json(capsys, "classify", "--", element)
        assert code == 0
        assert doc["report"]["classification"] == kind


class TestSolveCommand:
    def test_solvable(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "6+3*w")
        assert code == 0
        assert doc["report"]["witness"] == {"x": "2", "y": "1"}

    def test_unsolvable(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "3")
        assert code == 0
        assert doc["report"]["witness"] is None


class TestFactorCommand:
    def test_pi_power(self, capsys):
        code, doc, _ = run_json(capsys, "factor", "6+3*w")
        assert code == 0
        assert doc["report"]["unit"] == "1*w"
        assert doc["report"]["factors"] == [{"prime": "1+2*w", "exponent": 3}]

    def test_non_integral_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "1/2")
        assert code == 2
        assert "integral" in err

    def test_zero_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "0")
        assert code == 2

    def test_rho_budget_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(intfactor, "RHO_STEPS", 1000)
        code, out, err = run_cli(capsys, "factor", str((2**32 - 5) * (2**32 - 17)))
        assert code == 2
        assert out == ""
        # the norm (pq)^2 is a perfect square, so rho runs on the 64-bit pq
        assert err.startswith("error: factoring gave up on a 64-bit cofactor")


    def test_sixty_bit_prime_norm_factors_as_itself(self, capsys):
        a = 1 << 29
        b = next(b for b in range(2 * a, 3 * a) if intfactor.is_probable_prime(a * a - a * b + b * b))
        assert (a * a - a * b + b * b).bit_length() == 60
        code, doc, _ = run_json(capsys, "factor", f"{a}+{b}*w")
        assert code == 0
        (entry,) = doc["report"]["factors"]
        assert entry["exponent"] == 1 and EisensteinInt(a, b).norm() == \
            parse_element(entry["prime"]).norm()

    def test_thousand_digit_element_ends_within_the_rho_bound(self):
        # Its norm has about 6,600 bits, so its primality and perfect-power
        # tests alone would cost 6,600 * ceil(bits/128)^2 units, above
        # RHO_STEPS: the call gives up before they run, about 0.1 s on 2-core
        # x86 VMs for four seeds (1.1-2.4 s with a budget per rho split).
        rng = random.Random(1000)
        a, b = (rng.randrange(10**999, 10**1000) for _ in range(2))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eisdescent", "factor", "--", f"{a}+{b}*w"],
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10
        assert proc.returncode in (0, 2), proc.stderr
        if proc.returncode == 2:
            assert proc.stdout == ""
            assert "RHO_STEPS" in proc.stderr

    def test_many_split_primes_end_within_the_call_budget(self):
        # The norm is a product of 300 split primes of 22 bits, 6,600 bits in
        # all: with a budget per rho split, such a norm was factored in 42 s,
        # most of it one Miller-Rabin test per split on the whole cofactor.
        # Every test and rho step of the call is charged to the one budget.
        rng = random.Random(2300)
        alpha, count = EisensteinInt(1), 0
        while count < 300:
            p = rng.getrandbits(22) | 1 << 21 | 1
            if p % 3 == 1 and intfactor.is_probable_prime(p):
                alpha, count = alpha * eisenstein._split_prime(p), count + 1
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eisdescent", "factor", "--", str(alpha)],
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10
        assert proc.returncode in (0, 2), proc.stderr
        if proc.returncode == 2:
            assert proc.stdout == ""
            assert "RHO_STEPS" in proc.stderr and "a factor_int call may spend" in proc.stderr


def without_elapsed(out):
    return [line for line in out.splitlines() if '"elapsed_s"' not in line]


class TestConsistencyCheckFailures:
    # Each check re-derives a verdict the library already made, so only a
    # patched helper can fail it.  Exit 1 prints the whole document first,
    # then the problem on stderr.
    @pytest.mark.parametrize("name,fake,element", [
        ("galois_commutes", lambda a, witness: False, "6+3*w"),  # Descends
        ("is_cube", lambda a: (False, None), "1"),  # Disconnected
    ])
    def test_classify(self, capsys, monkeypatch, name, fake, element):
        _, expected, _ = run_cli(capsys, "classify", element)
        monkeypatch.setattr(cli, name, fake)
        code, out, err = run_cli(capsys, "classify", element)
        assert code == 1
        assert err == "internal inconsistency in classification\n"
        assert without_elapsed(out) == without_elapsed(expected)

    def test_solve(self, capsys, monkeypatch):
        _, expected, _ = run_cli(capsys, "solve", "6+3*w")
        monkeypatch.setattr(cli, "descent_form", lambda x, y: descent_form(x, y) + 1)
        code, out, err = run_cli(capsys, "solve", "6+3*w")
        assert code == 1
        assert err == "internal inconsistency in preimage\n"
        assert without_elapsed(out) == without_elapsed(expected)

    def test_factor(self, capsys, monkeypatch, tmp_path):
        # w pi^2 instead of w pi^3 = 6+3*w
        wrong = eisenstein.Factorization(EisensteinInt(0, 1), ((EisensteinInt(1, 2), 2),))
        monkeypatch.setattr(cli, "factor", lambda alpha: wrong)
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "factor", "6+3*w", "--json", str(path))
        assert code == 1
        assert err == "internal inconsistency in factorization\n"
        assert path.read_text() == out
        doc = json.loads(out)
        assert list(doc) == ["elapsed_s", "fingerprint", "report"]
        assert doc["report"] == {
            "element": "6+3*w",
            "unit": "1*w",
            "factors": [{"prime": "1+2*w", "exponent": 2}],
        }


class TestReduceCommand:
    def test_example(self, capsys):
        code, doc, _ = run_json(capsys, "reduce", "1", "2")
        assert code == 0
        assert doc["report"]["result"] == {"x": -1, "y": 0, "form": "-1"}
        assert doc["report"]["pi_divides_both_factors"] is True

    def test_not_divisible(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "1", "1")
        assert code == 2
        assert "pi" in err


class TestSearchCommand:
    def test_target_cover(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--coeffs", "6,0,0,3",
                                "--height", "3")
        assert code == 0
        report = doc["report"]
        assert report["counts"]["Descends"] == 0
        assert report["infinity"] == {"a": "3", "classification": "NoDescent"}
        assert sum(report["counts"].values()) == report["n_points"]

    def test_eisenstein_coefficients(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--coeffs", "6+3*w,1",
                                "--height", "1")
        assert code == 0
        assert doc["report"]["counts"]["Descends"] >= 1

    def test_bad_coefficient_syntax(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--coeffs", "6;3", "--height", "2")
        assert code == 2

    def test_negative_leading_coefficient_with_equals(self, capsys, monkeypatch):
        code, doc, _ = run_json(capsys, "search", "--coeffs=-1,0,1", "--height", "2")
        assert code == 0
        assert doc["report"]["coefficients"] == ["-1", "0", "1"]
        # the separate form is an argparse error, and the help says so
        with pytest.raises(SystemExit) as exc:
            main(["search", "--coeffs", "-1,0,1", "--height", "2"])
        assert exc.value.code == 2
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the example
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "--coeffs=-1,0,1" in capsys.readouterr().out


    @pytest.mark.parametrize("op,coeffs,height", [
        ("search_target", "6,0,0,3", "200"),  # perfbench/workloads.py TARGET
        ("search_descending", "0,0,0,w", "60"),  # and DESCENDING
    ])
    def test_cover_search_reports_match_benchmark_pins(self, capsys, op, coeffs, height):
        pins = json.loads(PINS.read_text())["cover-search"]
        code, out, _ = run_cli(capsys, "search", "--coeffs", coeffs, "--height", height)
        assert code == 0
        report = out[out.index('\n  "report": '):]  # the pinned bytes run to the end
        assert hashlib.sha256(report.encode()).hexdigest() == pins[op]

    def test_counters_sit_outside_the_report(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--coeffs", "6,0,0,3", "--height", "20")
        assert code == 0
        assert list(doc) == ["counters", "elapsed_s", "fingerprint", "report"]
        assert doc["counters"]["points"] == doc["report"]["n_points"] - 1
        assert "counters" not in doc["report"]

    @pytest.mark.parametrize("coeffs,height,work,top", [
        ("0,0,0,w", 500, 2002004, 499),  # ((2H + 1) H + 1)(n + 1) = 500,501 * 4
        (",".join(["1"] * 3001), 499, 1496004502, 17),
    ], ids=["degree-3-H500", "degree-3000-H499"])
    def test_height_above_work_bound_exits_2_before_walking(self, capsys, monkeypatch,
                                                            coeffs, height, work, top):
        n = coeffs.count(",")

        def cost(h):
            return ((2 * h + 1) * h + 1) * (n + 1)

        assert cost(height) == work > search_module.MAX_SEARCH_WORK >= cost(top)
        assert cost(top + 1) > search_module.MAX_SEARCH_WORK

        def no_walk(*args):
            raise AssertionError("points walked")

        monkeypatch.setattr(search_module, "_classify_points", no_walk)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "search", "--coeffs", coeffs, "--height", str(height))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"at degree {n} needs work" in err and str(work) in err
        assert "MAX_SEARCH_WORK = 2000000" in err
        assert f"the largest height allowed at degree {n} is {top}" in err

    def test_huge_coefficient_is_charged_by_its_size(self, capsys):
        # A 3,001-digit coefficient: uncharged, H = 60 walked every point in
        # 21 s for 18 MB of JSON.  Each point is charged ceil(b/128)^2 = 78^2
        # for the b = 9,966 bits of 10^3000.
        coeffs = "0,0,0,1" + "0" * 3000 + "*w"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "eisdescent", "search", "--coeffs", coeffs,
                               "--height", "60"], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10
        assert proc.returncode in (0, 2), proc.stderr
        if proc.returncode == 2:
            assert proc.stdout == ""
            assert "MAX_SEARCH_WORK = 2000000" in proc.stderr
            assert "c = ceil(b/128)^2 = 6084 for the b = 9966 bits" in proc.stderr
            assert "the largest height allowed at degree 3 is 6" in proc.stderr
        code, doc, _ = run_json(capsys, "search", "--coeffs", coeffs, "--height", "6")
        assert code == 0
        # 10^3000 w = form(10^1000 w): every point but the branch point 0 descends
        assert doc["report"]["counts"]["Descends"] == doc["report"]["n_points"] - 1


class TestDumpSetCommand:
    def test_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "image.csv"
        code, doc, _ = run_json(capsys, "dump-set", "form-image", "--k", "1",
                                "--path", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "# ring=3^1 set=form-image"
        assert len(lines) - 1 == doc["report"]["size"] == 7

    def test_k_guard(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "dump-set", "cubes", "--k", "12",
                             "--path", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unwritable_path_fails_before_the_scan(self, tmp_path):
        # The scan imports numpy, so a child that exits without it never
        # scanned; a scan first would take 1.8 s and peak at 160 MB.
        path = tmp_path / "missing" / "x.csv"
        proc = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, "dump-set", "form-image",
                               "--k", "8", "--path", str(path)], capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        error, numpy_loaded, _ = proc.stderr.splitlines()
        assert error.startswith("error: ") and str(path) in error
        assert numpy_loaded == "False"


class TestJsonAndStability:
    def test_json_flag_writes_same_document(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "no-solution", "--k", "3",
                               "--json", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_json_flag_writes_same_document_past_one_mib(self, capsys, tmp_path):
        # 1.8 MB, over a MiB in one block's text, written whole to both outputs
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "search", "--coeffs", "0,0,0,w", "--height", "100",
                               "--json", str(path))
        assert code == 0 and len(out) > 1 << 20
        assert path.read_text() == out
        assert json.loads(out)["report"]["counts"]["Descends"] == out.count('"witness": {') + 1

    def test_reports_byte_stable_across_runs(self, capsys):
        _, doc1, _ = run_json(capsys, "verify", "no-solution", "--k", "2")
        _, doc2, _ = run_json(capsys, "verify", "no-solution", "--k", "2")
        assert json.dumps(doc1["report"], sort_keys=True) == \
            json.dumps(doc2["report"], sort_keys=True)
        assert doc1["fingerprint"] == doc2["fingerprint"]

        _, out1, _ = run_cli(capsys, "classify", "6+3*w")
        _, out2, _ = run_cli(capsys, "classify", "6+3*w")
        strip = lambda s: [l for l in s.splitlines() if "elapsed" not in l]
        assert strip(out1) == strip(out2)

    def test_repeated_calls_in_one_process_are_independent(self, capsys, tmp_path):
        # main builds one parser per process; no call may leave state for the next
        assert cli._build_parser() is cli._build_parser()
        path = tmp_path / "report.json"
        code, first, _ = run_cli(capsys, "classify", "6+3*w", "--json", str(path))
        assert code == 0
        assert path.read_text() == first
        path.unlink()
        with pytest.raises(SystemExit) as exc:
            main(["classify", "6+3*w", "--k", "3"])
        assert exc.value.code == 2
        assert "usage: eisdescent" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "classify", "1/0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        code, second, _ = run_cli(capsys, "classify", "6+3*w")
        assert code == 0
        report = lambda s: s[s.index('"report"'):]
        assert report(second) == report(first)
        assert list(tmp_path.iterdir()) == []


# One command per subcommand and its document's fingerprint, pinned from the
# printed documents: the hashed parameters of each command must keep their
# bytes.
DOCUMENT_FINGERPRINTS = [
    (["verify", "no-solution", "--k", "3"],
     "fee44d7533ad98fbfb754124d5f695db1680262c1371f4f08b3a2e7b73c10cb5"),
    (["minimal-modulus", "--max-k", "4"],
     "b983c95c45a3a9f5cf336fdab34554d90f10f3d1327e790faeafaab9e3497a34"),
    (["classify", "6+3*w"], "aa06bfb260fe77c62c79d18b1a13a01e1e32f007bbf083bf9509606fcff51da5"),
    (["solve", "6+3*w"], "dccc182f565b2c24810ca3e367fff50e2c32223016141634c643a11bab0652c9"),
    (["factor", "1980-366*w"], "b19167197daaf6bf1edf69e8ddaefe23f40fa92a2d7a8e44fa34def21fda290b"),
    (["reduce", "1", "2"], "d0ec97acd30f6465a4cc7468232149cdbb3759404c6bd7e8213903470e68c356"),
    (["search", "--coeffs", "6,0,0,3", "--height", "5"],
     "2f727692173180b6cb449005e72aabd520c378ef767d2df45a1ba16cbf6c6ea1"),
    (["dump-set", "rhs", "--k", "2", "--path", "{csv}"],
     "db769ccbb8c8a3feffa59311c471c90f58a2c91ee28eb781a584b8bdd2291ccf"),
]


@pytest.mark.parametrize("argv,pinned", DOCUMENT_FINGERPRINTS,
                         ids=[argv[0] for argv, _ in DOCUMENT_FINGERPRINTS])
def test_every_command_makes_its_document_in_main(capsys, tmp_path, argv, pinned):
    csv = str(tmp_path / "set.csv")
    code, doc, _ = run_json(capsys, *[a.format(csv=csv) for a in argv])
    assert code == 0
    assert doc["fingerprint"] == "sha256:" + pinned
    layout = {"elapsed_s", "fingerprint", "report"}
    assert set(doc) == (layout | {"counters"} if argv[0] == "search" else layout)
    assert isinstance(doc["elapsed_s"], float) and doc["elapsed_s"] >= 0


class TestUsageErrors:
    @pytest.mark.parametrize("k", [0, 9])
    @pytest.mark.parametrize("argv", [
        ["verify", "no-solution", "--k"],
        ["verify", "cube-closure", "--k"],
        ["minimal-modulus", "--max-k"],
        ["dump-set", "cubes", "--path", "{csv}", "--k"],
    ])
    def test_k_out_of_range(self, capsys, tmp_path, argv, k):
        csv = str(tmp_path / "set.csv")
        code, out, err = run_cli(capsys, *[a.format(csv=csv) for a in argv], str(k))
        assert code == 2
        assert err == f"error: k must be in 1..8, got {k}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_csv_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "dump-set", "rhs", "--k", "1", "--path", str(path))
        assert code == 2
        assert err.startswith("error: ") and "x.csv" in err
        assert out == ""

    def test_unwritable_json_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "classify", "1", "--json", str(path))
        assert code == 2
        assert err.startswith("error: ") and "x.json" in err
        assert out == ""

    @pytest.mark.parametrize("argv,message", [
        (["classify", "--", "9" * 4301],
         "error: input number has 4301 digits, above the limit of 4300 digits on "
         "integer string conversion (at position 1)\n"),
        # form(3 * 10^2000, 0) is divisible by pi but has about 6,000 digits
        (["reduce", str(3 * 10 ** 2000), "0"], "error: a result has more than 4300 digits, "
         "above the limit of 4300 digits on integer string conversion\n"),
        # the walk ends; a = f(4) would print with 4,301 digits
        (["search", f"--coeffs=0,0,0,{10 ** 4299}*w", "--height", "4"],
         "error: a result has more than 4300 digits, above the limit of 4300 digits on "
         "integer string conversion\n"),
    ], ids=["input-number", "reduce-result", "search-result"])
    def test_digit_limit_is_named(self, argv, message):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run([sys.executable, "-m", "eisdescent", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    def test_digit_limit_refusal_leaves_no_json_file(self, tmp_path):
        # `search` refuses the result before any piece of the document is written
        path = tmp_path / "x.json"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run([sys.executable, "-m", "eisdescent", "search",
                               f"--coeffs=0,0,0,{10 ** 4299}*w", "--height", "4",
                               "--json", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "a result has more than 4300 digits" in proc.stderr
        assert not path.exists()

    def test_unreduced_parts_past_the_digit_limit_print(self):
        # D = 10^1500, so s^3 = 10^4500 q^3 is past the limit, but every printed
        # fraction is reduced below it: the check renders the findings and passes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run([sys.executable, "-m", "eisdescent", "search",
                               f"--coeffs=0,0,0,1/{10 ** 1500}*w", "--height", "6"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        section = proc.stdout[proc.stdout.index('\n  "report": {') + 1:]
        assert hashlib.sha256(section.encode("ascii")).hexdigest() == \
            "5cc4a5c211aa0dadd93ec31b3f8518546fbbb999bbcec4da328e697f520d4256"

    @pytest.mark.parametrize("argv,name", [
        (["reduce", "{n}", "0"], "x"),
        (["reduce", "0", "--", "-{n}"], "y"),
        (["verify", "no-solution", "--k", "{n}"], "--k"),
        (["minimal-modulus", "--max-k", "{n}"], "--max-k"),
        (["search", "--coeffs", "0,1", "--height", "{n}"], "--height"),
        (["dump-set", "rhs", "--path", "unused.csv", "--k", "{n}"], "--k"),
    ])
    def test_digit_limit_is_named_for_integer_arguments(self, capsys, argv, name):
        limit = sys.get_int_max_str_digits()
        nines = "9" * (limit + 1)
        with pytest.raises(SystemExit) as err:
            main([a.format(n=nines) for a in argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and nines not in captured.err
        assert captured.err.endswith(
            f"error: argument {name}: input number has {limit + 1} digits, above the limit "
            f"of {limit} digits on integer string conversion\n")

    def test_bad_integer_argument_keeps_argparse_wording(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reduce", "1.5", "0"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument x: invalid int value: '1.5'\n")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-solution"])
        assert err.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eisdescent", "classify", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["classification"] == "Disconnected"
