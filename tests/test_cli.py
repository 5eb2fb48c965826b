import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from eisdescent import EisensteinInt, descent_form, eisenstein, intfactor
from eisdescent.cli import main


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
        code, _, err = run_cli(capsys, "verify", "no-solution", "--k", "2",
                               "--expect-holds", "true")
        assert code == 1
        assert "expected holds=True" in err

    def test_expect_holds_match_exits_0(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "cube-closure", "--k", "2",
                             "--expect-holds", "true")
        assert code == 0

    def test_k_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-solution", "--k", "99")
        assert code == 2
        assert "error" in err


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


class TestJsonAndStability:
    def test_json_flag_writes_same_document(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "no-solution", "--k", "3",
                               "--json", str(path))
        assert code == 0
        assert path.read_text() == out

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
