import json

import pytest

from eisdescent import minimal_modulus, verify_cube_closure, verify_no_solution
from eisdescent.reports import dumps_document

# Pinned from the first verified run (regression constants of this build).
FORM_IMAGE_SIZE_K4 = 1519
CUBES_SIZE_K4 = 171
RHS_SIZE_K4 = 21


# --- independent naive oracle: plain loops, no package machinery -----------

def _mul(p, q, m):
    a, b = p
    c, d = q
    return ((a * c - b * d) % m, (a * d + b * c - b * d) % m)


def _cube(p, m):
    return _mul(_mul(p, p, m), p, m)


def _form(x, y, m):
    n = (x * x - x * y + y * y) % m
    return ((x * n) % m, (y * n) % m)


def naive_cube_closure(k):
    m = 3**k
    image = {_form(x, y, m) for x in range(m) for y in range(m)}
    for za in range(m):
        for zb in range(m):
            c = _cube((za, zb), m)
            for x in range(m):
                for y in range(m):
                    if _mul(c, _form(x, y, m), m) not in image:
                        return False
    return True


def naive_no_solution(k):
    m = 3**k
    for x in range(m):
        for y in range(m):
            lhs = _form(x, y, m)
            for za in range(m):
                for zb in range(m):
                    z3 = _cube((za, zb), m)
                    if lhs == ((3 * z3[0] + 6) % m, (3 * z3[1]) % m):
                        return False
    return True


class TestAgainstNaiveOracle:
    def test_cube_closure_k1(self):
        naive = naive_cube_closure(1)
        assert naive is True
        assert verify_cube_closure(1).holds == naive

    def test_no_solution_k1(self):
        naive = naive_no_solution(1)
        assert naive is False
        assert verify_no_solution(1).holds == naive

    def test_no_solution_k2(self):
        naive = naive_no_solution(2)
        assert naive is False
        assert verify_no_solution(2).holds == naive


class TestNoSolution:
    def test_k1_counterexample_is_origin(self):
        report = verify_no_solution(1)
        assert not report.holds
        assert report.counterexample_count == 1
        assert report.counterexamples[0] == {"x": 0, "y": 0, "z": [0, 0]}

    def test_k2_fails(self):
        report = verify_no_solution(2)
        assert not report.holds
        assert report.counterexample_count >= 1

    def test_k3_and_k4_hold(self):
        # The check already holds at modulus 27: for integer x, y the form
        # has pi-valuation divisible by 3 while 3(z^3+2) has pi-valuation
        # 2 or 4, and the right side cannot vanish mod 27 because
        # z^3 = -2 (mod 9) has no solution.
        for k in (3, 4):
            report = verify_no_solution(k)
            assert report.holds
            assert report.counterexample_count == 0
            assert report.counterexamples == ()

    def test_k4_report_shape(self):
        report = verify_no_solution(4)
        assert report.set_sizes == {
            "form_image": FORM_IMAGE_SIZE_K4,
            "rhs": RHS_SIZE_K4,
            "ring": 6561,
        }
        assert report.lemma == "no-solution"
        assert report.k == 4

    def test_counterexamples_sorted_and_valid(self):
        for k in (1, 2):
            m = 3**k
            report = verify_no_solution(k)
            keys = [(c["x"], c["y"], c["z"][0], c["z"][1]) for c in report.counterexamples]
            assert keys == sorted(keys)
            for c in report.counterexamples:
                z3 = _cube(tuple(c["z"]), m)
                assert _form(c["x"], c["y"], m) == \
                    ((3 * z3[0] + 6) % m, (3 * z3[1]) % m)

    def test_counterexamples_project_downward(self):
        # a solution mod 3^k yields one mod 3^j for j < k by reduction
        for k in (2,):
            report = verify_no_solution(k)
            for c in report.counterexamples:
                for j in range(1, k):
                    m = 3**j
                    z = (c["z"][0] % m, c["z"][1] % m)
                    z3 = _cube(z, m)
                    assert _form(c["x"] % m, c["y"] % m, m) == \
                        ((3 * z3[0] + 6) % m, (3 * z3[1]) % m)

    def test_k_out_of_range(self):
        for bad in (0, 9):
            with pytest.raises(ValueError):
                verify_no_solution(bad)


class TestCubeClosure:
    def test_holds_for_k_up_to_4(self):
        for k in (1, 2, 3, 4):
            report = verify_cube_closure(k)
            assert report.holds
            assert report.counterexample_count == 0

    def test_k4_report_shape(self):
        report = verify_cube_closure(4)
        assert report.set_sizes == {
            "cubes": CUBES_SIZE_K4,
            "form_image": FORM_IMAGE_SIZE_K4,
            "ring": 6561,
        }

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            verify_cube_closure(0)


class TestMinimalModulus:
    def test_consistent_with_individual_checks(self):
        holding = [k for k in range(1, 5) if verify_no_solution(k).holds]
        assert minimal_modulus(4) == min(holding)

    def test_measured_value(self):
        assert minimal_modulus(4) == 3

    def test_none_below_threshold(self):
        assert minimal_modulus(2) is None


class TestReportDocuments:
    def test_documents_byte_stable_and_jobs_independent(self):
        docs = [verify_no_solution(2).to_document() for _ in range(4)]
        reports = [json.dumps(d["report"], sort_keys=True) for d in docs]
        assert len(set(reports)) == 1
        fps = {d["fingerprint"] for d in docs}
        assert len(fps) == 1

    def test_fingerprint_depends_on_parameters(self):
        a = verify_no_solution(1).to_document()["fingerprint"]
        b = verify_no_solution(2).to_document()["fingerprint"]
        c = verify_cube_closure(1).to_document()["fingerprint"]
        assert len({a, b, c}) == 3

    def test_document_layout(self):
        doc = verify_no_solution(3).to_document()
        assert set(doc) == {"report", "fingerprint", "elapsed_s"}
        assert doc["report"]["holds"] is True
        text = dumps_document(doc)
        assert json.loads(text)["report"] == doc["report"]
