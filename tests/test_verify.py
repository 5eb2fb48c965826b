import hashlib
import json
import time

import numpy as np
import pytest

from eisdescent import (
    PI,
    EisensteinInt,
    ResidueRing,
    cube_values,
    descent_form_image,
    minimal_modulus,
    pi_valuation,
    verify_cube_closure,
    verify_no_solution,
)
from eisdescent import verify as verify_module
from eisdescent.cli import main
from eisdescent.reports import dumps_document, fingerprint

# Pinned from the first verified run (regression constants of this build).
FORM_IMAGE_SIZE_K4 = 1519
CUBES_SIZE_K4 = 171
RHS_SIZE_K4 = 21

# sha256 of dumps_document(report) for verify_cube_closure(k), k = 1..5, as
# produced by the exhaustive product loop before the subset test replaced it.
CUBE_CLOSURE_REPORT_SHA256 = {
    1: "5bd4f7157c3c0149adebfa9051f2052d703cb52f3ecccba2ddf2085575efd160",
    2: "372352890b563271a8121c3659a4e63db23e0e49e3be796f4ec30b511676ecd4",
    3: "36a011a9258cc33ebfe8141c34ce149f95b7f5bb8d284701659ab5337278c3d3",
    4: "972ccecae84d2ddfe5ec9b77488376a344ce82e1455601fa5ca1d22ebf1afeb6",
    5: "b06a7cdf59f2c3570e8640026976fc5e4748b88cdcfbb3cbb58eb4cd1173a243",
}


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


def naive_no_solution_counterexamples(k):
    """Sorted (x, y, za, zb): per common value, the lex-first (x, y) of the
    full 3^k x 3^k grid and the lex-first z of the full ring."""
    m = 3**k
    image, rhs = {}, {}
    for x in range(m):
        for y in range(m):
            image.setdefault(_form(x, y, m), (x, y))
    for za in range(m):
        for zb in range(m):
            z3 = _cube((za, zb), m)
            rhs.setdefault(((3 * z3[0] + 6) % m, (3 * z3[1]) % m), (za, zb))
    return sorted(image[v] + rhs[v] for v in image.keys() & rhs.keys())


# Roots (0, b) and (1, b) of cubes mod 27, each the lex-first root of its cube:
# (2w)^3 = 8 alone for one missing cube, and seven for the counterexample cap.
_ROOT_OF_8 = (0, 2)
_SEVEN_ROOTS = [(0, 2), (0, 4), (0, 5), (0, 7), (0, 8), (1, 3), (1, 6)]


def _doctor_image(monkeypatch, roots):
    """Make verify's membership test mod 27 see the form image without the
    cubes of `roots`."""
    def in_doctored_image(ring, values):
        m = ring.modulus
        members = descent_form_image(ring).values
        removed = [ca * m + cb for ca, cb in (_cube(c, m) for c in roots)]
        assert ring.k == 3 and np.isin(removed, members).all()
        return np.isin(values, np.setdiff1d(members, removed))
    monkeypatch.setattr(verify_module, "in_form_image", in_doctored_image)


def exhaustive_closure_failures(ring):
    """Every (c, x, y) with c^3 * form(x, y) outside the form image, sorted:
    all |cubes| * |image| products, c and (x, y) the lex-first producers of
    the cube and of the form value."""
    cubes, image = cube_values(ring), descent_form_image(ring)
    m = ring.modulus
    sa = image.values // m
    sb = image.values % m
    xy = image.first_producers(image.values)
    failures = []
    for u, zp in zip(cubes.values.tolist(), cubes.first_producers(cubes.values).tolist()):
        ua, ub = divmod(u, m)
        wa = (ua * sa - ub * sb) % m
        wb = (ua * sb + ub * sa - ub * sb) % m
        bad = ~np.isin(wa * m + wb, image.values)
        if bad.any():
            ca, cb = divmod(zp, m)
            failures.extend((ca, cb, p // m, p % m) for p in xy[bad].tolist())
    failures.sort()
    return failures


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

    def test_counterexamples_match_lex_first_brute_force(self):
        for k in (1, 2, 3):
            expected = naive_no_solution_counterexamples(k)
            report = verify_no_solution(k)
            assert report.counterexample_count == len(expected), k
            assert report.counterexamples == tuple(
                {"x": x, "y": y, "z": [za, zb]} for x, y, za, zb in expected), k

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
    def test_holds_for_k_up_to_7(self):
        for k in range(1, 8):
            report = verify_cube_closure(k)
            assert report.holds
            assert report.counterexample_count == 0
            assert report.counterexamples == ()

    def test_subset_test_agrees_with_exhaustive_products(self):
        for k in range(1, 6):
            failures = exhaustive_closure_failures(ResidueRing(k))
            report = verify_cube_closure(k)
            assert report.holds == (not failures)
            assert report.counterexample_count == len(failures) == 0
            assert report.counterexamples == ()
            text = dumps_document(report.to_report())
            assert hashlib.sha256(text.encode()).hexdigest() == CUBE_CLOSURE_REPORT_SHA256[k]

    def test_fallback_lists_products_outside_a_doctored_image(self, monkeypatch):
        m = 27
        _doctor_image(monkeypatch, [_ROOT_OF_8])
        report = verify_cube_closure(3)
        assert not report.holds
        # 8 * form(1, 0) = 8 * 1 left the doctored image
        assert report.counterexamples == ({"c": [0, 2], "x": 1, "y": 0},)
        assert report.counterexample_count == 1

        roots = {}
        for za in range(m):
            for zb in range(m):
                roots.setdefault(_cube((za, zb), m), (za, zb))
        image = {_form(x, y, m) for x in range(m) for y in range(m)} - {_cube(_ROOT_OF_8, m)}
        assert sorted(roots[u] for u in roots.keys() - image) == [_ROOT_OF_8]
        assert any(_mul(u, s, m) not in image for u in roots for s in image)

    def test_cap_keeps_the_first_of_the_sorted_list(self, monkeypatch):
        _doctor_image(monkeypatch, _SEVEN_ROOTS)
        full = verify_cube_closure(3)
        keys = [tuple(c["c"]) for c in full.counterexamples]
        assert keys == sorted(_SEVEN_ROOTS)
        assert full.counterexample_count == len(full.counterexamples) == 7

        monkeypatch.setattr(verify_module, "COUNTEREXAMPLE_CAP", 5)
        capped = verify_cube_closure(3)
        assert capped.counterexamples == full.counterexamples[:5]
        assert capped.counterexample_count == 7

    def test_cubes_are_form_values_identity(self):
        # c^3 = phi((-pi)^j e^2 conj(e)^-1) for c = pi^j e, e a unit; with
        # conj(e)^-1 = e / N(e) mod 3^k and phi(u) = u^2 conj(u) = _form(u).
        # Integer lifts only, no scan.
        for k in range(1, 5):
            m = 3**k
            for za in range(m):
                for zb in range(m):
                    if za == zb == 0:
                        continue
                    j, e = pi_valuation(EisensteinInt(za, zb))
                    conj_e_inv = e * pow(e.norm(), -1, m)
                    u = (-PI) ** j * e * e * conj_e_inv
                    assert _cube((za, zb), m) == _form(u.a % m, u.b % m, m)

    def test_k6_cli_regression(self, capsys):
        start = time.perf_counter()
        code = main(["verify", "cube-closure", "--k", "6"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["holds"] is True
        assert elapsed < 5.0
        m = 3**6
        box = m // 3
        assert doc["report"]["set_sizes"] == {
            "cubes": len({_cube((a, b), m) for a in range(box) for b in range(box)}),
            "form_image": len({_form(x, y, m) for x in range(m) for y in range(m)}),
            "ring": m * m,
        } == {"cubes": 13629, "form_image": 122641, "ring": 531441}

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


def _report(lemma, k, counterexamples, sizes):
    return {"counterexample_count": len(counterexamples),
            "counterexamples": counterexamples, "holds": not counterexamples,
            "k": k, "lemma": lemma, "set_sizes": sizes}


# The `report` sections of the exhaustive scans, k = 1..4, as pinned before
# membership in the form image was decided in closed form.
EXPECTED_REPORTS = {
    ("no-solution", 1): _report("no-solution", 1, [{"x": 0, "y": 0, "z": [0, 0]}],
                                {"form_image": 7, "rhs": 1, "ring": 9}),
    ("no-solution", 2): _report("no-solution", 2, [{"x": 0, "y": 0, "z": [0, 1]}],
                                {"form_image": 21, "rhs": 3, "ring": 81}),
    ("no-solution", 3): _report("no-solution", 3, [],
                                {"form_image": 169, "rhs": 5, "ring": 729}),
    ("no-solution", 4): _report("no-solution", 4, [],
                                {"form_image": 1519, "rhs": 21, "ring": 6561}),
    ("cube-closure", 1): _report("cube-closure", 1, [],
                                 {"cubes": 3, "form_image": 7, "ring": 9}),
    ("cube-closure", 2): _report("cube-closure", 2, [],
                                 {"cubes": 5, "form_image": 21, "ring": 81}),
    ("cube-closure", 3): _report("cube-closure", 3, [],
                                 {"cubes": 21, "form_image": 169, "ring": 729}),
    ("cube-closure", 4): _report("cube-closure", 4, [],
                                 {"cubes": 171, "form_image": 1519, "ring": 6561}),
}


def verify_document(capsys, lemma, k):
    assert main(["verify", lemma, "--k", str(k)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("lemma,k", sorted(EXPECTED_REPORTS))
def test_report_equals_pinned_document(capsys, lemma, k):
    check = verify_no_solution if lemma == "no-solution" else verify_cube_closure
    assert check(k).to_report() == EXPECTED_REPORTS[lemma, k]
    doc = verify_document(capsys, lemma, k)
    doc.pop("elapsed_s")
    assert doc == {"report": EXPECTED_REPORTS[lemma, k],
                   "fingerprint": fingerprint({"lemma": lemma, "k": k})}


class TestReportDocuments:
    def test_documents_byte_stable_and_jobs_independent(self, capsys):
        docs = [verify_document(capsys, "no-solution", 2) for _ in range(4)]
        reports = [json.dumps(d["report"], sort_keys=True) for d in docs]
        assert len(set(reports)) == 1
        fps = {d["fingerprint"] for d in docs}
        assert len(fps) == 1

    def test_fingerprint_depends_on_parameters(self, capsys):
        a = verify_document(capsys, "no-solution", 1)["fingerprint"]
        b = verify_document(capsys, "no-solution", 2)["fingerprint"]
        c = verify_document(capsys, "cube-closure", 1)["fingerprint"]
        assert len({a, b, c}) == 3

    def test_document_layout(self, capsys):
        doc = verify_document(capsys, "no-solution", 3)
        assert set(doc) == {"report", "fingerprint", "elapsed_s"}
        assert doc["report"]["holds"] is True
        assert doc["report"] == verify_no_solution(3).to_report()
