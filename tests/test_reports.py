"""`dumps_document` writes exactly what json.dumps(sort_keys=True, indent=2) does."""

import importlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisdescent import OMEGA, EisensteinRational, cli, search
from eisdescent.reports import RenderedList, _digits, _gathered, dumps_document

search_module = importlib.import_module("eisdescent.search")  # the package's `search` is the function


def reference_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def with_descends_as_dicts(document, report):
    """`document` with the findings' dicts in place of its `RenderedList`."""
    assert isinstance(document["report"]["descends"], RenderedList)
    return {**document, "report": {**document["report"], "descends": list(report.descends)}}


# Non-ASCII, quotes, backslashes and control characters all need escaping.
# An explicit alphabet: st.text() over all of Unicode first builds a
# character table that takes about 200 MB.
ALPHABET = [chr(c) for c in range(128)] + list("\u00e9\u20ac\u2028\ud800\udfff\uffff\U0001f600\U0010ffff")
keys = st.text(alphabet=ALPHABET, max_size=6)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 60), max_value=10 ** 60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e-07, -0.0, 0.0, 1e16, 123456789.125, -2.5e-300])
    | keys
)
json_values = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(keys, json_values, max_size=5) | json_values)
def test_writer_matches_json_dumps(value):
    assert dumps_document(value) == reference_dumps(value)


@pytest.mark.parametrize("value", [{}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]]]])
def test_empty_containers(value):
    assert dumps_document(value) == reference_dumps(value)


@pytest.mark.parametrize("argv", [
    *(["verify", lemma, "--k", str(k)]
      for lemma in ("no-solution", "cube-closure") for k in range(1, 5)),
    ["classify", "6+3*w"],
    ["classify", "3"],
    ["factor", "12+7*w"],
    ["search", "--coeffs", "0,0,0,w", "--height", "20"],
    ["search", "--coeffs=0,0,-1/2+w", "--height", "30"],
    ["search", "--coeffs", "6,0,0,3", "--height", "5"],
])
def test_cli_documents_match_json_dumps(monkeypatch, capsys, argv):
    documents, searches = [], []

    def recording_dumps(document):
        documents.append(document)
        return dumps_document(document)

    def recording_search(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(cli, "dumps_document", recording_dumps)
    monkeypatch.setattr(cli, "search", recording_search)
    assert cli.main(argv) == 0
    (document,) = documents
    if argv[0] == "search":
        # the findings are held as integers; the reference takes their dicts
        (report,) = searches
        document = with_descends_as_dicts(document, report)
    assert capsys.readouterr().out == reference_dumps(document)
    if argv[0] == "search":
        assert "counters" in document
        without_counters = {k: v for k, v in document.items() if k != "counters"}
        assert dumps_document(without_counters) == reference_dumps(without_counters)


# Arbitrary covers of degree 1..6, and covers c * (z - k)^(3m) * z^j of degree
# 3m + j in 1..6 with c a non-cube form value times a rational cube: those
# descend at every z other than 0 and k where z^j is a rational cube, so the
# findings vary in sign, denominator and w part.
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
qw_elements = st.builds(EisensteinRational.from_coords, small_fractions, small_fractions)


@st.composite
def covers(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        coeffs = draw(st.lists(small_fractions | qw_elements, min_size=n + 1, max_size=n + 1))
        return coeffs[:-1] + [coeffs[-1] or OMEGA]
    unit = draw(st.sampled_from([(0, 1), (6, 3), (21, 7)]))  # w, form(2, 1), form(3, 1)
    u = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    c = EisensteinRational.from_coords(*unit) * u ** 3
    m, j = draw(st.sampled_from([(m, j) for m in (0, 1) for j in range(4) if 1 <= 3 * m + j <= 6]))
    k = draw(small_fractions)
    base = [c] if m == 0 else [-c * k ** 3, c * 3 * k ** 2, -c * 3 * k, c]
    return [0] * j + base


@settings(max_examples=150, deadline=None)
@given(covers(), st.integers(1, 9))
def test_rendered_descends_match_json_dumps(coeffs, height):
    report = search(coeffs, height)
    document = {"report": report.to_report()}  # nested as in the printed document
    assert dumps_document(document) == reference_dumps(with_descends_as_dicts(document, report))


def test_rendered_descends_cover_negative_points_and_denominators():
    # findings with p < 0, q > 1 and both parts of a, whatever the strategy draws
    report = search([0, 0, 0, EisensteinRational.from_coords(Fraction(-3, 4), Fraction(-3, 8))], 4)
    zs = [finding["z"] for finding in report.descends]
    assert "-3/4" in zs and "2/3" in zs
    assert {"a": "-81/256-81/512*w", "witness": {"x": "-3/4", "y": "-3/8"}, "z": "3/4"} \
        in report.descends
    document = {"report": report.to_report()}
    assert dumps_document(document) == reference_dumps(with_descends_as_dicts(document, report))


def test_empty_rendered_list_writes_brackets():
    report = search([6, 0, 0, 3], 5)
    assert report.findings == () and report.descends == ()
    assert '"descends": [],' in dumps_document({"report": report.to_report()})
    assert dumps_document({"a": RenderedList((), None)}) == reference_dumps({"a": []})


def test_gathered_and_finding_by_finding_blocks_mix_in_one_document(monkeypatch):
    # 3 (10^6 T^3)^2 < 2^62 up to T = 10: the block of heights 1..10 is decided
    # and gathered in int64, the rest on Python ints and written finding by finding
    gathered = []
    block_text = search_module._block_text
    monkeypatch.setattr(search_module, "_block_text",
                        lambda *args: gathered.append(len(args[0])) or block_text(*args))
    report = search([0, 0, 0, EisensteinRational.from_coords(0, 10**6)], 60)
    assert [b[0].dtype for b in report.blocks] == [np.int64] + [object] * (len(report.blocks) - 1)
    assert len(report.blocks) > 1
    document = {"report": report.to_report()}
    assert dumps_document(document) == reference_dumps(with_descends_as_dicts(document, report))
    assert gathered == [len(report.blocks[0][0])]


@pytest.mark.parametrize("scale", [(1, 3), (2, 3), (1, 6), (5, 9)])
def test_gathered_block_text_equals_the_text_of_each_finding(scale):
    # the text depends only on the integers, so any columns serve: zero,
    # negative and one-digit values, and values up to 19 digits
    rng = np.random.default_rng(sum(scale))
    d, e = scale
    n = 3000
    q = rng.integers(1, 60, n)
    p = rng.integers(-10**6, 10**6, n)
    p[::7] = 0
    q[::7] = 1
    g = np.gcd(p, q)
    p, q = p // g, q // g
    top = 2**62 // (d * q.max() ** (e // 3))
    r = rng.integers(1, max(2, min(top, 2**40)), n)
    ga, gb = rng.integers(-2**62, 2**62, (2, n))
    for column in (ga, gb):
        column[1::5] %= 10  # short values beside long ones
    r[1::5] = r[1::5] % 9 + 1
    ga[2::9] = 0
    gb[3::9] = 0
    gb[4::9] = -ga[4::9]
    gb[(ga == 0) & (gb == 0)] = 1  # G != 0 at every finding
    block = (p, q, ga, gb, r)
    report = search_module.SearchReport(1, (), {}, 0, (block,), scale, {}, {})
    indent = "\n      "
    s = d * q ** (e // 3)
    text = search_module._block_text(p, q, ga, gb, s ** 3, r * s, indent)
    findings = zip(*(x.tolist() for x in block))
    assert text == ("," + indent).join(report._render_finding(f, indent) for f in findings)
    assert report._render_block(block, indent) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
def test_digit_columns_gather_to_plain_formatting(values):
    # the pad of `_digits` is the byte 0 wherever it sits, and `_gathered` drops it
    v = np.array(values + [0, 9, 10], dtype=np.int64)
    newline = np.full((len(v), 1), ord("\n"), dtype=np.uint8)
    plain = "".join(f"{x}\n" for x in v.tolist())
    assert _gathered([_digits(v), newline]).tobytes() == plain.encode("ascii")
