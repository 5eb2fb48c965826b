"""`dumps_document` writes exactly what json.dumps(sort_keys=True, indent=2) does."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisdescent import cli, reports
from eisdescent.reports import dumps_document


def reference_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


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


@settings(max_examples=200, deadline=None)
@given(json_values, st.integers(1, 8))
def test_writer_matches_json_dumps_when_joining_pieces_early(value, flush):
    with mock.patch.object(reports, "_FLUSH_PIECES", flush):
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
    ["search", "--coeffs", "0,0,0,w", "--height", "20"],  # past _FLUSH_PIECES pieces
    ["search", "--coeffs=0,0,-1/2+w", "--height", "30"],
    ["search", "--coeffs", "6,0,0,3", "--height", "5"],
])
def test_cli_documents_match_json_dumps(monkeypatch, capsys, argv):
    documents = []

    def recording_dumps(document):
        documents.append(document)
        return dumps_document(document)

    monkeypatch.setattr(cli, "dumps_document", recording_dumps)
    assert cli.main(argv) == 0
    (document,) = documents
    assert capsys.readouterr().out == reference_dumps(document)
    if argv[0] == "search":
        assert "counters" in document
        without_counters = {k: v for k, v in document.items() if k != "counters"}
        assert dumps_document(without_counters) == reference_dumps(without_counters)
