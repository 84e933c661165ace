"""The JSON writer behind every report, corpus report and written file.

`files.json_text(data)` must equal `json.dumps(data, indent=2, sort_keys=True)`
byte for byte on the JSON trees homsplit writes (dicts with str keys, lists,
tuples, str, int, bool, None), and refuse anything else with TypeError.  A
`Violation` in the tree, as in the CLI's report payloads, is written as its
row dict `to_dict()`.  The dense failing six-dendriform check pins the bytes
of a large report, through the CLI, at a path whose name needs escaping.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_six, near_valid_six, rows
from homsplit.axioms import check_kind, check_multiplicative
from homsplit.cli import main
from homsplit.files import algebra_to_dict, json_text
from homsplit.poly import Polynomial
from homsplit.report import Report, Violation

# quotes, backslashes, control characters, the JSON-sensitive separators and
# non-ASCII letters, including one outside the basic multilingual plane
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f é  ß\U0001f600:,[]{}'
TEXT = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=12)
INTS = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
SCALARS = st.none() | st.booleans() | INTS | TEXT
ROWS = st.fixed_dictionaries({
    "residual": TEXT,
    "template": TEXT,
    "witness": st.lists(INTS | st.booleans(), max_size=4),
})


def extend(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
        | st.lists(ROWS, max_size=4)
        | st.lists(INTS | st.booleans(), max_size=6)
    )


TREES = st.recursive(SCALARS, extend, max_leaves=40)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TREES)
def test_writer_equals_json_dumps(data):
    assert json_text(data) == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("data", [
    {}, [], (), "", 0, True, False, None, 10**400 // 10**100,
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [{"residual": "x", "template": "t", "witness": []}],
    [{"residual": "x", "template": "t", "witness": [1, True]}],
    [{"residual": "x", "template": "t", "witness": [1, 2], "extra": None}],
    [{"residual": 1, "template": "t", "witness": [1]}],
    [True, 1, False, 0],
    {"entries": [{"residual": "-1/2*p + é", "template": 'six."sq1"', "witness": (1, 2, 3)}]},
])
def test_writer_equals_json_dumps_on_edge_cases(data):
    assert json_text(data) == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("data", [
    1.5,
    {"a": 0.0},
    [1, 2.5],
    [{"residual": "x", "template": "t", "witness": [1, 2.0]}],
    {1: "int key"},
    {None: "null key"},
    {("a",): "tuple key"},
    {"a": {1, 2}},
    Fraction(1, 2),
    b"bytes",
])
def test_writer_refuses_floats_non_str_keys_and_other_types(data):
    with pytest.raises(TypeError):
        json_text(data)


def assert_same_text(got: str, want: str) -> None:
    """got == want, reporting the first difference instead of pytest's diff
    of two long texts, which takes minutes."""
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


def check_payload(bundle, sq15: str) -> dict:
    """The CLI's check payload, whose entries are the violations themselves."""
    return {
        "file": DENSE_NAME,
        "check": check_kind(bundle, sq15=sq15).payload(),
        "multiplicative": check_multiplicative(bundle).payload(),
    }


@pytest.mark.parametrize("bundle, sq15", [
    (dense_six(random.Random(5), 4), "literal"),
    (dense_six(random.Random(6), 3), "symmetric"),
    (near_valid_six(), "symmetric"),
], ids=["dense-literal", "dense-symmetric", "near-valid"])
def test_violation_rows_are_written_as_their_row_dicts(bundle, sq15):
    payload = check_payload(bundle, sq15)
    assert payload["check"]["status"] == "fail"
    assert all(type(v) is Violation for v in payload["check"]["entries"])
    text = json_text(payload)
    assert_same_text(text, json.dumps(rows(payload), indent=2, sort_keys=True))
    assert_same_text(text, json_text(rows(payload)))


def test_violations_anywhere_in_a_tree_are_written_as_their_row_dicts():
    engine = check_kind(near_valid_six()).entries[:2]
    given = [
        Violation("structure.acted-kind", (), Polynomial.zero()),
        Violation('six."sq1"\u00e9', (1, 2, 3), Polynomial.parse("-1/2*p + q")),
        Violation("t", (10**30, -1), Polynomial.one()),
    ]
    payload = {
        "mixed": [1, "a", None, *engine, *given, {"nested": engine}],
        "alone": given[1],
        "report": Report(engine + given).payload(),
        "empty": Report([]).payload(),
    }
    assert_same_text(json_text(payload), json.dumps(rows(payload), indent=2, sort_keys=True))


# A dense failing six-dendriform file: fractional coefficients, the parameter
# p, and a file name with a quote, a backslash and a non-ASCII letter, which
# the report and the summary line both carry.  The digests were recorded with
# json.dumps(indent=2, sort_keys=True) as the writer.
DENSE_NAME = 'dense "six" \\ é.json'
DENSE_REPORT_SHA256 = "ebcfeb8aea363354a8226714bf35ea00391b5d49019cd434ec784de3c0c8d237"
DENSE_STDOUT_SHA256 = "7fad8580a73752e475b9deac3ea5a4a10a1438417e645e2cd132788abde73f1a"
DENSE_REPORT_STR_SHA256 = "d33af95ba5a25aeabb1a33535ae43a431b71e90186e4da9009d507a62877f011"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dense_bundle():
    return dense_six(random.Random(10), 3)


def test_dense_failing_six_check_report_and_stdout_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = json.dumps(algebra_to_dict(dense_bundle()), indent=2, sort_keys=True)
    Path(DENSE_NAME).write_text(text, encoding="utf-8")
    code = main(["check", DENSE_NAME, "--multiplicative", "--report", "report.json"])
    stdout = capsys.readouterr().out
    report = Path("report.json").read_text(encoding="utf-8")
    assert code == 1
    assert '\\"six\\" \\\\ \\u00e9' in report
    assert sha256(report) == DENSE_REPORT_SHA256
    assert sha256(stdout) == DENSE_STDOUT_SHA256
    assert stdout.endswith(report)


def test_dense_failing_six_report_text_is_pinned():
    report = check_kind(dense_bundle())
    assert len(report.entries) > 20
    assert sha256(str(report)) == DENSE_REPORT_STR_SHA256
