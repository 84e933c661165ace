"""Compare homsplit's JSON writer with json.dumps on the payloads it writes.

`files.json_text` must equal `json.dumps(data, indent=2, sort_keys=True)` byte
for byte, and so must the chunks that `files.json_stream` passes on, joined;
the escaping they borrow from the `json` module belongs to the interpreter.  This script needs only the standard library, so it runs under
every supported Python, with or without pytest:

    python tests/check_json_writer.py

The payloads are the corpus report under both sq15 readings, the check,
multiplicative and file payloads of every corpus algebra (with the fingerprint
of each parameter-free one), the verification report of every corpus
operator, the check reports of two dense failing six-dendriform algebras, the
CLI's check payloads of a dense failing and a near-valid six-dendriform
algebra, whose entries are `Violation`s (compared with `json.dumps` of their
row dicts), and a payload of strings that need escaping.
It prints one line per payload family and exits 1 on the first difference.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import dense_six, near_valid_six, rows  # noqa: E402
from homsplit.axioms import check_kind, check_multiplicative  # noqa: E402
from homsplit.corpus import (  # noqa: E402
    CORPUS_ROOT,
    corpus_verify_all,
    list_entries,
    load_algebra,
    load_operator,
)
from homsplit.files import algebra_to_dict, json_stream, json_text  # noqa: E402
from homsplit.morphisms import fingerprint  # noqa: E402
from homsplit.operators import verify_operator  # noqa: E402

ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f é  ß\U0001f600'


def payloads():
    yield "corpus reports", [corpus_verify_all(sq15=sq15) for sq15 in ("literal", "symmetric")]
    entries = list_entries()
    paths = {e["id"]: CORPUS_ROOT / e["path"] for e in entries}
    algebras = []
    for e in entries:
        if e["type"] == "algebra":
            bundle = load_algebra(paths[e["id"]])
            payload = {
                "file": str(paths[e["id"]]),
                "check": check_kind(bundle).to_dict(),
                "multiplicative": check_multiplicative(bundle).to_dict(),
                "algebra": algebra_to_dict(bundle),
            }
            if not bundle.used_parameters():
                payload["fingerprint"] = fingerprint(bundle).to_dict()
            algebras.append(payload)
    yield "corpus algebras", algebras
    operators = []
    for e in entries:
        if e["type"] == "operator":
            kind, matrix = load_operator(paths[e["id"]])
            context = load_algebra(paths[e["algebra"]])
            operators.append(verify_operator(kind, context, matrix, strict_twist=True).to_dict())
    yield "corpus operators", operators
    yield "dense six-dendriform checks", [
        {"file": ESCAPES, "check": check_kind(dense_six(random.Random(seed), dim)).to_dict()}
        for seed, dim in ((10, 3), (11, 4))
    ]
    yield "violation payloads", [
        {
            "file": ESCAPES,
            "check": check_kind(bundle, sq15=sq15).payload(),
            "multiplicative": check_multiplicative(bundle).payload(),
        }
        for bundle, sq15 in (
            (dense_six(random.Random(11), 4), "literal"),
            (near_valid_six(), "symmetric"),
        )
    ]
    yield "escaped strings", {ESCAPES: [ESCAPES, {"": ESCAPES}, [], {}, True, 1, None]}


def main() -> int:
    print(f"Python {sys.version.split()[0]}")
    for name, data in payloads():
        expected = json.dumps(rows(data), indent=2, sort_keys=True)
        if json_text(data) != expected:
            print(f"{name}: the writer differs from json.dumps")
            return 1
        chunks: list = []
        json_stream(data, chunks.append)
        if "".join(chunks) != expected:
            print(f"{name}: the streamed chunks differ from json.dumps")
            return 1
        print(f"{name}: identical ({len(expected)} characters, {len(chunks)} chunk(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
