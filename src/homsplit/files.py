"""JSON file formats for algebras, representations, actions, and operators.

Algebra file:

    { "kind": "...", "dimension": n, "parameters": ["a", ...],
      "alpha": [[polystring, ...], ...],            row-major n x n
      "ops": { "<opname>": [ {"i":1,"j":2,"k":3,"c":"<polystring>"}, ... ] } }

Representation files add "module_dimension", "beta", and "actions" (the four
tensors prec_l/succ_l/prec_r/succ_r); action files additionally carry
"acted_ops" ({"prec": ..., "succ": ...} on the module space, twist = beta).
Operator files are {"kind": "...", "matrix": [[polystring, ...], ...]}.

Duplicate (i,j,k) keys are an input error.  Files written by `construct`
carry a leading "// ..." provenance comment line; the readers skip such
lines before JSON parsing.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .model import (
    ACTION_NAMES,
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    ModelError,
    RepresentationBundle,
    action_shapes,
)
from .operators import OPERATOR_KINDS
from .poly import ParseError, Polynomial
from .report import Violation

ALGEBRA_KEYS = {"kind", "dimension", "parameters", "alpha", "ops"}
REPRESENTATION_KEYS = ALGEBRA_KEYS | {"module_dimension", "beta", "actions"}
ACTION_KEYS = REPRESENTATION_KEYS | {"acted_ops"}
OPERATOR_KEYS = {"kind", "matrix"}


def _parse_poly(text, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise ModelError(f"{where}: polynomial entry must be a string")
    try:
        return Polynomial.parse(text)
    except ParseError as exc:
        raise ModelError(f"{where}: {exc}") from exc


def _matrix_from_json(data, where: str) -> LinearMap:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ModelError(f"{where}: expected a non-empty list of rows")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ModelError(f"{where}: ragged matrix rows")
    rows = [
        [_parse_poly(cell, f"{where}[{i + 1}][{j + 1}]") for j, cell in enumerate(row)]
        for i, row in enumerate(data)
    ]
    return LinearMap.from_rows(rows)


def matrix_rows(m: LinearMap) -> list:
    """The matrix as rows of polynomial texts, as files and reports write it."""
    return [[str(cell) for cell in row] for row in m.entries]


def _tensor_from_json(data, dims: tuple, where: str) -> BilinearOp:
    if not isinstance(data, list):
        raise ModelError(f"{where}: expected a list of entries")
    seen = set()
    entries = []
    for pos, item in enumerate(data):
        if not isinstance(item, dict) or set(item) != {"i", "j", "k", "c"}:
            raise ModelError(f"{where}[{pos}]: entry must have exactly keys i, j, k, c")
        i, j, k = item["i"], item["j"], item["k"]
        if not all(type(v) is int for v in (i, j, k)):  # JSON true/false load as bool
            raise ModelError(f"{where}[{pos}]: indices must be integers")
        key = (i, j, k)
        if key in seen:
            raise ModelError(f"{where}: duplicate tensor key {key}")
        seen.add(key)
        entries.append((i, j, k, _parse_poly(item["c"], f"{where}[{pos}].c")))
    return BilinearOp.from_entries(dims[0], dims[1], dims[2], entries)


def _tensor_to_json(op: BilinearOp) -> list:
    return [
        {"i": i, "j": j, "k": k, "c": str(c)} for (i, j, k), c in op.constants
    ]


def _check_keys(data: dict, keys: set, what: str) -> None:
    if not isinstance(data, dict):
        raise ModelError(f"{what}: expected a JSON object")
    extra = set(data) - keys
    if extra:
        raise ModelError(f"{what}: unexpected key(s) {sorted(extra)}")
    missing = keys - set(data)
    if missing:
        raise ModelError(f"{what}: missing key(s) {sorted(missing)}")


def algebra_from_dict(data: dict) -> AlgebraBundle:
    _check_keys(data, ALGEBRA_KEYS, "algebra file")
    if not isinstance(data["kind"], str):
        raise ModelError("algebra file: kind must be a string")
    dim = data["dimension"]
    if type(dim) is not int or dim < 1:
        raise ModelError("algebra file: dimension must be a positive integer")
    params = data["parameters"]
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ModelError("algebra file: parameters must be a list of strings")
    ops_data = data["ops"]
    if not isinstance(ops_data, dict):
        raise ModelError("algebra file: ops must be an object")
    ops = {
        name: _tensor_from_json(entries, (dim, dim, dim), f"ops.{name}")
        for name, entries in ops_data.items()
    }
    return AlgebraBundle(
        kind=data["kind"],
        dim=dim,
        ops=ops,
        twist=_matrix_from_json(data["alpha"], "alpha"),
        parameters=tuple(sorted(set(params))),
    )


def algebra_to_dict(bundle: AlgebraBundle) -> dict:
    return {
        "kind": bundle.kind,
        "dimension": bundle.dim,
        "parameters": sorted(bundle.parameters),
        "alpha": matrix_rows(bundle.twist),
        "ops": {name: _tensor_to_json(op) for name, op in sorted(bundle.ops.items())},
    }


def representation_from_dict(data: dict) -> RepresentationBundle:
    _check_keys(data, REPRESENTATION_KEYS, "representation file")
    base = algebra_from_dict({k: data[k] for k in ALGEBRA_KEYS})
    return _representation_parts(data, base)


def _representation_parts(data: dict, base: AlgebraBundle) -> RepresentationBundle:
    mdim = data["module_dimension"]
    if type(mdim) is not int or mdim < 1:
        raise ModelError("representation file: module_dimension must be positive")
    shapes = action_shapes(base.dim, mdim)
    actions_data = data["actions"]
    if not isinstance(actions_data, dict) or set(actions_data) != set(ACTION_NAMES):
        raise ModelError(
            f"representation file: actions must have exactly keys {sorted(ACTION_NAMES)}"
        )
    actions = {
        name: _tensor_from_json(actions_data[name], shapes[name], f"actions.{name}")
        for name in ACTION_NAMES
    }
    return RepresentationBundle(
        base=base,
        module_dim=mdim,
        actions=actions,
        module_twist=_matrix_from_json(data["beta"], "beta"),
    )


def representation_to_dict(rep: RepresentationBundle) -> dict:
    out = algebra_to_dict(rep.base)
    out["module_dimension"] = rep.module_dim
    out["beta"] = matrix_rows(rep.module_twist)
    out["actions"] = {name: _tensor_to_json(rep.actions[name]) for name in ACTION_NAMES}
    return out


def action_from_dict(data: dict) -> ActionBundle:
    _check_keys(data, ACTION_KEYS, "action file")
    rep = _representation_parts(
        data, algebra_from_dict({k: data[k] for k in ALGEBRA_KEYS})
    )
    acted_data = data["acted_ops"]
    if not isinstance(acted_data, dict) or set(acted_data) != {"prec", "succ"}:
        raise ModelError("action file: acted_ops must have exactly keys prec, succ")
    m = rep.module_dim
    acted = AlgebraBundle(
        kind="dendriform",
        dim=m,
        ops={
            name: _tensor_from_json(acted_data[name], (m, m, m), f"acted_ops.{name}")
            for name in ("prec", "succ")
        },
        twist=rep.module_twist,
        parameters=tuple(sorted(rep.base.parameters)),
    )
    return ActionBundle(acting=rep.base, acted=acted, actions=rep.actions)


def action_to_dict(action: ActionBundle) -> dict:
    out = representation_to_dict(action.representation())
    out["acted_ops"] = {
        "prec": _tensor_to_json(action.acted.op("prec")),
        "succ": _tensor_to_json(action.acted.op("succ")),
    }
    return out


def operator_from_dict(data: dict) -> tuple:
    _check_keys(data, OPERATOR_KEYS, "operator file")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in OPERATOR_KINDS:
        raise ModelError(
            f"operator file: unknown kind {kind!r} (expected one of {sorted(OPERATOR_KINDS)})"
        )
    return kind, _matrix_from_json(data["matrix"], "matrix")


def operator_to_dict(kind: str, matrix: LinearMap) -> dict:
    return {"kind": kind, "matrix": matrix_rows(matrix)}


# ---------------------------------------------------------------------------
# the JSON writer

_ROW_KEYS = frozenset({"residual", "template", "witness"})
_INTS = frozenset({int})
#: the pieces of text a stream holds before it passes them on as one chunk
_CHUNK_PIECES = 1024


class _Pieces(list):
    """The pieces of a streamed text not yet passed on to `write`."""

    __slots__ = ("write",)

    def flush(self) -> None:
        self.write("".join(self))
        self.clear()


def json_text(data) -> str:
    """The text the json module's `dumps` writes with indent 2 and sorted keys,
    byte for byte, for trees of dicts with str keys, lists, tuples, str, int,
    bool, None and `Violation`s; anything else, floats included, raises
    TypeError.  A `Violation` is written as its row, `to_dict()`.

    Every report, corpus report and written file goes through here or through
    `json_stream`, which writes the same text in chunks.  Strings are escaped
    by json's own `encode_basestring_ascii`.  A list of ints and a violation
    row (a dict of residual and template strings and a non-empty witness of
    ints) are each written as one piece.  In a list of `Violation`s, which is
    how the CLI hands over its reports, each row is written straight from the
    violation, with no row dict: the text of each template and of each
    witness is made once per list, and the first line of a row, which holds
    the residual, once per shared residual (the `scaled` tuple that the
    violations of one evaluation share, see `axioms.evaluate_templates`).
    """
    chunks: list = []
    json_stream(data, chunks.append)
    return "".join(chunks)


def json_stream(data, write) -> None:
    """Pass `json_text(data)` to `write` in chunks of rows as they are made,
    so that the whole text is never held at once."""
    out = _Pieces()
    out.write = write
    _write(data, "\n", out)
    out.flush()


def _write(value, newline: str, out: _Pieces) -> None:
    """Append the text of `value`; `newline` is a newline plus the
    indentation of the line `value` starts on.  A list passes the pieces on
    between its items once they are `_CHUNK_PIECES` or more."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _quote(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == _INTS:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        # a violation row's key lines start at `field`, its witness lines at `entry`
        field, entry = inner + "  ", inner + "    "
        row_head = "{" + field + '"residual": '
        row_template = "," + field + '"template": '
        row_witness = "," + field + '"witness": [' + entry
        row_comma = "," + entry
        row_end = field + "]" + inner + "}"
        separator = "[" + inner
        templates: dict = {}  # template -> its row line
        witnesses: dict = {}  # witness -> its row lines, or "" unless non-empty ints
        # the id of a violation's `scaled` tuple, or of the violation itself
        # when it holds a Polynomial residual -> the row's first line
        heads: dict = {}
        for item in value:
            if len(out) >= _CHUNK_PIECES:
                out.flush()
            out.append(separator)
            separator = "," + inner
            if type(item) is Violation:
                witness = item.witness
                tail = witnesses.get(witness)
                if tail is None:
                    tail = witnesses[witness] = (
                        row_witness + row_comma.join(map(int.__repr__, witness)) + row_end
                        if witness and set(map(type, witness)) == _INTS
                        else ""
                    )
                if not tail:
                    _write(item.to_dict(), inner, out)
                    continue
                template = templates.get(item.template)
                if template is None:
                    template = templates[item.template] = row_template + _quote(item.template)
                key = id(item.scaled or item)
                head = heads.get(key)
                if head is None:
                    head = heads[key] = row_head + _quote(item.residual_text())
                out.append(head + template + tail)
                continue
            if type(item) is dict and item.keys() == _ROW_KEYS:
                residual, template, witness = item["residual"], item["template"], item["witness"]
                if (
                    type(residual) is str
                    and type(template) is str
                    and type(witness) in (list, tuple)
                    and set(map(type, witness)) == _INTS
                ):
                    out.append(
                        row_head + _quote(residual) + row_template + _quote(template)
                        + row_witness + row_comma.join(map(int.__repr__, witness)) + row_end
                    )
                    continue
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, Violation):
        _write(value.to_dict(), newline, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# path-level helpers


def read_json(path) -> dict:
    """Read a JSON file, skipping leading '//' provenance comment lines."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].lstrip().startswith("//"):
        start += 1
    body = "\n".join(lines[start:])
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ModelError(f"{path}: JSON nested too deeply") from exc


def write_json(path, data: dict, header: str | None = None) -> None:
    """Write `data` to `path` as `json_text` and a newline, after a "// "
    comment line if `header` is given; the text is streamed (`json_stream`)."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"// {header}\n")
        json_stream(data, handle.write)
        handle.write("\n")


def classify_file(data: dict) -> str:
    """'algebra', 'representation', 'action', or 'operator'."""
    if not isinstance(data, dict):
        raise ModelError("expected a JSON object")
    if "matrix" in data:
        return "operator"
    if "acted_ops" in data:
        return "action"
    if "module_dimension" in data:
        return "representation"
    return "algebra"
