"""Machine-readable transcription of the source tables plus the batch
verification pipeline.

Layout (relative to a corpus root, defaulting to this package directory):

    sec2/*.json        worked examples (one dendriform, one diassociative)
    dim2/*.json        2-dimensional quadri-dendriform classification entries
    dim3/*.json        3-dimensional quadri-dendriform classification entries
    operators/*.json   operator matrix families (Rota-Baxter, averaging)
    controls/*.json    synthetic controls (one valid, one corrupted)
    manifest.json      ids, sources, expected verdicts, transcription notes

Payload files are plain algebra / operator files; all metadata lives in the
manifest.  Expected verdicts carry provenance ("paper-asserted" or
"constructed-control") and are never assumed: the pipeline reports
agreement or discrepancy entry by entry.  Tables are transcribed literally;
known oddities are kept (with notes) rather than emended, except that the
one ambiguous table line ships as two variant entries (.literal/.emended).
"""

from __future__ import annotations

from pathlib import Path

from ..axioms import SQ15_DEFAULT, _require_sq15, check_kind, check_multiplicative
from ..files import (
    action_from_dict,
    algebra_from_dict,
    classify_file,
    json_text,
    operator_from_dict,
    read_json,
    representation_from_dict,
)
from ..model import ActionBundle, AlgebraBundle, ModelError, RepresentationBundle
from ..operators import verify_operator
from ..report import Report, Violation

CORPUS_ROOT = Path(__file__).parent

_OPTIONAL_TEXTS = ("algebra", "notes", "imaginary_unit")


class CorpusError(ValueError):
    """Missing/invalid corpus file; carries the validation report if any."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


_FROM_DICT = {
    "algebra": algebra_from_dict,
    "representation": representation_from_dict,
    "action": action_from_dict,
    "operator": operator_from_dict,
}


def _load(path, shape: str, data=None):
    """Read a file of the given shape, or take its already parsed JSON `data`,
    parse it and, unless it is an operator file, validate its structure."""
    if data is None:
        data = read_json(path)
    found = classify_file(data)
    if found != shape:
        raise CorpusError(f"{path}: expected {shape} file, got {found} file")
    try:
        loaded = _FROM_DICT[shape](data)
    except ModelError as exc:
        raise CorpusError(str(exc)) from exc
    if shape != "operator":
        report = loaded.validate()
        if not report.ok:
            flags = ", ".join(sorted({violation.template for violation in report.entries}))
            raise CorpusError(f"{path}: structural violations: {flags}\n{report}", report)
    return loaded


def load_algebra(path, data=None) -> AlgebraBundle:
    return _load(path, "algebra", data)


def load_representation(path, data=None) -> RepresentationBundle:
    return _load(path, "representation", data)


def load_action(path, data=None) -> ActionBundle:
    return _load(path, "action", data)


def load_operator(path) -> tuple:
    """(kind, matrix) of an operator file."""
    return _load(path, "operator")


def load_manifest(root=None) -> dict:
    root = Path(root) if root else CORPUS_ROOT
    path = root / "manifest.json"
    if not path.exists():
        raise CorpusError(f"missing corpus manifest {path}")
    data = read_json(path)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise CorpusError(f"{path}: a manifest is an object with an entries list")
    for pos, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and all(isinstance(entry.get(key), str) for key in ("id", "type", "path", "source"))
            and all(isinstance(entry.get(key, ""), str) for key in _OPTIONAL_TEXTS)
            and isinstance(entry.get("expected"), dict)
            and entry["expected"].keys() == {"verdict", "provenance"}
            and all(isinstance(value, str) for value in entry["expected"].values())
        ):
            raise CorpusError(
                f"{path}: entry {pos} needs strings id, type, path and source, an expected "
                f"object of strings verdict and provenance, and strings for any of "
                f"{', '.join(_OPTIONAL_TEXTS)}"
            )
    ids = [e["id"] for e in entries]
    if len(ids) != len(set(ids)):
        raise CorpusError("duplicate ids in corpus manifest")
    algebras = {e["id"] for e in entries if e["type"] == "algebra"}
    for entry in entries:
        if entry["type"] == "operator" and entry.get("algebra") not in algebras:
            raise CorpusError(f"{path}: operator entry {entry['id']} names no algebra entry")
    return data


def list_entries(root=None) -> list:
    return sorted(load_manifest(root)["entries"], key=lambda e: e["id"])


def _reduce_report(report: Report, unit: str) -> Report:
    reduced = []
    for v in report.entries:
        residual = v.residual.reduce_imaginary(unit)
        if residual:
            reduced.append(Violation(v.template, v.witness, residual))
    return Report(reduced)


def verify_entry(entry: dict, algebras: dict, root=None, sq15: str = SQ15_DEFAULT) -> dict:
    """Verify one manifest entry; returns its deterministic report record.

    `algebras` maps algebra entry ids to the bundles `corpus_verify_all` has
    loaded; an algebra entry, and the algebra an operator entry names, are
    taken from it, so each file is read once."""
    root = Path(root) if root else CORPUS_ROOT
    record = {
        key: entry[key] for key in ("id", "type", "path", "source", "expected", "notes")
        if key in entry
    }
    if entry["type"] == "algebra":
        bundle = algebras[entry["id"]]
        record["kind"] = bundle.kind
        report = check_kind(bundle, sq15=sq15)
        record["multiplicative"] = check_multiplicative(bundle).status
    elif entry["type"] == "operator":
        kind, matrix = load_operator(root / entry["path"])
        record["operator_kind"] = kind
        record["algebra"] = entry["algebra"]
        report = verify_operator(kind, algebras[entry["algebra"]], matrix)
        unit = entry.get("imaginary_unit")
        if unit:
            record["imaginary_unit"] = unit
            report = _reduce_report(report, unit)
    else:
        raise CorpusError(f"unknown corpus entry type {entry['type']!r}")
    record["verdict"] = report.status
    record["violations"] = report.to_dict()["entries"]
    record["agreement"] = report.status == entry["expected"]["verdict"]
    record["discrepancy"] = not record["agreement"]
    return record


def corpus_verify_all(root=None, sq15: str = SQ15_DEFAULT) -> dict:
    """Run every corpus entry through its checker/verifier; deterministic.

    The manifest and each payload file are read once: the algebras first,
    then each entry, which takes its algebra from them (`verify_entry`).  An
    unknown sq15 is refused before anything is read."""
    _require_sq15(sq15)
    root = Path(root) if root else CORPUS_ROOT
    entries = list_entries(root)
    algebras = {}
    for entry in entries:
        if entry["type"] == "algebra":
            algebras[entry["id"]] = load_algebra(root / entry["path"])
    records = [verify_entry(entry, algebras, root=root, sq15=sq15) for entry in entries]
    discrepancies = [r["id"] for r in records if r["discrepancy"]]
    summary = {
        "total": len(records),
        "pass": sum(1 for r in records if r["verdict"] == "pass"),
        "fail": sum(1 for r in records if r["verdict"] == "fail"),
        "agreements": sum(1 for r in records if r["agreement"]),
        "discrepancies": discrepancies,
    }
    return {"sq15": sq15, "entries": records, "summary": summary}


def report_to_json(report: dict) -> str:
    return json_text(report) + "\n"


def discrepancies_markdown(report: dict) -> str:
    """Human summary of every entry whose verdict contradicts its expectation."""
    lines = [
        "# Corpus discrepancies",
        "",
        "Entries where the symbolic checker contradicts the source's assertion.",
        "Residuals are exact polynomials in the declared parameters; a witness",
        "[i, j, k, c] names the basis triple and the coordinate of the residual.",
        "",
        f"Template convention sq15: {report['sq15']}.",
        "",
    ]
    bad = [r for r in report["entries"] if r["discrepancy"]]
    if not bad:
        lines.append("No discrepancies: every verdict matches its expectation.")
        return "\n".join(lines) + "\n"
    lines.append(
        f"{len(bad)} of {report['summary']['total']} entries disagree with their expectation."
    )
    lines.append("")
    fails_only_twist = lambda r: r["violations"] and all(
        v["template"].endswith(".twist") for v in r["violations"]
    )
    twist_only = sum(1 for r in bad if fails_only_twist(r))
    if twist_only:
        lines.append(
            f"{twist_only} of them fail only the twist-commutation condition "
            "(the operator does not commute with the structure map, while the "
            "product identities hold symbolically)."
        )
        lines.append("")
    for r in bad:
        lines.append(f"## {r['id']}")
        lines.append("")
        lines.append(f"- source: {r['source']}")
        expected = r["expected"]
        lines.append(
            f"- expected: {expected['verdict']} ({expected['provenance']}); got: {r['verdict']}"
        )
        if r.get("notes"):
            lines.append(f"- notes: {r['notes']}")
        if fails_only_twist(r):
            lines.append("- all residuals come from twist commutation with the structure map")
        violations = r["violations"]
        if violations:
            lines.append(f"- violations ({len(violations)} total, first 10 shown):")
            lines.append("")
            lines.append("  | template | witness | residual |")
            lines.append("  | --- | --- | --- |")
            for v in violations[:10]:
                witness = ", ".join(str(w) for w in v["witness"])
                lines.append(f"  | {v['template']} | [{witness}] | `{v['residual']}` |")
        lines.append("")
    return "\n".join(lines) + "\n"
