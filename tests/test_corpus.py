import pytest

from helpers import zero_bundle
from homsplit import corpus
from homsplit.axioms import check_kind
from homsplit.corpus import (
    CORPUS_ROOT,
    CorpusError,
    corpus_verify_all,
    discrepancies_markdown,
    list_entries,
    load_algebra,
    load_manifest,
    load_operator,
    report_to_json,
    verify_entry,
)
from homsplit.model import KIND_OPS


def test_manifest_transcription_completeness():
    entries = list_entries()
    ids = [e["id"] for e in entries]
    assert len(ids) == len(set(ids))
    dim2 = {i for i in ids if i.startswith("dim2.")}
    # D3 ships as two variant transcriptions of one entry
    base_dim2 = {i.rsplit(".literal", 1)[0].rsplit(".emended", 1)[0] for i in dim2}
    assert base_dim2 == {f"dim2.D{k}" for k in range(1, 6)}
    dim3 = {i for i in ids if i.startswith("dim3.")}
    assert dim3 == {f"dim3.D{k}" for k in range(1, 14)}
    assert "sec2.dendriform.Deta" in ids
    assert "sec2.diassociative.D" in ids
    assert {i for i in ids if i.startswith("ops.sec2.rb.")} == {
        f"ops.sec2.rb.family{k}" for k in (1, 2, 3)
    }
    # operator families: 8 in dim 2, 32 in dim 3
    assert sum(1 for i in ids if i.startswith("ops.dim2.")) == 8
    assert sum(1 for i in ids if i.startswith("ops.dim3.")) == 32
    # every operator entry names an existing algebra entry
    by_id = {e["id"]: e for e in entries}
    for e in entries:
        if e["type"] == "operator":
            assert e["algebra"] in by_id
    # expected verdicts always carry provenance
    for e in entries:
        assert e["expected"]["provenance"] in {"paper-asserted", "constructed-control"}


def test_all_payloads_load_and_validate():
    for e in list_entries():
        path = CORPUS_ROOT / e["path"]
        if e["type"] == "algebra":
            bundle = load_algebra(path)
            assert bundle.validate().ok
        else:
            kind, matrix = load_operator(path)
            assert matrix.dim_out == matrix.dim_in


def test_report_determinism_byte_identical():
    first = report_to_json(corpus_verify_all())
    second = report_to_json(corpus_verify_all())
    assert first == second


def test_controls_behave():
    report = corpus_verify_all()
    by_id = {r["id"]: r for r in report["entries"]}
    assert by_id["control.hemi"]["verdict"] == "pass"
    assert by_id["control.hemi"]["agreement"]
    assert by_id["control.corrupted"]["verdict"] == "fail"
    assert by_id["control.corrupted"]["agreement"]  # expected fail, got fail
    assert by_id["control.corrupted"]["violations"]  # witness-bearing


def test_every_entry_has_verdict_and_discrepancy_key():
    report = corpus_verify_all()
    for r in report["entries"]:
        assert r["verdict"] in {"pass", "fail"}
        assert isinstance(r["discrepancy"], bool)
        assert r["discrepancy"] == (not r["agreement"])
        if r["verdict"] == "fail":
            assert r["violations"], r["id"]
    summary = report["summary"]
    assert summary["total"] == len(report["entries"])
    assert summary["discrepancies"] == [
        r["id"] for r in report["entries"] if r["discrepancy"]
    ]


def test_known_symbolic_verdicts():
    report = corpus_verify_all()
    by_id = {r["id"]: r for r in report["entries"]}
    # worked examples verify symbolically
    assert by_id["sec2.dendriform.Deta"]["verdict"] == "pass"
    assert by_id["sec2.diassociative.D"]["verdict"] == "pass"
    # dim-2 D1, D2 verify symbolically; D3 fails with residuals in b
    assert by_id["dim2.D1"]["verdict"] == "pass"
    assert by_id["dim2.D2"]["verdict"] == "pass"
    assert by_id["dim2.D3.literal"]["verdict"] == "fail"
    assert any("b" in v["residual"] for v in by_id["dim2.D3.literal"]["violations"])
    # multiplicativity is informational, never folded into the verdict
    assert by_id["sec2.dendriform.Deta"]["multiplicative"] == "fail"
    assert by_id["sec2.dendriform.Deta"]["verdict"] == "pass"


def test_imaginary_unit_entry_is_reduced():
    report = corpus_verify_all()
    by_id = {r["id"]: r for r in report["entries"]}
    entry = by_id["ops.dim3.D6.family2"]
    assert entry["imaginary_unit"] == "i"
    # residuals of the recorded violations stay nonzero after i^2 = -1
    for v in entry["violations"]:
        assert v["residual"] != "0"


def test_discrepancies_markdown_structure():
    report = corpus_verify_all()
    text = discrepancies_markdown(report)
    assert text.startswith("# Corpus discrepancies")
    for eid in report["summary"]["discrepancies"]:
        assert f"## {eid}" in text
    # witness tables carry residual polynomials
    assert "| template | witness | residual |" in text


def test_load_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_algebra(CORPUS_ROOT / "operators" / "dim2_D1_family1.json")
    with pytest.raises(CorpusError, match="missing corpus manifest"):
        load_manifest("/nonexistent")
    # undeclared parameter in a polystring is a structural error with report
    import json as _json

    text = (CORPUS_ROOT / "dim2" / "D1.json").read_text(encoding="utf-8")
    data = _json.loads(text)
    data["parameters"] = []  # alpha still mentions a
    bad = tmp_path / "bad.json"
    bad.write_text(_json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError, match="undeclared-parameter") as err:
        load_algebra(bad)
    assert err.value.report is not None
    # duplicate tensor key is an input error
    dup = tmp_path / "dup.json"
    data = _json.loads(text)
    data["ops"]["prec_vdash"].append(dict(data["ops"]["prec_vdash"][0]))
    dup.write_text(_json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate tensor key"):
        load_algebra(dup)


def test_verify_entry_single():
    manifest = load_manifest()
    entry = next(e for e in manifest["entries"] if e["id"] == "dim2.D1")
    record = verify_entry(entry, {"dim2.D1": load_algebra(CORPUS_ROOT / entry["path"])})
    assert record["verdict"] == "pass"
    assert record["kind"] == "quadri_dendriform"


def test_loader_annotations_resolve():
    import typing

    from homsplit import corpus
    from homsplit.model import ActionBundle, AlgebraBundle, RepresentationBundle

    expected = {
        corpus.load_algebra: AlgebraBundle,
        corpus.load_representation: RepresentationBundle,
        corpus.load_action: ActionBundle,
    }
    for loader, bundle_class in expected.items():
        assert typing.get_type_hints(loader)["return"] is bundle_class


def test_verify_all_reads_each_corpus_file_once(monkeypatch, tmp_path):
    """One `corpus verify-all` reads the manifest and every payload file
    exactly once: each algebra entry takes the bundle loaded for the
    operator entries instead of reading its file again."""
    from collections import Counter
    from pathlib import Path

    from homsplit import corpus
    from homsplit.cli import main

    files = {(CORPUS_ROOT / "manifest.json").resolve()}
    files |= {(CORPUS_ROOT / e["path"]).resolve() for e in list_entries()}
    reads = Counter()
    read_json = corpus.read_json

    def counted(path):
        reads[Path(path).resolve()] += 1
        return read_json(path)

    monkeypatch.setattr(corpus, "read_json", counted)
    assert main(["corpus", "verify-all", "--report", str(tmp_path / "report.json")]) in (0, 1)
    assert set(reads) == files and len(files) == 67
    assert {path: count for path, count in reads.items() if count != 1} == {}


def test_an_unknown_sq15_is_refused_for_every_kind_and_before_any_corpus_entry(monkeypatch):
    for kind, ops in KIND_OPS.items():
        with pytest.raises(ValueError, match=r"^sq15 must be one of \('literal', 'symmetric'\)$"):
            check_kind(zero_bundle(kind, 2, ops), sq15="bogus")
    monkeypatch.setattr(corpus, "list_entries", lambda root: pytest.fail("the manifest was read"))
    monkeypatch.setattr(corpus, "verify_entry", lambda *args, **kw: pytest.fail("verified"))
    with pytest.raises(ValueError, match="^sq15 must be one of"):
        corpus_verify_all(sq15="bogus")
