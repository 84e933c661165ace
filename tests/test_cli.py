import json

import pytest

from homsplit.cli import build_parser, main
from homsplit.corpus import CORPUS_ROOT
from homsplit.files import read_json, write_json


def corpus_path(rel: str) -> str:
    return str(CORPUS_ROOT / rel)


# -- exit-code contract ----------------------------------------------------------

def test_check_valid_entry_exits_zero(capsys):
    assert main(["check", corpus_path("dim2/D1.json")]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_violating_entry_exits_one(capsys):
    assert main(["check", corpus_path("dim2/D4.json")]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "gamma" in out


def test_check_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "dendriform"}', encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- subcommand behavior -----------------------------------------------------------

def test_check_report_file_and_sq15_flag(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["check", corpus_path("dim2/D1.json"), "--multiplicative",
         "--sq15", "literal", "--report", str(report_path)]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["check"]["status"] == "pass"
    assert "multiplicative" in payload


def test_construct_writes_provenance_header(tmp_path, capsys):
    out = tmp_path / "dias.json"
    code = main(["construct", "sum-dias", corpus_path("dim2/D1.json"), "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("// construct sum-dias")
    data = read_json(out)  # reader skips the header comment
    assert data["kind"] == "diassociative"
    # the constructed file is checkable
    assert main(["check", str(out)]) == 0


def test_construct_quotient_refuses_with_report(tmp_path, capsys):
    spec_path = tmp_path / "q.json"
    # D1: quotient blocked by twist instability
    src = read_json(corpus_path("dim2/D1.json"))
    write_json(spec_path, src)
    out = tmp_path / "quot.json"
    # parameters present -> input error
    assert main(["construct", "quotient", str(spec_path), "-o", str(out)]) == 2
    # specialized: blocked by precondition, exit 1
    bundle_data = read_json(corpus_path("dim2/D1.json"))
    bundle_data["alpha"] = [["0", "1"], ["0", "0"]]
    bundle_data["parameters"] = []
    write_json(spec_path, bundle_data)
    code = main(["construct", "quotient", str(spec_path), "-o", str(out)])
    assert code == 1
    assert "quotient.closure.twist" in capsys.readouterr().err


def test_verify_op_exit_codes(capsys):
    assert main([
        "verify-op", corpus_path("dim2/D3_literal.json"),
        corpus_path("operators/dim2_D3_family1.json"),
    ]) == 0
    assert main([
        "verify-op", corpus_path("dim2/D1.json"),
        corpus_path("operators/dim2_D1_family1.json"),
    ]) == 1


def test_solve_op_and_membership(tmp_path, capsys):
    algebra = read_json(corpus_path("dim2/D3_literal.json"))
    algebra["parameters"] = []
    for row in algebra["alpha"]:
        for idx, cell in enumerate(row):
            row[idx] = cell.replace("b", "1")
    path = tmp_path / "D3_at_1.json"
    write_json(path, algebra)
    report_path = tmp_path / "solutions.json"
    code = main([
        "solve-op", str(path), "--kind", "averaging_quadri",
        "--grid", "0..1", "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert [["0", "0"], ["0", "0"]] in payload["solutions"]
    assert [["1", "0"], ["0", "1"]] in payload["solutions"]


def test_emit_system_cli(capsys):
    code = main(["emit-system", corpus_path("dim2/D1.json"), "--kind", "averaging_quadri"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equations"]  # D1's system is non-empty (twist commutation)


def test_fingerprint_cli_requires_parameter_free(tmp_path, capsys):
    assert main(["fingerprint", corpus_path("dim2/D1.json")]) == 2
    data = read_json(corpus_path("dim2/D1.json"))
    data["alpha"] = [["0", "1"], ["0", "0"]]
    data["parameters"] = []
    path = tmp_path / "D1_at_0.json"
    write_json(path, data)
    assert main(["fingerprint", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fingerprint"]["total_span_dim"] == 1


def test_iso_cli_verdicts(tmp_path, capsys):
    def specialized(rel, binding, out_name):
        data = read_json(corpus_path(rel))
        data["parameters"] = []
        data["alpha"] = [[cell.replace("a", binding) for cell in row] for row in data["alpha"]]
        path = tmp_path / out_name
        write_json(path, data)
        return str(path)

    d1 = specialized("dim2/D1.json", "0", "d1.json")
    d2 = specialized("dim2/D2.json", "0", "d2.json")
    assert main(["iso", d1, d1]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "isomorphic"
    assert main(["iso", d1, d2]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "distinct"
    assert verdict["fingerprint_fields"]


def test_corpus_verify_all_cli(tmp_path, capsys):
    report_path = tmp_path / "corpus.json"
    md_path = tmp_path / "DISCREPANCIES.md"
    code = main([
        "corpus", "verify-all",
        "--report", str(report_path), "--discrepancies", str(md_path),
    ])
    assert code == 1  # discrepancies exist in the shipped corpus
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["discrepancies"]
    assert md_path.read_text().startswith("# Corpus discrepancies")
    # determinism across two runs
    report2 = tmp_path / "corpus2.json"
    main(["corpus", "verify-all", "--report", str(report2)])
    assert report_path.read_text() == report2.read_text()


def test_corpus_list_cli(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "dim2.D1" in out and "ops.sec2.rb.family1" in out


def test_help_documents_spec_flags():
    parser = build_parser()
    helps = [parser.format_help()]
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            helps.append(sub.format_help())
    text = "\n".join(helps)
    for flag in ("--force", "--strict-twist", "--sq15", "--grid",
                 "--denominators", "--kind", "--report", "--multiplicative",
                 "--corpus", "--discrepancies", "--unknown-prefix"):
        assert flag in text, flag
    for sub in ("check", "construct", "verify-op", "solve-op", "emit-system",
                "fingerprint", "iso", "corpus"):
        assert sub in helps[0]


def test_boolean_dimension_exits_two(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(
        json.dumps({"kind": "dendriform", "dimension": True, "parameters": [],
                    "alpha": [["1"]], "ops": {"prec": [], "succ": []}}),
        encoding="utf-8",
    )
    assert main(["check", str(bad)]) == 2
    assert "dimension" in capsys.readouterr().err


def test_deeply_nested_cell_exits_two(tmp_path, capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    bad = tmp_path / "deep.json"
    bad.write_text(
        json.dumps({"kind": "dendriform", "dimension": 1, "parameters": [],
                    "alpha": [[deep]], "ops": {"prec": [], "succ": []}}),
        encoding="utf-8",
    )
    assert main(["check", str(bad)]) == 2
    assert "nest" in capsys.readouterr().err


def test_oversized_power_cell_exits_two(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text(
        json.dumps({"kind": "dendriform", "dimension": 1, "parameters": ["a", "b", "c", "d"],
                    "alpha": [["(a+b+c+d+1)^20"]], "ops": {"prec": [], "succ": []}}),
        encoding="utf-8",
    )
    assert main(["check", str(bad)]) == 2
    assert "cap of" in capsys.readouterr().err


def test_iso_with_equal_fingerprints_computes_each_fingerprint_once(monkeypatch, capsys):
    from homsplit import morphisms

    calls = []
    original = morphisms.fingerprint

    def counted(bundle):
        calls.append(bundle)
        return original(bundle)

    monkeypatch.setattr(morphisms, "fingerprint", counted)
    d4 = corpus_path("dim3/D4.json")
    assert main(["iso", d4, d4, "--grid=-1..1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "isomorphic"
    assert len(calls) == 2


def construct_inputs():
    """{construct NAME: (context file data, the operator kind it expects)}."""
    from helpers import deta
    from homsplit.files import action_to_dict, algebra_to_dict, representation_to_dict
    from homsplit.model import ActionBundle, AlgebraBundle, RepresentationBundle

    algebra = deta()
    mu = algebra.op("prec").add(algebra.op("succ"))
    associative = AlgebraBundle("associative", 3, {"mu": mu}, algebra.twist, algebra.parameters)
    return {
        "avg-dias": (algebra_to_dict(associative), "averaging_assoc"),
        "rb-dias": (read_json(corpus_path("sec2/diassociative_D.json")), "rota_baxter"),
        "ravg-quadri": (
            representation_to_dict(RepresentationBundle.adjoint(algebra)), "relative_averaging"
        ),
        "havg-six": (
            action_to_dict(ActionBundle.adjoint(algebra)), "homomorphic_relative_averaging"
        ),
    }


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("name", ["avg-dias", "rb-dias", "ravg-quadri", "havg-six"])
def test_construct_refuses_an_operator_file_of_another_kind(tmp_path, capsys, name, force):
    from homsplit.files import operator_to_dict
    from homsplit.model import LinearMap

    inputs = construct_inputs()
    context, expected = inputs[name]
    write_json(tmp_path / "context.json", context)
    out = tmp_path / "out.json"
    identity = LinearMap.identity(3)
    others = [kind for _, kind in inputs.values() if kind != expected]
    wrong_kinds = ["averaging_quadri"] + others
    for wrong in wrong_kinds:
        write_json(tmp_path / "op.json", operator_to_dict(wrong, identity))
        argv = ["construct", name, str(tmp_path / "context.json"), str(tmp_path / "op.json"),
                "-o", str(out)] + (["--force"] if force else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert expected in err and wrong in err
        assert not out.exists()
    # the matching kind builds (the identity satisfies each precondition here or is forced)
    write_json(tmp_path / "op.json", operator_to_dict(expected, identity))
    argv = ["construct", name, str(tmp_path / "context.json"), str(tmp_path / "op.json"),
            "-o", str(out), "--force"]
    assert main(argv) == 0 and out.exists()


def test_failing_check_report_prints_the_report_text_and_serializes_once(
    tmp_path, monkeypatch, capsys
):
    from homsplit import cli

    calls = []
    original = cli._dump

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(cli, "_dump", counted)
    report_path = tmp_path / "report.json"
    code = main(["check", corpus_path("dim2/D4.json"), "--multiplicative",
                 "--report", str(report_path)])
    assert code == 1
    summary, _, rest = capsys.readouterr().out.partition("\n")
    assert summary.endswith("violation(s))") and "fail" in summary
    assert rest == report_path.read_text(encoding="utf-8")
    assert len(calls) == 1
