import json
import random
import re
from pathlib import Path

import pytest

from homsplit import cli
from homsplit.cli import build_parser, main
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.files import (
    action_to_dict, algebra_to_dict, read_json, representation_to_dict, write_json,
)
from homsplit.model import ACTION_NAMES, ActionBundle, RepresentationBundle


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
    from helpers import deta, six_from_pair

    six, report_path = tmp_path / "six.json", tmp_path / "report.json"
    write_json(six, algebra_to_dict(six_from_pair(deta())))
    code = main(
        ["check", str(six), "--multiplicative", "--sq15", "literal", "--report", str(report_path)]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["check"]["status"] == "pass"
    assert "multiplicative" in payload


def test_check_prints_a_failed_multiplicativity_report_and_exits_by_the_kind_check(capsys):
    """dim2/D1 passes its kind check and fails multiplicativity: the summary
    line and exit 0 are the kind check's, and the report goes to stdout."""
    d1 = corpus_path("dim2/D1.json")
    assert main(["check", d1, "--multiplicative"]) == 0
    summary, _, rest = capsys.readouterr().out.partition("\n")
    assert summary == f"{d1}: pass (0 violation(s))"
    payload = json.loads(rest)
    assert payload["check"]["status"] == "pass"
    assert payload["multiplicative"]["status"] == "fail"
    assert len(payload["multiplicative"]["entries"]) == 20
    assert main(["check", d1]) == 0
    assert capsys.readouterr().out == f"{d1}: pass (0 violation(s))\n"


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


def test_construct_refuses_more_inputs_than_it_takes(tmp_path, capsys):
    out = tmp_path / "out.json"
    missing = tmp_path / "nonexistent.json"
    argv = ["construct", "sum-dias", corpus_path("dim2/D1.json"), str(missing), "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: construct sum-dias takes 1 input file(s), got 2\n"
    assert not out.exists()
    d1 = corpus_path("dim2/D1.json")
    assert main(["construct", "dsum", d1, d1, d1, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: construct dsum takes 2 input file(s), got 3\n"
    assert not out.exists()
    # fewer inputs keep their own message
    assert main(["construct", "dsum", d1, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: construct dsum: missing input file(s)\n"
    assert not out.exists()


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


def test_construct_quotient_refuses_a_zero_dimensional_quotient(tmp_path, capsys):
    """prec_dashv(e1, e1) = e1 and every other product zero make I_D all of
    D; a file of dimension 0 could not be read back, so none is written."""
    spec_path, out = tmp_path / "q.json", tmp_path / "quot.json"
    ops = {name: [] for name in ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")}
    ops["prec_dashv"] = [{"i": 1, "j": 1, "k": 1, "c": "1"}]
    write_json(spec_path, {
        "kind": "quadri_dendriform", "dimension": 1, "parameters": [],
        "alpha": [["1"]], "ops": ops,
    })
    assert main(["construct", "quotient", str(spec_path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: construct quotient: I_D is all of D, so the quotient has dimension 0, "
        "which no algebra file can hold\n"
    )
    assert not out.exists()


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


def test_main_builds_its_parser_once_and_no_option_outlives_its_call(
    tmp_path, monkeypatch, capsys
):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        d1 = corpus_path("dim2/D1.json")
        report = tmp_path / "report.json"
        assert main(["check", d1, "--multiplicative", "--report", str(report)]) == 0
        assert "multiplicative" in json.loads(report.read_text())
        report.unlink()
        assert main(["check", d1]) == 0
        assert not report.exists()
        capsys.readouterr()

        def payload(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return json.loads(out[out.index("{"):])

        d4 = corpus_path("dim3/D4.json")
        solve = ["solve-op", d4, "--kind", "averaging_quadri", "--grid=-1..1"]
        assert len(payload(solve + ["--denominators", "1,2"])["grid"]) == 5
        assert len(payload(solve)["grid"]) == 3
        emit = ["emit-system", d1, "--kind", "averaging_quadri"]
        assert "s11" in "".join(payload(emit + ["--unknown-prefix", "s"])["equations"])
        assert "s11" not in "".join(payload(emit)["equations"])
        with pytest.raises(SystemExit):
            main(["solve-op", d1])  # --kind is required, whatever came before
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


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


@pytest.mark.parametrize("sub", ["solve-op", "iso"])
def test_grid_options_carry_their_help(sub):
    sub_parser = build_parser()._subparsers._group_actions[0].choices[sub]
    help_text = " ".join(sub_parser.format_help().split())
    assert "integer range lo..hi (default -2..2)" in help_text
    assert "comma-separated denominators (default 1)" in help_text


def _readme_synopsis() -> dict:
    """{subcommand: its synopsis text} from the README's command-line block,
    continuation lines included and comment lines left out."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis, sub = {}, None
    for line in block.splitlines():
        if line.startswith("homsplit "):
            sub = line.split()[1]
            synopsis[sub] = synopsis.get(sub, "") + " " + line
        elif sub and not line.lstrip().startswith("#"):
            synopsis[sub] += " " + line
    return synopsis


def test_readme_synopsis_names_every_long_option():
    synopsis = _readme_synopsis()
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            for option in sub._actions:
                longs = [o for o in option.option_strings if o.startswith("--")]
                if not longs or "--help" in longs:
                    continue
                # an option counts as documented under any of its spellings
                assert any(
                    re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", synopsis[name])
                    for o in option.option_strings
                ), (name, longs)


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


# -- hostile files: exit 2 with an error line, never a traceback ---------------------

DETA = CORPUS_ROOT / "sec2" / "dendriform_Deta.json"
DIAS = CORPUS_ROOT / "sec2" / "diassociative_D.json"
RB = CORPUS_ROOT / "operators" / "sec2_rb_family1.json"
# file shape -> (the adjoint bundle of an algebra, its file dict)
ADJOINT = {
    "representation": (RepresentationBundle.adjoint, representation_to_dict),
    "action": (ActionBundle.adjoint, action_to_dict),
}


def _adjoint_file(shape: str, tensor: str = "", *ijk) -> dict:
    """The adjoint representation or action file of DETA, with the entry
    e_i `tensor` e_j = e_k added when an action or an acted op (prec_m,
    succ_m, as the action's `parts()` names them) is named."""
    adjoint, to_dict = ADJOINT[shape]
    data = to_dict(adjoint(load_algebra(DETA)))
    if tensor:
        acted = tensor.endswith("_m")
        table = data["acted_ops"][tensor[:-2]] if acted else data["actions"][tensor]
        table.append(dict(zip("ijkc", (*ijk, "1"))))
    return data


def _manifest(drop=(), **changes) -> dict:
    """A manifest of DIAS as a.json and RB as x.json, whose operator entry
    lacks the keys in `drop`; without changes it is valid."""
    algebra = {"id": "a", "type": "algebra", "path": "a.json", "source": "s",
               "expected": {"verdict": "pass", "provenance": "p"}}
    entry = {"id": "x", "type": "operator", "path": "x.json", "algebra": "a", "source": "s",
             "expected": {"verdict": "fail", "provenance": "p"}, **changes}
    return {"entries": [algebra, {key: value for key, value in entry.items() if key not in drop}]}


def _payloads(root) -> None:
    """The files the entries of `_manifest` name."""
    (root / "a.json").write_bytes(DIAS.read_bytes())
    (root / "x.json").write_bytes(RB.read_bytes())


HOSTILE_FILES = {
    "algebra-kind": lambda: dict(read_json(DETA), kind=[]),
    "representation-kind": lambda: dict(
        representation_to_dict(RepresentationBundle.adjoint(load_algebra(DETA))), kind=[]
    ),
    "action-kind": lambda: dict(action_to_dict(ActionBundle.adjoint(load_algebra(DETA))), kind=[]),
    # action entries outside the spaces (DETA has dimension 3)
    "representation-prec_l-i0": lambda: _adjoint_file("representation", "prec_l", 0, 1, 1),
    "representation-prec_l-i-1": lambda: _adjoint_file("representation", "prec_l", -1, 1, 1),
    "representation-prec_l-k4": lambda: _adjoint_file("representation", "prec_l", 1, 1, 4),
    "action-succ_r-i-1": lambda: _adjoint_file("action", "succ_r", -1, 1, 1),
    "action-prec_m-k4": lambda: _adjoint_file("action", "prec_m", 1, 1, 4),
    "operator-kind": lambda: {"kind": {"rota_baxter": True}, "matrix": [["0"]]},
    "deep": None,  # a list nested 200,000 deep
    "manifest-list": lambda: [],
    "manifest-no-entries": lambda: {"entries": {}},
    "manifest-entry-list": lambda: {"entries": [[]]},
    **{f"manifest-no-{key}": (lambda key=key: _manifest(drop=(key,)))
       for key in ("id", "type", "path", "source", "expected")},
    "manifest-id-list": lambda: _manifest(id=[]),
    "manifest-verdict-missing": lambda: _manifest(expected={"provenance": "p"}),
    "manifest-expected-extra": lambda: _manifest(
        expected={"verdict": "pass", "provenance": "p", "x": [1]}
    ),
    "manifest-no-algebra": lambda: _manifest(drop=("algebra",)),
    "manifest-unknown-algebra": lambda: _manifest(algebra="y"),
    "manifest-operator-as-algebra": lambda: _manifest(algebra="x"),
}

def _outside(name: str) -> list:
    """The action or acted op a hostile file of that name has an entry outside the spaces of."""
    return [tensor for tensor in (*ACTION_NAMES, "prec_m") if f"-{tensor}-" in name]


# argv with BAD for the hostile file, CORPUS for its directory, OUT for an output
# path, and DETA, DIAS and RB for valid dendriform, diassociative and operator files
ALGEBRA_READERS = [
    ["check", "BAD"], ["construct", "sum-dias", "BAD", "-o", "OUT"], ["fingerprint", "BAD"],
    ["iso", "BAD", "DETA"], ["iso", "DETA", "BAD"], ["verify-op", "BAD", "RB"],
    ["solve-op", "BAD", "--kind", "rota_baxter"], ["emit-system", "BAD", "--kind", "rota_baxter"],
]
HOSTILE_CASES = [
    *[(name, argv) for name in ("algebra-kind", "deep") for argv in ALGEBRA_READERS],
    *[(name, argv) for name in ("operator-kind", "deep") for argv in (
        ["verify-op", "DIAS", "BAD"], ["construct", "rb-dias", "DIAS", "BAD", "-o", "OUT"],
    )],
    ("representation-kind", ["check", "BAD"]),
    ("representation-kind", ["construct", "hemi", "BAD", "-o", "OUT"]),
    ("representation-kind", ["verify-op", "BAD", "RB"]),
    ("action-kind", ["check", "BAD"]),
    ("action-kind", ["construct", "semidirect", "BAD", "-o", "OUT"]),
    ("action-kind", ["verify-op", "BAD", "RB"]),
    *[(name, argv) for name in HOSTILE_FILES if _outside(name) for argv in (
        ["check", "BAD"], ["verify-op", "BAD", "RB"],
        ["construct", "hemi" if name.startswith("rep") else "semidirect", "BAD", "-o", "OUT"],
    )],
    *[(name, ["corpus", action, "--corpus", "CORPUS"])
      for name in HOSTILE_FILES if name.startswith(("manifest", "deep"))
      for action in ("verify-all", "list")],
]


@pytest.mark.parametrize(
    "name,argv", HOSTILE_CASES, ids=["-".join([name, *argv]) for name, argv in HOSTILE_CASES]
)
def test_hostile_file_exits_two_with_an_error_line(tmp_path, capsys, name, argv):
    bad = tmp_path / ("manifest.json" if "CORPUS" in argv else "bad.json")
    build = HOSTILE_FILES[name]
    bad.write_text("[" * 200_000 + "]" * 200_000 if build is None else json.dumps(build()))
    _payloads(tmp_path)
    paths = {"BAD": bad, "CORPUS": tmp_path, "OUT": tmp_path / "out.json",
             "DETA": DETA, "DIAS": DIAS, "RB": RB}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()
    for tensor in _outside(name):  # refused for the entry, not for a later finding
        flag = f"structure.index-range:{tensor}"
        assert err.splitlines()[0] == f"error: {bad}: structural violations: {flag}"
        assert f"{flag} @" in err


def test_the_hostile_manifests_differ_from_a_valid_one(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps(_manifest()))
    _payloads(tmp_path)
    assert main(["corpus", "verify-all", "--corpus", str(tmp_path)]) == 0
    assert "2 entries: 1 pass, 1 fail, 0 discrepancies" in capsys.readouterr().out



@pytest.mark.parametrize("shape", list(ADJOINT))
def test_check_runs_on_a_representation_or_action_file(tmp_path, capsys, shape):
    data = _adjoint_file(shape)
    write_json(tmp_path / "ok.json", data)
    assert main(["check", str(tmp_path / "ok.json")]) == 0
    assert capsys.readouterr().out.endswith("ok.json: pass (0 violation(s))\n")
    data["actions"]["prec_l"].append({"i": 1, "j": 1, "k": 1, "c": "1"})
    write_json(tmp_path / "bad.json", data)
    assert main(["check", str(tmp_path / "bad.json")]) == 1
    out = capsys.readouterr().out
    summary, payload = out.split("\n", 1)
    assert "bad.json: fail" in summary and json.loads(payload)["check"]["status"] == "fail"


@pytest.mark.parametrize("shape", list(ADJOINT))
def test_check_refuses_multiplicative_on_a_representation_or_action_file(tmp_path, capsys, shape):
    path = tmp_path / f"{shape}.json"
    write_json(path, _adjoint_file(shape))
    assert main(["check", str(path), "--multiplicative"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check --multiplicative takes an algebra file, not {path}\n"


@pytest.mark.parametrize("rel, kind", [
    ("dim2/D1.json", "quadri_dendriform"), ("sec2/diassociative_D.json", "diassociative"),
])
def test_check_refuses_sq15_on_an_algebra_of_another_kind(capsys, rel, kind):
    assert main(["check", corpus_path(rel), "--sq15", "symmetric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: check --sq15 takes a six_dendriform file, not {corpus_path(rel)} of kind {kind}\n"
    )


@pytest.mark.parametrize("shape", list(ADJOINT))
def test_check_refuses_sq15_on_a_representation_or_action_file(tmp_path, capsys, shape):
    path = tmp_path / f"{shape}.json"
    write_json(path, _adjoint_file(shape))
    assert main(["check", str(path), "--sq15", "symmetric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check --sq15 takes an algebra file, not {path}\n"


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


def test_check_reads_its_context_file_once(monkeypatch, capsys):
    """The CLI classifies the parsed file and builds the bundle from the same
    data; every homsplit module that holds `read_json` gets the counter."""
    import sys

    from homsplit import files

    calls = []
    original = files.read_json

    def counted(path):
        calls.append(path)
        return original(path)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "homsplit":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    d4 = corpus_path("dim3/D4.json")
    assert main(["check", d4]) in (0, 1)
    capsys.readouterr()
    assert calls == [d4]


def construct_inputs():
    """{construct NAME: (context file data, the operator kind it expects)}."""
    from helpers import deta, op_sum
    from homsplit.files import action_to_dict, algebra_to_dict, representation_to_dict
    from homsplit.model import ActionBundle, AlgebraBundle, RepresentationBundle

    algebra = deta()
    mu = op_sum(algebra.op("prec"), algebra.op("succ"))
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
    original = cli.json_stream

    def counted(data, write):
        calls.append(data)
        return original(data, write)

    chunks = []
    dump = cli._dump

    def chunk_only(data):
        assert type(data) is str, "the report text was built from the payload"
        chunks.append(data)
        return dump(data)

    monkeypatch.setattr(cli, "json_stream", counted)
    monkeypatch.setattr(cli, "_dump", chunk_only)
    report_path = tmp_path / "report.json"
    code = main(["check", corpus_path("dim2/D4.json"), "--multiplicative",
                 "--report", str(report_path)])
    assert code == 1
    summary, _, rest = capsys.readouterr().out.partition("\n")
    assert summary.endswith("violation(s))") and "fail" in summary
    assert rest == report_path.read_text(encoding="utf-8")
    assert len(calls) == 1
    # each chunk passes through `_dump` once, though it goes to two streams
    assert "".join(chunks) + "\n" == rest


def test_streamed_report_equals_the_report_text_on_stdout_and_in_the_file(tmp_path, capsys):
    """A dense failing report, streamed in many chunks, is byte for byte the
    writer's text plus a newline, on stdout after the summary line and in the
    report file alike."""
    from homsplit.axioms import check_kind, check_multiplicative
    from homsplit.files import algebra_to_dict, json_text

    from helpers import dense_six, rows

    bundle = dense_six(random.Random(5), 4)
    source, report_path = tmp_path / "dense.json", tmp_path / "report.json"
    write_json(source, algebra_to_dict(bundle))
    assert main(["check", str(source), "--multiplicative", "--report", str(report_path)]) == 1
    summary, _, rest = capsys.readouterr().out.partition("\n")
    payload = {
        "file": str(source),
        "check": check_kind(bundle).payload(),
        "multiplicative": check_multiplicative(bundle).payload(),
    }
    assert summary == f"{source}: fail (7241 violation(s))"
    assert len(payload["check"]["entries"]) == 7241
    text = json_text(payload) + "\n"
    assert text == json.dumps(rows(payload), indent=2, sort_keys=True) + "\n"
    assert rest == text
    assert report_path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("entry", ["dim2/D1.json", "dim2/D4.json"], ids=["pass", "fail"])
def test_report_path_in_a_missing_directory_exits_two_with_nothing_on_stdout(
    tmp_path, capsys, entry
):
    report_path = tmp_path / "missing" / "report.json"
    assert main(["check", corpus_path(entry), "--report", str(report_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(report_path) in err
    assert not report_path.parent.exists()


@pytest.mark.parametrize("options", [
    ["--report", "R"], ["--discrepancies", "D"], ["--sq15", "literal"],
    ["--report", "R", "--discrepancies", "D", "--sq15", "symmetric"],
], ids=["report", "discrepancies", "sq15", "all"])
def test_corpus_list_refuses_the_options_of_verify_all(tmp_path, capsys, options):
    argv = [str(tmp_path / arg) if arg in ("R", "D") else arg for arg in options]
    assert main(["corpus", "list", *argv]) == 2
    out, err = capsys.readouterr()
    named = [arg for arg in options if arg.startswith("--")]
    assert out == "" and err == f"error: corpus list does not take {', '.join(named)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve-op", "iso"])
def test_oversized_grid_is_refused_before_a_value_is_built(monkeypatch, capsys, command):
    # the count is sum over d of ((hi - lo) * d + 1), repeats included:
    # 0..4999 over 1,1 counts 10,000 values and is allowed
    assert len(cli._parse_grid("0..4999", "1,1")) == 5000 and cli.MAX_GRID_VALUES == 10_000
    d4 = corpus_path("dim3/D4.json")
    argv = [command, d4] + (["--kind", "averaging_quadri"] if command == "solve-op" else [d4])
    built = []
    monkeypatch.setattr(cli, "Fraction", lambda *args: built.append(args))
    assert main(argv + ["--grid=-1000000000..1000000000"]) == 2
    assert main(argv + ["--grid=0..3333", "--denominators", "1,2"]) == 2  # 3,334 + 6,667
    assert built == []
    err = capsys.readouterr().err
    assert "grid of 2000000001 values is above the limit of 10000 values" in err
    assert "grid of 10001 values is above the limit of 10000 values" in err
