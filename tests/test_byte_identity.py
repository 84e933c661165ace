"""Byte-identity guards for the deterministic outputs.

`DISCREPANCIES.md` at the repository root must be what `corpus verify-all`
writes, and the corpus report JSON, the emitted averaging_quadri systems of
the dim-2 and dim-3 corpus contexts, the `construct` outputs and refusal
reports, the quotient and embedding results, `push_forward` outputs and
graph closure reports must keep their recorded SHA-256 digests.  A change
that alters any of them on purpose states why and re-records them.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from helpers import op_sum
from homsplit.cli import main
from homsplit.constructions import (
    averaging_induced_diassociative,
    quadri_embedding,
    quotient_dendriform,
    rota_baxter_induced,
    six_embedding,
)
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra
from homsplit.files import (
    action_to_dict,
    algebra_to_dict,
    json_text,
    operator_to_dict,
    representation_to_dict,
    write_json,
)
from homsplit.model import ActionBundle, AlgebraBundle, BilinearOp, LinearMap, RepresentationBundle
from homsplit.morphisms import push_forward
from homsplit.operators import emit_operator_system, graph_is_subalgebra

ROOT = Path(__file__).resolve().parent.parent

CORPUS_REPORT_SHA256 = "23e65241c58a996ce7a1c38f20987044b87b6b263c4b3736e5f8b2ba21499836"

EMITTED_SYSTEM_SHA256 = {
    "dim2.D1": "355c96a7c40769edd166e2437180ecd04e6ce5405d79435f695f76c1d5f0f590",
    "dim2.D2": "f29836c129675d57c9b9878bc0d5f4344d59807c2667c55e77156610db950270",
    "dim2.D3.emended": "77e1f9cd3cf62996aed708810d829e30ade1c73ff5db11062e22ed47a9a81d6e",
    "dim2.D3.literal": "5ada06fec1ced717d9c2d563ee0522e66a2116ea81ec75f5f8e0758a275f245c",
    "dim2.D4": "a0ef6fd2d2c995207ac30e10e022dcaff5100fecd24c48476e6576cbe903e275",
    "dim2.D5": "e3f4c4bd16a6d52ca039395536167d3dc8d7accf851601e6797b2969f57596f7",
    "dim3.D1": "89adc1d9033e7446c33adceaa6dcdd713de1ab70dc3c415e1e07aaa1b80b6042",
    "dim3.D10": "69cf85c69ff0ee512597231d13d55cfe48a001c160dd258a21a07e268c070761",
    "dim3.D11": "9486c5d6ff9a3113fe25210d3404405d5e2763891341a11baf258c3e0367af2d",
    "dim3.D12": "3cc3872d947f7be08028a4515a72f7c703bf0258b37ac484a312f448d7ad6c28",
    "dim3.D13": "128bc39977fd70981abb826a402c02822fa990e3091cf07084c98270be68710e",
    "dim3.D2": "dcb7d3dd6a45d8740b77d9f79fa303c9eee335b89b68e7f48d330a891497da57",
    "dim3.D3": "5b8241336319b2ea305264f04c6bbe908f6330fb923c729838dd5c1e5169f22f",
    "dim3.D4": "67c87973c04cab68ca8dc2350d311374c6bcc17a96b755e770e4dc1d732c6b7d",
    "dim3.D5": "892a50385d85ca2c5d42d522eb53d0e6823aebf36ef81331895888a2804cc7f1",
    "dim3.D6": "3d7ae8612ecc13662ca6de0b8d2b9762d36ab0e93ce327280429cc5ffa85b92d",
    "dim3.D7": "f46f0803a16c0ef56289ec214e9efa35da0ee9794978ef85a33fa624d3b43918",
    "dim3.D8": "19ddb73f005b5ebd0a84a4876350654b938623a62338813a4b934081660efb8b",
    "dim3.D9": "97c6d528ab1ddb5f106b53f10e43dca3de2d10fccb84b1428ee944844c98134b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_corpus_verify_all_regenerates_committed_outputs(tmp_path, capsys):
    report, markdown = tmp_path / "report.json", tmp_path / "DISCREPANCIES.md"
    main(["corpus", "verify-all", "--report", str(report), "--discrepancies", str(markdown)])
    capsys.readouterr()
    assert markdown.read_bytes() == (ROOT / "DISCREPANCIES.md").read_bytes()
    assert sha256(report.read_bytes()) == CORPUS_REPORT_SHA256


def quadri_contexts(folders=("dim2/", "dim3/")):
    return [
        (e["id"], e["path"]) for e in list_entries()
        if e["type"] == "algebra" and e["path"].startswith(folders)
    ]


def test_every_dim2_and_dim3_context_has_a_recorded_digest():
    assert sorted(eid for eid, _ in quadri_contexts()) == sorted(EMITTED_SYSTEM_SHA256)


@pytest.mark.parametrize("eid,path", quadri_contexts())
def test_emitted_operator_system_is_byte_identical(eid, path):
    system = emit_operator_system(load_algebra(CORPUS_ROOT / path), "averaging_quadri")
    text = "\n".join(str(p) for p in system) + "\n"
    assert sha256(text.encode("utf-8")) == EMITTED_SYSTEM_SHA256[eid]


# -- constructions ------------------------------------------------------------
#
# Every `construct NAME` output and refusal report, and the quotient and
# embedding results, keep the SHA-256 digests recorded before constructions
# were rebuilt on the template engine.  The inputs are corpus entries, their
# specializations, and representation, action and associative files derived
# from the dendriform corpus entry Deta (its adjoints, and copies whose twist
# is replaced by the identity so that the precondition fails).

SPECIALIZATION_VALUES = (-1, 0, 1)
QUADRI_FOLDERS = ("dim2/", "dim3/", "controls/")

CONSTRUCT_SHA256 = {
    "sum-dias": "4893e04a030af0a23a3828cf1d39ac4de65b5beb3f48add3572156d8d0d20b96",
    "quotient": "a8b3d929438b58a65b31af2bfe53f61c07931d8a8415ea6f4832badb27e8588e",
    "dsum": "072c3e5a4b55c6575f2ce2c99aae7c8006ae0c2df0d9dd88aeaea0f4b16ca44c",
    "hemi": "60995330e509663fbd3185331f9100e43eef0f9392ec7e2c21fd8d0246989302",
    "semidirect": "59d16f1843ba1bb0f3fa622c783d75ac4a33f1aaa5dfa9ce626728f0eb105707",
    "avg-dias": "64c76f1779270ce8760a00531f5ade192b815d3b179444ee06dd5cc7bcca1fc8",
    "rb-dias": "9e15b00f6d59a00ff946f92572e32ea506c5fc7566470bcff021af8e18cba0d2",
    "ravg-quadri": "eeb018dec849dc96892eb36ddabf23f92656772a51458f86f30de2f75e4086c7",
    "havg-six": "22de6db5a93d552f4958842404705f25e3cb1ef76aa6be28fa3fded52f635616",
}

SUM_TRI_SHA256 = "b9d72aa9aebb378ef68d3afa787ca872e9ee9a209da439a612d9d313713dd1b1"

CONSTRUCTION_RESULT_SHA256 = {
    "quotient_dendriform": "c620eb0b022a6f4d3edb67c3500dca45f3c1725edfbfc2aa011d8b9638d76f69",
    "quadri_embedding": "6ba40ffec62ad971716d104047eddd0834b40e586a0f057924adfe8c1a3166d9",
    "six_embedding": "48d6f23203306e4666820aa194c6a7a234cfc8326904a69be35fb732249b5aa3",
}


def corpus_algebra(rel):
    return load_algebra(CORPUS_ROOT / rel)


def specializations(bundle, values=SPECIALIZATION_VALUES):
    names = list(bundle.parameters)
    for combo in itertools.product(values, repeat=len(names)):
        yield combo, bundle.specialize(dict(zip(names, combo)))


def deta_inputs():
    """(algebra, representation, action, associative algebra) from Deta, and
    the representation and action with the identity as module twist."""
    deta = corpus_algebra("sec2/dendriform_Deta.json")
    rep = RepresentationBundle.adjoint(deta)
    action = ActionBundle.adjoint(deta)
    identity = LinearMap.identity(deta.dim)
    bad_rep = RepresentationBundle(rep.base, rep.module_dim, rep.actions, identity)
    bad_acted = AlgebraBundle("dendriform", deta.dim, deta.ops, identity, deta.parameters)
    bad_action = ActionBundle(deta, bad_acted, action.actions)
    mu = op_sum(deta.op("prec"), deta.op("succ"))
    associative = AlgebraBundle("associative", deta.dim, {"mu": mu}, deta.twist, deta.parameters)
    return rep, action, associative, bad_rep, bad_action


def matrix(*rows):
    return LinearMap.from_strings([row.split() for row in rows])


def construct_cases():
    """[(NAME, input files {relative name: data}, force)]; files are written
    to the working directory so the provenance headers stay the same."""
    rep, action, associative, bad_rep, bad_action = deta_inputs()
    identity, zero = matrix("1 0 0", "0 1 0", "0 0 1"), matrix("0 0 0", "0 0 0", "0 0 0")
    e11, e22 = matrix("1 0 0", "0 0 0", "0 0 0"), matrix("0 0 0", "0 1 0", "0 0 0")
    double = matrix("2 0 0", "0 2 0", "0 0 2")
    cases = []
    quadri = [(eid, corpus_algebra(path)) for eid, path in quadri_contexts(QUADRI_FOLDERS)]
    for eid, bundle in quadri:
        cases.append(("sum-dias", {f"{eid}.json": algebra_to_dict(bundle)}, False))
        for combo, special in specializations(bundle, (0, 1)):
            if len(set(combo)) <= 1:  # all parameters 0, or all 1
                tag = f"{eid}.{''.join(map(str, combo))}.json"
                cases.append(("quotient", {tag: algebra_to_dict(special)}, False))
    by_id = dict(quadri)
    for first, second in (("dim2.D1", "dim2.D2"), ("dim3.D4", "dim2.D5"), ("dim3.D13", "dim3.D13")):
        files = {f"a.{first}.json": algebra_to_dict(by_id[first]),
                 f"b.{second}.json": algebra_to_dict(by_id[second])}
        cases.append(("dsum", files, False))
    for force in (False, True):
        for name, context, bad in (
            ("hemi", representation_to_dict(rep), representation_to_dict(bad_rep)),
            ("semidirect", action_to_dict(action), action_to_dict(bad_action)),
        ):
            cases.append((name, {"context.json": context}, force))
            cases.append((name, {"bad-context.json": bad}, force))
        diassociative = algebra_to_dict(corpus_algebra("sec2/diassociative_D.json"))
        homomorphic = "homomorphic_relative_averaging"
        operator_cases = [
            ("avg-dias", algebra_to_dict(associative), "averaging_assoc",
             (identity, e11, double, e22)),
            ("rb-dias", diassociative, "rota_baxter", (zero, identity, e11)),
            ("ravg-quadri", representation_to_dict(rep), "relative_averaging",
             (identity, double, e11)),
            ("ravg-quadri", representation_to_dict(bad_rep), "relative_averaging",
             (identity, zero)),
            ("havg-six", action_to_dict(action), homomorphic, (identity, zero, double)),
            ("havg-six", action_to_dict(bad_action), homomorphic, (identity,)),
        ]
        for name, context, kind, matrices in operator_cases:
            for index, op in enumerate(matrices):
                files = {"context.json": context, f"op{index}.json": operator_to_dict(kind, op)}
                cases.append((name, files, force))
        for family in (1, 2, 3):
            path = CORPUS_ROOT / f"operators/sec2_rb_family{family}.json"
            operator = json.loads(path.read_text())
            files = {"context.json": diassociative, f"family{family}.json": operator}
            cases.append(("rb-dias", files, force))
    return cases


def run_construct(tmp_path, name, files, force, capsys):
    """(exit code, output bytes, stdout, stderr) of one construct call."""
    for rel, data in files.items():
        write_json(tmp_path / rel, data)
    argv = ["construct", name, *files, "-o", "out.json"] + (["--force"] if force else [])
    code = main(argv)
    out = capsys.readouterr()
    written = tmp_path / "out.json"
    data = written.read_bytes() if written.exists() else b""
    if written.exists():
        written.unlink()
    for rel in files:
        (tmp_path / rel).unlink()
    return code, data, out.out, out.err


def test_construct_outputs_and_refusals_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests, codes, input_errors = {}, {}, []
    for name, files, force in construct_cases():
        code, data, out, err = run_construct(tmp_path, name, files, force, capsys)
        codes.setdefault(name, set()).add(code)
        if code == 2:
            input_errors.append((name, *files))
        record = json.dumps([name, sorted(files), force, code, data.decode(), out, err])
        digests.setdefault(name, hashlib.sha256()).update(record.encode("utf-8"))
    # every precondition is exercised both ways; the splittings and dsum always build;
    # dim2.D4 at all ones has I_D = D, and its zero-dimensional quotient is refused
    assert codes == {
        "sum-dias": {0}, "dsum": {0}, "quotient": {0, 1, 2}, "hemi": {0, 1},
        "semidirect": {0, 1}, "avg-dias": {0, 1}, "rb-dias": {0, 1},
        "ravg-quadri": {0, 1}, "havg-six": {0, 1},
    }
    assert input_errors == [("quotient", "dim2.D4.1.json")]
    assert {name: d.hexdigest() for name, d in digests.items()} == CONSTRUCT_SHA256


def test_construct_sum_tri_of_havg_six_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _, action, _, _, _ = deta_inputs()
    write_json(tmp_path / "action.json", action_to_dict(action))
    digest = hashlib.sha256()
    operators = (matrix("1 0 0", "0 1 0", "0 0 1"), matrix("2 0 0", "0 2 0", "0 0 2"))
    for index, op in enumerate(operators):
        operator = operator_to_dict("homomorphic_relative_averaging", op)
        write_json(tmp_path / f"op{index}.json", operator)
        six, tri = f"six{index}.json", f"tri{index}.json"
        argv = ["construct", "havg-six", "action.json", f"op{index}.json", "--force", "-o", six]
        assert main(argv) == 0
        assert main(["construct", "sum-tri", six, "-o", tri]) == 0
        capsys.readouterr()
        digest.update((tmp_path / f"tri{index}.json").read_bytes())
    assert digest.hexdigest() == SUM_TRI_SHA256


def _rows(linear):
    return None if linear is None else [[str(c) for c in row] for row in linear.entries]


def quotient_record(result) -> dict:
    return {
        "ok": result.ok,
        "report": result.report.to_dict(),
        "ideal": [result.ideal.ambient_dim, [[str(x) for x in row] for row in result.ideal.basis],
                  list(result.ideal.pivots)],
        "complement": list(result.complement),
        "bundle": None if result.bundle is None else algebra_to_dict(result.bundle),
        "projection": _rows(result.projection),
    }


def embedding_record(result) -> dict:
    return {
        "ok": result.ok,
        "quotient": quotient_record(result.quotient),
        "report": result.report.to_dict(),
        "representation": result.representation and representation_to_dict(result.representation),
        "action": result.action and action_to_dict(result.action),
        "averaging": _rows(result.averaging),
    }


def six_variants(bundle):
    """Six-dendriform bundles over a quadri bundle whose perp pair is its
    vdash pair, its dashv pair, or zero."""
    ops = dict(bundle.ops, zero=BilinearOp.square(bundle.dim, ()))
    for perp in (("prec_vdash", "succ_vdash"), ("prec_dashv", "succ_dashv"), ("zero", "zero")):
        six = dict(bundle.ops, prec_perp=ops[perp[0]], succ_perp=ops[perp[1]])
        yield "/".join(perp), AlgebraBundle(
            "six_dendriform", bundle.dim, six, bundle.twist, bundle.parameters
        )


def construction_results():
    """{function: {case: record}} over the dim-2, dim-3 and control quadri
    entries at every specialization of their parameters to -1, 0, 1."""
    out = {"quotient_dendriform": {}, "quadri_embedding": {}, "six_embedding": {}}
    for eid, path in quadri_contexts(QUADRI_FOLDERS):
        for combo, special in specializations(corpus_algebra(path)):
            case = f"{eid}{list(combo)}"
            out["quotient_dendriform"][case] = quotient_record(quotient_dendriform(special))
            out["quadri_embedding"][case] = embedding_record(quadri_embedding(special))
            for label, six in six_variants(special):
                out["six_embedding"][f"{case}.{label}"] = embedding_record(six_embedding(six))
    return out


def test_quotient_and_embedding_results_are_byte_identical():
    results = construction_results()
    oks = {name: {record["ok"] for record in records.values()} for name, records in results.items()}
    assert oks == {name: {False, True} for name in results}
    digests = {
        name: sha256(json.dumps(records, sort_keys=True).encode("utf-8"))
        for name, records in results.items()
    }
    assert digests == CONSTRUCTION_RESULT_SHA256


# -- push_forward, graph closure, and twists with a parameter no op uses ------------
#
# Recorded before the constructions, `push_forward` and `graph_is_subalgebra` took
# their operands from the bundles' `parts()`, which hands the engine every op and map
# of a bundle, the twist included.

PUSH_FORWARD_SHA256 = "abd00373ac4bd21a06dc89f3cac742d3d5a8188c31ce5eee26f4fd1e5bd88d38"
GRAPH_CLOSURE_SHA256 = "973d5024d421eb14e6ded7d2c5b9066c1af558f28a87dfdab14a9149b15a90c8"
TWIST_PARAMETER_SHA256 = {
    "avg-dias": "138234663cc509eb9703a072c5bb23a3afaa39316671eb9e36026b9bb1cc92d5",
    "rb-dias": "fee4d9b7465d9a50838e413090fcf643649bb52eab768b90611c7c5445489556",
    "push_forward": "dac1027536f3bc36356db428a999b61f2d261e9cd5be01ef7d6242e94d36a54c",
}

# invertible changes of basis per dimension: a shear, a permutation or a signed
# matrix, and one with a fraction
BASIS_CHANGES = {
    2: (matrix("1 1", "0 1"), matrix("0 1", "1 0"), matrix("2 0", "1 -1/3")),
    3: (matrix("1 1 0", "0 1 0", "0 0 1"), matrix("0 0 1", "-1 0 1", "0 -1 -1"),
        matrix("1/2 0 1", "0 1 0", "-1 0 1")),
}


def algebra_digest(bundles) -> str:
    return sha256(json.dumps([algebra_to_dict(b) for b in bundles]).encode("utf-8"))


def test_push_forward_outputs_are_byte_identical():
    moved = [
        push_forward(algebra, S)
        for _, path in quadri_contexts() for algebra in (corpus_algebra(path),)
        for S in BASIS_CHANGES[algebra.dim]
    ]
    assert algebra_digest(moved) == PUSH_FORWARD_SHA256


def test_graph_closure_reports_are_byte_identical():
    from test_operators import graph_closure_cases

    digest = hashlib.sha256()
    for container, linear, direction in graph_closure_cases():
        _, report = graph_is_subalgebra(container, linear, direction=direction)
        digest.update(json_text(report.payload()).encode("utf-8"))
    assert digest.hexdigest() == GRAPH_CLOSURE_SHA256


def test_constructions_on_a_twist_with_a_parameter_no_op_uses_are_byte_identical():
    """The twist diag(q, 1, 1) declares q, which none of the ops reads."""
    twist = matrix("q 0 0", "0 1 0", "0 0 1")
    deta = corpus_algebra("sec2/dendriform_Deta.json")
    mu = op_sum(deta.op("prec"), deta.op("succ"))
    params = (*deta.parameters, "q")
    associative = AlgebraBundle("associative", 3, {"mu": mu}, twist, params)
    dias = corpus_algebra("sec2/diassociative_D.json")
    dias = AlgebraBundle("diassociative", 3, dias.ops, twist, ("q",))
    operators = (matrix("1 0 0", "0 1 0", "0 0 1"), matrix("1 0 0", "0 0 0", "0 0 0"),
                 matrix("0 0 0", "0 1 0", "0 0 0"), matrix("2 0 0", "0 2 0", "0 0 2"))
    digests = {
        "avg-dias": algebra_digest(averaging_induced_diassociative(associative, H, force=True)
                                   for H in operators),
        "rb-dias": algebra_digest(rota_baxter_induced(dias, R, force=True) for R in operators),
        "push_forward": algebra_digest(push_forward(algebra, S) for algebra in (associative, dias)
                                       for S in BASIS_CHANGES[3]),
    }
    assert digests == TWIST_PARAMETER_SHA256
