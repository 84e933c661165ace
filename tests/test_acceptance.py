"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic (fixed seeds) and desk-scale.
"""

import random
from fractions import Fraction
from pathlib import Path

from helpers import (
    associative_pool,
    dendriform_pool,
    deta,
    rand_matrix,
    rich_dendriform,
    substitute,
    zero_bundle,
)
from test_poly import run_ring_axiom_suite, run_roundtrip_suite
from homsplit.axioms import (
    check_dendriform,
    check_diassociative,
    check_homomorphism,
    check_quadri,
    check_six,
    check_triassociative,
)
from homsplit.constructions import (
    averaging_induced_diassociative,
    hemi_semidirect,
    homomorphic_averaging_induced_six,
    quadri_embedding,
    relative_averaging_induced_quadri,
    rota_baxter_induced,
    six_embedding,
    six_to_triassociative,
    quadri_to_diassociative,
)
from homsplit.corpus import (
    CORPUS_ROOT,
    corpus_verify_all,
    discrepancies_markdown,
    list_entries,
    load_algebra,
    load_operator,
    report_to_json,
)
from homsplit.model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    RepresentationBundle,
)
from homsplit.morphisms import fingerprint, push_forward
from homsplit.operators import (
    emit_operator_system,
    family_membership,
    graph_is_subalgebra,
    solve_operators_grid,
    verify_operator,
)
from homsplit import linalg

GRID5 = [Fraction(k) for k in range(-2, 3)]
GRID3 = [Fraction(-1), Fraction(0), Fraction(1)]


def _announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def corpus_quadri_entries():
    out = []
    for entry in list_entries():
        if entry["type"] != "algebra":
            continue
        bundle = load_algebra(CORPUS_ROOT / entry["path"])
        if bundle.kind == "quadri_dendriform":
            out.append((entry["id"], bundle))
    return out


def parameter_free_specializations(bundle):
    params = sorted(set(bundle.parameters))
    if not params:
        return [({}, bundle)]
    out = []
    for value in (0, 1):
        bindings = {p: value for p in params}
        out.append((bindings, bundle.specialize(bindings)))
    return out


# -- criterion 1 ---------------------------------------------------------------

def test_acceptance_1_kernel_soundness():
    run_ring_axiom_suite(1000, seed=20240811)
    run_roundtrip_suite(1000, seed=977)
    _announce(1, "ring axioms and parser round-trip on 1000 random cases each, zero failures")


# -- criterion 2 ---------------------------------------------------------------

def test_acceptance_2_splitting_transfer():
    checked = 0
    for eid, bundle in corpus_quadri_entries():
        if check_quadri(bundle).ok:
            dias = quadri_to_diassociative(bundle)
            report = check_diassociative(dias)
            assert report.ok, f"{eid}: splitting produced residuals"
            checked += 1
    assert checked >= 10  # most classification entries verify
    rng = random.Random(10002)
    generated = 0
    pool1 = dendriform_pool(rng, 10, dim=1)
    pool2 = dendriform_pool(rng, 25, dim=2)
    instances = []
    for base in pool1 + pool2:
        instances.append(hemi_semidirect(RepresentationBundle.adjoint(base)))
    for base in pool2[:15]:
        rep = RepresentationBundle(
            base=base,
            module_dim=1,
            actions={
                "prec_l": BilinearOp.from_entries(2, 1, 1, []),
                "succ_l": BilinearOp.from_entries(2, 1, 1, []),
                "prec_r": BilinearOp.from_entries(1, 2, 1, []),
                "succ_r": BilinearOp.from_entries(1, 2, 1, []),
            },
            module_twist=LinearMap.identity(1),
        )
        instances.append(hemi_semidirect(rep))
    for hemi in instances[:50]:
        assert 2 <= hemi.dim <= 4
        assert check_quadri(hemi).ok
        assert check_diassociative(quadri_to_diassociative(hemi)).ok
        generated += 1
    assert generated == 50
    _announce(2, f"splitting transfer on {checked} corpus entries and {generated} "
                 "generated hemi-semidirect instances, zero residuals")


# -- criterion 3 ---------------------------------------------------------------

def test_acceptance_3_hemi_semidirect_closure():
    rng = random.Random(10003)
    pool = dendriform_pool(rng, 50, dim=2)
    assert len(pool) == 50
    pool.append(zero_bundle("dendriform", 2, ("prec", "succ")))
    D = deta()
    if check_dendriform(D).ok:  # it does, symbolically
        pool.append(D)
    for base in pool:
        hemi = hemi_semidirect(RepresentationBundle.adjoint(base))
        assert check_quadri(hemi).ok
    _announce(3, f"hemi-semidirect closure on {len(pool)} instances "
                 "(50 random + zero algebra + the worked dendriform example)")


# -- criterion 4 ---------------------------------------------------------------

def test_acceptance_4_graph_biconditional():
    rng = random.Random(10004)
    pool = dendriform_pool(rng, 12, dim=2)
    agreements = passes = fails = 0
    for _ in range(200):
        base = rng.choice(pool)
        rep = RepresentationBundle.adjoint(base)
        container = hemi_semidirect(rep)
        roll = rng.random()
        if roll < 0.15:
            T = LinearMap.zero(2, 2)
        elif roll < 0.3:
            T = LinearMap.identity(2)
        else:
            T = rand_matrix(rng, 2, 2, GRID3)
        graph_ok, _ = graph_is_subalgebra(container, T)
        averaging_ok = verify_operator("relative_averaging", rep, T).ok
        assert graph_ok == averaging_ok
        agreements += 1
        passes += averaging_ok
        fails += not averaging_ok
    assert agreements == 200 and passes > 0 and fails > 0
    _announce(4, f"graph-subalgebra <=> relative-averaging agreement on 200 pairs "
                 f"({passes} passing, {fails} failing)")


# -- criterion 5 ---------------------------------------------------------------

def test_acceptance_5a_averaging_induced_diassociative():
    rng = random.Random(10005)
    pool = associative_pool(rng, 20, dim=2)
    confirmed = 0
    for A in pool:
        for H in (LinearMap.zero(2, 2), LinearMap.identity(2)):
            assert verify_operator("averaging_assoc", A, H).ok
            assert check_diassociative(averaging_induced_diassociative(A, H)).ok
            confirmed += 1
    while confirmed < 100:
        A = rng.choice(pool)
        H = rand_matrix(rng, 2, 2, GRID3)
        if verify_operator("averaging_assoc", A, H).ok:
            assert check_diassociative(averaging_induced_diassociative(A, H)).ok
            confirmed += 1
    _announce(5, f"(a) averaging-induced diassociative transfer on {confirmed} verified pairs")


def test_acceptance_5b_rota_baxter_induced():
    D = load_algebra(CORPUS_ROOT / "sec2" / "diassociative_D.json").specialize({"a": 1})
    families = [
        LinearMap.from_strings([["0", "0", "0"], ["0", "0", "0"], ["0", "r32", "r33"]]),
        LinearMap.from_strings([["0", "0", "0"], ["0", "0", "0"], ["0", "r32", "0"]]),
        LinearMap.from_strings([["2*r33", "0", "0"], ["0", "2*r33", "0"], ["0", "r32", "r33"]]),
    ]
    checked = 0
    for R in families:
        assert verify_operator("rota_baxter", D, R).ok
        induced = rota_baxter_induced(D, R)
        assert check_diassociative(induced).ok
        assert verify_operator("rota_baxter", induced, R).ok  # R stays Rota-Baxter
        checked += 1
    solutions = solve_operators_grid(D, "rota_baxter", [Fraction(0), Fraction(1)])
    for R in solutions:
        induced = rota_baxter_induced(D, R)
        assert check_diassociative(induced).ok
        assert verify_operator("rota_baxter", induced, R).ok
        checked += 1
    assert checked >= 4
    _announce(5, f"(b) Rota-Baxter-induced structures and re-verification on {checked} operators")


def test_acceptance_5c_relative_averaging_induced_quadri():
    rng = random.Random(10006)
    pool = dendriform_pool(rng, 12, dim=2)
    confirmed = 0
    attempts = 0
    while confirmed < 60 and attempts < 4000:
        attempts += 1
        base = rng.choice(pool)
        rep = RepresentationBundle.adjoint(base)
        roll = rng.random()
        T = (LinearMap.zero(2, 2) if roll < 0.2 else
             LinearMap.identity(2) if roll < 0.4 else rand_matrix(rng, 2, 2, GRID3))
        if not verify_operator("relative_averaging", rep, T).ok:
            continue
        induced = relative_averaging_induced_quadri(rep, T)
        assert check_quadri(induced).ok
        # T is a homomorphism onto the dendriform structure: compare against
        # the doubled bundle where both flavors are the dendriform pair
        doubled = AlgebraBundle(
            "quadri_dendriform", base.dim,
            {
                "prec_vdash": base.op("prec"), "prec_dashv": base.op("prec"),
                "succ_vdash": base.op("succ"), "succ_dashv": base.op("succ"),
            },
            base.twist, base.parameters,
        )
        assert check_homomorphism("quadri_dendriform", T, induced, doubled).ok
        confirmed += 1
    assert confirmed >= 60
    _announce(5, f"(c) relative-averaging-induced quadri + homomorphism on {confirmed} operators")


def test_acceptance_5d_homomorphic_averaging_induced_six():
    rng = random.Random(10007)
    pool = dendriform_pool(rng, 10, dim=2) + [rich_dendriform()]
    confirmed = 0
    attempts = 0
    while confirmed < 40 and attempts < 4000:
        attempts += 1
        base = rng.choice(pool)
        action = ActionBundle.adjoint(base)
        roll = rng.random()
        T = (LinearMap.zero(base.dim, base.dim) if roll < 0.25 else
             LinearMap.identity(base.dim) if roll < 0.5 else
             rand_matrix(rng, base.dim, base.dim, GRID3))
        if not verify_operator("homomorphic_relative_averaging", action, T).ok:
            continue
        six = homomorphic_averaging_induced_six(action, T)
        # the induced-structure theorem is provable only under the symmetric
        # sq15 reading (see decisions ledger); literal is the CLI default
        assert check_six(six, sq15="symmetric").ok
        assert check_triassociative(six_to_triassociative(six)).ok
        confirmed += 1
    assert confirmed >= 40
    _announce(5, f"(d) homomorphic-averaging-induced six + triassociative splitting "
                 f"on {confirmed} operators (sq15=symmetric)")


# -- criterion 6 ---------------------------------------------------------------

def test_acceptance_6_embedding_theorems():
    verified = blocked = 0
    blocked_ids = []
    for eid, bundle in corpus_quadri_entries():
        for bindings, concrete in parameter_free_specializations(bundle):
            result = quadri_embedding(concrete)
            if not result.ok:
                # precondition failures are reported, never silently skipped
                assert result.report.entries, f"{eid}{bindings}: silent refusal"
                blocked += 1
                blocked_ids.append(f"{eid}@{bindings}")
                continue
            report = verify_operator("relative_averaging", result.representation, result.averaging)
            assert report.ok, f"{eid}{bindings}: quotient map failed to verify"
            verified += 1
    assert verified > 0 and blocked > 0
    # six-dendriform side: induced instances embed when the perp pair is
    # compatible; incompatible instances are reported, never skipped
    D = rich_dendriform()
    action = ActionBundle.adjoint(D)
    six_id = homomorphic_averaging_induced_six(action, LinearMap.identity(4))
    result = six_embedding(six_id)
    assert result.ok
    assert verify_operator("homomorphic_relative_averaging", result.action, result.averaging).ok
    six_zero = homomorphic_averaging_induced_six(action, LinearMap.zero(4, 4))
    result_zero = six_embedding(six_zero)
    assert not result_zero.ok and result_zero.report.entries
    _announce(6, f"embedding theorems: {verified} specializations verified as relative "
                 f"averaging; {blocked} precondition failures reported "
                 f"(e.g. {blocked_ids[0]})")


# -- criterion 7 ---------------------------------------------------------------

def test_acceptance_7_corpus_report():
    report = corpus_verify_all()
    ids = {r["id"] for r in report["entries"]}
    assert {f"dim3.D{k}" for k in range(1, 14)} <= ids
    assert {"dim2.D1", "dim2.D2", "dim2.D3.literal", "dim2.D3.emended",
            "dim2.D4", "dim2.D5"} <= ids
    assert {"sec2.dendriform.Deta", "sec2.diassociative.D"} <= ids
    assert sum(1 for i in ids if i.startswith("ops.")) == 43
    for r in report["entries"]:
        if r["verdict"] == "fail":
            assert r["violations"], f"{r['id']}: fail without witnesses"
    assert report_to_json(report) == report_to_json(corpus_verify_all())
    # the committed DISCREPANCIES.md is the current one
    committed = Path(__file__).resolve().parent.parent / "DISCREPANCIES.md"
    assert committed.exists(), "DISCREPANCIES.md missing at the repo root"
    assert committed.read_text(encoding="utf-8") == discrepancies_markdown(report)
    _announce(7, f"corpus report: {report['summary']['total']} entries, byte-identical "
                 f"reruns, {len(report['summary']['discrepancies'])} witnessed discrepancies "
                 "summarized in DISCREPANCIES.md")


# -- criterion 8 ---------------------------------------------------------------

def test_acceptance_8_operator_propositions():
    entries = list_entries()
    algebras = {
        e["id"]: load_algebra(CORPUS_ROOT / e["path"])
        for e in entries if e["type"] == "algebra"
    }
    families = [
        e for e in entries
        if e["type"] == "operator" and e["id"].startswith("ops.dim")
    ]
    assert len(families) == 40
    systems = {}
    symbolic_pass = symbolic_fail = 0
    for entry in families:
        kind, matrix = load_operator(CORPUS_ROOT / entry["path"])
        context = algebras[entry["algebra"]]
        unit = entry.get("imaginary_unit")
        report = verify_operator("averaging_quadri", context, matrix)
        residuals = [v.residual for v in report.entries]
        if unit:
            residuals = [r.reduce_imaginary(unit) for r in residuals]
        verdict_ok = all(r.is_zero() for r in residuals)
        symbolic_pass += verdict_ok
        symbolic_fail += not verdict_ok
        # extraction/verification agreement: substituting the family into the
        # emitted system gives all zeros exactly when the verifier passes
        if entry["algebra"] not in systems:
            systems[entry["algebra"]] = emit_operator_system(
                context, "averaging_quadri", unknown_prefix="u"
            )
        bindings = {
            f"u{i + 1}{j + 1}": matrix.entries[i][j]
            for i in range(matrix.dim_out) for j in range(matrix.dim_in)
        }
        substituted = [substitute(eq, bindings) for eq in systems[entry["algebra"]]]
        if unit:
            substituted = [p.reduce_imaginary(unit) for p in substituted]
        assert all(p.is_zero() for p in substituted) == verdict_ok, entry["id"]

    # grid solving at two specializations per dim-2 entry, with membership
    dim2_targets = {
        "dim2.D1": ["ops.dim2.D1.family1", "ops.dim2.D1.family2"],
        "dim2.D2": ["ops.dim2.D2.family1", "ops.dim2.D2.family2"],
        "dim2.D3.literal": ["ops.dim2.D3.family1"],
        "dim2.D4": ["ops.dim2.D4.family1", "ops.dim2.D4.family2"],
        "dim2.D5": ["ops.dim2.D5.family1"],
    }
    family_matrices = {
        e["id"]: load_operator(CORPUS_ROOT / e["path"])[1] for e in families
    }
    solved = 0
    non_member = []
    for algebra_id, family_ids in dim2_targets.items():
        bundle = algebras[algebra_id]
        for bindings, concrete in parameter_free_specializations(bundle):
            solutions = solve_operators_grid(concrete, "averaging_quadri", GRID5)
            solved += 1
            for sol in solutions:
                member = any(
                    family_membership(family_matrices[fid], sol) is not None
                    for fid in family_ids
                )
                if not member:
                    non_member.append((algebra_id, bindings, sol.to_fraction_rows()))
    assert solved == 10
    # non-membership is a reported discrepancy, not a failure of this suite
    _announce(8, f"operator propositions: 40 families verified symbolically "
                 f"({symbolic_pass} pass, {symbolic_fail} with witnessed residuals); "
                 f"grid solving at 10 specializations found "
                 f"{len(non_member)} solutions outside the printed families "
                 "(recorded below)")
    for algebra_id, bindings, rows in non_member[:10]:
        print(f"  outside printed families: {algebra_id} @ {bindings}: {rows}")


# -- criterion 9 ---------------------------------------------------------------

def test_acceptance_9_fingerprint_invariance():
    rng = random.Random(10009)
    targets = [
        load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 0}),
        load_algebra(CORPUS_ROOT / "dim2" / "D2.json").specialize({"a": 1}),
        load_algebra(CORPUS_ROOT / "dim3" / "D5.json").specialize({"b": 2}),
        rich_dendriform(),
    ]
    done = 0
    while done < 100:
        target = rng.choice(targets)
        rows = [[rng.choice(GRID5) for _ in range(target.dim)] for _ in range(target.dim)]
        if linalg.determinant(rows) == 0:
            continue
        moved = push_forward(target, LinearMap.from_fractions(rows))
        assert fingerprint(moved) == fingerprint(target)
        done += 1
    _announce(9, "fingerprint fields preserved exactly on 100 random change-of-basis "
                 "push-forwards")
