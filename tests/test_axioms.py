import random

import pytest

from helpers import (
    bundle,
    deta,
    dendriform_pool,
    flip_one_constant,
    op_sum,
    rich_dendriform,
    sec2_diassociative,
    six_from_pair,
    zero_bundle,
)
from oracle import (
    dendriform_violations,
    diassociative_violations,
    engine_violation_set,
    multiplicative_violations,
    quadri_violations,
)
from homsplit.axioms import (
    App,
    Template,
    Var,
    check_action,
    check_associative,
    check_dendriform,
    check_diassociative,
    check_homomorphism,
    check_kind,
    check_multiplicative,
    check_quadri,
    check_representation,
    check_six,
    evaluate_templates,
    quadri_templates,
    six_templates,
)
from homsplit.constructions import hemi_semidirect, perp_part, quadri_part
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    RepresentationBundle,
)
from homsplit.poly import Polynomial

P = Polynomial.parse

QUADRI_OPS = ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")
SIX_OPS = QUADRI_OPS + ("prec_perp", "succ_perp")


# -- zero algebras pass everything [TRIVIAL] -----------------------------------

@pytest.mark.parametrize(
    "kind,ops",
    [
        ("associative", ("mu",)),
        ("dendriform", ("prec", "succ")),
        ("diassociative", ("dashv", "vdash")),
        ("triassociative", ("dashv", "vdash", "perp")),
        ("quadri_dendriform", QUADRI_OPS),
        ("six_dendriform", SIX_OPS),
    ],
)
def test_zero_algebra_passes(kind, ops):
    rng = random.Random(8)
    alpha = LinearMap.from_fractions(
        [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
    )
    assert check_kind(zero_bundle(kind, 3, ops, alpha)).ok


# -- dendriform: engine vs oracle ----------------------------------------------

def test_deta_passes_and_oracle_agrees_symbolically():
    D = deta()
    report = check_dendriform(D)
    assert report.ok
    assert dendriform_violations(D, mode="sympy") == set()


def test_perturbed_deta_agrees_with_oracle():
    # entry e2 prec e2 changed from -1/2 to +1/2 (flagged perturbation)
    D = deta()
    ops = dict(D.ops)
    entries = [(i, j, k, P("1/2") if (i, j, k) == (2, 2, 3) else c)
               for (i, j, k), c in D.op("prec").constants]
    ops["prec"] = BilinearOp.square(3, entries)
    perturbed = AlgebraBundle("dendriform", 3, ops, D.twist, D.parameters)
    report = check_dendriform(perturbed)
    assert engine_violation_set(report) == dendriform_violations(perturbed, mode="sympy")


def test_wrong_kind_raises():
    with pytest.raises(ValueError):
        check_dendriform(sec2_diassociative())


# -- associative -----------------------------------------------------------------

def test_one_dim_associative_examples():
    idem = bundle("associative", 1, [], [["1"]], mu=[(1, 1, 1, "1")])
    assert check_associative(idem).ok
    doubled = bundle("associative", 1, [], [["2"]], mu=[(1, 1, 1, "1")])
    assert check_associative(doubled).ok


# -- diassociative ----------------------------------------------------------------

def test_sec2_diassociative_example_and_oracle():
    D = sec2_diassociative()
    report = check_diassociative(D)
    assert report.ok
    assert diassociative_violations(D, mode="sympy") == set()


def test_dendriform_ops_reinterpreted_as_diassociative():
    # dashv = prec, vdash = succ: eq (5) differs from eq (1).  The worked
    # 3-dim example is degenerate enough to stay valid (oracle-confirmed);
    # the rigid depth-3 instance genuinely fails.
    for dend, expect_ok in ((deta(), True), (rich_dendriform(), False)):
        reinterpreted = AlgebraBundle(
            "diassociative", dend.dim,
            {"dashv": dend.op("prec"), "vdash": dend.op("succ")},
            dend.twist, dend.parameters,
        )
        report = check_diassociative(reinterpreted)
        mode = "sympy" if dend.parameters else "fraction"
        assert engine_violation_set(report) == diassociative_violations(
            reinterpreted, mode=mode
        )
        assert report.ok == expect_ok


# -- quadri ------------------------------------------------------------------------

def test_dim2_D1_engine_matches_oracle():
    D1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json")
    report = check_quadri(D1)
    assert engine_violation_set(report) == quadri_violations(D1, mode="sympy")
    assert report.ok


def test_dim2_D3_fails_and_matches_oracle():
    D3 = load_algebra(CORPUS_ROOT / "dim2" / "D3_literal.json")
    report = check_quadri(D3)
    assert not report.ok
    assert engine_violation_set(report) == quadri_violations(D3, mode="sympy")


def test_hemi_of_adjoint_zero_dendriform_passes():
    zero = zero_bundle("dendriform", 2, ("prec", "succ"))
    assert check_quadri(hemi_semidirect(RepresentationBundle.adjoint(zero))).ok


def test_quadri_template_count():
    assert len(quadri_templates()) == 19


def _implied_templates(templates) -> list:
    """The second=third template ".c" of every chain split into ".a"/".b"."""
    by_id = {t.id: t for t in templates}
    return [
        Template(a.id[:-2] + ".c", a.variables, a.rhs, by_id[a.id[:-2] + ".b"].rhs)
        for a in templates
        if a.id.endswith(".a")
    ]


def test_chain_splitting_consistency_on_random_instances():
    # (first=second and first=third) implies second=third, checked via the
    # implied ".c" templates on random parameter-free quadri instances.
    implied = _implied_templates(quadri_templates())
    assert len(implied) == 8
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        base = dendriform_pool(rng, 1, dim=2)[0]
        hemi = hemi_semidirect(RepresentationBundle.adjoint(base))
        full = evaluate_templates(
            quadri_templates() + implied,
            {"D": hemi.dim}, dict(hemi.ops), {"alpha": hemi.twist},
        )
        split = {v.template for v in full.entries}
        for tid in ("quadri.Hq1", "quadri.Hq2", "quadri.Hq3", "quadri.Hq4",
                    "quadri.Hq8", "quadri.Hq9", "quadri.Hq10", "quadri.Hq11"):
            if f"{tid}.a" not in split and f"{tid}.b" not in split:
                assert f"{tid}.c" not in split
                checked += 1
    assert checked > 0


def test_placeholder_reused_in_two_spaces_gets_its_own_tables():
    # "x" ranges over a 2-dim space in one template and a 3-dim one in the
    # next; sharing the tabulated x or alpha(x) across them would be wrong
    x = Var("x")
    alpha = LinearMap.from_strings([["0", "1"], ["1", "0"]])
    beta = LinearMap.from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]])
    templates = [
        Template("swap", (("x", "D"),), App("alpha", x), x),
        Template("scale", (("x", "M"),), App("beta", x), x),
        Template("swap.again", (("x", "D"),), App("alpha", x), x),
    ]
    report = evaluate_templates(templates, {"D": 2, "M": 3}, {}, {"alpha": alpha, "beta": beta})
    found = {(v.template, v.witness, str(v.residual)) for v in report.entries}
    assert found == {
        ("swap", (1, 1), "-1"), ("swap", (1, 2), "1"),
        ("swap", (2, 1), "1"), ("swap", (2, 2), "-1"),
        ("swap.again", (1, 1), "-1"), ("swap.again", (1, 2), "1"),
        ("swap.again", (2, 1), "1"), ("swap.again", (2, 2), "-1"),
        ("scale", (3, 3), "1"),
    }


# -- triassociative / six ------------------------------------------------------------

def test_six_template_count():
    assert len(six_templates()) == 47


def test_degenerate_six_passes_symmetric_and_only_sq15_blocks_literal():
    # collapsing all six operations onto a valid dendriform pair must give a
    # six-dendriform algebra per the collapse remark; that holds under the
    # symmetric sq15 reading, while the literal reading can only fail at sq15.
    for dend in (deta(), rich_dendriform()):
        six = six_from_pair(dend)
        assert check_six(six, sq15="symmetric").ok
        literal = check_six(six, sq15="literal")
        assert {v.template for v in literal.entries} <= {"six.sq15.a", "six.sq15.b"}
    # the rigid instance witnesses that the literal reading genuinely differs
    assert not check_six(six_from_pair(rich_dendriform()), sq15="literal").ok


def test_six_pass_implies_projections_pass():
    # T = 0 induced six: perp pair is the acted algebra, T-ops vanish.
    D = deta().specialize({"eta": 1, "b": 1})
    zero_ops = {name: BilinearOp.square(3, ()) for name in QUADRI_OPS}
    six = AlgebraBundle(
        "six_dendriform", 3,
        {**zero_ops, "prec_perp": D.op("prec"), "succ_perp": D.op("succ")},
        D.twist, (),
    )
    assert check_six(six).ok
    assert check_quadri(quadri_part(six)).ok
    assert check_dendriform(perp_part(six)).ok


def test_triassociative_perp_copies_pass_but_foreign_perp_fails():
    # perp := dashv (or vdash) always extends a diassociative algebra to a
    # triassociative one: every mixed equation reduces to one of the five
    # diassociative identities.  An unrelated perp genuinely fails.
    D = sec2_diassociative()
    for copy_of in ("dashv", "vdash"):
        tri = AlgebraBundle(
            "triassociative", 3,
            {"dashv": D.op("dashv"), "vdash": D.op("vdash"), "perp": D.op(copy_of)},
            D.twist, D.parameters,
        )
        assert check_kind(tri).ok
    foreign = AlgebraBundle(
        "triassociative", 3,
        {
            "dashv": D.op("dashv"),
            "vdash": D.op("vdash"),
            "perp": BilinearOp.square(3, [(1, 1, 1, P("1"))]),
        },
        D.twist, D.parameters,
    )
    report = check_kind(foreign)
    assert not report.ok
    assert any(v.template.startswith("tri.mixed") for v in report.entries)


# -- representations -------------------------------------------------------------------

def test_adjoint_representation_matches_dendriform_verdict():
    D = deta()
    assert check_representation(RepresentationBundle.adjoint(D)).ok == check_dendriform(D).ok
    # and for a perturbed, failing instance the verdicts stay aligned
    ops = dict(D.ops)
    ops["prec"] = op_sum(BilinearOp.square(3, [(1, 1, 1, P("1"))]), D.op("prec"))
    bad = AlgebraBundle("dendriform", 3, ops, D.twist, D.parameters)
    assert check_representation(RepresentationBundle.adjoint(bad)).ok == check_dendriform(bad).ok


def test_zero_actions_pass():
    D = deta()
    rep = RepresentationBundle(
        base=D,
        module_dim=2,
        actions={
            "prec_l": BilinearOp.from_entries(3, 2, 2, []),
            "succ_l": BilinearOp.from_entries(3, 2, 2, []),
            "prec_r": BilinearOp.from_entries(2, 3, 2, []),
            "succ_r": BilinearOp.from_entries(2, 3, 2, []),
        },
        module_twist=LinearMap.identity(2),
    )
    assert check_representation(rep).ok


def test_adjoint_of_zero_dendriform_passes():
    zero = zero_bundle("dendriform", 3, ("prec", "succ"))
    assert check_representation(RepresentationBundle.adjoint(zero)).ok


# -- actions ----------------------------------------------------------------------------

def test_adjoint_action_matches_dendriform_verdict():
    D = deta()
    assert check_action(ActionBundle.adjoint(D)).ok == check_dendriform(D).ok


def test_zero_cross_actions_with_valid_algebras_pass():
    acting = deta()
    acted = deta()
    action = ActionBundle(
        acting=acting,
        acted=acted,
        actions={
            "prec_l": BilinearOp.from_entries(3, 3, 3, []),
            "succ_l": BilinearOp.from_entries(3, 3, 3, []),
            "prec_r": BilinearOp.from_entries(3, 3, 3, []),
            "succ_r": BilinearOp.from_entries(3, 3, 3, []),
        },
    )
    assert check_action(action).ok


# -- multiplicativity ---------------------------------------------------------------------

def test_multiplicative_identity_twist_passes():
    D = deta()
    with_id = AlgebraBundle("dendriform", 3, dict(D.ops), LinearMap.identity(3), D.parameters)
    assert check_multiplicative(with_id).ok


def test_multiplicative_zero_ops_pass():
    assert check_multiplicative(zero_bundle("dendriform", 3, ("prec", "succ"))).ok


def test_multiplicative_deta_matches_oracle():
    D = deta()
    report = check_multiplicative(D)
    assert engine_violation_set(report) == multiplicative_violations(D, mode="sympy")
    assert not report.ok  # fails unless b = 0


# -- homomorphisms ---------------------------------------------------------------------------

def test_identity_homomorphism_passes():
    D = deta()
    assert check_homomorphism("dendriform", LinearMap.identity(3), D, D).ok


def test_zero_map_is_a_homomorphism():
    D = deta()
    target = zero_bundle("dendriform", 2, ("prec", "succ"))
    assert check_homomorphism("dendriform", LinearMap.zero(2, 3), D, target).ok


def test_homomorphism_detects_broken_intertwining():
    D = deta().specialize({"eta": 1, "b": 1})
    skew = LinearMap.from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])
    report = check_homomorphism("dendriform", skew, D, D)
    assert not report.ok


# -- perturbation soundness against the oracle -------------------------------------------------

def test_sign_flip_verdicts_agree_with_oracle_exactly():
    """Engine flags a sign flip as non-pass exactly when the flip genuinely
    breaks an identity (oracle-verified); valid flips stay accepted.  The
    detection rate is logged: in this graded low-dimensional zoo most sign
    flips produce another valid algebra, so raw detection is low by
    mathematics, not by checker blindness."""
    rng = random.Random(2468)
    passing = [
        load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 1}),
        load_algebra(CORPUS_ROOT / "dim3" / "D5.json").specialize({"b": 2}),
        load_algebra(CORPUS_ROOT / "controls" / "hemi.json"),
    ]
    caught = total = 0
    for _ in range(100):
        target = rng.choice(passing)
        flipped = flip_one_constant(rng, target)
        verdict = check_quadri(flipped).ok
        oracle_ok = quadri_violations(flipped, mode="fraction") == set()
        assert verdict == oracle_ok
        total += 1
        caught += 0 if verdict else 1
    print(f"\nsign-flip detection rate: {caught}/{total} (remaining flips oracle-valid)")
