import random
from fractions import Fraction

import pytest

from helpers import bundle, dendriform_pool, deta, op_sum, rich_dendriform, zero_bundle
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
    direct_sum_quadri,
    hemi_semidirect,
    homomorphic_averaging_induced_six,
    ideal_ID,
    quadri_embedding,
    quadri_to_diassociative,
    quotient_dendriform,
    relative_averaging_induced_quadri,
    rota_baxter_induced,
    semidirect_dendriform,
    six_embedding,
    six_to_triassociative,
)
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    RepresentationBundle,
    basis_vector,
)
from homsplit.operators import verify_operator
from homsplit.poly import Polynomial
from homsplit.report import PreconditionError

P = Polynomial.parse

QUADRI_OPS = ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")


def dim2_D1():
    return load_algebra(CORPUS_ROOT / "dim2" / "D1.json")


def dim2_D4():
    return load_algebra(CORPUS_ROOT / "dim2" / "D4.json")


# -- sum-splittings -----------------------------------------------------------

def test_quadri_to_diassociative_sums_D1():
    dias = quadri_to_diassociative(dim2_D1())
    e1 = basis_vector(2, 1)
    assert dias.op("vdash").apply(e1, e1) == (P("0"), P("2"))
    assert dias.op("dashv").apply(e1, e1) == (P("0"), P("3/2"))


def test_quadri_to_diassociative_zero_and_D4():
    zero = zero_bundle("quadri_dendriform", 2, QUADRI_OPS)
    out = quadri_to_diassociative(zero)
    assert out.op("vdash").is_zero() and out.op("dashv").is_zero()
    e2 = basis_vector(2, 2)
    assert quadri_to_diassociative(dim2_D4()).op("dashv").apply(e2, e2) == (
        P("0"), P("gamma"),
    )


def test_quadri_to_diassociative_transfers_validity():
    rng = random.Random(21)
    for base in dendriform_pool(rng, 10, dim=2):
        hemi = hemi_semidirect(RepresentationBundle.adjoint(base))
        assert check_quadri(hemi).ok
        assert check_diassociative(quadri_to_diassociative(hemi)).ok


def test_six_to_triassociative_degenerate_and_transfer():
    zero = zero_bundle("six_dendriform", 2, QUADRI_OPS + ("prec_perp", "succ_perp"))
    out = six_to_triassociative(zero)
    assert all(out.op(n).is_zero() for n in ("perp", "dashv", "vdash"))
    # degenerate six with all pairs equal: perp = vdash = dashv = prec + succ
    D = rich_dendriform()
    six = AlgebraBundle(
        "six_dendriform", D.dim,
        {
            "prec_perp": D.op("prec"), "succ_perp": D.op("succ"),
            "prec_vdash": D.op("prec"), "succ_vdash": D.op("succ"),
            "prec_dashv": D.op("prec"), "succ_dashv": D.op("succ"),
        },
        D.twist, (),
    )
    tri = six_to_triassociative(six)
    summed = op_sum(D.op("prec"), D.op("succ"))
    assert tri.op("perp") == summed and tri.op("vdash") == summed and tri.op("dashv") == summed
    assert check_triassociative(tri).ok


# -- products -----------------------------------------------------------------

def test_direct_sum_block_structure():
    a, b = dim2_D1(), load_algebra(CORPUS_ROOT / "dim2" / "D2.json")
    total = direct_sum_quadri(a, b)
    assert total.dim == 4
    e1, e3 = basis_vector(4, 1), basis_vector(4, 3)
    # cross-block products vanish
    for name in QUADRI_OPS:
        assert all(p.is_zero() for p in total.op(name).apply(e1, e3))
        assert all(p.is_zero() for p in total.op(name).apply(e3, e1))
    # first block embeds A
    assert total.op("succ_dashv").apply(e1, e1) == (P("0"), P("1/2"), P("0"), P("0"))
    zero = zero_bundle("quadri_dendriform", 2, QUADRI_OPS)
    assert direct_sum_quadri(zero, zero).op("prec_vdash").is_zero()


def test_direct_sum_commutes_with_splitting():
    # quadri_to_diassociative(direct_sum(a, b)) equals the block sum of the
    # individually split parts (functoriality smoke test)
    a = dim2_D1().specialize({"a": 1})
    b = load_algebra(CORPUS_ROOT / "dim2" / "D2.json").specialize({"a": 0})
    lhs = quadri_to_diassociative(direct_sum_quadri(a, b))
    da, db = quadri_to_diassociative(a), quadri_to_diassociative(b)
    block_ops = {}
    for name in ("dashv", "vdash"):
        entries = [(i, j, k, c) for (i, j, k), c in da.op(name).constants]
        entries += [(i + 2, j + 2, k + 2, c) for (i, j, k), c in db.op(name).constants]
        block_ops[name] = BilinearOp.square(4, entries)
    expected = AlgebraBundle(
        "diassociative", 4, block_ops,
        LinearMap.block_diag(da.twist, db.twist), (),
    )
    assert lhs == expected


def test_hemi_semidirect_formula_and_closure():
    D = deta()
    hemi = hemi_semidirect(RepresentationBundle.adjoint(D))
    assert hemi.dim == 6
    # (e1, 0) prec_vdash (0, e2) = (0, eta e3)
    x = basis_vector(6, 1)
    y = basis_vector(6, 5)
    out = hemi.op("prec_vdash").apply(x, y)
    assert out == (P("0"),) * 5 + (P("eta"),)
    assert check_quadri(hemi).ok


def test_hemi_semidirect_of_zero_dendriform():
    zero = zero_bundle("dendriform", 2, ("prec", "succ"))
    hemi = hemi_semidirect(RepresentationBundle.adjoint(zero))
    assert hemi.dim == 4
    assert all(hemi.op(n).is_zero() for n in QUADRI_OPS)
    assert check_quadri(hemi).ok


def test_hemi_semidirect_refuses_invalid_representation():
    D = rich_dendriform()
    rep = RepresentationBundle.adjoint(D)
    broken = RepresentationBundle(
        base=rep.base,
        module_dim=rep.module_dim,
        actions={**rep.actions, "prec_l": BilinearOp.square(4, [(1, 1, 1, P("1"))])},
        module_twist=rep.module_twist,
    )
    with pytest.raises(PreconditionError):
        hemi_semidirect(broken)
    built = hemi_semidirect(broken, force=True)  # --force still builds
    assert not check_quadri(built).ok


def test_semidirect_dendriform_block_embedding_and_iff():
    D = rich_dendriform()
    zero_acted = zero_bundle("dendriform", 2, ("prec", "succ"))
    action = ActionBundle(
        acting=D,
        acted=zero_acted,
        actions={
            "prec_l": BilinearOp.from_entries(4, 2, 2, []),
            "succ_l": BilinearOp.from_entries(4, 2, 2, []),
            "prec_r": BilinearOp.from_entries(2, 4, 2, []),
            "succ_r": BilinearOp.from_entries(2, 4, 2, []),
        },
    )
    semi = semidirect_dendriform(action)
    e1 = basis_vector(6, 1)
    assert semi.op("prec").apply(e1, e1)[1] == P("1")  # block embedding of D
    assert check_dendriform(semi).ok
    both_zero = ActionBundle(
        acting=zero_bundle("dendriform", 2, ("prec", "succ")),
        acted=zero_acted,
        actions={
            "prec_l": BilinearOp.from_entries(2, 2, 2, []),
            "succ_l": BilinearOp.from_entries(2, 2, 2, []),
            "prec_r": BilinearOp.from_entries(2, 2, 2, []),
            "succ_r": BilinearOp.from_entries(2, 2, 2, []),
        },
    )
    assert semidirect_dendriform(both_zero).op("prec").is_zero()
    # iff direction: a broken action built with force fails check_dendriform
    broken = ActionBundle(
        acting=D,
        acted=zero_acted,
        actions={
            **action.actions,
            "prec_l": BilinearOp.from_entries(4, 2, 2, [(2, 1, 1, P("1"))]),
        },
    )
    semi_broken = semidirect_dendriform(broken, force=True)
    assert not check_dendriform(semi_broken).ok


# -- ideal and quotient ----------------------------------------------------------

def test_ideal_examples():
    dendriform_like = AlgebraBundle(
        "quadri_dendriform", 2,
        {
            "prec_vdash": BilinearOp.square(2, [(1, 1, 2, P("1"))]),
            "prec_dashv": BilinearOp.square(2, [(1, 1, 2, P("1"))]),
            "succ_vdash": BilinearOp.square(2, [(2, 2, 1, P("1"))]),
            "succ_dashv": BilinearOp.square(2, [(2, 2, 1, P("1"))]),
        },
        LinearMap.identity(2), (),
    )
    assert ideal_ID(dendriform_like).dim == 0
    D1 = dim2_D1().specialize({"a": 0})
    ideal = ideal_ID(D1)
    assert ideal.dim == 1
    assert ideal.basis == ((Fraction(0), Fraction(1)),)
    zero = zero_bundle("quadri_dendriform", 2, QUADRI_OPS)
    assert ideal_ID(zero).dim == 0


def test_ideal_requires_parameter_free():
    with pytest.raises(ValueError, match="parameter-free"):
        ideal_ID(dim2_D1())


def d1_with_stable_twist():
    """The D1 product table with an identity twist: I_D = span{e2} is now
    alpha-stable, so the quotient exists (dimension 1, zero products)."""
    D = dim2_D1().specialize({"a": 0})
    return AlgebraBundle(
        "quadri_dendriform", 2, dict(D.ops), LinearMap.identity(2), (),
    )


def test_quotient_of_D1_is_blocked_by_twist_instability():
    # I_D = span{e2} but alpha(e2) = e1 + a e2 leaves the ideal for every a,
    # so the quotient twist is ill-defined; the construction must refuse and
    # report rather than build.
    result = quotient_dendriform(dim2_D1().specialize({"a": 0}))
    assert not result.ok
    assert result.bundle is None
    assert any(v.template == "quotient.closure.twist" for v in result.report.entries)


def test_quotient_of_stable_D1_variant():
    result = quotient_dendriform(d1_with_stable_twist())
    assert result.ok
    assert result.bundle.dim == 1
    assert result.bundle.op("prec").is_zero() and result.bundle.op("succ").is_zero()
    assert result.complement == (1,)
    # quotient map sends e1 -> ebar1, e2 -> 0
    assert result.projection.entries[0][0] == P("1")
    assert result.projection.entries[0][1] == P("0")
    assert check_dendriform(result.bundle).ok


def test_quotient_with_trivial_ideal_reproduces_the_vdash_pair():
    base = rich_dendriform()
    six_like = AlgebraBundle(
        "quadri_dendriform", 4,
        {
            "prec_vdash": base.op("prec"), "succ_vdash": base.op("succ"),
            "prec_dashv": base.op("prec"), "succ_dashv": base.op("succ"),
        },
        base.twist, (),
    )
    result = quotient_dendriform(six_like)
    assert result.ok and result.bundle.dim == 4
    assert result.bundle.op("prec") == base.op("prec")
    assert result.bundle.op("succ") == base.op("succ")


def test_quotient_blocks_on_alpha_instability():
    # I_D = span{e2}, but alpha(e2) = e1 leaves the ideal
    bad = AlgebraBundle(
        "quadri_dendriform", 2,
        {
            "prec_vdash": BilinearOp.square(2, [(1, 1, 2, P("1"))]),
            "prec_dashv": BilinearOp.square(2, [(1, 1, 2, P("2"))]),
            "succ_vdash": BilinearOp.square(2, ()),
            "succ_dashv": BilinearOp.square(2, ()),
        },
        LinearMap.from_strings([["0", "1"], ["0", "0"]]), (),
    )
    result = quotient_dendriform(bad)
    assert not result.ok
    assert any(v.template == "quotient.closure.twist" for v in result.report.entries)
    assert result.bundle is None


def test_quotient_zero_quadri():
    zero = zero_bundle("quadri_dendriform", 3, QUADRI_OPS)
    result = quotient_dendriform(zero)
    assert result.ok and result.bundle.dim == 3
    assert result.bundle.op("prec").is_zero()


# -- operator-induced structures -----------------------------------------------------

def test_averaging_induced_zero_and_identity():
    A = bundle("associative", 1, [], [["1"]], mu=[(1, 1, 1, "1")])
    zero_induced = averaging_induced_diassociative(A, LinearMap.zero(1, 1))
    assert zero_induced.op("dashv").is_zero() and zero_induced.op("vdash").is_zero()
    id_induced = averaging_induced_diassociative(A, LinearMap.identity(1))
    assert id_induced.op("dashv") == A.op("mu")
    assert check_diassociative(id_induced).ok


def test_averaging_scalar_operators_always_pass():
    # H = c id gives mu(Ha,Hb) = H mu(a,Hb) = H mu(Ha,b) = c^2 mu(a,b) for
    # every c, so every scalar operator is averaging (direct expansion).
    A = bundle("associative", 1, [], [["1"]], mu=[(1, 1, 1, "1")])
    for c in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2)):
        H = LinearMap.from_fractions([[c]])
        assert verify_operator("averaging_assoc", A, H).ok
        assert check_diassociative(averaging_induced_diassociative(A, H)).ok


def test_averaging_refusal_on_noncommutative_failure():
    # left-unit algebra e1 e1 = e1, e1 e2 = e2: H with He2 = e1 breaks the
    # chain at (2,2): mu(He2,He2) = e1 but H mu(e2, He2) = H(0) = 0.
    A = bundle(
        "associative", 2, [],
        [["1", "0"], ["0", "1"]],
        mu=[(1, 1, 1, "1"), (1, 2, 2, "1")],
    )
    from homsplit.axioms import check_associative

    assert check_associative(A).ok
    H = LinearMap.from_strings([["0", "1"], ["0", "0"]])
    report = verify_operator("averaging_assoc", A, H)
    assert not report.ok
    assert ("avg.mu.a", (2, 2, 1)) in {(v.template, v.witness) for v in report.entries}
    with pytest.raises(PreconditionError):
        averaging_induced_diassociative(A, H)
    built = averaging_induced_diassociative(A, H, force=True)  # --force still builds
    assert built.kind == "diassociative"


def test_rota_baxter_induced_table_entry():
    D = load_algebra(CORPUS_ROOT / "sec2" / "diassociative_D.json").specialize({"a": 1})
    R = LinearMap.from_strings([["0", "0", "0"], ["0", "0", "0"], ["0", "r32", "r33"]])
    induced = rota_baxter_induced(D, R, force=True)
    e1, e2 = basis_vector(3, 1), basis_vector(3, 2)
    # e1 dashv R(e2) + R(e1) dashv e2 = r32 * (e1 dashv e3) = 0
    assert all(p.is_zero() for p in induced.op("dashv").apply(e1, e2))
    zero_induced = rota_baxter_induced(D, LinearMap.zero(3, 3))
    assert zero_induced.op("dashv").is_zero()


def test_relative_averaging_induced_identity_collapse():
    D = rich_dendriform()
    rep = RepresentationBundle.adjoint(D)
    T = LinearMap.identity(4)
    assert verify_operator("relative_averaging", rep, T).ok
    induced = relative_averaging_induced_quadri(rep, T)
    for flavor in ("prec", "succ"):
        assert induced.op(f"{flavor}_vdash") == D.op(flavor)
        assert induced.op(f"{flavor}_dashv") == D.op(flavor)
    assert check_quadri(induced).ok == check_dendriform(D).ok
    zero = relative_averaging_induced_quadri(rep, LinearMap.zero(4, 4))
    assert all(zero.op(n).is_zero() for n in QUADRI_OPS)


def test_homomorphic_averaging_induced_six():
    D = rich_dendriform()
    action = ActionBundle.adjoint(D)
    T = LinearMap.zero(4, 4)
    assert verify_operator("homomorphic_relative_averaging", action, T).ok
    six = homomorphic_averaging_induced_six(action, T)
    assert six.op("prec_perp") == D.op("prec")
    assert six.op("prec_vdash").is_zero()
    assert check_six(six, sq15="literal").ok
    assert check_six(six, sq15="symmetric").ok
    # identity operator: all six operations collapse onto the pair
    six_id = homomorphic_averaging_induced_six(action, LinearMap.identity(4))
    assert six_id.op("prec_vdash") == D.op("prec")
    assert check_six(six_id, sq15="symmetric").ok
    assert check_triassociative(six_to_triassociative(six_id)).ok


def test_homomorphic_averaging_induced_six_verifies_its_operator_once(monkeypatch):
    from homsplit import operators

    calls = []
    original = operators.verify_operator

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "verify_operator", counted)
    homomorphic_averaging_induced_six(ActionBundle.adjoint(deta()), LinearMap.identity(3))
    assert calls == ["homomorphic_relative_averaging"]


# -- embeddings ------------------------------------------------------------------------

def test_quadri_embedding_quotient_map_is_relative_averaging():
    trivial_ideal = AlgebraBundle(
        "quadri_dendriform", 4,
        {
            "prec_vdash": rich_dendriform().op("prec"),
            "succ_vdash": rich_dendriform().op("succ"),
            "prec_dashv": rich_dendriform().op("prec"),
            "succ_dashv": rich_dendriform().op("succ"),
        },
        rich_dendriform().twist, (),
    )
    for q in (d1_with_stable_twist(), trivial_ideal):
        result = quadri_embedding(q)
        assert result.ok
        assert verify_operator("relative_averaging", result.representation, result.averaging).ok


def test_quadri_embedding_blocked_inputs_are_reported():
    result = quadri_embedding(dim2_D1().specialize({"a": 0}))
    assert not result.ok
    assert any(v.template == "quotient.closure.twist" for v in result.report.entries)


def test_quadri_embedding_homomorphism_of_vdash_pair():
    q = d1_with_stable_twist()
    result = quadri_embedding(q)
    vdash_pair = AlgebraBundle(
        "dendriform", 2,
        {"prec": q.op("prec_vdash"), "succ": q.op("succ_vdash")},
        q.twist, (),
    )
    report = check_homomorphism(
        "dendriform", result.averaging, vdash_pair, result.quotient.bundle
    )
    assert report.ok


def test_quotient_map_is_homomorphism_of_summed_structures():
    # T(x dashv y) = T(x)(prec+succ)T(y) and likewise for vdash: the quotient
    # map intertwines the summed diassociative pair with the doubled sum of
    # the quotient's dendriform pair.
    q = d1_with_stable_twist()
    result = quadri_embedding(q)
    summed = quadri_to_diassociative(q)
    quotient = result.quotient.bundle
    quotient_sum = op_sum(quotient.op("prec"), quotient.op("succ"))
    doubled = AlgebraBundle(
        "diassociative", quotient.dim,
        {"dashv": quotient_sum, "vdash": quotient_sum},
        quotient.twist, (),
    )
    assert check_homomorphism("diassociative", result.averaging, summed, doubled).ok


def test_six_embedding_perp_compat_gate():
    D = rich_dendriform()
    action = ActionBundle.adjoint(D)
    # T = id: perp pair equals the vdash pair; embedding verifies
    six_id = homomorphic_averaging_induced_six(action, LinearMap.identity(4))
    result = six_embedding(six_id)
    assert result.ok
    assert verify_operator("homomorphic_relative_averaging", result.action, result.averaging).ok
    # T = 0: perp ops differ from the vanished vdash ops outside I_D = 0;
    # the perp-compat precondition reports and blocks, never silently skips
    six_zero = homomorphic_averaging_induced_six(action, LinearMap.zero(4, 4))
    result = six_embedding(six_zero)
    assert not result.ok
    assert any(
        v.template.startswith("quotient.perp-compat") for v in result.report.entries
    )
