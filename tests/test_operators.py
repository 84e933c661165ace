import random
from fractions import Fraction

import pytest

from helpers import (
    bundle,
    dendriform_pool,
    deta,
    rand_matrix,
    rich_dendriform,
    sec2_diassociative,
    substitute,
    zero_bundle,
)
from homsplit.axioms import check_diassociative, check_homomorphism
from homsplit.constructions import (
    averaging_induced_diassociative,
    direct_sum_quadri,
    hemi_semidirect,
    rota_baxter_induced,
)
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import (
    AlgebraBundle,
    LinearMap,
    RepresentationBundle,
)
from homsplit.operators import (
    emit_operator_system,
    family_membership,
    graph_is_subalgebra,
    solve_operators_grid,
    verify_operator,
)
from homsplit.poly import Polynomial

P = Polynomial.parse

GRID3 = [Fraction(-1), Fraction(0), Fraction(1)]


# -- verifiers ------------------------------------------------------------------

def test_rota_baxter_zero_operator_passes():
    D = sec2_diassociative()
    assert verify_operator("rota_baxter", D, LinearMap.zero(3, 3)).ok


def test_rota_baxter_table_family_verdict():
    # symbolic verification of the printed family; the twist commutation
    # residual (a-1)*r32 is a genuine finding recorded by the corpus
    D = sec2_diassociative()
    R = LinearMap.from_strings([["0", "0", "0"], ["0", "0", "0"], ["0", "r32", "r33"]])
    report = verify_operator("rota_baxter", D, R)
    assert {v.template for v in report.entries} == {"rb.twist"}
    assert str(report.entries[0].residual) == "a*r32 - r32"
    # at a = 1 the family verifies symbolically in r32, r33
    assert verify_operator("rota_baxter", D.specialize({"a": 1}), R).ok
    # product identities hold symbolically even with a free
    assert not any(v.template.startswith("rb.dashv") for v in report.entries)
    assert not any(v.template.startswith("rb.vdash") for v in report.entries)


def test_rota_baxter_identity_fails_with_hand_computed_witness():
    D = sec2_diassociative().specialize({"a": 1})
    report = verify_operator("rota_baxter", D, LinearMap.identity(3))
    assert not report.ok
    # e1 dashv e2 = -2 e3 but R(R e1 dashv e2 + e1 dashv R e2) = -4 e3
    witness = {(v.template, v.witness): str(v.residual) for v in report.entries}
    assert witness[("rb.dashv", (1, 2, 3))] == "2"


def test_relative_averaging_zero_and_identity():
    D = rich_dendriform()
    rep = RepresentationBundle.adjoint(D)
    assert verify_operator("relative_averaging", rep, LinearMap.zero(4, 4)).ok
    assert verify_operator("relative_averaging", rep, LinearMap.identity(4)).ok


def test_relative_averaging_quotient_map_of_embedding():
    from homsplit.constructions import quadri_embedding

    D = load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 0})
    stable = AlgebraBundle(
        "quadri_dendriform", 2, dict(D.ops), LinearMap.identity(2), (),
    )
    result = quadri_embedding(stable)
    assert result.ok
    assert verify_operator("relative_averaging", result.representation, result.averaging).ok


def test_homomorphic_relative_averaging_projection_fails():
    # T = 0 always passes; a basis projection breaks the homomorphism half
    from homsplit.model import ActionBundle

    action = ActionBundle.adjoint(rich_dendriform())
    assert verify_operator("homomorphic_relative_averaging", action, LinearMap.zero(4, 4)).ok
    projection = LinearMap.from_strings(
        [["1", "0", "0", "0"], ["0", "0", "0", "0"],
         ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    )
    report = verify_operator("homomorphic_relative_averaging", action, projection)
    assert not report.ok
    # T(e1 prec e1) = T(e2) = 0 but T(e1) prec T(e1) = e2
    assert ("hom.prec", (1, 1, 2)) in {(v.template, v.witness) for v in report.entries}


def test_operator_spec_shape_validation():
    """verify_operator refuses a matrix whose shape does not fit the context."""
    D = sec2_diassociative()
    assert verify_operator("rota_baxter", D, LinearMap.zero(3, 3)).ok
    with pytest.raises(ValueError, match="shape does not match the algebra"):
        verify_operator("rota_baxter", D, LinearMap.zero(2, 2))
    rep = RepresentationBundle.adjoint(deta())
    assert verify_operator("relative_averaging", rep, LinearMap.zero(3, 3)).ok
    with pytest.raises(ValueError, match="module into the base algebra"):
        verify_operator("relative_averaging", rep, LinearMap.zero(3, 2))


def test_averaging_quadri_examples():
    D3 = load_algebra(CORPUS_ROOT / "dim2" / "D3_literal.json")
    assert verify_operator("averaging_quadri", D3, LinearMap.zero(2, 2)).ok
    # the printed family theta * identity passes symbolically
    family = LinearMap.from_strings([["t22", "0"], ["0", "t22"]])
    assert verify_operator("averaging_quadri", D3, family).ok
    # identity on D1 sits in the printed family (theta11 = 1, theta21 = 0)
    D1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json")
    assert verify_operator("averaging_quadri", D1, LinearMap.identity(2)).ok


# -- graph characterization -------------------------------------------------------

# a one-entry perturbation of the identity, which breaks the graph of rich_dendriform
T_BAD = LinearMap.from_strings(
    [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "1"]]
)
SKEW = LinearMap.from_strings([["1", "0"], ["0", "-1"]])


def random_graph_cases():
    """(representation, T) of 200 seeded draws over a pool of dim-2 dendriform algebras."""
    rng = random.Random(777)
    pool = dendriform_pool(rng, 12, dim=2)
    for _ in range(200):
        rep = RepresentationBundle.adjoint(rng.choice(pool))
        T = rand_matrix(rng, 2, 2, GRID3) if rng.random() < 0.7 else (
            LinearMap.zero(2, 2) if rng.random() < 0.5 else LinearMap.identity(2)
        )
        yield rep, T


def graph_closure_cases() -> list:
    """(container, matrix, direction) of every graph closure case of the tests below."""
    zero_rep = RepresentationBundle.adjoint(zero_bundle("dendriform", 2, ("prec", "succ")))
    rich = hemi_semidirect(RepresentationBundle.adjoint(rich_dendriform()))
    D = load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 1})
    dsum = direct_sum_quadri(D, D)
    return [
        (hemi_semidirect(zero_rep), LinearMap.zero(2, 2), "module_to_base"),
        (rich, LinearMap.identity(4), "module_to_base"),
        (rich, T_BAD, "module_to_base"),
        *((hemi_semidirect(rep), T, "module_to_base") for rep, T in random_graph_cases()),
        (dsum, LinearMap.identity(2), "base_to_module"),
        (dsum, SKEW, "base_to_module"),
    ]


def test_graph_biconditional_examples():
    zero_dend = zero_bundle("dendriform", 2, ("prec", "succ"))
    rep = RepresentationBundle.adjoint(zero_dend)
    container = hemi_semidirect(rep)
    ok, _ = graph_is_subalgebra(container, LinearMap.zero(2, 2))
    assert ok
    D = rich_dendriform()
    rep = RepresentationBundle.adjoint(D)
    container = hemi_semidirect(rep)
    T = LinearMap.identity(4)
    ok, _ = graph_is_subalgebra(container, T)
    assert ok == verify_operator("relative_averaging", rep, T).ok
    # perturbed operator: one entry changed breaks the graph with a witness
    ok_graph, report = graph_is_subalgebra(container, T_BAD)
    assert ok_graph == verify_operator("relative_averaging", rep, T_BAD).ok
    assert not ok_graph
    assert report.entries


def test_graph_biconditional_random_agreement():
    cases = list(random_graph_cases())
    passes = 0
    for rep, T in cases:
        graph_ok, _ = graph_is_subalgebra(hemi_semidirect(rep), T)
        direct_ok = verify_operator("relative_averaging", rep, T).ok
        assert graph_ok == direct_ok
        passes += 1 if direct_ok else 0
    assert len(cases) == 200
    assert passes > 0  # the biconditional was exercised on both sides


def test_graph_of_morphism_direction():
    # direct-sum container: the graph of xi is a subalgebra iff xi is a morphism
    D = load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 1})
    container = direct_sum_quadri(D, D)
    ok, _ = graph_is_subalgebra(container, LinearMap.identity(2), direction="base_to_module")
    assert ok  # identity is a morphism D -> D
    ok_skew, _ = graph_is_subalgebra(container, SKEW, direction="base_to_module")
    assert ok_skew == check_homomorphism("quadri_dendriform", SKEW, D, D).ok


# -- equation extraction ------------------------------------------------------------

def test_emit_system_one_dim_averaging_is_empty():
    A = bundle("associative", 1, [], [["1"]], mu=[(1, 1, 1, "1")])
    assert emit_operator_system(A, "averaging_assoc") == []


def test_emit_system_zero_algebra_empty():
    zero = zero_bundle("quadri_dendriform", 2,
                       ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"),
                       alpha=LinearMap.zero(2, 2))
    assert emit_operator_system(zero, "averaging_quadri") == []


def test_emit_system_family_substitution_agreement():
    # substituting a printed family into the extracted system gives all zeros
    # exactly when the family verifies
    D3 = load_algebra(CORPUS_ROOT / "dim2" / "D3_literal.json")
    system = emit_operator_system(D3, "averaging_quadri", unknown_prefix="u")
    bindings = {"u11": P("t22"), "u12": P("0"), "u21": P("0"), "u22": P("t22")}
    substituted = [substitute(eq, bindings) for eq in system]
    assert all(p.is_zero() for p in substituted) == verify_operator(
        "averaging_quadri", D3, LinearMap.from_strings([["t22", "0"], ["0", "t22"]])
    ).ok


def test_emit_system_name_collision():
    D = bundle("associative", 1, ["t11"], [["t11"]], mu=[(1, 1, 1, "1")])
    with pytest.raises(ValueError, match="collide"):
        emit_operator_system(D, "averaging_assoc")


# -- grid solving ---------------------------------------------------------------------

def test_solver_zero_algebra_returns_commutant_grid():
    zero = zero_bundle("quadri_dendriform", 2,
                       ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"))
    # alpha = identity: every grid matrix commutes and trivially verifies
    sols = solve_operators_grid(zero, "averaging_quadri", GRID3)
    assert len(sols) == 3 ** 4


def test_solver_dim2_D3_contains_zero_and_identity():
    D3 = load_algebra(CORPUS_ROOT / "dim2" / "D3_literal.json").specialize({"b": 1})
    sols = solve_operators_grid(D3, "averaging_quadri", [Fraction(0), Fraction(1)])
    assert LinearMap.zero(2, 2) in sols
    assert LinearMap.identity(2) in sols
    family = LinearMap.from_strings([["t22", "0"], ["0", "t22"]])
    for sol in sols:
        assert family_membership(family, sol) is not None


def test_solver_agrees_with_verifier():
    D1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": 0})
    sols = solve_operators_grid(D1, "averaging_quadri", GRID3)
    for sol in sols:
        assert verify_operator("averaging_quadri", D1, sol).ok
    # deterministic output: sorted by row-major entries
    flat = [tuple(c.as_fraction() for row in m.entries for c in row) for m in sols]
    assert flat == sorted(flat)


def test_solver_refuses_symbolic_and_large():
    D1 = load_algebra(CORPUS_ROOT / "dim2" / "D1.json")
    with pytest.raises(ValueError, match="parameter-free"):
        solve_operators_grid(D1, "averaging_quadri", GRID3)


def test_family_membership():
    family = LinearMap.from_strings([["t11", "0"], ["t21", "t11"]])
    member = LinearMap.from_fractions([[2, 0], [-1, 2]])
    non_member = LinearMap.from_fractions([[2, 0], [-1, 3]])
    assert family_membership(family, member) == {"t11": Fraction(2), "t21": Fraction(-1)}
    assert family_membership(family, non_member) is None


# -- induced-structure invariants -------------------------------------------------------

def test_averaging_induced_transfer_random():
    rng = random.Random(31)
    from helpers import associative_pool

    count = 0
    for A in associative_pool(rng, 15, dim=2):
        for H in (LinearMap.zero(2, 2), LinearMap.identity(2), rand_matrix(rng, 2, 2, GRID3)):
            if verify_operator("averaging_assoc", A, H).ok:
                induced = averaging_induced_diassociative(A, H)
                assert check_diassociative(induced).ok
                count += 1
    assert count >= 30


def test_rota_baxter_induced_transfer_and_reverification():
    D = sec2_diassociative().specialize({"a": 1})
    R = LinearMap.from_strings([["0", "0", "0"], ["0", "0", "0"], ["0", "r32", "r33"]])
    assert verify_operator("rota_baxter", D, R).ok
    induced = rota_baxter_induced(D, R)
    assert check_diassociative(induced).ok
    # R stays Rota-Baxter on the induced structure
    assert verify_operator("rota_baxter", induced, R).ok
