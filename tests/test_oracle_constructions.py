"""Constructions: engine vs independent oracle.

The engine side is `homsplit.constructions` and `morphisms.push_forward`,
which read every value as the residuals of an identity from
`axioms.evaluate_templates` and evaluate the quotient templates; the oracle side
is the coordinate transcription in `oracle.py`.  Tensors, witness sets and
residuals are compared in Fraction mode on parameter-free inputs and in sympy
mode on symbolic ones.
"""

import itertools
import random

import pytest

from helpers import (
    VALUES,
    associative_pool,
    deta,
    op_sum,
    rand_matrix,
    random_action,
    random_bundle,
    random_op,
    sec2_diassociative,
    symbolic_matrix,
)
from oracle import (
    averaging_dias_tensors,
    embedding_action_tensors,
    perp_compat_violations,
    push_forward_tensors,
    quotient_oracle,
    relative_averaging_tensors,
    rota_baxter_tensors,
    scalar_tools,
)
from test_byte_identity import QUADRI_FOLDERS, corpus_algebra, quadri_contexts, specializations
from homsplit import linalg
from homsplit.constructions import (
    averaging_induced_diassociative,
    homomorphic_averaging_induced_six,
    quadri_embedding,
    quotient_dendriform,
    relative_averaging_induced_quadri,
    rota_baxter_induced,
    six_embedding,
)
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra
from homsplit.model import AlgebraBundle, RepresentationBundle
from homsplit.morphisms import push_forward

MODES = ("fraction", "sympy")


def assert_same_values(engine: dict, oracle: dict, conv, is_zero):
    """Engine {key: Polynomial} and oracle {key: scalar} agree on every key."""
    assert set(engine) == set(oracle)
    for key, value in engine.items():
        assert is_zero(conv(value) - oracle[key]), key


def assert_same_ops(bundle, expected: dict, mode, *sources):
    conv, is_zero = scalar_tools(mode, *sources)
    assert set(expected) <= set(bundle.ops)
    for name, tensor in expected.items():
        assert_same_values(dict(bundle.op(name).constants), tensor, conv, is_zero)


def operator(rng, rows, cols, mode):
    """A parameter-free operator for Fraction mode, an unknown one for sympy."""
    if mode == "fraction":
        return rand_matrix(rng, rows, cols, VALUES)
    return symbolic_matrix(rows, cols)


@pytest.mark.parametrize("mode", MODES)
def test_averaging_induced_diassociative_agrees_with_oracle(mode):
    rng = random.Random(21)
    algebras = associative_pool(rng, 3) + [random_bundle(rng, "associative", 3)]
    for algebra in algebras:
        H = operator(rng, algebra.dim, algebra.dim, mode)
        induced = averaging_induced_diassociative(algebra, H, force=True)
        assert_same_ops(induced, averaging_dias_tensors(algebra, H, mode), mode, algebra, H)


@pytest.mark.parametrize("mode", MODES)
def test_rota_baxter_induced_agrees_with_oracle(mode):
    rng = random.Random(22)
    D = sec2_diassociative()
    algebras = [random_bundle(rng, "diassociative", dim) for dim in (1, 2, 3)]
    algebras.append(D if mode == "sympy" else D.specialize({"a": rng.choice(VALUES)}))
    for algebra in algebras:
        R = operator(rng, algebra.dim, algebra.dim, mode)
        induced = rota_baxter_induced(algebra, R, force=True)
        assert_same_ops(induced, rota_baxter_tensors(algebra, R, mode), mode, algebra, R)


@pytest.mark.parametrize("mode", MODES)
def test_relative_averaging_and_havg_six_agree_with_oracle(mode):
    rng = random.Random(23)
    for base_dim, module_dim in ((1, 2), (2, 1), (2, 3), (3, 2)):
        action = random_action(rng, base_dim, module_dim)
        rep = action.representation()
        T = operator(rng, base_dim, module_dim, mode)
        expected = relative_averaging_tensors(rep, T, mode)
        quadri = relative_averaging_induced_quadri(rep, T, force=True)
        assert_same_ops(quadri, expected, mode, rep, T)
        six = homomorphic_averaging_induced_six(action, T, force=True)
        assert_same_ops(six, expected, mode, action, T)
        assert six.op("prec_perp") == action.acted.op("prec")
        assert six.op("succ_perp") == action.acted.op("succ")
    if mode == "sympy":
        rep = RepresentationBundle.adjoint(deta())
        T = rand_matrix(rng, 3, 3, VALUES)
        quadri = relative_averaging_induced_quadri(rep, T, force=True)
        assert_same_ops(quadri, relative_averaging_tensors(rep, T, mode), mode, rep, T)


def invertible(rng, dim):
    while True:
        S = rand_matrix(rng, dim, dim, VALUES)
        if linalg.determinant(S.to_fraction_rows()) != 0:
            return S


@pytest.mark.parametrize("mode", MODES)
def test_push_forward_agrees_with_oracle(mode):
    rng = random.Random(24)
    bundles = [
        random_bundle(rng, kind, dim)
        for kind in ("six_dendriform", "dendriform")
        for dim in (1, 2, 3)
    ]
    if mode == "sympy":
        bundles += [deta(), sec2_diassociative()]
    for bundle in bundles:
        S = invertible(rng, bundle.dim)
        moved = push_forward(bundle, S)
        assert_same_ops(moved, push_forward_tensors(bundle, S, mode), mode, bundle)


def quadri_cases():
    """Parameter-free quadri bundles: the dim-2/dim-3 corpus entries at the
    parameter values 0 and 1, and seeded random bundles of dimensions 1-3."""
    cases = []
    for entry in list_entries():
        if entry["type"] == "algebra" and entry["path"].startswith(("dim2/", "dim3/")):
            bundle = load_algebra(CORPUS_ROOT / entry["path"])
            names = list(bundle.parameters)
            for combo in itertools.product((0, 1), repeat=len(names)):
                cases.append(bundle.specialize(dict(zip(names, combo))))
    rng = random.Random(25)
    for dim in (1, 2, 3):
        for count in (1, 2, 3):
            for _ in range(4):
                cases.append(random_bundle(rng, "quadri_dendriform", dim, count))
                cases.append(small_ideal_bundle(rng, dim, count + 2))
    return cases


def small_ideal_bundle(rng, dim, count):
    """A random quadri bundle whose flavors differ in one structure constant,
    so that I_D has dimension at most 1 and the closure conditions bite."""
    base = random_bundle(rng, "dendriform", dim, count)
    shift = random_op(rng, dim, dim, dim, 1)
    ops = {
        "prec_vdash": base.op("prec"),
        "prec_dashv": op_sum(base.op("prec"), shift),
        "succ_vdash": base.op("succ"),
        "succ_dashv": base.op("succ"),
    }
    return AlgebraBundle("quadri_dendriform", dim, ops, base.twist, ())


def engine_values(report) -> dict:
    return {(v.template, v.witness): v.residual for v in report.entries}


@pytest.mark.parametrize("mode", MODES)
def test_quotient_and_quadri_embedding_agree_with_oracle(mode):
    outcomes = set()
    for bundle in quadri_cases():
        conv, is_zero = scalar_tools(mode, bundle)
        result = quotient_dendriform(bundle)
        expected = quotient_oracle(bundle, mode)
        assert_same_values(engine_values(result.report), expected["violations"], conv, is_zero)
        assert result.ok == (not expected["violations"])
        outcomes.add(result.ok)
        if not result.ok:
            continue
        assert list(result.complement) == expected["complement"]
        for flavor in ("prec", "succ"):
            got = dict(result.bundle.op(flavor).constants)
            assert_same_values(got, expected["ops"][flavor], conv, is_zero)
        for got, want in ((result.bundle.twist, expected["twist"]),
                          (result.projection, expected["projection"])):
            assert len(got.entries) == len(want)
            for got_row, want_row in zip(got.entries, want):
                assert all(is_zero(conv(a) - b) for a, b in zip(got_row, want_row))
        rep = quadri_embedding(bundle).representation
        actions = embedding_action_tensors(bundle, result.complement, mode)
        for name, tensor in actions.items():
            assert_same_values(dict(rep.action(name).constants), tensor, conv, is_zero)
    assert outcomes == {False, True}


@pytest.mark.parametrize("mode", MODES)
def test_perp_compat_agrees_with_oracle(mode):
    rng = random.Random(26)
    outcomes = set()
    for quadri in quadri_cases():
        ops = dict(quadri.ops)
        extra = random_bundle(rng, "dendriform", quadri.dim, 2)
        ops["prec_perp"] = rng.choice((quadri.op("prec_dashv"), extra.op("prec")))
        ops["succ_perp"] = rng.choice((quadri.op("succ_dashv"), extra.op("succ")))
        six = AlgebraBundle("six_dendriform", quadri.dim, ops, quadri.twist, ())
        result = six_embedding(six)
        if not result.quotient.ok:
            continue
        conv, is_zero = scalar_tools(mode, six)
        expected = perp_compat_violations(six, mode)
        assert_same_values(engine_values(result.report), expected, conv, is_zero)
        outcomes.add(result.ok)
    assert outcomes == {False, True}


def test_the_two_flavors_agree_on_every_closed_quotient():
    """P(C r vdash C s) - P(C r dashv C s) is P applied to a generator of I_D,
    and P kills I_D, so the oracle's flavor check never fires; the engine
    does not evaluate it.  The cases are the random quadri bundles and the
    pinned quotient contexts of `test_byte_identity`."""
    pinned = [
        special
        for _, path in quadri_contexts(QUADRI_FOLDERS)
        for _, special in specializations(corpus_algebra(path))
    ]
    closed = 0
    for bundle in quadri_cases() + pinned:
        expected = quotient_oracle(bundle)
        assert not any(t.startswith("quotient.flavor-mismatch") for t, _ in expected["violations"])
        closed += "ops" in expected
        assert ("ops" in expected) == quotient_dendriform(bundle).ok
    assert closed > 100
