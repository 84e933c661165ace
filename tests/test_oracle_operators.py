"""Operator, homomorphism and graph identities: engine vs independent oracle.

The engine side is `homsplit.operators.verify_operator` and
`homsplit.axioms.check_homomorphism`, which evaluate templates; the oracle side
is the coordinate transcription in `oracle.py`.  Each comparison is of the full
(template, witness) sets, in Fraction mode on parameter-free inputs and in
sympy mode on symbolic ones.
"""

import random

import pytest

from helpers import (
    VALUES,
    associative_pool,
    deta,
    rand_matrix,
    random_action,
    random_bundle,
    rich_dendriform,
    sec2_diassociative,
    symbolic_matrix,
)
from oracle import engine_violation_set, homomorphism_violations, operator_violations
from homsplit.axioms import check_homomorphism
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra, load_operator
from homsplit.model import KIND_OPS, ActionBundle, LinearMap, RepresentationBundle
from homsplit.operators import verify_operator
from homsplit.poly import Polynomial


def corpus_operators():
    entries = list_entries()
    paths = {e["id"]: e["path"] for e in entries}
    out = []
    for e in entries:
        if e["type"] == "operator":
            kind, matrix = load_operator(CORPUS_ROOT / e["path"])
            out.append((e["id"], kind, load_algebra(CORPUS_ROOT / paths[e["algebra"]]), matrix))
    return out


def agree(kind, context, matrix, mode, strict_twist=False) -> set:
    report = verify_operator(kind, context, matrix, strict_twist=strict_twist)
    engine = engine_violation_set(report)
    assert engine == operator_violations(kind, context, matrix, mode, strict_twist)
    return engine


def perturbed(rng, matrix: LinearMap) -> LinearMap:
    rows = [list(row) for row in matrix.entries]
    i, j = rng.randrange(matrix.dim_out), rng.randrange(matrix.dim_in)
    rows[i][j] = rows[i][j] + Polynomial.constant(rng.choice(VALUES))
    return LinearMap.from_rows(rows)


def test_corpus_operator_entries_agree_with_oracle_symbolically():
    rng = random.Random(3)
    for eid, kind, context, matrix in corpus_operators():
        agree(kind, context, matrix, "sympy")
        agree(kind, context, perturbed(rng, matrix), "sympy")


def test_corpus_operator_entries_agree_with_oracle_specialized():
    rng = random.Random(4)
    failing = 0
    for eid, kind, context, matrix in corpus_operators():
        for candidate in (matrix, perturbed(rng, matrix)):
            names = sorted(set(context.parameters) | candidate.parameters())
            values = {name: rng.choice(VALUES) for name in names}
            ctx = context.specialize({n: v for n, v in values.items() if n in context.parameters})
            failing += bool(agree(kind, ctx, candidate.specialize(values), "fraction"))
    assert failing  # the perturbations do reach the failure path


@pytest.mark.parametrize("strict_twist", [False, True])
def test_averaging_assoc_agrees_with_oracle(strict_twist):
    rng = random.Random(5)
    for algebra in associative_pool(rng, 4):
        agree("averaging_assoc", algebra, rand_matrix(rng, 2, 2), "fraction", strict_twist)
        agree("averaging_assoc", algebra, symbolic_matrix(2, 2), "sympy", strict_twist)


def test_rota_baxter_agrees_with_oracle():
    rng = random.Random(6)
    D = sec2_diassociative()
    for _ in range(4):
        R = rand_matrix(rng, 3, 3)
        agree("rota_baxter", D, R, "sympy")
        agree("rota_baxter", D.specialize({"a": rng.choice(VALUES)}), R, "fraction")
    agree("rota_baxter", random_bundle(rng, "diassociative", 2), symbolic_matrix(2, 2), "sympy")


def test_averaging_quadri_agrees_with_oracle_on_random_bundles():
    rng = random.Random(7)
    for dim in (1, 2, 3):
        algebra = random_bundle(rng, "quadri_dendriform", dim)
        agree("averaging_quadri", algebra, rand_matrix(rng, dim, dim), "fraction")
        agree("averaging_quadri", algebra, symbolic_matrix(dim, dim), "sympy")


def test_relative_averaging_agrees_with_oracle_across_module_dimensions():
    rng = random.Random(8)
    agree("relative_averaging", RepresentationBundle.adjoint(deta()), rand_matrix(rng, 3, 3), "sympy")
    agree("relative_averaging", RepresentationBundle.adjoint(rich_dendriform()),
          rand_matrix(rng, 4, 4), "fraction")
    for base_dim, module_dim in ((1, 2), (2, 1), (2, 3)):
        rep = random_action(rng, base_dim, module_dim).representation()
        agree("relative_averaging", rep, rand_matrix(rng, base_dim, module_dim), "fraction")
        agree("relative_averaging", rep, symbolic_matrix(base_dim, module_dim), "sympy")


def test_homomorphic_relative_averaging_agrees_with_oracle():
    rng = random.Random(9)
    agree("homomorphic_relative_averaging", ActionBundle.adjoint(deta()),
          rand_matrix(rng, 3, 3), "sympy")
    for base_dim, module_dim in ((2, 2), (2, 3), (3, 2)):
        action = random_action(rng, base_dim, module_dim)
        agree("homomorphic_relative_averaging", action,
              rand_matrix(rng, base_dim, module_dim), "fraction")
        agree("homomorphic_relative_averaging", action,
              symbolic_matrix(base_dim, module_dim), "sympy")


@pytest.mark.parametrize("kind", sorted(KIND_OPS))
def test_homomorphism_agrees_with_oracle(kind):
    rng = random.Random(10)
    for source_dim, target_dim in ((2, 2), (2, 3), (3, 1)):
        source = random_bundle(rng, kind, source_dim)
        target = random_bundle(rng, kind, target_dim)
        for T, mode in ((rand_matrix(rng, target_dim, source_dim), "fraction"),
                        (symbolic_matrix(target_dim, source_dim), "sympy")):
            engine = engine_violation_set(check_homomorphism(kind, T, source, target))
            assert engine == homomorphism_violations(T, source, target, mode)
