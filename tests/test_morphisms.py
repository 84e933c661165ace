import random
from fractions import Fraction

import pytest

from helpers import bundle, rich_dendriform, zero_bundle
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import LinearMap
from homsplit.morphisms import (
    brute_force_iso_search,
    fingerprint,
    push_forward,
    verify_isomorphism,
)

GRID = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]


def dim2_D1_at(a):
    return load_algebra(CORPUS_ROOT / "dim2" / "D1.json").specialize({"a": a})


def dim2_D2_at(a):
    return load_algebra(CORPUS_ROOT / "dim2" / "D2.json").specialize({"a": a})


def rand_invertible(rng, dim):
    while True:
        rows = [[rng.choice(GRID) for _ in range(dim)] for _ in range(dim)]
        from homsplit import linalg

        if linalg.determinant(rows) != 0:
            return LinearMap.from_fractions(rows)


# -- fingerprints -----------------------------------------------------------------

def test_fingerprint_zero_algebra():
    zero = zero_bundle(
        "quadri_dendriform", 3,
        ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"),
    )
    fp = fingerprint(zero)
    assert fp.total_span_dim == 0
    assert all(d == 0 for _, d in fp.op_span_dims)
    assert fp.twist_rank == 3  # identity twist
    assert fp.annihilator_dim == 3


def test_fingerprint_annihilator_needs_left_and_right_products():
    # e1 . e2 = e1: x . y = 0 for all y forces x1 = 0, y . x = 0 forces x2 = 0,
    # so either side alone leaves a line and both leave nothing
    one_product = bundle("associative", 2, (), [["1", "0"], ["0", "1"]], mu=[(1, 2, 1, 1)])
    fp = fingerprint(one_product)
    assert fp.annihilator_dim == 0
    assert fp.op_span_dims == (("mu", 1),)


def test_fingerprint_dim2_entries():
    fp1 = fingerprint(dim2_D1_at(0))
    assert fp1.total_span_dim == 1
    assert fp1.twist_rank == 1
    fp2 = fingerprint(dim2_D2_at(1))
    assert fp2.total_span_dim == 1
    assert fp2.twist_rank == 1
    assert fp1 != fp2  # charpolys differ: nilpotent vs diag(1,0)
    assert fp1.differing_fields(fp2) == ["twist_charpoly"]


def test_fingerprint_requires_parameter_free():
    with pytest.raises(ValueError):
        fingerprint(load_algebra(CORPUS_ROOT / "dim2" / "D1.json"))


def test_fingerprint_invariance_under_push_forward():
    rng = random.Random(42)
    targets = [dim2_D1_at(0), dim2_D2_at(1), rich_dendriform()]
    for _ in range(100):
        target = rng.choice(targets)
        S = rand_invertible(rng, target.dim)
        moved = push_forward(target, S)
        assert fingerprint(moved) == fingerprint(target)


# -- isomorphism verification ----------------------------------------------------------

def test_identity_isomorphism():
    D = dim2_D1_at(1)
    assert verify_isomorphism("quadri_dendriform", LinearMap.identity(2), D, D).ok


def test_zero_algebra_scalar_isomorphism():
    zero = zero_bundle("dendriform", 2, ("prec", "succ"))
    doubled = LinearMap.from_fractions([[2, 0], [0, 2]])
    assert verify_isomorphism("dendriform", doubled, zero, zero).ok


def test_singular_matrix_is_flagged():
    D = dim2_D1_at(1)
    singular = LinearMap.zero(2, 2)
    report = verify_isomorphism("quadri_dendriform", singular, D, D)
    assert any(v.template == "iso.singular" for v in report.entries)


def test_a_map_with_parameters_is_refused():
    """Whether det T vanishes depends on the values of T's parameters, so
    verify_isomorphism takes parameter-free maps only."""
    D = dim2_D1_at(1)
    scaled = LinearMap.from_strings([["t", "0"], ["0", "1"]])
    with pytest.raises(ValueError, match="parameter-free map.* t$"):
        verify_isomorphism("quadri_dendriform", scaled, D, D)


def test_push_forward_yields_isomorphism_positive_control():
    rng = random.Random(43)
    D = dim2_D1_at(0)
    for _ in range(20):
        S = rand_invertible(rng, 2)
        moved = push_forward(D, S)
        # S maps the pushed-forward structure back onto D
        assert verify_isomorphism("quadri_dendriform", S, moved, D).ok


# -- bounded search ----------------------------------------------------------------------

def test_search_zero_algebras_returns_minimal_identity_like_matrix():
    zero = zero_bundle("dendriform", 2, ("prec", "succ"))
    found = brute_force_iso_search(zero, zero, [Fraction(0), Fraction(1)])
    assert found is not None
    # canonical order: first invertible candidate is [[0,1],[1,0]]
    assert found.to_fraction_rows() == [[0, 1], [1, 0]]
    assert verify_isomorphism("dendriform", found, zero, zero).ok


def test_search_distinguishes_D1_and_D2():
    a, b = dim2_D1_at(0), dim2_D2_at(0)
    assert fingerprint(a) != fingerprint(b)
    assert brute_force_iso_search(a, b, GRID) is None


def test_search_finds_constructed_isomorphism():
    rng = random.Random(44)
    D = dim2_D1_at(0)
    S = rand_invertible(rng, 2)
    moved = push_forward(D, S)
    found = brute_force_iso_search(moved, D, GRID)
    assert found is not None
    assert verify_isomorphism("quadri_dendriform", found, moved, D).ok


def test_search_soundness_over_random_pairs():
    rng = random.Random(45)
    targets = [dim2_D1_at(0), dim2_D1_at(1), dim2_D2_at(0), dim2_D2_at(1)]
    for first in targets:
        for second in targets:
            found = brute_force_iso_search(first, second, [Fraction(-1), Fraction(0), Fraction(1)])
            if found is not None:
                assert verify_isomorphism(first.kind, found, first, second).ok
                assert fingerprint(first) == fingerprint(second)


def test_search_refuses_large_dimension():
    zero = zero_bundle("dendriform", 4, ("prec", "succ"))
    with pytest.raises(ValueError, match="dim <= 3"):
        brute_force_iso_search(zero, zero, [Fraction(0), Fraction(1)])
