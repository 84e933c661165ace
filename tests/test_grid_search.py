"""The grid searches against the candidate-by-candidate enumerators of the
oracle.

`solve_operators_grid` and `brute_force_iso_search` take their candidates
from the one routine `operators.grid_points`: it compiles the equations over
the coefficients c of a basis of the twist-commutation subspace (the
last-column echelon basis for iso, `row_major`) and walks c depth-first over
the grid (`linalg.grid_walk`), testing each equation as soon as its last
coefficient is bound.  `oracle.grid_operator_solutions` and
`oracle.first_grid_isomorphism` visit every candidate in plain Fractions and
check it in full.  Solution lists must agree in content and order, and the
first isomorphism must be the same matrix.  The searches return what the
compiled system accepts without checking it again, so every solution must
also pass `verify_operator` and every isomorphism `verify_isomorphism`.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from helpers import associative_pool, random_action, sec2_diassociative, zero_bundle
from oracle import first_grid_isomorphism, grid_operator_solutions
from homsplit import linalg
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import AlgebraBundle, BilinearOp, LinearMap, RepresentationBundle
from homsplit.morphisms import (
    brute_force_iso_search, fingerprint, push_forward, verify_isomorphism,
)
from homsplit.operators import solve_operators_grid, verify_operator
from homsplit.poly import CompiledSystem, IntegerForm, Polynomial

GRID = [Fraction(-1), Fraction(0), Fraction(1)]
# --grid=-1..1 --denominators 1,2
HALVES = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
QUADRI_OPS = ("prec_dashv", "prec_vdash", "succ_dashv", "succ_vdash")

DIM2 = ["D1", "D2", "D3_emended", "D3_literal", "D4", "D5"]
DIM3 = [f"D{k}" for k in range(1, 14)]


# small values for the sorted parameters of a symbolic entry, in turn
SPECIALIZATIONS = ((1, -1, 2), (0, 1, -1))


def corpus_contexts():
    """Every dim-2 and dim-3 table entry: the parameter-free ones as they
    are, the symbolic ones at small parameter values (dim 2 at both
    SPECIALIZATIONS, dim 3 at the first)."""
    out = []
    for folder, names, count in (("dim2", DIM2, 2), ("dim3", DIM3, 1)):
        for name in names:
            algebra = load_algebra(CORPUS_ROOT / folder / f"{name}.json")
            used = sorted(algebra.used_parameters())
            if not used:
                out.append((f"{folder}.{name}", algebra))
            for values in SPECIALIZATIONS[:count] if used else ():
                bindings = dict(zip(used, values))
                out.append((f"{folder}.{name}@{bindings}", algebra.specialize(bindings)))
    return out


def rows_of(matrices) -> list:
    return [m.to_fraction_rows() for m in matrices]


def found_rows(found):
    return None if found is None else found.to_fraction_rows()


def test_solve_matches_oracle_on_corpus_contexts():
    for label, context in corpus_contexts():
        grids = (GRID, HALVES) if context.dim == 2 else (GRID,)
        for grid in grids:
            expected = grid_operator_solutions("averaging_quadri", context, grid)
            solutions = solve_operators_grid(context, "averaging_quadri", grid)
            assert rows_of(solutions) == expected, label
            for solution in solutions:
                assert verify_operator("averaging_quadri", context, solution).ok, label


def test_iso_matches_oracle_on_corpus_contexts():
    rng = random.Random(11)
    found = 0
    for label, context in corpus_contexts():
        n = context.dim
        inside = LinearMap.from_fractions(
            [[rng.choice(GRID) for _ in range(n)] for _ in range(n)]
        )
        partners = [context]
        if linalg.determinant(inside.to_fraction_rows()):
            partners.append(push_forward(context, inside))
        if not context.parameters:
            # an entry of 2 keeps the inverse basis change off the grid
            partners.append(push_forward(context, LinearMap.from_fractions(
                [[1 if i == j else 0 for j in range(n)] for i in range(n - 1)]
                + [[2] + [0] * (n - 2) + [1]]
            )))
        for partner in partners:
            expected = first_grid_isomorphism(partner, context, GRID)
            isomorphism = brute_force_iso_search(partner, context, GRID)
            assert found_rows(isomorphism) == expected, label
            if isomorphism is not None:
                assert verify_isomorphism(context.kind, isomorphism, partner, context).ok, label
            found += expected is not None
    assert found >= len(corpus_contexts())  # every self pair at least


def test_iso_matches_oracle_on_halves_for_dim2_contexts():
    rng = random.Random(17)
    for label, context in corpus_contexts():
        if context.dim != 2:
            continue
        partners = [context]
        while len(partners) < 2:
            inside = LinearMap.from_fractions(
                [[rng.choice(HALVES) for _ in range(2)] for _ in range(2)]
            )
            if linalg.determinant(inside.to_fraction_rows()):
                partners.append(push_forward(context, inside))
        for partner in partners:
            expected = first_grid_isomorphism(partner, context, HALVES)
            assert found_rows(brute_force_iso_search(partner, context, HALVES)) == expected, label


def test_iso_answer_is_row_major_first_not_enumeration_first():
    # on this pair the first isomorphism in row-major order is not the first
    # in the order of the nullspace coefficients, whose pivot entries come
    # before free ones
    d2 = load_algebra(CORPUS_ROOT / "dim3" / "D2.json").specialize({"a": 1})
    moved = push_forward(d2, LinearMap.from_fractions([[0, 0, 1], [-1, 0, 1], [0, -1, -1]]))
    expected = first_grid_isomorphism(moved, d2, GRID)
    assert expected == [[0, 0, -1], [1, 0, -1], [-1, -1, 0]]
    assert found_rows(brute_force_iso_search(moved, d2, GRID)) == expected


def test_identity_twist_searches_every_coordinate():
    # all nine entries are free: the largest subspace the search can meet
    d4 = load_algebra(CORPUS_ROOT / "dim3" / "D4.json")
    plain = AlgebraBundle(d4.kind, 3, dict(d4.ops), LinearMap.identity(3), ())
    moved = push_forward(plain, LinearMap.from_fractions([[0, 1, 0], [1, 0, 1], [0, 0, -1]]))
    expected = first_grid_isomorphism(moved, plain, GRID)
    assert expected is not None
    assert found_rows(brute_force_iso_search(moved, plain, GRID)) == expected
    zero2 = zero_bundle("quadri_dendriform", 2, QUADRI_OPS)
    assert rows_of(solve_operators_grid(zero2, "averaging_quadri", HALVES)) == (
        grid_operator_solutions("averaging_quadri", zero2, HALVES)
    )


@pytest.mark.parametrize("grid", [[Fraction(0), Fraction(1)], GRID])
def test_zero_algebra_skips_singular_solutions(grid):
    # every matrix, the zero matrix first among them on [0, 1], satisfies
    # every homomorphism equation of the zero algebra; only det != 0 decides
    zero = zero_bundle("quadri_dendriform", 3, QUADRI_OPS)
    expected = first_grid_isomorphism(zero, zero, grid)
    assert found_rows(brute_force_iso_search(zero, zero, grid)) == expected


@pytest.mark.parametrize("strict_twist", [False, True])
def test_averaging_assoc_matches_oracle(strict_twist):
    # without strict_twist the grid runs over all four matrix entries
    for algebra in associative_pool(random.Random(12), 3):
        for grid in (GRID, HALVES):
            expected = grid_operator_solutions("averaging_assoc", algebra, grid, strict_twist)
            got = solve_operators_grid(algebra, "averaging_assoc", grid, strict_twist=strict_twist)
            assert rows_of(got) == expected


def test_rota_baxter_matches_oracle():
    for value in (0, 1, -1):
        algebra = sec2_diassociative().specialize({"a": value})
        assert rows_of(solve_operators_grid(algebra, "rota_baxter", GRID)) == (
            grid_operator_solutions("rota_baxter", algebra, GRID)
        )


@pytest.mark.parametrize("base_dim, module_dim", [(2, 1), (1, 2), (2, 3)])
def test_rectangular_relative_averaging_matches_oracle(base_dim, module_dim):
    rng = random.Random(13 + base_dim * 10 + module_dim)
    for _ in range(3):
        action = random_action(rng, base_dim, module_dim)
        rep = action.representation()
        assert rows_of(solve_operators_grid(rep, "relative_averaging", GRID)) == (
            grid_operator_solutions("relative_averaging", rep, GRID)
        )
        assert rows_of(
            solve_operators_grid(action, "homomorphic_relative_averaging", GRID)
        ) == grid_operator_solutions("homomorphic_relative_averaging", action, GRID)


def test_relative_averaging_on_an_algebra_uses_its_adjoint():
    algebra = load_algebra(CORPUS_ROOT / "sec2" / "dendriform_Deta.json")
    algebra = algebra.specialize({"eta": 1, "b": 0})
    assert rows_of(solve_operators_grid(algebra, "relative_averaging", GRID)) == (
        grid_operator_solutions("relative_averaging", RepresentationBundle.adjoint(algebra), GRID)
    )


def test_searches_build_no_polynomial_from_the_engine_residuals(monkeypatch):
    # the compiled system reads the engine's integers, twist commutation's
    # too: a residual Polynomial is built only when a report is written, and
    # neither the symbolic matrix nor a grid point is multiplied out
    d4 = load_algebra(CORPUS_ROOT / "dim3" / "D4.json")
    moved = push_forward(d4, LinearMap.from_fractions([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    calls = []
    for owner, name in (
        (IntegerForm, "polynomial"),
        (Polynomial, "__mul__"),
        (Polynomial, "__rmul__"),
        (LinearMap, "compose"),
    ):
        original = getattr(owner, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert solve_operators_grid(d4, "averaging_quadri", GRID)
    assert brute_force_iso_search(moved, d4, GRID) is not None
    assert calls == []


def counting_vanishes_at(monkeypatch) -> list:
    """Record the (bound coordinates of the) points `CompiledSystem.vanishes_at`
    is asked about, one per node of a search's walk."""
    seen = []
    original = CompiledSystem.vanishes_at

    def counted(self, point, depth=None):
        seen.append(tuple(point if depth is None else point[:depth]))
        return original(self, point, depth)

    monkeypatch.setattr(CompiledSystem, "vanishes_at", counted)
    return seen


def test_d13_walk_visits_the_pinned_node_count(monkeypatch):
    # D13 at a = b = c = 1 over -2..2: the 225 solutions of the exhaustive
    # search (their digest is that of the unpruned enumeration), reached in
    # 100,906 nodes, the root included, against 5^9 = 1,953,125 points
    d13 = load_algebra(CORPUS_ROOT / "dim3" / "D13.json").specialize({"a": 1, "b": 1, "c": 1})
    seen = counting_vanishes_at(monkeypatch)
    solutions = solve_operators_grid(d13, "averaging_quadri", range(-2, 3))
    text = json.dumps([[[str(v) for v in row] for row in rows] for rows in rows_of(solutions)])
    assert len(solutions) == 225
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "335379cee1620b6cc6397e95487fc5201b582a595f9a310e0765c4a367669cd4"
    )
    assert len(seen) == 100906


def test_fingerprints_of_the_corpus_contexts_are_pinned():
    # the digest of the fingerprints of all 25 contexts, recorded when the
    # fingerprint tables were still Fractions: building them as ints over one
    # lcm per op scales whole rows, which changes no rank
    prints = {label: fingerprint(context).to_dict() for label, context in corpus_contexts()}
    text = json.dumps(prints, sort_keys=True)
    assert len(prints) == 25
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3f656c7141062c39a69b9874ce548e270b071cadee5aafdcea646d246683795f"
    )


def test_fractional_basis_reaches_the_system_as_grid_values(monkeypatch):
    # the matrices commuting with [[0, 1], [2, 0]] have the first-column
    # echelon basis (0, 1/2, 1, 0), (1, 0, 0, 1): the solutions hold halves,
    # but the system is evaluated at the coefficients, which are grid ints
    alpha = LinearMap.from_fractions([[0, 1], [2, 0]])
    zero = zero_bundle("quadri_dendriform", 2, QUADRI_OPS, alpha)
    ops = dict(zero.ops, succ_vdash=BilinearOp.square(2, [(1, 1, 1, Polynomial.one())]))
    halves = []
    for context in (zero, AlgebraBundle(zero.kind, 2, ops, alpha, ())):
        seen = counting_vanishes_at(monkeypatch)
        solutions = rows_of(solve_operators_grid(context, "averaging_quadri", GRID))
        assert solutions == grid_operator_solutions("averaging_quadri", context, GRID)
        assert seen and all(type(v) is int and v in GRID for point in seen for v in point)
        halves.append(sum(rows[0][1].denominator == 2 for rows in solutions))
    assert halves == [6, 0]  # every commuting grid combination, then a pruned system


def test_a_declared_unused_parameter_leaves_solve_op_and_iso_as_they_are(tmp_path, capsys):
    # solve-op, emit-system and iso test the parameters a context uses: one
    # the algebra declares and never uses changes no answer
    from homsplit.cli import main
    from homsplit.files import algebra_to_dict, write_json

    d6 = load_algebra(CORPUS_ROOT / "dim3" / "D6.json")
    declared = AlgebraBundle(d6.kind, d6.dim, dict(d6.ops), d6.twist, ("a",))
    expected = solve_operators_grid(d6, "averaging_quadri", GRID)
    assert expected
    assert solve_operators_grid(declared, "averaging_quadri", GRID) == expected
    payloads = []
    for name, algebra in (("plain", d6), ("declared", declared)):
        path = tmp_path / f"{name}.json"
        write_json(path, algebra_to_dict(algebra))
        assert main(["solve-op", str(path), "--kind", "averaging_quadri", "--grid=-1..1"]) == 0
        summary, _, text = capsys.readouterr().out.partition("\n")
        payloads.append((summary, json.loads(text)["solutions"]))
    assert payloads[0] == payloads[1]
    assert brute_force_iso_search(declared, d6, GRID) == brute_force_iso_search(d6, d6, GRID)
