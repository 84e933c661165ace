import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

import oracle
from homsplit import linalg


def rand_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_rank_against_sympy():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = rand_matrix(rng, rows, cols)
        echelon, pivots = linalg.rref(m)
        sm = sp.Matrix(m)
        assert len(echelon) == sm.rank()
        assert list(pivots) == list(sm.rref()[1])
        expected = sm.rref()[0].tolist()[: len(echelon)]
        assert [[Fraction(x) for x in row] for row in expected] == echelon


def test_nullspace_matches_sympy_dimension_and_membership():
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = rand_matrix(rng, rows, cols)
        basis = linalg.nullspace(m, ncols=cols)
        assert len(basis) == cols - sp.Matrix(m).rank()
        for vec in basis:
            product = sp.Matrix(m) * sp.Matrix(cols, 1, vec)
            assert all(x == 0 for x in product)


def test_solve_against_sympy():
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = rand_matrix(rng, rows, cols)
        rhs = [Fraction(rng.randrange(-3, 4)) for _ in range(rows)]
        ours = linalg.solve(m, rhs)
        theirs = list(sp.linsolve((sp.Matrix(m), sp.Matrix(rows, 1, rhs))))
        if ours is None:
            assert not theirs
        else:
            product = sp.Matrix(m) * sp.Matrix(cols, 1, ours)
            assert [x for x in product] == list(rhs)


def test_determinant_inverse_charpoly_against_sympy():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n, n)
        sm = sp.Matrix(m)
        assert linalg.determinant(m) == Fraction(sm.det())
        inv = linalg.inverse(m)
        if sm.det() == 0:
            assert inv is None
        else:
            assert sp.Matrix(inv) == sm.inv()
        ours = linalg.charpoly(m)
        theirs = sp.Poly(sm.charpoly(sp.Symbol("x")), sp.Symbol("x")).all_coeffs()
        assert [Fraction(c) for c in theirs] == list(ours)


def test_reduce_against_row_space():
    echelon, pivots = linalg.rref([[1, 0, 2], [0, 1, 1]])
    reduction = linalg.reduction_matrix(echelon, pivots, 3)
    reduce = lambda vec: linalg.matmul(reduction, [[v] for v in vec])
    assert reduce([1, 1, 3]) == [[0], [0], [0]]
    assert reduce([0, 0, 1]) == [[0], [0], [1]]
    assert reduce([2, 3, 0]) == [[0], [0], [-7]]
    for vec in ([1, 1, 3], [0, 0, 1], [2, 3, 0], [5, -1, 4]):
        once = [row[0] for row in reduce(vec)]
        assert reduce(once) == [[v] for v in once]  # a projection


# -- integer kernels against the oracle and sympy on the shapes the search uses --

BIG = 2**64 + 13


def hard_matrix(rng, rows, cols, max_den=7):
    """Mostly zeros and small values, with denominators up to `max_den`, a few
    numerators above 2^64, and repeated and zero rows."""
    m = []
    for _ in range(rows):
        roll = rng.random()
        if m and roll < 0.15:
            m.append(list(rng.choice(m)))
        elif roll < 0.25:
            m.append([Fraction(0)] * cols)
        else:
            m.append([
                rng.choice([
                    0, 0, 0, 1, -1, rng.randrange(-9, 10),
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, max_den + 1)),
                    rng.choice([BIG, -BIG, Fraction(3 * BIG, 7)]),
                ])
                for _ in range(cols)
            ])
    return m


def fingerprint_shaped(rng, n=3):
    """(n^2 * 8) x n rows like the structure-constant rows of `fingerprint`:
    one row per (op, i, j) with the coordinates of e_i op e_j."""
    return [
        [rng.choice([0, 0, 0, 0, 1, -1, Fraction(1, 2), 2]) for _ in range(n)]
        for _ in range(8 * n * n)
    ]


def fractions(m):
    return [[Fraction(v) for v in row] for row in m]


def check_against_oracle(m, ncols):
    echelon, pivots = linalg.rref(m)
    assert (echelon, pivots) == oracle._rref(fractions(m), ncols)
    assert linalg.rank(m) == len(pivots)
    assert linalg.nullspace(m, ncols=ncols) == oracle._nullspace(fractions(m), ncols)
    if m and ncols:
        sm = sp.Matrix(m)
        reduced, sympy_pivots = sm.rref()
        assert list(pivots) == list(sympy_pivots)
        assert echelon == [[Fraction(int(x.p), int(x.q)) for x in row] for row in reduced.tolist()[: len(pivots)]]
        assert linalg.rank(m) == sm.rank()


def test_rref_rank_nullspace_on_tall_repeated_and_huge_rows():
    rng = random.Random(21)
    for _ in range(12):
        m = fingerprint_shaped(rng)
        check_against_oracle(m, 3)
    for _ in range(120):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 7)
        check_against_oracle(hard_matrix(rng, rows, cols), cols)


def test_rref_pivots_are_one_and_their_columns_clear():
    # a zero leading entry, negative pivots and entries above each pivot
    m = [[0, -2, 4, 1], [-3, 1, 0, 0], [6, -2, 1, Fraction(1, 7)], [0, 0, 0, 0]]
    echelon, pivots = linalg.rref(m)
    assert pivots == [0, 1, 2]
    for row, pc in zip(echelon, pivots):
        assert row[pc] == 1
        assert all(other[pc] == 0 for other in echelon if other is not row)
    check_against_oracle(m, 4)


def test_empty_and_degenerate_inputs():
    assert linalg.rref([]) == ([], []) and linalg.rref([[]]) == ([], [])
    assert linalg.rank([]) == 0 and linalg.rank([[]]) == 0 and linalg.rank([[0, 0]]) == 0
    assert linalg.nullspace([], ncols=2) == oracle._nullspace([], 2)
    assert linalg.nullspace([[]]) == []
    assert linalg.nullspace([[0, 0, 0]]) == oracle._nullspace([[0, 0, 0]], 3)
    assert linalg.determinant([]) == 1 == oracle._determinant([])
    assert linalg.charpoly([]) == [1]
    assert linalg.inverse([]) == []
    assert linalg.solve([], []) == []
    for call in (linalg.determinant, linalg.charpoly):
        with pytest.raises(ValueError):
            call([[]])
        with pytest.raises(ValueError):
            call([[1, 2]])


def test_determinant_inverse_charpoly_up_to_six():
    rng = random.Random(22)
    cases = [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [3, 0, 0], [1, 1, 1]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)]],
        [[BIG, 1], [1, BIG]],
    ]
    cases += [hard_matrix(rng, n, n) for n in range(1, 7) for _ in range(8)]
    for m in cases:
        sm = sp.Matrix(m)
        det = linalg.determinant(m)
        assert det == oracle._determinant(fractions(m))
        assert det == Fraction(int(sm.det().p), int(sm.det().q))
        inv = linalg.inverse(m)
        if det == 0:
            assert inv is None
        else:
            assert sp.Matrix(inv) == sm.inv()
        theirs = sp.Poly(sm.charpoly(sp.Symbol("x")), sp.Symbol("x")).all_coeffs()
        assert linalg.charpoly(m) == [Fraction(int(c.p), int(c.q)) for c in theirs]
    assert linalg.determinant([[0, 1], [1, 0]]) == -1
    assert linalg.charpoly([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == [1, Fraction(-5, 6), Fraction(1, 6)]


def test_solve_with_huge_and_fractional_right_hand_sides():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = hard_matrix(rng, rows, cols)
        rhs = [rng.choice([0, 1, Fraction(-2, 7), BIG]) for _ in range(rows)]
        ours = linalg.solve(m, rhs)
        solvable = bool(list(sp.linsolve((sp.Matrix(m), sp.Matrix(rows, 1, rhs)))))
        assert (ours is not None) == solvable
        if ours is not None:
            assert list(sp.Matrix(m) * sp.Matrix(cols, 1, ours)) == list(rhs)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: linalg.rref([[1, 0.5]]), id="rref"),
        pytest.param(lambda: linalg.rank([[0.25]]), id="rank"),
        pytest.param(lambda: linalg.nullspace([[1, 2.0]]), id="nullspace"),
        pytest.param(lambda: linalg.solve([[1]], [0.5]), id="solve"),
        pytest.param(lambda: linalg.determinant([[0.1]]), id="determinant"),
        pytest.param(lambda: linalg.inverse([[2.0]]), id="inverse"),
        pytest.param(lambda: linalg.charpoly([[1.5]]), id="charpoly"),
        pytest.param(lambda: linalg.matmul([[1]], [[0.1]]), id="matmul"),
        pytest.param(lambda: linalg.determinant([["1/2"]]), id="text"),
    ],
)
def test_entries_must_be_ints_or_fractions(call):
    # a float would be read with its binary rounding: 0.1 is not 1/10
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        call()


@pytest.mark.parametrize(
    "values", [[1, 0, -1, 0], [1, Fraction(-1, 2), Fraction(0), Fraction(1, 2), -1]]
)
def test_grid_walk_yields_the_admitted_product_points_with_ints_where_integral(values):
    # admit a prefix while its sum is <= 0: the points whose partial sums all
    # stay <= 0, in the order of the product over the sorted distinct values,
    # integral values as ints so that a compiled system runs on ints
    grid = sorted(set(values))
    calls = []

    def accept(point, depth):
        calls.append(tuple(point[:depth]))
        return sum(point[:depth]) <= 0

    points = list(linalg.grid_walk(3, values, accept))
    assert points == [
        p for p in itertools.product(grid, repeat=3) if all(sum(p[:k]) <= 0 for k in (1, 2, 3))
    ]
    assert all(type(v) is int for p in points for v in p if Fraction(v).denominator == 1)
    # the root once, then every value after each admitted inner prefix; a
    # refused prefix is never extended
    assert calls[0] == ()
    extended = [prefix for prefix in calls if len(prefix) < 3 and sum(prefix) <= 0]
    assert len(calls) == 1 + len(grid) * len(extended)
    assert all(sum(prefix[:-1]) <= 0 for prefix in calls[1:])


@pytest.mark.parametrize("values", [[-1, 0, 1], [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]])
def test_kernel_walk_yields_the_grid_kernel_with_ints_where_integral(values):
    # the kernel of 2 x2 = x0 + x1 on the grid, tested as soon as x2 is bound
    # the way a compiled system files an equation under its last coefficient;
    # an integral value must still come out an int, so that a compiled system
    # evaluated at the point runs on ints
    def accept(point, depth):
        return depth < 3 or 2 * point[2] == point[0] + point[1]

    points = list(linalg.grid_walk(3, values, accept))
    assert points == [p for p in itertools.product(values, repeat=3) if 2 * p[2] == p[0] + p[1]]
    assert all(type(v) is int for p in points for v in p if Fraction(v).denominator == 1)


def test_grid_walk_at_the_root():
    assert list(linalg.grid_walk(0, [1, 2], lambda point, depth: True)) == [()]
    assert list(linalg.grid_walk(2, [1, 2], lambda point, depth: depth == 0)) == []
    assert list(linalg.grid_walk(2, [1, 2], lambda point, depth: False)) == []
    assert list(linalg.grid_walk(1, [], lambda point, depth: True)) == []
