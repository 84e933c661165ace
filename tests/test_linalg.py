import random
from fractions import Fraction

import sympy as sp

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
