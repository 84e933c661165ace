"""Exact linear algebra over the rationals (fractions.Fraction throughout).

Small and deliberate: reduced row echelon form, rank, the matrix of the
reduction modulo a row space, nullspace, linear solve, determinant, inverse,
the characteristic polynomial via Faddeev-LeVerrier, and the linear part of
the grid searches: the equations of the matrices intertwining two twists, the
grid combinations of a basis and the grid points of a kernel.  No pivots are
chosen for numerical reasons (there is no rounding), only for determinism:
first nonzero entry in column order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

Row = list
Matrix = list


def _as_fraction_rows(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = _as_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def reduction_matrix(echelon, pivots, ncols: int) -> Matrix:
    """The matrix R with R v = v reduced modulo the row space of a reduced
    echelon basis: each row is subtracted at its pivot, so
    R[k][c] = [k = c] - sum_r [c = pivot_r] row_r[k]."""
    m = [[Fraction(int(k == c)) for c in range(ncols)] for k in range(ncols)]
    for row, pivot in zip(echelon, pivots):
        for k in range(ncols):
            m[k][pivot] -= row[k]
    return m


def nullspace(rows, ncols: int | None = None) -> list[Row]:
    """Basis of {x : A x = 0}; one vector per free column, deterministic."""
    m = _as_fraction_rows(rows)
    if ncols is None:
        if not m:
            raise ValueError("ncols required for an empty system")
        ncols = len(m[0])
    if not m:
        echelon, pivots = [], []
    else:
        echelon, pivots = rref(m)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def intertwiner_equations(inner, outer) -> Matrix:
    """The linear system X inner = outer X in the entries of X, flattened
    row-major (len(outer) rows, len(inner) columns); one equation per entry."""
    rows, cols = len(outer), len(inner)
    equations = []
    for i in range(rows):
        for j in range(cols):
            coeff = [Fraction(0)] * (rows * cols)
            # (X inner - outer X)[i][j] = sum_k X[i][k] inner[k][j] - outer[i][k] X[k][j]
            for k in range(cols):
                coeff[i * cols + k] += inner[k][j]
            for k in range(rows):
                coeff[k * cols + j] -= outer[i][k]
            equations.append(coeff)
    return equations


def _narrow(value):
    """An integral Fraction as an int, so products of integral values stay
    in int arithmetic; the value (and its hash) is unchanged."""
    return value.numerator if value.denominator == 1 else value


def grid_combinations(basis, values, ncols: int):
    """Yield sum_k c_k basis[k] as a tuple for every coefficient tuple
    (c_1, ..., c_f) in itertools.product(values, repeat=f), in that order.
    Entries are exact: ints where integral, Fractions otherwise."""
    values = [_narrow(Fraction(v)) for v in values]
    sparse = [
        [(col, _narrow(Fraction(b))) for col, b in enumerate(vec) if b] for vec in basis
    ]
    for coefficients in itertools.product(values, repeat=len(sparse)):
        point = [0] * ncols
        for c, vec in zip(coefficients, sparse):
            if c:
                for col, b in vec:
                    point[col] += c * b
        yield tuple(point)


def grid_kernel_points(rows, ncols: int, values):
    """Yield every x with A x = 0 whose entries all lie in `values`, in
    lexicographic order (row-major order for a flattened matrix).

    The echelon form is taken with the columns reversed, so each pivot
    coordinate is a combination of free coordinates that come before it.  A
    depth-first walk over the coordinates in order runs each free one over
    the sorted values and computes each pivot one when it is reached,
    dropping the branch when that value is not in `values`."""
    values = sorted({_narrow(Fraction(v)) for v in values})
    allowed = set(values)
    echelon, pivots = rref([list(reversed(row)) for row in rows]) if rows else ([], [])
    dependent = {
        ncols - 1 - p: [(ncols - 1 - j, _narrow(-row[j])) for j in range(p + 1, ncols) if row[j]]
        for row, p in zip(echelon, pivots)
    }
    point = [0] * ncols

    def walk(position):
        if position == ncols:
            yield tuple(point)
            return
        terms = dependent.get(position)
        if terms is None:
            choices = values
        else:
            value = sum(c * point[k] for k, c in terms)
            choices = (value,) if value in allowed else ()
        for value in choices:
            point[position] = value
            yield from walk(position + 1)

    yield from walk(0)


def solve(rows, rhs) -> Row | None:
    """One solution of A x = b (free variables set to 0), or None."""
    m = _as_fraction_rows(rows)
    b = [Fraction(v) for v in rhs]
    if len(m) != len(b):
        raise ValueError("right-hand side length mismatch")
    if not m:
        return []
    ncols = len(m[0])
    augmented = [row + [bv] for row, bv in zip(m, b)]
    echelon, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(echelon, pivots):
        x[pc] = row[-1]
    return x


def determinant(matrix) -> Fraction:
    m = _as_fraction_rows(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def inverse(matrix) -> Matrix | None:
    m = _as_fraction_rows(matrix)
    n = len(m)
    augmented = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    echelon, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in echelon]


def matmul(a, b) -> Matrix:
    a = _as_fraction_rows(a)
    b = _as_fraction_rows(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def charpoly(matrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - A) = x^n + c1 x^(n-1) + ... + cn."""
    a = _as_fraction_rows(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("charpoly needs a square matrix")
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I ; c_k = -trace(A M_k) / k
        if k == 1:
            m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        else:
            m = matmul(a, m)
            ck = coeffs[-1]
            for i in range(n):
                m[i][i] += ck
        am = matmul(a, m)
        trace = sum((am[i][i] for i in range(n)), Fraction(0))
        coeffs.append(-trace / k)
    return coeffs
