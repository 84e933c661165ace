"""Exact linear algebra over the rationals: integer elimination, Fraction results.

Small and deliberate: reduced row echelon form, rank, the matrix of the
reduction modulo a row space, nullspace, linear solve, determinant, inverse,
the characteristic polynomial via Faddeev-LeVerrier, and the linear part of
the grid searches: the equations of the matrices intertwining two twists, the
combinations of a basis and the pruned depth-first walk over a grid.

Entries are ints or Fractions; anything else (a float above all) is a
TypeError.  The eliminations run on ints: each row is multiplied by the least
common multiple of its own denominators, which changes neither its row space
nor its zero pattern.  Elimination is fraction-free: a row is cleared at a
pivot as p * row - f * pivot_row and then divided by the gcd of its entries,
and the determinant is Bareiss's, whose divisions are exact (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  Fractions are made only for the
returned values; RREF, determinant and characteristic polynomial are unique,
so they do not depend on how they were computed.  No pivots are chosen for
numerical reasons (there is no rounding), only for determinism: first
nonzero entry in column order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

Row = list
Matrix = list


def _exact(value):
    """`value` if it is an int or a Fraction; anything else is a TypeError,
    since a float would carry its binary rounding (0.1 is
    3602879701896397/36028797018963968)."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(value).__name__} {value!r}")
    return value


def _int_row(row) -> tuple:
    """(L, row * L as ints), L the least common multiple of the denominators
    of the row's entries."""
    row = list(row)
    scale = 1
    for value in row:
        if type(value) is not int:
            scale = math.lcm(scale, _exact(value).denominator)
    if scale == 1:
        return 1, [value if type(value) is int else value.numerator for value in row]
    return scale, [value.numerator * (scale // value.denominator) for value in row]


def _int_rows(rows) -> Matrix:
    return [_int_row(row)[1] for row in rows]


def _eliminate(m: Matrix, reduced: bool = True) -> list[int]:
    """Row-reduce the int rows `m` in place and return the pivot columns.

    Afterwards the first len(pivots) rows are the nonzero ones, in echelon
    form, each a nonzero multiple of the matching row of the reduced echelon
    form when `reduced` (every pivot then the only nonzero entry of its
    column); without `reduced` only the rows below a pivot are cleared."""
    pivots: list[int] = []
    nrows = len(m)
    r = 0
    for c in range(len(m[0]) if m else 0):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(0 if reduced else r + 1, nrows):
            f = m[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(m[i], pivot_row)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = _int_rows(rows)
    pivots = _eliminate(m)
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)], pivots


def rank(rows) -> int:
    return len(_eliminate(_int_rows(rows), reduced=False))


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
    m = _int_rows(rows)
    if ncols is None:
        if not m:
            raise ValueError("ncols required for an empty system")
        ncols = len(m[0])
    pivots = _eliminate(m)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
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


def combination(basis, coefficients, ncols: int) -> tuple:
    """sum_k coefficients[k] * basis[k] as a tuple of length `ncols`, exact:
    ints where integral, Fractions otherwise."""
    point = [0] * ncols
    for c, vector in zip(coefficients, basis):
        if c:
            for col, b in enumerate(vector):
                if b:
                    point[col] += c * b
    return tuple(map(_narrow, point))


def grid_walk(nvars: int, values, accept):
    """Yield, in order, the points of itertools.product(sorted(set(values)),
    repeat=nvars) that `accept(point, depth)` admits at every depth: it is
    asked at each node of a depth-first walk, the root (depth 0) included,
    with the first `depth` coordinates of `point` bound, and a refused prefix
    is never extended.  Values are exact: ints where integral."""
    values = sorted({_narrow(Fraction(v)) for v in values})
    point = [0] * nvars

    def walk(depth):
        if not accept(point, depth):
            return
        if depth == nvars:
            yield tuple(point)
            return
        for value in values:
            point[depth] = value
            yield from walk(depth + 1)

    return walk(0)


def solve(rows, rhs) -> Row | None:
    """One solution of A x = b (free variables set to 0), or None."""
    rows, rhs = list(rows), list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("right-hand side length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    m = _int_rows(list(row) + [bv] for row, bv in zip(rows, rhs))
    pivots = _eliminate(m)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[-1], row[pc])
    return x


def _bareiss(m: Matrix) -> int:
    """The determinant of the square int matrix `m`, destroyed in place.
    Every division is exact: after step k, entry (i, j) is a minor of the
    input (Sylvester's identity), and the previous pivot divides it."""
    n = len(m)
    sign, previous = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    break
            else:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // previous
        previous = p
    return sign * m[n - 1][n - 1] if n else 1


def determinant(matrix) -> Fraction:
    scaled = [_int_row(row) for row in matrix]
    n = len(scaled)
    if any(len(row) != n for _, row in scaled):
        raise ValueError("determinant needs a square matrix")
    return Fraction(
        _bareiss([row for _, row in scaled]), math.prod(scale for scale, _ in scaled)
    )


def inverse(matrix) -> Matrix | None:
    rows = list(matrix)
    n = len(rows)
    m = _int_rows(list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows))
    pivots = _eliminate(m)
    if pivots[:n] != list(range(n)):
        return None
    return [[Fraction(v, row[i]) for v in row[n:]] for i, row in enumerate(m[:n])]


def matmul(a, b) -> Matrix:
    a = [[_exact(v) for v in row] for row in a]
    b = [[_exact(v) for v in row] for row in b]
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def charpoly(matrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - A) = x^n + c1 x^(n-1) + ... + cn.

    Faddeev-LeVerrier on the int matrix B = L A, L the least common multiple
    of A's denominators: M_1 = I, c_k = -trace(B M_k) / k and M_(k+1) =
    B M_k + c_k I.  The c_k of an int matrix are ints, so every division is
    exact, and det(xI - A) = det(Lx I - B) / L^n gives A's c_k as c_k / L^k."""
    scaled = [_int_row(row) for row in matrix]
    n = len(scaled)
    if any(len(row) != n for _, row in scaled):
        raise ValueError("charpoly needs a square matrix")
    common = math.lcm(*(scale for scale, _ in scaled))
    b = [[v * (common // scale) for v in row] for scale, row in scaled]
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        columns = list(zip(*m))
        m = [[sum(map(mul, row, column)) for column in columns] for row in b]
        ck = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck
    return [Fraction(c, common**k) for k, c in enumerate(coeffs)]
