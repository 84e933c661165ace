"""Reference answers computed outside the timed region.

* `first_isomorphism` is an independent brute-force enumerator over a grid of
  integer matrices.  It visits candidates in the order the program documents
  (grid values sorted, matrix entries row-major) and checks invertibility,
  twist commutation and the homomorphism identities with plain Fractions,
  sharing no evaluation code with homsplit.
* `oracle_parts` runs the repository's independent oracle (tests/oracle.py,
  Fraction or sympy arithmetic) on the quadri-dendriform, six.dend and
  multiplicativity parts of a six-dendriform check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _tables(bundle) -> dict:
    return {
        name: [(i - 1, j - 1, k - 1, c.as_fraction()) for (i, j, k), c in op.constants]
        for name, op in bundle.ops.items()
    }


def _determinant(rows) -> Fraction:
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = Fraction(m[r][c]) / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def invertible(rows) -> bool:
    return _determinant(rows) != 0


def grid_index(rows, grid) -> int:
    """Position of a matrix in the row-major enumeration of grid^(n*n)."""
    index = 0
    for value in (v for row in rows for v in row):
        index = index * len(grid) + grid.index(value)
    return index


def grid_matrix(index: int, grid, n: int) -> list:
    flat = []
    for _ in range(n * n):
        index, digit = divmod(index, len(grid))
        flat.append(grid[digit])
    flat.reverse()
    return [flat[r * n : (r + 1) * n] for r in range(n)]


def _is_homomorphism(t, source: dict, target: dict, n: int) -> bool:
    for name, entries in source.items():
        lhs = {}
        for i, j, k, c in entries:
            # T(e_i op e_j) = sum_k c T e_k
            for r in range(n):
                if t[r][k]:
                    lhs[(i, j, r)] = lhs.get((i, j, r), 0) + c * t[r][k]
        rhs = {}
        for p, q, k, c in target[name]:
            # T e_i op' T e_j = sum_{p,q} T[p][i] T[q][j] (e_p op' e_q)
            for i in range(n):
                if not t[p][i]:
                    continue
                for j in range(n):
                    if t[q][j]:
                        rhs[(i, j, k)] = rhs.get((i, j, k), 0) + t[p][i] * t[q][j] * c
        if {key: v for key, v in lhs.items() if v} != {key: v for key, v in rhs.items() if v}:
            return False
    return True


def first_isomorphism(source, target, grid):
    """(index, matrix) of the first grid isomorphism source -> target, or None."""
    n = source.dim
    alpha_a = source.twist.to_fraction_rows()
    alpha_b = target.twist.to_fraction_rows()
    tables_a, tables_b = _tables(source), _tables(target)
    values = sorted(grid)
    for index, flat in enumerate(itertools.product(values, repeat=n * n)):
        t = [flat[r * n : (r + 1) * n] for r in range(n)]
        commutes = all(
            sum(t[i][k] * alpha_a[k][j] for k in range(n))
            == sum(alpha_b[i][k] * t[k][j] for k in range(n))
            for i in range(n)
            for j in range(n)
        )
        if not commutes or _determinant(t) == 0:
            continue
        if _is_homomorphism(t, tables_a, tables_b, n):
            return index, t
    return None


def oracle_parts(bundle) -> dict:
    """Violation sets {(template, witness)} of the parts the oracle covers."""
    from homsplit.model import AlgebraBundle
    from tests import oracle

    mode = "sympy" if bundle.used_parameters() else "fraction"
    quadri = AlgebraBundle(
        "quadri_dendriform",
        bundle.dim,
        {name: bundle.op(name) for name in ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")},
        bundle.twist,
        bundle.parameters,
    )
    perp = AlgebraBundle(
        "dendriform",
        bundle.dim,
        {"prec": bundle.op("prec_perp"), "succ": bundle.op("succ_perp")},
        bundle.twist,
        bundle.parameters,
    )
    return {
        "quadri.": oracle.quadri_violations(quadri, mode),
        "six.dend.": oracle.dendriform_violations(perp, mode, prefix="six.dend"),
        "mult.": oracle.multiplicative_violations(bundle, mode),
    }
