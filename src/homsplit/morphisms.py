"""Isomorphism-invariant fingerprints, morphism verification, transport of
structure, and a bounded isomorphism search over a rational grid.

`push_forward` reads the moved ops and twist, S^-1(Sx op Sy) and S^-1 alpha S,
from the construction lines "push.*" (`constructions.build`).
`verify_isomorphism` takes invertibility from `linalg.determinant`, so it
refuses a map with parameters.

Fingerprints are necessary conditions computed exactly over the rationals
(ranks and characteristic polynomials by integer elimination, `linalg`):
unequal fingerprints certify non-isomorphism; equal ones decide nothing.
The grid search takes its candidates from `operators.grid_points`, the one
walk both grid searches share: T(c) = sum_k c_k B_k over the matrices
commuting with the twists, c_k the k-th free entry in row-major order
(`row_major`), pruned by the homomorphism equations of T(c).  The first T(c)
whose entries lie in the grid with det T != 0 passes `verify_isomorphism`
and comes first in row-major order.  "No isomorphism within the grid" is
never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from . import linalg
from .axioms import check_homomorphism
from .constructions import build
from .model import AlgebraBundle, LinearMap
from .operators import grid_points
from .poly import Polynomial
from .report import Report, Violation


@dataclass(frozen=True)
class Fingerprint:
    op_span_dims: tuple  # ((op name, product-span dimension), ...) sorted
    total_span_dim: int
    twist_rank: int
    twist_charpoly: tuple  # monic coefficients of det(xI - alpha)
    annihilator_dim: int

    def to_dict(self) -> dict:
        return {
            "op_span_dims": {name: d for name, d in self.op_span_dims},
            "total_span_dim": self.total_span_dim,
            "twist_rank": self.twist_rank,
            "twist_charpoly": [str(c) for c in self.twist_charpoly],
            "annihilator_dim": self.annihilator_dim,
        }

    def differing_fields(self, other: "Fingerprint") -> list:
        return [f.name for f in fields(self) if getattr(self, f.name) != getattr(other, f.name)]


def fingerprint(bundle: AlgebraBundle) -> Fingerprint:
    if bundle.used_parameters():
        raise ValueError("fingerprints are defined for parameter-free bundles only")
    n = bundle.dim
    op_dims = []
    all_rows = []
    # annihilator: x with x op y = y op x = 0 for every op and basis y
    equations = []
    for name in sorted(bundle.ops):
        # the constants times the lcm of their denominators, as ints: scaling
        # every row of an op by one positive int changes no rank
        constants = [(key, c.as_fraction()) for key, c in bundle.op(name).constants]
        scale = math.lcm(*(value.denominator for _, value in constants))
        table = {key: value.numerator * (scale // value.denominator) for key, value in constants}
        # row (i, j) holds the coordinates of e_i op e_j
        rows = [
            [table.get((i, j, k), 0) for k in range(1, n + 1)]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        op_dims.append((name, linalg.rank(rows)))
        all_rows.extend(rows)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                equations.append([table.get((i, j, k), 0) for i in range(1, n + 1)])
                equations.append([table.get((j, i, k), 0) for i in range(1, n + 1)])
    twist_rows = bundle.twist.to_fraction_rows()
    return Fingerprint(
        op_span_dims=tuple(op_dims),
        total_span_dim=linalg.rank(all_rows),
        twist_rank=linalg.rank(twist_rows),
        twist_charpoly=tuple(linalg.charpoly(twist_rows)),
        annihilator_dim=n - linalg.rank(equations),
    )


def push_forward(bundle: AlgebraBundle, basis_change: LinearMap) -> AlgebraBundle:
    """Transport the structure along an invertible rational change of basis S:
    new ops x op' y = S^{-1}(Sx op Sy), new twist S^{-1} alpha S."""
    if (basis_change.dim_out, basis_change.dim_in) != (bundle.dim, bundle.dim):
        raise ValueError("basis change shape mismatch")
    inverse_rows = linalg.inverse(basis_change.to_fraction_rows())
    if inverse_rows is None:
        raise ValueError("basis change matrix is singular")
    s_inv = LinearMap.from_fractions(inverse_rows)
    parts = bundle.parts_with(S=basis_change, Sinv=s_inv)
    ops = build("push", parts, ("D", "D", "D"), tuple(sorted(bundle.ops)))
    twist = ops.pop("alpha")
    return AlgebraBundle(
        kind=bundle.kind, dim=bundle.dim, ops=ops, twist=twist, parameters=bundle.parameters
    )


def verify_isomorphism(
    kind: str, linear: LinearMap, source: AlgebraBundle, target: AlgebraBundle
) -> Report:
    """Homomorphism conditions plus exact invertibility, a nonzero rational
    determinant (`linalg.determinant`).  A map with parameters is refused:
    whether its determinant vanishes depends on their values.  A singular
    matrix yields the violation "iso.singular" with sentinel residual 1
    (there is no nonzero residual polynomial to attach to a vanished
    determinant).
    """
    if names := linear.parameters():
        raise ValueError(
            "verify_isomorphism needs a parameter-free map: its invertibility "
            f"depends on the values of {', '.join(sorted(names))}"
        )
    report = check_homomorphism(kind, linear, source, target)
    if linalg.determinant(linear.to_fraction_rows()) == 0:
        report = report.merged(
            Report([Violation("iso.singular", (), Polynomial.one())])
        )
    return report


def brute_force_iso_search(
    source: AlgebraBundle, target: AlgebraBundle, grid
) -> LinearMap | None:
    """First grid matrix (in canonical row-major order) that is an
    isomorphism source -> target, or None.  Dimensions <= 3 only.

    Fingerprints are the caller's prefilter: the search does not compute
    them, since unequal ones only certify the None it would return anyway."""
    if source.dim != target.dim or source.kind != target.kind:
        return None
    if source.dim > 3:
        raise ValueError("brute-force isomorphism search is limited to dim <= 3")
    if source.used_parameters() or target.used_parameters():
        raise ValueError("isomorphism search needs parameter-free bundles")
    allowed = {Fraction(v) for v in grid}
    check = lambda linear: check_homomorphism(source.kind, linear, source, target)
    twists, shape = (source.twist, target.twist), (source.dim, source.dim)
    for rows in grid_points(twists, shape, check, grid, row_major=True):
        # the zero matrix and other singular ones satisfy every equation
        if all(allowed.issuperset(row) for row in rows) and linalg.determinant(rows) != 0:
            return LinearMap.from_fractions(rows)
    return None
