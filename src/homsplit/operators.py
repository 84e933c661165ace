"""Operator verification, equation extraction, and desk-scale grid solving.

Operator notions and their defining identities (all over basis pairs,
exact symbolic residuals):

  averaging_assoc                 mu(Ha,Hb) = H mu(a,Hb) = H mu(Ha,b)
                                  (twist commutation only under strict_twist:
                                  the source definition omits it for this kind)
  rota_baxter                     R o alpha = alpha o R, and per operation
                                  R(x) op R(y) = R(R(x) op y + x op R(y))
  relative_averaging              Tu prec Tv = T(Tu prec_l v) = T(u prec_r Tv),
                                  same for succ, plus T o beta = alpha o T
  homomorphic_relative_averaging  relative averaging + dendriform homomorphism
  averaging_quadri                per-operation averaging identities plus
                                  twist commutation (the source leaves this
                                  notion undefined; this is the documented
                                  interpretation)

Each kind reads one identity set of the `axioms` text ("avg", "rb", "qavg"
or "ravg", `_OPERATORS`), in which the operator is the map "H"; the "rb" and
"qavg" lines are read once per op of the context.  One call of
`axioms.evaluate_templates` checks the set, twist commutation included
(`axioms.twist_template`, over the transposed maps); the homomorphic kind
adds the one call of `axioms.check_homomorphism`.  Graph closure is checked
the same way (the "graph" set, with the graph's domain as the space "P").
Both grid searches, `solve_operators_grid` and
`morphisms.brute_force_iso_search`, walk the one routine `grid_points`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .axioms import (
    _identities,
    _require_kind,
    check_homomorphism,
    evaluate_templates,
    twist_maps,
    twist_template,
)
from .model import ActionBundle, AlgebraBundle, LinearMap, RepresentationBundle
from .model import span_matrix, unknown_matrix
from .poly import CompiledSystem
from .report import Report

# operator kind -> (identity set, algebra kind or None for a module)
_OPERATORS = {
    "averaging_assoc": ("avg", "associative"),
    "rota_baxter": ("rb", "diassociative"),
    "averaging_quadri": ("qavg", "quadri_dendriform"),
    "relative_averaging": ("ravg", None),
    "homomorphic_relative_averaging": ("ravg", None),
}
OPERATOR_KINDS = frozenset(_OPERATORS)


@functools.cache
def _operator_templates(kind: str, names: tuple, twist: bool) -> tuple:
    """The templates of an operator kind over the ops `names`, with twist
    commutation when `twist`."""
    prefix = _OPERATORS[kind][0]
    return _identities(prefix, ops=names) + ((twist_template(prefix, "H"),) if twist else ())


@dataclass(frozen=True)
class _Frame:
    """What an operator kind acts on: the templates with the parts of the
    context (spaces, ops and maps), the twists, and the matrix shape (rows,
    cols) the operator must have."""

    templates: tuple
    parts: tuple  # (spaces, ops, maps) of the context
    shape: tuple
    shape_error: str
    twists: tuple = ()  # (domain twist, codomain twist) when commutation is checked
    homomorphism: tuple = ()  # (source, target) the operator must intertwine


def _resolve(kind: str, context, strict_twist: bool = False) -> _Frame:
    """The single per-kind resolver used by verification and solving.  Only
    averaging_assoc leaves twist commutation out, unless `strict_twist`."""
    if kind not in _OPERATORS:
        raise ValueError(f"unknown operator kind {kind!r}")
    twist = kind != "averaging_assoc" or strict_twist
    required = _OPERATORS[kind][1]
    if required:
        _require_kind(context, required)
        return _Frame(
            _operator_templates(kind, tuple(sorted(context.ops)), twist), context.parts(),
            (context.dim, context.dim), "operator matrix shape does not match the algebra",
            (context.twist, context.twist) if twist else (),
        )
    homomorphism = ()
    if kind == "homomorphic_relative_averaging":
        if isinstance(context, AlgebraBundle):
            context = ActionBundle.adjoint(context)
        if not isinstance(context, ActionBundle):
            raise ValueError(f"{kind} needs an algebra or action context")
        homomorphism = (context.acted, context.acting)
    if isinstance(context, ActionBundle):
        context = context.representation()
    if isinstance(context, AlgebraBundle):
        context = RepresentationBundle.adjoint(context)
    if not isinstance(context, RepresentationBundle):
        raise ValueError(f"{kind} needs an algebra, representation or action context")
    _require_kind(context.base, "dendriform")
    return _Frame(
        _operator_templates(kind, (), twist), context.parts(),
        (context.base.dim, context.module_dim),
        "operator must map the module into the base algebra",
        (context.module_twist, context.base.twist), homomorphism,
    )


def verify_operator(kind: str, context, matrix: LinearMap, strict_twist: bool = False) -> Report:
    """Dispatch on the operator kind; `context` is the matching bundle type."""
    frame = _resolve(kind, context, strict_twist)
    if (matrix.dim_out, matrix.dim_in) != frame.shape:
        raise ValueError(frame.shape_error)
    dims, ops, maps = frame.parts
    maps = {**maps, "H": matrix}
    if frame.twists:
        maps.update(twist_maps("H", matrix, *frame.twists))
    report = evaluate_templates(frame.templates, dims, ops, maps)
    if frame.homomorphism:
        report = report.merged(check_homomorphism("dendriform", matrix, *frame.homomorphism))
    return report


# ---------------------------------------------------------------------------
# graphs as subalgebras


def graph_is_subalgebra(
    container: AlgebraBundle, matrix: LinearMap, direction: str = "module_to_base"
) -> tuple:
    """Is the graph of the map closed under every container operation and
    the twist?

    direction="module_to_base": graph {(Tu, u)} in D + V, T: V -> D (hemi-
    semidirect containers).  direction="base_to_module": graph {(x, xi x)}
    in A + B, xi: A -> B (direct-sum containers).
    Returns (bool, Report) with witnesses indexed by graph parameters.
    """
    image_dim, domain_dim = matrix.dim_out, matrix.dim_in
    if direction not in ("module_to_base", "base_to_module"):
        raise ValueError(f"unknown direction {direction!r}")
    if container.dim != image_dim + domain_dim:
        raise ValueError("container dimension does not match the map")
    rows = LinearMap.identity(container.dim).entries
    identity = LinearMap.identity(domain_dim)
    if direction == "module_to_base":
        embed = LinearMap.from_rows(matrix.entries + identity.entries)
        image, domain = rows[:image_dim], rows[image_dim:]
    else:
        embed = LinearMap.from_rows(identity.entries + matrix.entries)
        domain, image = rows[:domain_dim], rows[domain_dim:]
    parts = container.parts_with(
        {"P": domain_dim}, G=embed, X=matrix,
        image=LinearMap.from_rows(image), domain=LinearMap.from_rows(domain),
    )
    templates = _identities("graph", ops=tuple(sorted(container.ops)))
    report = evaluate_templates(templates, *parts)
    return report.ok, report


# ---------------------------------------------------------------------------
# equation extraction and grid solving


def emit_operator_system(
    context, kind: str, unknown_prefix: str = "t", strict_twist: bool = False
) -> list:
    """The polynomial system in the unknown matrix entries t{i}{j} whose
    common zero set is exactly the operator variety; deterministic order."""
    names, symbolic = unknown_matrix(*_resolve(kind, context).shape, unknown_prefix)
    clash = sorted(set(names) & context.used_parameters())
    if clash:
        raise ValueError(f"unknown names collide with context parameters: {clash}")
    violations = verify_operator(kind, context, symbolic, strict_twist=strict_twist).entries
    return list(dict.fromkeys(violation.residual for violation in violations))


def grid_points(twists: tuple, shape: tuple, residuals, grid, row_major: bool = False):
    """Yield, in walk order, the rows of each X(c) = sum_k c_k B_k, c on the
    grid, at which the residuals of the report `residuals(X(c))` vanish.  B
    spans the `shape` matrices with X inner = outer X, (inner, outer) =
    `twists` (all of them with no twist), in first-column echelon form, or in
    last-column echelon form when `row_major`: c_k is then the k-th free
    entry in row-major order, so walk order is row-major order.  Each residual
    is compiled once and tested as soon as its last c_k is bound."""
    rows, cols = shape
    size = rows * cols
    twist_rows = [twist.to_fraction_rows() for twist in twists]
    equations = linalg.intertwiner_equations(*twist_rows) if twists else []
    if row_major:
        reversed_basis = linalg.nullspace([row[::-1] for row in equations], ncols=size)
        basis = [vector[::-1] for vector in reversed(reversed_basis)]
    else:
        basis = linalg.nullspace(equations, ncols=size)
    names, symbolic = span_matrix(basis, rows, cols)
    system = CompiledSystem(residuals(symbolic).entries, names)
    for c in linalg.grid_walk(len(basis), grid, system.vanishes_at):
        point = linalg.combination(basis, c, size)
        yield tuple(point[r * cols : (r + 1) * cols] for r in range(rows))


def solve_operators_grid(
    context, kind: str, grid, strict_twist: bool = False
) -> list:
    """The operators X(c) with c on a rational grid (`grid_points` over the
    residuals `verify_operator` finds), in row-major order of their entries.
    Completeness is claimed only relative to the grid."""
    frame = _resolve(kind, context, strict_twist)
    if max(frame.shape) > 3:
        raise ValueError("grid solving is limited to dimensions <= 3")
    if context.used_parameters():
        raise ValueError("grid solving needs a parameter-free context; specialize first")
    check = lambda matrix: verify_operator(kind, context, matrix, strict_twist=strict_twist)
    points = sorted(grid_points(frame.twists, frame.shape, check, grid))
    return [LinearMap.from_fractions(rows) for rows in points]


def family_membership(family: LinearMap, candidate: LinearMap):
    """Solve family(params) = candidate when family entries are affine in
    its parameters; returns the parameter binding or None."""
    if (family.dim_out, family.dim_in) != (candidate.dim_out, candidate.dim_in):
        raise ValueError("matrix shape mismatch")
    unknowns = sorted(family.parameters())
    if not unknowns:
        return {} if family == candidate else None
    rows = []
    rhs = []
    for r in range(family.dim_out):
        for c in range(family.dim_in):
            cell = family.entries[r][c]
            if cell.total_degree() > 1:
                raise ValueError("family entries must be affine in the parameters")
            coeff = {name: Fraction(0) for name in unknowns}
            const = Fraction(0)
            for mono, value in cell.terms:
                if not mono:
                    const = value
                else:
                    coeff[mono[0][0]] = value
            rows.append([coeff[name] for name in unknowns])
            rhs.append(candidate.entries[r][c].as_fraction() - const)
    solution = linalg.solve(rows, rhs)
    if solution is None:
        return None
    return dict(zip(unknowns, solution))
