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

Each identity is an `axioms` template in which the operator is the named map
"H", evaluated by `axioms.evaluate_templates`; twist commutation is the
matrix identity `axioms.twist_commutation`.  Graph closure is checked the
same way (templates "graph.*").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .axioms import (
    _require_kind,
    averaging_templates,
    check_homomorphism,
    evaluate_templates,
    graph_templates,
    relative_averaging_templates,
    rota_baxter_templates,
    twist_commutation,
)
from .model import ActionBundle, AlgebraBundle, LinearMap, RepresentationBundle, unknown_matrix
from .poly import CompiledSystem
from .report import Report

# operator kind acting on one algebra -> (template prefix, algebra kind, templates)
_ALGEBRA_OPERATORS = {
    "averaging_assoc": (
        "avg", "associative", lambda names: averaging_templates("avg", names, swap=True)
    ),
    "rota_baxter": ("rb", "diassociative", rota_baxter_templates),
    "averaging_quadri": (
        "qavg", "quadri_dendriform", lambda names: averaging_templates("qavg", names)
    ),
}


@dataclass(frozen=True)
class _Frame:
    """What an operator kind acts on: the templates with their spaces, ops
    and twists, and the matrix shape (rows, cols) the operator must have."""

    prefix: str
    templates: list
    dims: dict
    ops: dict
    inner: LinearMap  # twist on the operator's domain
    outer: LinearMap  # twist on its codomain
    twist_bound: bool  # twist commutation belongs to the definition
    shape: tuple
    shape_error: str
    homomorphism: tuple = ()  # (source, target) the operator must intertwine


def _resolve(kind: str, context) -> _Frame:
    """The single per-kind resolver used by verification and solving."""
    if kind in _ALGEBRA_OPERATORS:
        prefix, required, templates = _ALGEBRA_OPERATORS[kind]
        _require_kind(context, required)
        dim = context.dim
        return _Frame(
            prefix, templates(sorted(context.ops)), {"D": dim}, dict(context.ops),
            context.twist, context.twist,
            kind != "averaging_assoc", (dim, dim),
            "operator matrix shape does not match the algebra",
        )
    homomorphism = ()
    if kind == "homomorphic_relative_averaging":
        if isinstance(context, AlgebraBundle):
            context = ActionBundle.adjoint(context)
        if not isinstance(context, ActionBundle):
            raise ValueError(f"{kind} needs an algebra or action context")
        homomorphism = (context.acted, context.acting)
    elif kind != "relative_averaging":
        raise ValueError(f"unknown operator kind {kind!r}")
    if isinstance(context, ActionBundle):
        context = context.representation()
    if isinstance(context, AlgebraBundle):
        context = RepresentationBundle.adjoint(context)
    if not isinstance(context, RepresentationBundle):
        raise ValueError(f"{kind} needs an algebra, representation or action context")
    base = context.base
    ops = {"prec": base.op("prec"), "succ": base.op("succ"), **context.actions}
    return _Frame(
        "ravg", relative_averaging_templates(), {"D": base.dim, "M": context.module_dim},
        ops, context.module_twist, base.twist, True, (base.dim, context.module_dim),
        "operator must map the module into the base algebra", homomorphism,
    )


def verify_operator(kind: str, context, matrix: LinearMap, strict_twist: bool = False) -> Report:
    """Dispatch on the operator kind; `context` is the matching bundle type."""
    frame = _resolve(kind, context)
    if (matrix.dim_out, matrix.dim_in) != frame.shape:
        raise ValueError(frame.shape_error)
    report = evaluate_templates(frame.templates, frame.dims, frame.ops, {"H": matrix})
    if frame.twist_bound or strict_twist:
        report = report.merged(
            twist_commutation(f"{frame.prefix}.twist", matrix, frame.inner, frame.outer)
        )
    if frame.homomorphism:
        report = report.merged(check_homomorphism("dendriform", matrix, *frame.homomorphism))
    return report


def verify_averaging_assoc(
    algebra: AlgebraBundle, avg: LinearMap, strict_twist: bool = False
) -> Report:
    return verify_operator("averaging_assoc", algebra, avg, strict_twist=strict_twist)


def verify_rota_baxter(algebra: AlgebraBundle, rb: LinearMap) -> Report:
    return verify_operator("rota_baxter", algebra, rb)


def verify_relative_averaging(rep: RepresentationBundle, avg: LinearMap) -> Report:
    return verify_operator("relative_averaging", rep, avg)


def verify_homomorphic_relative_averaging(
    action: ActionBundle, avg: LinearMap
) -> Report:
    return verify_operator("homomorphic_relative_averaging", action, avg)


def verify_averaging_quadri(algebra: AlgebraBundle, avg: LinearMap) -> Report:
    return verify_operator("averaging_quadri", algebra, avg)


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
    maps = {
        "G": embed,
        "X": matrix,
        "alpha": container.twist,
        "image": LinearMap.from_rows(image),
        "domain": LinearMap.from_rows(domain),
    }
    report = evaluate_templates(
        graph_templates(sorted(container.ops)), {"P": domain_dim}, dict(container.ops), maps
    )
    return report.ok, report


# ---------------------------------------------------------------------------
# equation extraction and grid solving


def _context_parameters(context) -> frozenset:
    if isinstance(context, AlgebraBundle):
        return frozenset(context.parameters) | context.used_parameters()
    return context.used_parameters()


def _operator_violations(
    context, kind: str, unknown_prefix: str = "t", strict_twist: bool = False
) -> tuple:
    """(unknown names, violations of the operator whose matrix holds the
    unknowns t{i}{j}): the residuals of those violations are the operator
    system."""
    rows, cols = _resolve(kind, context).shape
    names, symbolic = unknown_matrix(rows, cols, unknown_prefix)
    clash = sorted(set(names) & _context_parameters(context))
    if clash:
        raise ValueError(f"unknown names collide with context parameters: {clash}")
    return names, verify_operator(kind, context, symbolic, strict_twist=strict_twist).entries


def emit_operator_system(
    context, kind: str, unknown_prefix: str = "t", strict_twist: bool = False
) -> list:
    """The polynomial system in the unknown matrix entries t{i}{j} whose
    common zero set is exactly the operator variety; deterministic order."""
    _, violations = _operator_violations(context, kind, unknown_prefix, strict_twist)
    return list(dict.fromkeys(violation.residual for violation in violations))


def solve_operators_grid(
    context, kind: str, grid, strict_twist: bool = False
) -> list:
    """Enumerate operator solutions with free coordinates over a rational grid.

    The linear twist-commutation constraints are solved exactly first (row
    echelon); the free coordinates of that solution space are then enumerated
    over the grid.  Each candidate is tested against the operator system
    (the residuals `emit_operator_system` writes), compiled once from the
    engine's integer residuals (`CompiledSystem`), and each candidate that
    solves it is confirmed by `verify_operator`.  Solutions
    come back in row-major order of their entries.  Completeness is claimed
    only relative to the grid.
    """
    frame = _resolve(kind, context)
    rows, cols = frame.shape
    if max(rows, cols) > 3:
        raise ValueError("grid solving is limited to dimensions <= 3")
    if _context_parameters(context):
        raise ValueError("grid solving needs a parameter-free context; specialize first")
    grid_values = sorted(Fraction(g) for g in set(grid))
    n_unknowns = rows * cols
    if frame.twist_bound or strict_twist:
        equations = linalg.intertwiner_equations(
            frame.inner.to_fraction_rows(), frame.outer.to_fraction_rows()
        )
        basis = linalg.nullspace(equations, ncols=n_unknowns)
    else:
        basis = [[int(p == q) for q in range(n_unknowns)] for p in range(n_unknowns)]
    names, violations = _operator_violations(context, kind, strict_twist=strict_twist)
    system = CompiledSystem(violations, names)
    points = sorted(
        point
        for point in linalg.grid_combinations(basis, grid_values, n_unknowns)
        if system.vanishes_at(point)
    )
    candidates = (
        LinearMap.from_fractions([point[r * cols : (r + 1) * cols] for r in range(rows)])
        for point in points
    )
    return [
        candidate
        for candidate in candidates
        if verify_operator(kind, context, candidate, strict_twist=strict_twist).ok
    ]


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
