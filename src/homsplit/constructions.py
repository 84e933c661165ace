"""Structure-producing procedures: splittings, products, quotients, and
operator-induced algebras.

Every value a construction reads is the set of residuals of an identity
lhs = rhs over named operations and maps, from one call of the template
engine (`_residuals`).  Its operands are its bundle's `parts()` (spaces, ops
and maps under the names of the identity text, decided in `model`), to which
`parts_with` adds the construction's own: the averaging operator is the map
"H", a change of basis "S", the inclusion of the complement basis of D/I_D
"C".  An induced
product (`induced_op`) and the quotient twist are the residuals of expr = 0,
0 being the zero map "0" into the output space, and the generators of I_D
those of dashv = vdash.  The quotient by I_D is checked by templates in which
reduction modulo I_D is the linear map "R" (the "quotient.*" identities of
`axioms`), so no construction evaluates a basis loop of its own.

Constructions whose validity rests on a precondition (a representation being
valid, an operator verifying) check it first and refuse with the offending
report attached (`PreconditionError`); `force=True` builds anyway, which is
deliberate: hunting for transcription errors requires constructing from
possibly wrong data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import operators as _operators
from .axioms import (
    App,
    Op,
    S,
    Template,
    Var,
    _identities,
    _require_kind,
    check_action,
    check_representation,
    evaluate_templates,
)
from .linalg import reduction_matrix, rref
from .model import ActionBundle, AlgebraBundle, BilinearOp, LinearMap, RepresentationBundle
from .poly import Polynomial
from .report import PreconditionError, Report

_X, _Y = Var("x"), Var("y")


def _residuals(lhs, rhs, variables: tuple, parts: tuple) -> list:
    """(*witness, residual) for each violation of `lhs` = `rhs` over every
    tuple of basis indices of `variables` ((placeholder, space), ...), from
    one `evaluate_templates` call over `parts` (spaces, ops, maps): the
    witness is the tuple in `variables` order with the coordinate appended,
    and the residual the Polynomial lhs - rhs there."""
    report = evaluate_templates((Template("", variables, lhs, rhs),), *parts)
    return [(*v.witness, v.residual) for v in report.entries]


def induced_op(expr, spaces: tuple, parts: tuple) -> BilinearOp:
    """The tensor e_i, e_j -> `expr` at x = e_i, y = e_j: the residuals of
    `expr` = 0 over `parts`; `spaces` names the spaces of x, y and the output."""
    (left, right, out), (dims, ops, maps) = spaces, parts
    zero = LinearMap.zero(dims[out], dims[left])
    entries = _residuals(
        expr, App("0", _X), (("x", left), ("y", right)), (dims, ops, {**maps, "0": zero})
    )
    return BilinearOp.from_entries(dims[left], dims[right], dims[out], entries)


def _block_op(n: int, *blocks) -> BilinearOp:
    """The op on an n-dimensional space whose constants are those of each
    block (op, (di, dj, dk)), moved by its offsets."""
    entries = [
        (i + di, j + dj, k + dk, c)
        for op, (di, dj, dk) in blocks for (i, j, k), c in op.constants
    ]
    return BilinearOp.from_entries(n, n, n, entries)


def _declared(*param_sources) -> tuple:
    return tuple(sorted(set().union(*param_sources)))


def _refuse_unless(precondition: Report, force: bool, message: str) -> None:
    """Refuse with `message` unless `precondition` passes or `force`."""
    if not precondition.ok and not force:
        raise PreconditionError(message, precondition)


# ---------------------------------------------------------------------------
# sum-splittings


def _regroup(bundle: AlgebraBundle, source: str, kind: str, parts: dict) -> AlgebraBundle:
    """The `kind` bundle on the space, twist and declared parameters of a
    `source` bundle whose op `name` is the sum of the ops in parts[name]."""
    _require_kind(bundle, source)
    ops = {name: reduce(BilinearOp.add, map(bundle.op, names)) for name, names in parts.items()}
    return AlgebraBundle(kind, bundle.dim, ops, bundle.twist, bundle.parameters)


def quadri_to_diassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """vdash = prec_vdash + succ_vdash, dashv = prec_dashv + succ_dashv."""
    return _regroup(bundle, "quadri_dendriform", "diassociative", {
        "vdash": ("prec_vdash", "succ_vdash"), "dashv": ("prec_dashv", "succ_dashv"),
    })


def six_to_triassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """perp/vdash/dashv as the pairwise sums of the six operations."""
    return _regroup(bundle, "six_dendriform", "triassociative", {
        "perp": ("prec_perp", "succ_perp"),
        "vdash": ("prec_vdash", "succ_vdash"),
        "dashv": ("prec_dashv", "succ_dashv"),
    })


def quadri_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its four quadri operations."""
    names = ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")
    return _regroup(bundle, "six_dendriform", "quadri_dendriform", {n: (n,) for n in names})


def perp_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its (prec_perp, succ_perp) pair."""
    return _regroup(bundle, "six_dendriform", "dendriform", {
        "prec": ("prec_perp",), "succ": ("succ_perp",),
    })


# ---------------------------------------------------------------------------
# products


def direct_sum_quadri(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """Block-diagonal operations on A + B; cross products vanish."""
    for bundle in (a, b):
        _require_kind(bundle, "quadri_dendriform")
    d, n = a.dim, a.dim + b.dim
    ops = {name: _block_op(n, (a.op(name), (0, 0, 0)), (b.op(name), (d, d, d))) for name in a.ops}
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=n,
        ops=ops,
        twist=LinearMap.block_diag(a.twist, b.twist),
        parameters=_declared(a.parameters, b.parameters),
    )


def hemi_semidirect(rep: RepresentationBundle, force: bool = False) -> AlgebraBundle:
    """Quadri-dendriform structure on D + V from a dendriform representation.

    (x,u) prec_vdash (y,v) = (x prec y, x prec_l v)
    (x,u) prec_dashv (y,v) = (x prec y, u prec_r y)
    (x,u) succ_vdash (y,v) = (x succ y, x succ_l v)
    (x,u) succ_dashv (y,v) = (x succ y, u succ_r y)       twist: alpha + beta
    """
    _refuse_unless(check_representation(rep), force, "representation does not verify")
    d, m = rep.base.dim, rep.module_dim
    n = d + m
    prec, succ = ((rep.base.op(name), (0, 0, 0)) for name in ("prec", "succ"))
    left, right = (0, d, d), (d, 0, d)  # D x M -> M and M x D -> M
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=n,
        ops={
            "prec_vdash": _block_op(n, prec, (rep.action("prec_l"), left)),
            "prec_dashv": _block_op(n, prec, (rep.action("prec_r"), right)),
            "succ_vdash": _block_op(n, succ, (rep.action("succ_l"), left)),
            "succ_dashv": _block_op(n, succ, (rep.action("succ_r"), right)),
        },
        twist=LinearMap.block_diag(rep.base.twist, rep.module_twist),
        parameters=_declared(rep.base.parameters, rep.used_parameters()),
    )


def semidirect_dendriform(action: ActionBundle, force: bool = False) -> AlgebraBundle:
    """Dendriform structure on D + D' from an action.

    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y + u prec' v)
    (x,u) succ (y,v) = (x succ y, x succ_l v + u succ_r y + u succ' v)
    """
    _refuse_unless(check_action(action), force, "action does not verify")
    d, m = action.acting.dim, action.acted.dim
    n = d + m
    ops = {
        which: _block_op(
            n, (action.acting.op(which), (0, 0, 0)), (action.actions[f"{which}_l"], (0, d, d)),
            (action.actions[f"{which}_r"], (d, 0, d)), (action.acted.op(which), (d, d, d)),
        )
        for which in ("prec", "succ")
    }
    return AlgebraBundle(
        kind="dendriform",
        dim=n,
        ops=ops,
        twist=LinearMap.block_diag(action.acting.twist, action.acted.twist),
        parameters=_declared(action.acting.parameters, action.used_parameters()),
    )


# ---------------------------------------------------------------------------
# the ideal I_D and the quotient dendriform algebra


@dataclass(frozen=True)
class Subspace:
    """Rational subspace in reduced row echelon form."""

    ambient_dim: int
    basis: tuple  # rows of Fractions
    pivots: tuple

    @staticmethod
    def from_spanning(ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors if any(x != 0 for x in v)]
        echelon, pivots = rref(rows) if rows else ([], [])
        return Subspace(
            ambient_dim,
            tuple(tuple(row) for row in echelon),
            tuple(pivots),
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduction(self) -> LinearMap:
        """Reduction modulo the subspace, a linear map of the ambient space."""
        return LinearMap.from_fractions(
            reduction_matrix(self.basis, self.pivots, self.ambient_dim)
        )


def _require_parameter_free(bundle) -> None:
    used = bundle.used_parameters()
    if used:
        raise ValueError(
            f"construction needs a parameter-free bundle; specialize {sorted(used)} first"
        )


def ideal_ID(bundle: AlgebraBundle) -> Subspace:
    """Span of all dashv-flavored minus vdash-flavored products: the
    residuals of x flavor_dashv y = x flavor_vdash y, one generator per
    (flavor, x, y).  RREF is unique, so the order of the generators does not
    matter."""
    _require_kind(bundle, "quadri_dendriform")
    _require_parameter_free(bundle)
    parts, xy = bundle.parts(), (("x", "D"), ("y", "D"))
    generators: dict = {}
    for flavor in ("prec", "succ"):
        dashv, vdash = (Op(f"{flavor}_{side}", _X, _Y) for side in ("dashv", "vdash"))
        for i, j, k, residual in _residuals(dashv, vdash, xy, parts):
            generators.setdefault((flavor, i, j), [0] * bundle.dim)[k - 1] = residual.as_fraction()
    return Subspace.from_spanning(bundle.dim, generators.values())


def _complement_inclusion(dim: int, complement: tuple) -> LinearMap:
    """The dim x len(complement) matrix sending e_s to e_{complement[s]}."""
    return LinearMap.from_fractions(
        [[int(k == c) for c in complement] for k in range(1, dim + 1)]
    )


@dataclass
class QuotientResult:
    ok: bool
    ideal: Subspace
    report: Report
    bundle: AlgebraBundle | None = None
    projection: LinearMap | None = None  # quotient map D -> D/I_D
    complement: tuple = ()  # 1-based ambient positions representing classes


def quotient_dendriform(bundle: AlgebraBundle) -> QuotientResult:
    """Quotient of a parameter-free quadri bundle by I_D, if it closes.

    Closure is checked, never assumed: all four operations must map
    D x I_D and I_D x D into I_D, and alpha must stabilize I_D.  Quotient
    products use the vdash-flavored representatives.  The dashv-flavored
    ones agree with them modulo I_D by construction, since their difference
    is a generator of I_D.
    """
    ideal = ideal_ID(bundle)
    dim = bundle.dim
    complement = tuple(c + 1 for c in range(dim) if c not in ideal.pivots)
    qdim = len(complement)
    reduction = ideal.reduction()
    projection = LinearMap(qdim, dim, tuple(reduction.entries[c - 1] for c in complement))
    spanning = LinearMap.from_fractions([[row[k] for row in ideal.basis] for k in range(dim)])
    parts = bundle.parts_with(
        {"I": ideal.dim, "Q": qdim}, R=reduction, W=spanning, Z=LinearMap.zero(dim, ideal.dim),
        C=_complement_inclusion(dim, complement), P=projection,
    )
    closure = _identities("quotient.closure", ops=tuple(sorted(bundle.ops)))
    report = evaluate_templates(closure, *parts)
    if not report.ok:
        return QuotientResult(ok=False, ideal=ideal, report=report)

    cx, cy = App("C", _X), App("C", _Y)
    prec, succ = (
        induced_op(App("P", Op(f"{flavor}_vdash", cx, cy)), ("Q", "Q", "Q"), parts)
        for flavor in ("prec", "succ")
    )
    parts[2]["0"] = LinearMap.zero(qdim, qdim)
    twist = [[Polynomial.zero()] * qdim for _ in range(qdim)]
    image = App("P", App("alpha", App("C", _X)))
    for s, r, entry in _residuals(image, App("0", _X), (("x", "Q"),), parts):
        twist[r - 1][s - 1] = entry  # coordinate r of the image of e_s

    quotient = AlgebraBundle(
        kind="dendriform",
        dim=qdim,
        ops={"prec": prec, "succ": succ},
        twist=LinearMap.from_rows(twist),
        parameters=(),
    )
    return QuotientResult(
        ok=True,
        ideal=ideal,
        report=report,
        bundle=quotient,
        projection=projection,
        complement=complement,
    )


# ---------------------------------------------------------------------------
# operator-induced structures


def averaging_induced_diassociative(
    algebra: AlgebraBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """a dashv b = mu(a, Hb), a vdash b = mu(Ha, b)."""
    precondition = _operators.verify_averaging_assoc(algebra, avg)
    _refuse_unless(precondition, force, "averaging operator does not verify")
    parts, square = algebra.parts_with(H=avg), ("D", "D", "D")
    dashv = induced_op(Op("mu", _X, App("H", _Y)), square, parts)
    vdash = induced_op(Op("mu", App("H", _X), _Y), square, parts)
    return AlgebraBundle(
        kind="diassociative",
        dim=algebra.dim,
        ops={"dashv": dashv, "vdash": vdash},
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, avg.parameters()),
    )


def rota_baxter_induced(
    algebra: AlgebraBundle, rb: LinearMap, force: bool = False
) -> AlgebraBundle:
    """x new-dashv y = Rx dashv y + x dashv Ry, and the vdash analogue."""
    precondition = _operators.verify_rota_baxter(algebra, rb)
    _refuse_unless(precondition, force, "Rota-Baxter operator does not verify")
    parts, tx, ty = algebra.parts_with(H=rb), App("H", _X), App("H", _Y)
    return AlgebraBundle(
        kind="diassociative",
        dim=algebra.dim,
        ops={
            name: induced_op(S(Op(name, tx, _Y), Op(name, _X, ty)), ("D", "D", "D"), parts)
            for name in ("dashv", "vdash")
        },
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, rb.parameters()),
    )


def _twisted_actions(rep: RepresentationBundle, avg: LinearMap) -> dict:
    """u prec_vdash v = T(u) prec_l v, u prec_dashv v = u prec_r T(v), and
    the succ pair alike, on the module M of `rep`."""
    tx, ty = App("H", _X), App("H", _Y)
    exprs = {
        "prec_vdash": Op("prec_l", tx, _Y),
        "prec_dashv": Op("prec_r", _X, ty),
        "succ_vdash": Op("succ_l", tx, _Y),
        "succ_dashv": Op("succ_r", _X, ty),
    }
    parts = rep.parts_with(H=avg)
    return {name: induced_op(expr, ("M", "M", "M"), parts) for name, expr in exprs.items()}


def relative_averaging_induced_quadri(
    rep: RepresentationBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """Quadri structure on the module: u prec_vdash v = T(u) prec_l v, etc."""
    precondition = _operators.verify_relative_averaging(rep, avg)
    _refuse_unless(precondition, force, "relative averaging operator does not verify")
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=rep.module_dim,
        ops=_twisted_actions(rep, avg),
        twist=rep.module_twist,
        parameters=_declared(rep.base.parameters, rep.used_parameters(), avg.parameters()),
    )


def homomorphic_averaging_induced_six(
    action: ActionBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """Six-dendriform structure on the acted algebra: perp ops are its own
    pair, the four T-twisted ops come from the action."""
    precondition = _operators.verify_homomorphic_relative_averaging(action, avg)
    _refuse_unless(precondition, force, "homomorphic relative averaging operator does not verify")
    ops = _twisted_actions(action.representation(), avg)
    ops["prec_perp"] = action.acted.op("prec")
    ops["succ_perp"] = action.acted.op("succ")
    return AlgebraBundle(
        kind="six_dendriform",
        dim=action.acted.dim,
        ops=ops,
        twist=action.acted.twist,
        parameters=_declared(action.used_parameters(), avg.parameters()),
    )


# ---------------------------------------------------------------------------
# embeddings: quadri / six bundles induce (homomorphic) relative averaging
# operators on their quotient dendriform algebras


@dataclass
class EmbeddingResult:
    ok: bool
    quotient: QuotientResult
    report: Report
    representation: RepresentationBundle | None = None
    action: ActionBundle | None = None
    averaging: LinearMap | None = None  # the quotient map


def _embedding_actions(bundle: AlgebraBundle, complement: tuple) -> dict:
    """Action tensors of D/I_D on D via complement-basis representatives:
    r prec_l x = C(r) prec_vdash x and x prec_r r = x prec_dashv C(r), and
    the succ pair alike."""
    inclusion = _complement_inclusion(bundle.dim, complement)
    parts = bundle.parts_with({"Q": len(complement)}, C=inclusion)
    cx, cy = App("C", _X), App("C", _Y)
    left = lambda name: induced_op(Op(name, cx, _Y), ("Q", "D", "D"), parts)
    right = lambda name: induced_op(Op(name, _X, cy), ("D", "Q", "D"), parts)
    return {
        "prec_l": left("prec_vdash"),
        "succ_l": left("succ_vdash"),
        "prec_r": right("prec_dashv"),
        "succ_r": right("succ_dashv"),
    }


def quadri_embedding(bundle: AlgebraBundle) -> EmbeddingResult:
    """Build the representation of D/I_D on D and the quotient map, which is
    then a relative averaging operator (verified downstream, never assumed)."""
    quotient = quotient_dendriform(bundle)
    if not quotient.ok:
        return EmbeddingResult(ok=False, quotient=quotient, report=quotient.report)
    rep = RepresentationBundle(
        base=quotient.bundle,
        module_dim=bundle.dim,
        actions=_embedding_actions(bundle, quotient.complement),
        module_twist=bundle.twist,
    )
    return EmbeddingResult(
        ok=True,
        quotient=quotient,
        report=quotient.report,
        representation=rep,
        averaging=quotient.projection,
    )


def six_embedding(bundle: AlgebraBundle) -> EmbeddingResult:
    """As quadri_embedding, plus the perp pair as the acted algebra.

    Extra precondition (reported, not assumed): the perp operations must
    agree with the vdash-flavored ones modulo I_D, otherwise the quotient
    map cannot be a dendriform homomorphism.
    """
    quadri = quadri_part(bundle)
    quotient = quotient_dendriform(quadri)
    if not quotient.ok:
        return EmbeddingResult(ok=False, quotient=quotient, report=quotient.report)
    parts = bundle.parts_with(R=quotient.ideal.reduction())
    report = evaluate_templates(_identities("quotient.perp-compat"), *parts)
    if not report.ok:
        return EmbeddingResult(ok=False, quotient=quotient, report=report)
    action = ActionBundle(
        acting=quotient.bundle,
        acted=perp_part(bundle),
        actions=_embedding_actions(quadri, quotient.complement),
    )
    return EmbeddingResult(
        ok=True,
        quotient=quotient,
        report=report,
        action=action,
        averaging=quotient.projection,
    )
