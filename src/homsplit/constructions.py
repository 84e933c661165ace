"""Structure-producing procedures: splittings, products, quotients, and
operator-induced algebras.

Each op or map a construction builds is one line of text in the notation of
the identities (`axioms._CONSTRUCTIONS`), for example
"avg-dias.dashv: x mu H(y)"; `build` evaluates the lines of one set in one
call of the template engine, as the residuals of expr = 0(x).  The operands
are the bundle's `parts()`, to which `parts_with` adds the construction's
own maps: the operator "H", the change of basis "S" and its inverse "Sinv",
the inclusion "C" of the complement basis of D/I_D and the projection "P"
onto it.  The generators of I_D are the residuals of the "ideal.*"
identities, and the quotient by I_D is checked by the "quotient.*" ones,
with reduction modulo I_D as the map "R".  The block constructions place
structure constants (`_block_op`) and evaluate nothing.

Constructions whose validity rests on a precondition (a representation being
valid, an operator verifying) check it first and refuse with the offending
report attached (`PreconditionError`); `force=True` builds anyway, which is
deliberate: hunting for transcription errors requires constructing from
possibly wrong data.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import operators as _operators
from .axioms import (
    App,
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


def build(name: str, parts: tuple, spaces: tuple, ops: tuple = ()) -> dict:
    """{the last part of each line id: its op or map} for the construction
    set `name` (`ops` names its "{op}" lines' ops): the residuals of each
    line's expr = 0(x) over `parts` (spaces, ops, maps) from one
    `evaluate_templates` call, 0 being the zero map from the space of x into
    the output's.  `spaces` names the spaces of x, y and the output.  A line
    over x and y gives the tensor e_i, e_j -> expr, its factors in the order
    the line names them; a line over x alone the matrix of x -> expr."""
    dims, own, maps = parts
    *inputs, out = spaces
    bind = dict(zip(("x", "y"), inputs))
    lines = [
        Template(t.id, tuple((v, bind[v]) for v, _ in t.variables), t.lhs, App("0", Var("x")))
        for t in _identities(name, ops=ops)
    ]
    zero = LinearMap.zero(dims[out], dims[bind["x"]])
    values: dict = {line.id: [] for line in lines}
    for v in evaluate_templates(lines, dims, own, {**maps, "0": zero}).entries:
        values[v.template].append((*v.witness, v.residual))
    built = {}
    for line in lines:
        shape = [dims[space] for _, space in line.variables] + [dims[out]]
        key, entries = line.id.rsplit(".", 1)[1], values[line.id]
        if len(shape) == 3:
            built[key] = BilinearOp.from_entries(*shape, entries)
            continue
        rows = [[Polynomial.zero()] * shape[0] for _ in range(shape[1])]
        for s, r, entry in entries:
            rows[r - 1][s - 1] = entry  # coordinate r of the image of e_s
        built[key] = LinearMap.from_rows(rows)
    return built


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


def _regroup(bundle: AlgebraBundle, source: str, kind: str, name: str) -> AlgebraBundle:
    """The `kind` bundle on the space, twist and declared parameters of a
    `source` bundle whose ops are the lines of the construction set `name`."""
    _require_kind(bundle, source)
    ops = build(name, bundle.parts(), ("D", "D", "D"))
    return AlgebraBundle(kind, bundle.dim, ops, bundle.twist, bundle.parameters)


def quadri_to_diassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """vdash = prec_vdash + succ_vdash, dashv = prec_dashv + succ_dashv."""
    return _regroup(bundle, "quadri_dendriform", "diassociative", "sum-dias")


def six_to_triassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """perp/vdash/dashv as the pairwise sums of the six operations."""
    return _regroup(bundle, "six_dendriform", "triassociative", "sum-tri")


def quadri_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its four quadri operations."""
    return _regroup(bundle, "six_dendriform", "quadri_dendriform", "quadri-part")


def perp_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its (prec_perp, succ_perp) pair."""
    return _regroup(bundle, "six_dendriform", "dendriform", "perp-part")


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
    generators: dict = {}
    for v in evaluate_templates(_identities("ideal"), *bundle.parts()).entries:
        i, j, k = v.witness
        row = generators.setdefault((v.template, i, j), [0] * bundle.dim)
        row[k - 1] = v.residual.as_fraction()
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
    ops = build("quotient-dend", parts, ("Q", "Q", "Q"))
    twist = ops.pop("alpha")
    quotient = AlgebraBundle(kind="dendriform", dim=qdim, ops=ops, twist=twist, parameters=())
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
    precondition = _operators.verify_operator("averaging_assoc", algebra, avg)
    _refuse_unless(precondition, force, "averaging operator does not verify")
    return AlgebraBundle(
        kind="diassociative",
        dim=algebra.dim,
        ops=build("avg-dias", algebra.parts_with(H=avg), ("D", "D", "D")),
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, avg.parameters()),
    )


def rota_baxter_induced(
    algebra: AlgebraBundle, rb: LinearMap, force: bool = False
) -> AlgebraBundle:
    """x new-dashv y = Rx dashv y + x dashv Ry, and the vdash analogue."""
    precondition = _operators.verify_operator("rota_baxter", algebra, rb)
    _refuse_unless(precondition, force, "Rota-Baxter operator does not verify")
    return AlgebraBundle(
        kind="diassociative",
        dim=algebra.dim,
        ops=build("rb-dias", algebra.parts_with(H=rb), ("D", "D", "D"), ("dashv", "vdash")),
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, rb.parameters()),
    )


def _twisted_actions(rep: RepresentationBundle, avg: LinearMap) -> dict:
    """u prec_vdash v = T(u) prec_l v, u prec_dashv v = u prec_r T(v), and
    the succ pair alike, on the module M of `rep`."""
    return build("ravg-quadri", rep.parts_with(H=avg), ("M", "M", "M"))


def relative_averaging_induced_quadri(
    rep: RepresentationBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """Quadri structure on the module: u prec_vdash v = T(u) prec_l v, etc."""
    precondition = _operators.verify_operator("relative_averaging", rep, avg)
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
    precondition = _operators.verify_operator("homomorphic_relative_averaging", action, avg)
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
    the succ pair alike; the lines read r as x and x as y."""
    inclusion = _complement_inclusion(bundle.dim, complement)
    parts = bundle.parts_with({"Q": len(complement)}, C=inclusion)
    return build("embed", parts, ("Q", "D", "D"))


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
