"""Structure-producing procedures: splittings, products, quotients, and
operator-induced algebras.

Constructions whose validity rests on a precondition (a representation being
valid, an operator verifying) check it first and refuse with the offending
report attached (`PreconditionError`); `force=True` builds anyway, which is
deliberate: hunting for transcription errors requires constructing from
possibly wrong data.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import operators as _operators
from .axioms import check_action, check_representation
from .linalg import reduce_against, rref
from .model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    RepresentationBundle,
    Vector,
    basis_vector,
    vec_to_fractions,
)
from .poly import Polynomial
from .report import PreconditionError, Report, Violation


def _tensor_from_products(dim_left, dim_right, dim_out, product) -> BilinearOp:
    entries = []
    for i in range(1, dim_left + 1):
        for j in range(1, dim_right + 1):
            vec = product(i, j)
            for k, poly in enumerate(vec, start=1):
                if poly:
                    entries.append((i, j, k, poly))
    return BilinearOp.from_entries(dim_left, dim_right, dim_out, entries)


def _shift_entries(op: BilinearOp, di: int, dj: int, dk: int):
    return [(i + di, j + dj, k + dk, c) for (i, j, k), c in op.constants]


def _declared(*param_sources) -> tuple:
    names: set = set()
    for source in param_sources:
        names |= set(source)
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# sum-splittings


def quadri_to_diassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """vdash = prec_vdash + succ_vdash, dashv = prec_dashv + succ_dashv."""
    if bundle.kind != "quadri_dendriform":
        raise ValueError(f"expected a quadri_dendriform bundle, got {bundle.kind!r}")
    return AlgebraBundle(
        kind="diassociative",
        dim=bundle.dim,
        ops={
            "vdash": bundle.op("prec_vdash").add(bundle.op("succ_vdash")),
            "dashv": bundle.op("prec_dashv").add(bundle.op("succ_dashv")),
        },
        twist=bundle.twist,
        parameters=bundle.parameters,
    )


def six_to_triassociative(bundle: AlgebraBundle) -> AlgebraBundle:
    """perp/vdash/dashv as the pairwise sums of the six operations."""
    if bundle.kind != "six_dendriform":
        raise ValueError(f"expected a six_dendriform bundle, got {bundle.kind!r}")
    return AlgebraBundle(
        kind="triassociative",
        dim=bundle.dim,
        ops={
            "perp": bundle.op("prec_perp").add(bundle.op("succ_perp")),
            "vdash": bundle.op("prec_vdash").add(bundle.op("succ_vdash")),
            "dashv": bundle.op("prec_dashv").add(bundle.op("succ_dashv")),
        },
        twist=bundle.twist,
        parameters=bundle.parameters,
    )


def quadri_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its four quadri operations."""
    if bundle.kind != "six_dendriform":
        raise ValueError(f"expected a six_dendriform bundle, got {bundle.kind!r}")
    names = ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=bundle.dim,
        ops={n: bundle.op(n) for n in names},
        twist=bundle.twist,
        parameters=bundle.parameters,
    )


def perp_part(bundle: AlgebraBundle) -> AlgebraBundle:
    """Project a six-dendriform bundle onto its (prec_perp, succ_perp) pair."""
    if bundle.kind != "six_dendriform":
        raise ValueError(f"expected a six_dendriform bundle, got {bundle.kind!r}")
    return AlgebraBundle(
        kind="dendriform",
        dim=bundle.dim,
        ops={"prec": bundle.op("prec_perp"), "succ": bundle.op("succ_perp")},
        twist=bundle.twist,
        parameters=bundle.parameters,
    )


# ---------------------------------------------------------------------------
# products


def direct_sum_quadri(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """Block-diagonal operations on A + B; cross products vanish."""
    for bundle in (a, b):
        if bundle.kind != "quadri_dendriform":
            raise ValueError(f"expected quadri_dendriform bundles, got {bundle.kind!r}")
    d = a.dim
    ops = {}
    for name in a.ops:
        entries = list(a.op(name).constants)
        entries = [(i, j, k, c) for (i, j, k), c in entries]
        entries += _shift_entries(b.op(name), d, d, d)
        ops[name] = BilinearOp.from_entries(d + b.dim, d + b.dim, d + b.dim, entries)
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=d + b.dim,
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
    precondition = check_representation(rep)
    if not precondition.ok and not force:
        raise PreconditionError("representation does not verify", precondition)
    d, m = rep.base.dim, rep.module_dim
    n = d + m

    def build(base_op: BilinearOp, act: BilinearOp, pattern: str) -> BilinearOp:
        entries = [(i, j, k, c) for (i, j, k), c in base_op.constants]
        if pattern == "left":  # D x M -> M
            entries += _shift_entries(act, 0, d, d)
        else:  # M x D -> M
            entries += _shift_entries(act, d, 0, d)
        return BilinearOp.from_entries(n, n, n, entries)

    prec, succ = rep.base.op("prec"), rep.base.op("succ")
    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=n,
        ops={
            "prec_vdash": build(prec, rep.action("prec_l"), "left"),
            "prec_dashv": build(prec, rep.action("prec_r"), "right"),
            "succ_vdash": build(succ, rep.action("succ_l"), "left"),
            "succ_dashv": build(succ, rep.action("succ_r"), "right"),
        },
        twist=LinearMap.block_diag(rep.base.twist, rep.module_twist),
        parameters=_declared(rep.base.parameters, rep.used_parameters()),
    )


def semidirect_dendriform(action: ActionBundle, force: bool = False) -> AlgebraBundle:
    """Dendriform structure on D + D' from an action.

    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y + u prec' v)
    (x,u) succ (y,v) = (x succ y, x succ_l v + u succ_r y + u succ' v)
    """
    precondition = check_action(action)
    if not precondition.ok and not force:
        raise PreconditionError("action does not verify", precondition)
    d, m = action.acting.dim, action.acted.dim
    n = d + m

    def build(which: str) -> BilinearOp:
        entries = [
            (i, j, k, c) for (i, j, k), c in action.acting.op(which).constants
        ]
        entries += _shift_entries(action.actions[f"{which}_l"], 0, d, d)
        entries += _shift_entries(action.actions[f"{which}_r"], d, 0, d)
        entries += _shift_entries(action.acted.op(which), d, d, d)
        return BilinearOp.from_entries(n, n, n, entries)

    return AlgebraBundle(
        kind="dendriform",
        dim=n,
        ops={"prec": build("prec"), "succ": build("succ")},
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

    def reduce(self, vec) -> tuple:
        return tuple(reduce_against([list(r) for r in self.basis], list(self.pivots), vec))

    def complement_positions(self) -> tuple:
        """1-based standard basis positions not used as pivots."""
        return tuple(
            c + 1 for c in range(self.ambient_dim) if c not in self.pivots
        )


def _require_parameter_free(bundle) -> None:
    used = bundle.used_parameters()
    if used:
        raise ValueError(
            f"construction needs a parameter-free bundle; specialize {sorted(used)} first"
        )


def ideal_ID(bundle: AlgebraBundle) -> Subspace:
    """Span of all dashv-flavored minus vdash-flavored products."""
    if bundle.kind != "quadri_dendriform":
        raise ValueError(f"expected a quadri_dendriform bundle, got {bundle.kind!r}")
    _require_parameter_free(bundle)
    generators = []
    for flavor in ("prec", "succ"):
        diff = bundle.op(f"{flavor}_dashv").add(bundle.op(f"{flavor}_vdash").negate())
        for i in range(1, bundle.dim + 1):
            for j in range(1, bundle.dim + 1):
                vec = vec_to_fractions(
                    diff.apply(basis_vector(bundle.dim, i), basis_vector(bundle.dim, j))
                )
                generators.append(vec)
    return Subspace.from_spanning(bundle.dim, generators)


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
    products use the vdash-flavored representatives; the dashv-flavored
    ones are re-checked to agree modulo I_D.
    """
    ideal = ideal_ID(bundle)
    dim = bundle.dim
    entries = []
    ideal_vectors = [
        tuple(Polynomial.constant(x) for x in row) for row in ideal.basis
    ]
    for name in sorted(bundle.ops):
        op = bundle.op(name)
        for i in range(1, dim + 1):
            e = basis_vector(dim, i)
            for w_index, w in enumerate(ideal_vectors, start=1):
                left = ideal.reduce(vec_to_fractions(op.apply(e, w)))
                for coord, value in enumerate(left, start=1):
                    if value != 0:
                        entries.append(
                            Violation(
                                f"quotient.closure.left.{name}",
                                (i, w_index, coord),
                                Polynomial.constant(value),
                            )
                        )
                right = ideal.reduce(vec_to_fractions(op.apply(w, e)))
                for coord, value in enumerate(right, start=1):
                    if value != 0:
                        entries.append(
                            Violation(
                                f"quotient.closure.right.{name}",
                                (w_index, i, coord),
                                Polynomial.constant(value),
                            )
                        )
    for w_index, w in enumerate(ideal_vectors, start=1):
        image = ideal.reduce(vec_to_fractions(bundle.twist.apply(w)))
        for coord, value in enumerate(image, start=1):
            if value != 0:
                entries.append(
                    Violation(
                        "quotient.closure.twist",
                        (w_index, coord),
                        Polynomial.constant(value),
                    )
                )
    report = Report(entries)
    if not report.ok:
        return QuotientResult(ok=False, ideal=ideal, report=report)

    complement = ideal.complement_positions()
    qdim = len(complement)

    def project(vec: Vector) -> tuple:
        reduced = ideal.reduce(vec_to_fractions(vec))
        return tuple(reduced[c - 1] for c in complement)

    projection = LinearMap.from_fractions(
        [
            [project(basis_vector(dim, j))[r] for j in range(1, dim + 1)]
            for r in range(qdim)
        ]
    ) if qdim else LinearMap(0, dim, ())

    mismatch_entries = []

    def quotient_op(vdash_name: str, dashv_name: str, label: str) -> BilinearOp:
        tensor_entries = []
        for r, cr in enumerate(complement, start=1):
            for s, cs in enumerate(complement, start=1):
                main = project(
                    bundle.op(vdash_name).apply(basis_vector(dim, cr), basis_vector(dim, cs))
                )
                other = project(
                    bundle.op(dashv_name).apply(basis_vector(dim, cr), basis_vector(dim, cs))
                )
                for coord, (x, y) in enumerate(zip(main, other), start=1):
                    if x != y:
                        mismatch_entries.append(
                            Violation(
                                f"quotient.flavor-mismatch.{label}",
                                (r, s, coord),
                                Polynomial.constant(x - y),
                            )
                        )
                for k, value in enumerate(main, start=1):
                    if value != 0:
                        tensor_entries.append((r, s, k, Polynomial.constant(value)))
        return BilinearOp.from_entries(qdim, qdim, qdim, tensor_entries)

    prec = quotient_op("prec_vdash", "prec_dashv", "prec")
    succ = quotient_op("succ_vdash", "succ_dashv", "succ")
    if mismatch_entries:
        return QuotientResult(ok=False, ideal=ideal, report=Report(mismatch_entries))

    twist = LinearMap.from_fractions(
        [
            [project(bundle.twist.apply(basis_vector(dim, cs)))[r] for cs in complement]
            for r in range(qdim)
        ]
    ) if qdim else LinearMap(0, 0, ())

    quotient = AlgebraBundle(
        kind="dendriform",
        dim=qdim,
        ops={"prec": prec, "succ": succ},
        twist=twist,
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
    if not precondition.ok and not force:
        raise PreconditionError("averaging operator does not verify", precondition)
    mu = algebra.op("mu")
    dim = algebra.dim
    dashv = _tensor_from_products(
        dim, dim, dim,
        lambda i, j: mu.apply(basis_vector(dim, i), avg.apply(basis_vector(dim, j))),
    )
    vdash = _tensor_from_products(
        dim, dim, dim,
        lambda i, j: mu.apply(avg.apply(basis_vector(dim, i)), basis_vector(dim, j)),
    )
    return AlgebraBundle(
        kind="diassociative",
        dim=dim,
        ops={"dashv": dashv, "vdash": vdash},
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, avg.parameters()),
    )


def rota_baxter_induced(
    algebra: AlgebraBundle, rb: LinearMap, force: bool = False
) -> AlgebraBundle:
    """x new-dashv y = Rx dashv y + x dashv Ry, and the vdash analogue."""
    precondition = _operators.verify_rota_baxter(algebra, rb)
    if not precondition.ok and not force:
        raise PreconditionError("Rota-Baxter operator does not verify", precondition)
    dim = algebra.dim

    def induced(name: str) -> BilinearOp:
        op = algebra.op(name)

        def product(i, j):
            ei, ej = basis_vector(dim, i), basis_vector(dim, j)
            first = op.apply(rb.apply(ei), ej)
            second = op.apply(ei, rb.apply(ej))
            return tuple(a + b for a, b in zip(first, second))

        return _tensor_from_products(dim, dim, dim, product)

    return AlgebraBundle(
        kind="diassociative",
        dim=dim,
        ops={"dashv": induced("dashv"), "vdash": induced("vdash")},
        twist=algebra.twist,
        parameters=_declared(algebra.parameters, rb.parameters()),
    )


def relative_averaging_induced_quadri(
    rep: RepresentationBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """Quadri structure on the module: u prec_vdash v = T(u) prec_l v, etc."""
    precondition = _operators.verify_relative_averaging(rep, avg)
    if not precondition.ok and not force:
        raise PreconditionError("relative averaging operator does not verify", precondition)
    m = rep.module_dim

    def twisted(action_name: str, side: str) -> BilinearOp:
        act = rep.action(action_name)
        if side == "left":
            product = lambda i, j: act.apply(
                avg.apply(basis_vector(m, i)), basis_vector(m, j)
            )
        else:
            product = lambda i, j: act.apply(
                basis_vector(m, i), avg.apply(basis_vector(m, j))
            )
        return _tensor_from_products(m, m, m, product)

    return AlgebraBundle(
        kind="quadri_dendriform",
        dim=m,
        ops={
            "prec_vdash": twisted("prec_l", "left"),
            "prec_dashv": twisted("prec_r", "right"),
            "succ_vdash": twisted("succ_l", "left"),
            "succ_dashv": twisted("succ_r", "right"),
        },
        twist=rep.module_twist,
        parameters=_declared(rep.base.parameters, rep.used_parameters(), avg.parameters()),
    )


def homomorphic_averaging_induced_six(
    action: ActionBundle, avg: LinearMap, force: bool = False
) -> AlgebraBundle:
    """Six-dendriform structure on the acted algebra: perp ops are its own
    pair, the four T-twisted ops come from the action."""
    precondition = _operators.verify_homomorphic_relative_averaging(action, avg)
    if not precondition.ok and not force:
        raise PreconditionError(
            "homomorphic relative averaging operator does not verify", precondition
        )
    quadri = relative_averaging_induced_quadri(action.representation(), avg, force=True)
    ops = dict(quadri.ops)
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


def _embedding_actions(bundle: AlgebraBundle, complement) -> dict:
    """Action tensors of D/I_D on D via complement-basis representatives."""
    dim = bundle.dim
    qdim = len(complement)

    def left(op_name: str) -> BilinearOp:
        op = bundle.op(op_name)
        return _tensor_from_products(
            qdim, dim, dim,
            lambda r, j: op.apply(basis_vector(dim, complement[r - 1]), basis_vector(dim, j)),
        )

    def right(op_name: str) -> BilinearOp:
        op = bundle.op(op_name)
        return _tensor_from_products(
            dim, qdim, dim,
            lambda j, r: op.apply(basis_vector(dim, j), basis_vector(dim, complement[r - 1])),
        )

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
    entries = []
    dim = bundle.dim
    for perp_name, vdash_name, label in (
        ("prec_perp", "prec_vdash", "prec"),
        ("succ_perp", "succ_vdash", "succ"),
    ):
        diff = bundle.op(perp_name).add(bundle.op(vdash_name).negate())
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                vec = vec_to_fractions(
                    diff.apply(basis_vector(dim, i), basis_vector(dim, j))
                )
                reduced = quotient.ideal.reduce(vec)
                for coord, value in enumerate(reduced, start=1):
                    if value != 0:
                        entries.append(
                            Violation(
                                f"quotient.perp-compat.{label}",
                                (i, j, coord),
                                Polynomial.constant(value),
                            )
                        )
    report = Report(entries)
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
