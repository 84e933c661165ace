"""Based finite-dimensional Hom-algebras as structure-constant tensors.

An algebra lives on a based vector space: each binary operation is a sparse
dim x dim x dim tensor of polynomials (e_i op e_j = sum_k c[i,j,k] e_k, with
1-based indices matching the tables' e_1, e_2, e_3), and the twist map alpha
is a polynomial matrix.  A bundle packages one algebra's kind tag, named
operations, twist, and declared parameter names; a representation adds a
module M with four actions and its twist beta, an action the algebra acted on.
Each bundle's `parts()` are (spaces, ops, maps) under the names the identity
text of `axioms` uses: D, its ops and alpha; D, M, the base ops, the actions,
alpha and beta; D, M, the acting ops, the actions, the acted ops as prec_m and
succ_m, alpha and alpha_m.  `used_parameters` (the union over the parts),
`parts_with` (the parts and a construction's own spaces and maps) and
`specialize` (over the dataclass fields) are written once (`_Bundle`).

Maps and ops do no ring arithmetic on the library's path: only the tests and
the benchmark's tracer call `apply` and `compose`, and only
`BilinearOp.from_entries` adds polynomials (the entries under one key).

Nothing here checks axioms; `validate()` checks only structural invariants
(op-name set vs kind, shapes, index ranges, parameter declarations), with one
tensor check for the algebra's ops and the actions (`_check_tensor`); an
action's flags name its acted ops prec_m and succ_m, as its parts do.  Axiom
checking lives in `axioms`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping

from .poly import Polynomial
from .report import Report, Violation

Vector = tuple

# Operation names required by each algebra kind.
KIND_OPS: dict[str, frozenset] = {
    "associative": frozenset({"mu"}),
    "dendriform": frozenset({"prec", "succ"}),
    "diassociative": frozenset({"dashv", "vdash"}),
    "triassociative": frozenset({"dashv", "vdash", "perp"}),
    "quadri_dendriform": frozenset(
        {"prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"}
    ),
    "six_dendriform": frozenset(
        {"prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv", "prec_perp", "succ_perp"}
    ),
}

ACTION_NAMES = ("prec_l", "succ_l", "prec_r", "succ_r")


def action_shapes(base_dim: int, module_dim: int) -> dict:
    """(left, right, output) dims of each action tensor: prec_l and succ_l
    send D x M to M, prec_r and succ_r send M x D to M."""
    left, right = (base_dim, module_dim, module_dim), (module_dim, base_dim, module_dim)
    return dict(zip(ACTION_NAMES, (left, left, right, right)))


class ModelError(ValueError):
    """Malformed input data (file shape, duplicate keys, bad polynomial text)."""


# ---------------------------------------------------------------------------
# vectors


def basis_vector(dim: int, index: int) -> Vector:
    if not 1 <= index <= dim:
        raise ValueError(f"basis index {index} out of range 1..{dim}")
    return tuple(
        Polynomial.one() if k == index - 1 else Polynomial.zero() for k in range(dim)
    )


# ---------------------------------------------------------------------------
# linear maps


@dataclass(frozen=True)
class LinearMap:
    dim_out: int
    dim_in: int
    entries: tuple  # rows, each a tuple of Polynomial

    def __post_init__(self):
        if len(self.entries) != self.dim_out or any(
            len(row) != self.dim_in for row in self.entries
        ):
            raise ValueError("matrix shape does not match declared dimensions")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Polynomial]]) -> "LinearMap":
        entries = tuple(tuple(row) for row in rows)
        return LinearMap(len(entries), len(entries[0]) if entries else 0, entries)

    @staticmethod
    def from_strings(rows: Iterable[Iterable[str]]) -> "LinearMap":
        return LinearMap.from_rows(
            [[Polynomial.parse(cell) for cell in row] for row in rows]
        )

    @staticmethod
    def from_fractions(rows) -> "LinearMap":
        return LinearMap.from_rows(
            [[Polynomial.constant(v) for v in row] for row in rows]
        )

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap.from_rows(
            [
                [Polynomial.one() if i == j else Polynomial.zero() for j in range(dim)]
                for i in range(dim)
            ]
        )

    @staticmethod
    def zero(dim_out: int, dim_in: int) -> "LinearMap":
        row = (Polynomial.zero(),) * dim_in
        return LinearMap(dim_out, dim_in, (row,) * dim_out)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.dim_in:
            raise ValueError(
                f"map expects dimension {self.dim_in}, got vector of length {len(v)}"
            )
        out = []
        for row in self.entries:
            acc = Polynomial.zero()
            for cell, coord in zip(row, v):
                if cell and coord:
                    acc = acc + cell * coord
            out.append(acc)
        return tuple(out)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """Matrix of self o inner."""
        if self.dim_in != inner.dim_out:
            raise ValueError("composition dimension mismatch")
        rows = []
        for i in range(self.dim_out):
            row = []
            for j in range(inner.dim_in):
                acc = Polynomial.zero()
                for k in range(self.dim_in):
                    acc = acc + self.entries[i][k] * inner.entries[k][j]
                row.append(acc)
            rows.append(row)
        return LinearMap.from_rows(rows)

    def transpose(self) -> "LinearMap":
        """The transposed map, made once and kept on the object, as
        `axioms._facts` keeps an op's or map's facts."""
        if "_transpose" not in self.__dict__:
            columns = tuple(tuple(row[c] for row in self.entries) for c in range(self.dim_in))
            self.__dict__["_transpose"] = LinearMap(self.dim_in, self.dim_out, columns)
        return self.__dict__["_transpose"]

    def specialize(self, bindings: Mapping) -> "LinearMap":
        return LinearMap.from_rows(
            [[cell.specialize(bindings) for cell in row] for row in self.entries]
        )

    def parameters(self) -> frozenset:
        names: set = set()
        for row in self.entries:
            for cell in row:
                names |= cell.parameters()
        return frozenset(names)

    def to_fraction_rows(self):
        return [[cell.as_fraction() for cell in row] for row in self.entries]

    @staticmethod
    def block_diag(a: "LinearMap", b: "LinearMap") -> "LinearMap":
        rows = []
        for i in range(a.dim_out):
            rows.append(list(a.entries[i]) + [Polynomial.zero()] * b.dim_in)
        for i in range(b.dim_out):
            rows.append([Polynomial.zero()] * a.dim_in + list(b.entries[i]))
        return LinearMap.from_rows(rows)


def unknown_matrix(rows: int, cols: int, prefix: str = "t") -> tuple:
    """(names, matrix): the row-major unknown names {prefix}{i}{j} (1-based)
    and the matrix whose entries are those variables."""
    names = [f"{prefix}{i}{j}" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    matrix = LinearMap.from_rows(
        [[Polynomial.variable(n) for n in names[r * cols : (r + 1) * cols]] for r in range(rows)]
    )
    return names, matrix


def span_matrix(basis, rows: int, cols: int) -> tuple:
    """(names, matrix): names c1, c2, ... and the matrix sum_k ck * basis[k],
    each vector a rows x cols matrix flattened row-major."""
    names = [f"c{k}" for k in range(1, len(basis) + 1)]
    cells = [
        Polynomial((((name, 1),), vector[p]) for name, vector in zip(names, basis))
        for p in range(rows * cols)
    ]
    return names, LinearMap(rows, cols, tuple(
        tuple(cells[r * cols : (r + 1) * cols]) for r in range(rows)
    ))


# ---------------------------------------------------------------------------
# bilinear operations


@dataclass(frozen=True)
class BilinearOp:
    """Sparse structure-constant tensor; zero entries are never stored.

    Algebra operations are square (all three dims equal); representation and
    action tensors reuse the same shape with mixed dims, so one evaluation
    code path serves both.
    """

    dim_left: int
    dim_right: int
    dim_out: int
    constants: tuple  # sorted tuple of ((i, j, k), Polynomial)

    @staticmethod
    def from_entries(dim_left: int, dim_right: int, dim_out: int, entries) -> "BilinearOp":
        acc: dict = {}
        for i, j, k, poly in entries:
            key = (i, j, k)
            acc[key] = acc[key] + poly if key in acc else poly
        constants = tuple(
            sorted((key, poly) for key, poly in acc.items() if not poly.is_zero())
        )
        return BilinearOp(dim_left, dim_right, dim_out, constants)

    @staticmethod
    def square(dim: int, entries) -> "BilinearOp":
        return BilinearOp.from_entries(dim, dim, dim, entries)

    def apply(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim_left or len(y) != self.dim_right:
            raise ValueError(
                f"operation expects {self.dim_left} x {self.dim_right}, "
                f"got {len(x)} x {len(y)}"
            )
        out = [Polynomial.zero()] * self.dim_out
        for (i, j, k), coeff in self.constants:
            xi = x[i - 1]
            if not xi:
                continue
            yj = y[j - 1]
            if not yj:
                continue
            out[k - 1] = out[k - 1] + xi * yj * coeff
        return tuple(out)

    def specialize(self, bindings: Mapping) -> "BilinearOp":
        return BilinearOp.from_entries(
            self.dim_left,
            self.dim_right,
            self.dim_out,
            [(i, j, k, c.specialize(bindings)) for (i, j, k), c in self.constants],
        )

    def parameters(self) -> frozenset:
        names: set = set()
        for _, poly in self.constants:
            names |= poly.parameters()
        return frozenset(names)

    def is_zero(self) -> bool:
        return not self.constants


# ---------------------------------------------------------------------------
# bundles


def _check_tensor(flag, dim_flag: str, name: str, op: BilinearOp, shape: tuple) -> bool:
    """Flag the tensor `name` with `dim_flag` when its shape is not `shape`, else
    each constant outside it with "structure.index-range"; True if the shape holds."""
    if (op.dim_left, op.dim_right, op.dim_out) != shape:
        flag(f"{dim_flag}:{name}")
        return False
    for key, _ in op.constants:
        if not all(1 <= v <= dim for v, dim in zip(key, shape)):
            flag(f"structure.index-range:{name}", key)
    return True


class _Bundle:
    """What the three bundles share, written over their fields and their
    `parts()`: (spaces, ops, maps) under the names the identity text uses."""

    def used_parameters(self) -> frozenset:
        _, ops, maps = self.parts()
        return frozenset().union(*(part.parameters() for part in (*ops.values(), *maps.values())))

    def parts_with(self, spaces: Mapping | None = None, **maps) -> tuple:
        """`parts()` with the `spaces` and `maps` of a construction beside the bundle's own."""
        own, ops, known = self.parts()
        return {**own, **(spaces or {})}, ops, {**known, **maps}

    def specialize(self, bindings: Mapping):
        """The bundle with each op, map and bundle in its fields specialized."""

        def special(value):
            if isinstance(value, dict):
                return {name: item.specialize(bindings) for name, item in value.items()}
            return value.specialize(bindings) if hasattr(value, "specialize") else value

        return replace(self, **{f.name: special(getattr(self, f.name)) for f in fields(self)})


@dataclass(frozen=True, eq=True)
class AlgebraBundle(_Bundle):
    kind: str
    dim: int
    ops: dict  # op name -> BilinearOp
    twist: LinearMap
    parameters: tuple  # declared parameter names, sorted

    def op(self, name: str) -> BilinearOp:
        return self.ops[name]

    def parts(self) -> tuple:
        return {"D": self.dim}, dict(self.ops), {"alpha": self.twist}

    def specialize(self, bindings: Mapping) -> "AlgebraBundle":
        """Refuses an undeclared name and declares the bound names no more."""
        for name in bindings:
            if name not in self.parameters:
                raise ValueError(f"binding undeclared parameter {name!r}")
        kept = tuple(p for p in self.parameters if p not in bindings)
        return replace(super().specialize(bindings), parameters=kept)

    def validate(self, suffix: str = "") -> Report:
        """The structural flags, each op name in them followed by `suffix`
        (an action's acted ops are prec_m and succ_m, as its `parts()` names them)."""
        entries = []

        def flag(template: str, witness: tuple = ()):
            entries.append(Violation(template, witness, Polynomial.zero()))

        if self.kind not in KIND_OPS:
            flag(f"structure.unknown-kind:{self.kind}")
            return Report(entries)
        required = KIND_OPS[self.kind]
        for name in sorted(set(self.ops) - required):
            flag(f"structure.unexpected-op:{name}{suffix}")
        for name in sorted(required - set(self.ops)):
            flag(f"structure.missing-op:{name}{suffix}")
        if (self.twist.dim_out, self.twist.dim_in) != (self.dim, self.dim):
            flag("structure.twist-dim")
        shaped = [
            op for name, op in sorted(self.ops.items()) if name in required
            and _check_tensor(flag, "structure.op-dim", name + suffix, op, (self.dim,) * 3)
        ]
        used = frozenset().union(*(part.parameters() for part in (self.twist, *shaped)))
        for name in sorted(used - set(self.parameters)):
            flag(f"structure.undeclared-parameter:{name}")
        return Report(entries)


@dataclass(frozen=True, eq=True)
class RepresentationBundle(_Bundle):
    """A module over a dendriform algebra: four action tensors plus beta."""

    base: AlgebraBundle
    module_dim: int
    actions: dict  # prec_l, succ_l: D x M -> M ; prec_r, succ_r: M x D -> M
    module_twist: LinearMap

    @staticmethod
    def adjoint(bundle: AlgebraBundle) -> "RepresentationBundle":
        if bundle.kind != "dendriform":
            raise ValueError("adjoint representation needs a dendriform bundle")
        prec, succ = bundle.op("prec"), bundle.op("succ")
        actions = dict(zip(ACTION_NAMES, (prec, succ, prec, succ)))
        return RepresentationBundle(bundle, bundle.dim, actions, bundle.twist)

    def action(self, name: str) -> BilinearOp:
        return self.actions[name]

    def parts(self) -> tuple:
        spaces = {"D": self.base.dim, "M": self.module_dim}
        maps = {"alpha": self.base.twist, "beta": self.module_twist}
        return spaces, {**self.base.ops, **self.actions}, maps

    def validate(self) -> Report:
        entries = list(self.base.validate().entries)

        def flag(template: str, witness: tuple = ()):
            entries.append(Violation(template, witness, Polynomial.zero()))

        if self.base.kind != "dendriform":
            flag("structure.representation-base-kind")
        m = self.module_dim
        for name, shape in action_shapes(self.base.dim, m).items():
            if name not in self.actions:
                flag(f"structure.missing-action:{name}")
            else:
                _check_tensor(flag, "structure.action-dim", name, self.actions[name], shape)
        if (self.module_twist.dim_out, self.module_twist.dim_in) != (m, m):
            flag("structure.module-twist-dim")
        # the names the base's own ops and twist use are flagged by the base
        known = self.base.used_parameters().union(self.base.parameters)
        for name in sorted(self.used_parameters() - known):
            flag(f"structure.undeclared-parameter:{name}")
        return Report(entries)


@dataclass(frozen=True, eq=True)
class ActionBundle(_Bundle):
    """A dendriform algebra acting on another dendriform algebra.

    `acted` lives on the module space; its twist doubles as the module twist
    of the underlying representation.
    """

    acting: AlgebraBundle
    acted: AlgebraBundle
    actions: dict

    @staticmethod
    def adjoint(bundle: AlgebraBundle) -> "ActionBundle":
        rep = RepresentationBundle.adjoint(bundle)
        return ActionBundle(acting=bundle, acted=bundle, actions=rep.actions)

    def representation(self) -> RepresentationBundle:
        return RepresentationBundle(self.acting, self.acted.dim, self.actions, self.acted.twist)

    def parts(self) -> tuple:
        spaces, ops, _ = self.representation().parts()
        ops.update((f"{name}_m", op) for name, op in self.acted.ops.items())
        return spaces, ops, {"alpha": self.acting.twist, "alpha_m": self.acted.twist}

    def validate(self) -> Report:
        entries = self.representation().validate().entries
        reported = set(entries)  # the acted twist is the module twist: flag it once
        entries += [violation for violation in self.acted.validate("_m").entries
                    if violation not in reported and violation.template != "structure.twist-dim"]
        if self.acted.kind != "dendriform":
            entries.append(Violation("structure.acted-kind", (), Polynomial.zero()))
        return Report(entries)
