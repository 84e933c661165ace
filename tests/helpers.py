"""Shared builders and seeded random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from homsplit.axioms import (
    App,
    Template,
    Var,
    check_associative,
    check_dendriform,
    evaluate_templates,
)
from homsplit.model import (
    KIND_OPS,
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    RepresentationBundle,
)
from homsplit.poly import Polynomial
from homsplit.report import Violation

P = Polynomial.parse

COEFFS = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2),
]

VALUES = [Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]


def expression_values(expr, variables, dim_out: int, dims, ops, maps) -> dict:
    """{(*basis tuple in `variables` order, coordinate): Polynomial} over the
    nonzero coordinates of `expr`: the residuals of `expr` = 0 from one
    `evaluate_templates` call, 0 being the zero map "0" from the space of the
    first placeholder, as the constructions read their values."""
    first, space = variables[0]
    zero = LinearMap.zero(dim_out, dims[space])
    template = Template("value", tuple(variables), expr, App("0", Var(first)))
    report = evaluate_templates([template], dims, ops, {**maps, "0": zero})
    return {v.witness: v.residual for v in report.entries}


def bundle(kind, dim, params, alpha_rows, **ops) -> AlgebraBundle:
    return AlgebraBundle(
        kind=kind,
        dim=dim,
        ops={
            name: BilinearOp.square(
                dim, [(i, j, k, P(c) if isinstance(c, str) else Polynomial.constant(c))
                      for (i, j, k, c) in entries]
            )
            for name, entries in ops.items()
        },
        twist=LinearMap.from_strings(alpha_rows),
        parameters=tuple(sorted(params)),
    )


def zero_bundle(kind, dim, op_names, alpha=None) -> AlgebraBundle:
    return AlgebraBundle(
        kind=kind,
        dim=dim,
        ops={name: BilinearOp.square(dim, ()) for name in op_names},
        twist=alpha if alpha is not None else LinearMap.identity(dim),
        parameters=(),
    )


def deta() -> AlgebraBundle:
    """The worked dimension-3 dendriform example, symbolic in eta and b."""
    return bundle(
        "dendriform", 3, ["b", "eta"],
        [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "b"]],
        prec=[(1, 2, 3, "eta"), (2, 2, 3, "-1/2"), (3, 2, 3, "1")],
        succ=[(2, 1, 3, "1"), (2, 2, 1, "1"), (2, 2, 3, "1/4"),
              (3, 2, 1, "eta"), (3, 2, 3, "1")],
    )


def rich_dendriform() -> AlgebraBundle:
    """Depth-3 dendriform instance with identity twist; unlike the corpus
    tables it is rigid enough to witness violations of reinterpretations
    (e1 prec (e1 prec e1) = e4 while e1 succ (e1 prec e1) = 0)."""
    return bundle(
        "dendriform", 4, [],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        prec=[(1, 1, 2, "1"), (1, 2, 4, "1"), (2, 1, 4, "1")],
        succ=[(1, 1, 3, "1")],
    )


def sec2_diassociative() -> AlgebraBundle:
    return bundle(
        "diassociative", 3, ["a"],
        [["a", "1", "0"], ["0", "a", "0"], ["0", "0", "1"]],
        dashv=[(1, 2, 3, "-2"), (2, 1, 3, "1"), (2, 2, 3, "1")],
        vdash=[(1, 1, 3, "1/4"), (1, 2, 3, "1"), (2, 2, 3, "1")],
    )


def op_sum(a: BilinearOp, b: BilinearOp) -> BilinearOp:
    """The tensor a + b of two ops of one shape."""
    entries = [(*key, c) for key, c in a.constants + b.constants]
    return BilinearOp.from_entries(a.dim_left, a.dim_right, a.dim_out, entries)


def vec_add(a: tuple, b: tuple) -> tuple:
    if len(a) != len(b):
        raise ValueError("vector dimension mismatch")
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(scalar, v: tuple) -> tuple:
    if isinstance(scalar, (int, Fraction)):
        scalar = Polynomial.constant(scalar)
    return tuple(scalar * x for x in v)


def substitute(poly: Polynomial, bindings: dict) -> Polynomial:
    """Substitute polynomials for parameters (the ring endomorphism
    extending the bindings; unbound parameters persist)."""
    if not bindings:
        return poly
    acc = Polynomial.zero()
    for mono, coeff in poly.terms:
        term = Polynomial.constant(coeff)
        for name, exp in mono:
            factor = bindings.get(name)
            if factor is None:
                factor = Polynomial.variable(name)
            term = term * factor ** exp
        acc = acc + term
    return acc


def rand_fraction(rng: random.Random) -> Fraction:
    return rng.choice(COEFFS)


def rand_matrix(rng: random.Random, dim_out: int, dim_in: int, values=None) -> LinearMap:
    values = values if values is not None else [Fraction(0), Fraction(1), Fraction(-1)]
    return LinearMap.from_fractions(
        [[rng.choice(values) for _ in range(dim_in)] for _ in range(dim_out)]
    )


def _rand_sparse_op(rng: random.Random, dim: int, max_entries: int) -> BilinearOp:
    entries = []
    for _ in range(rng.randrange(max_entries + 1)):
        entries.append(
            (
                rng.randrange(1, dim + 1),
                rng.randrange(1, dim + 1),
                rng.randrange(1, dim + 1),
                Polynomial.constant(rand_fraction(rng)),
            )
        )
    return BilinearOp.square(dim, entries)


def random_dendriform_candidate(rng: random.Random, dim: int = 2) -> AlgebraBundle:
    """Random sparse dendriform candidate; caller filters with the checker."""
    alpha = rand_matrix(rng, dim, dim)
    return AlgebraBundle(
        kind="dendriform",
        dim=dim,
        ops={
            "prec": _rand_sparse_op(rng, dim, 2),
            "succ": _rand_sparse_op(rng, dim, 2),
        },
        twist=alpha,
        parameters=(),
    )


def dendriform_pool(rng: random.Random, count: int, dim: int = 2, max_attempts: int = 20000):
    """Valid dendriform instances: randomize structure constants, filter."""
    pool = []
    attempts = 0
    while len(pool) < count and attempts < max_attempts:
        attempts += 1
        candidate = random_dendriform_candidate(rng, dim)
        if check_dendriform(candidate).ok:
            pool.append(candidate)
    return pool


def random_associative_candidate(rng: random.Random, dim: int = 2) -> AlgebraBundle:
    return AlgebraBundle(
        kind="associative",
        dim=dim,
        ops={"mu": _rand_sparse_op(rng, dim, 2)},
        twist=rand_matrix(rng, dim, dim),
        parameters=(),
    )


def associative_pool(rng: random.Random, count: int, dim: int = 2, max_attempts: int = 20000):
    pool = []
    attempts = 0
    while len(pool) < count and attempts < max_attempts:
        attempts += 1
        candidate = random_associative_candidate(rng, dim)
        if check_associative(candidate).ok:
            pool.append(candidate)
    return pool


def flip_one_constant(rng: random.Random, algebra: AlgebraBundle) -> AlgebraBundle:
    """Flip the sign of one randomly chosen nonzero structure constant."""
    flat = [
        (name, key)
        for name, op in sorted(algebra.ops.items())
        for key, _ in op.constants
    ]
    name, key = rng.choice(flat)
    ops = {}
    for op_name, op in algebra.ops.items():
        entries = [
            (i, j, k, -c if (op_name == name and (i, j, k) == key) else c)
            for (i, j, k), c in op.constants
        ]
        ops[op_name] = BilinearOp.from_entries(op.dim_left, op.dim_right, op.dim_out, entries)
    return AlgebraBundle(algebra.kind, algebra.dim, ops, algebra.twist, algebra.parameters)


def six_from_pair(dend: AlgebraBundle) -> AlgebraBundle:
    """Degenerate six bundle with every operation pair equal to (prec, succ)."""
    prec, succ = dend.op("prec"), dend.op("succ")
    return AlgebraBundle(
        "six_dendriform", dend.dim,
        {
            "prec_perp": prec, "succ_perp": succ,
            "prec_vdash": prec, "succ_vdash": succ,
            "prec_dashv": prec, "succ_dashv": succ,
        },
        dend.twist, dend.parameters,
    )


def near_valid_six() -> AlgebraBundle:
    """A six-dendriform algebra that passes symmetric sq15 but for one
    structure constant whose sign is flipped: a few violations."""
    return flip_one_constant(random.Random(0), six_from_pair(rich_dendriform()))


def rows(data):
    """`data` with each Violation replaced by its row dict (`to_dict()`)."""
    if isinstance(data, Violation):
        return data.to_dict()
    if isinstance(data, dict):
        return {key: rows(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [rows(value) for value in data]
    return data


def adjoint(algebra: AlgebraBundle) -> RepresentationBundle:
    return RepresentationBundle.adjoint(algebra)


def random_op(rng, dim_left, dim_right, dim_out, count) -> BilinearOp:
    return BilinearOp.from_entries(dim_left, dim_right, dim_out, [
        (rng.randrange(1, dim_left + 1), rng.randrange(1, dim_right + 1),
         rng.randrange(1, dim_out + 1), Polynomial.constant(rng.choice(VALUES)))
        for _ in range(count)
    ])


def symbolic_matrix(rows: int, cols: int) -> LinearMap:
    """The matrix of unknowns h11, h12, ...: an operator in sympy mode."""
    return LinearMap.from_rows(
        [[Polynomial.variable(f"h{i}{j}") for j in range(1, cols + 1)] for i in range(1, rows + 1)]
    )


def random_bundle(rng, kind, dim, count=3) -> AlgebraBundle:
    ops = {name: random_op(rng, dim, dim, dim, count) for name in sorted(KIND_OPS[kind])}
    return AlgebraBundle(kind, dim, ops, rand_matrix(rng, dim, dim), ())


def dense_six(rng: random.Random, dim: int) -> AlgebraBundle:
    """A six-dendriform tensor that fails densely: round(0.3 dim^3) entries per
    operation from COEFFS, every third one times the parameter p; the twist is
    the identity plus one off-diagonal 1/2."""
    cells = [(i, j, k) for i in range(1, dim + 1) for j in range(1, dim + 1)
             for k in range(1, dim + 1)]
    p = Polynomial.variable("p")
    ops = {}
    for name in sorted(KIND_OPS["six_dendriform"]):
        entries = []
        for index, (i, j, k) in enumerate(sorted(rng.sample(cells, round(0.3 * len(cells))))):
            coeff = Polynomial.constant(rng.choice(COEFFS))
            entries.append((i, j, k, coeff * p if index % 3 == 0 else coeff))
        ops[name] = BilinearOp.square(dim, entries)
    alpha = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    alpha[0][dim - 1] = Fraction(1, 2)
    return AlgebraBundle("six_dendriform", dim, ops, LinearMap.from_fractions(alpha), ("p",))


def random_action(rng, base_dim, module_dim) -> ActionBundle:
    """Arbitrary tensors of the action shapes; the identities need not hold."""
    b, m = base_dim, module_dim
    actions = {
        "prec_l": random_op(rng, b, m, m, 3), "succ_l": random_op(rng, b, m, m, 3),
        "prec_r": random_op(rng, m, b, m, 3), "succ_r": random_op(rng, m, b, m, 3),
    }
    return ActionBundle(
        random_bundle(rng, "dendriform", b), random_bundle(rng, "dendriform", m), actions
    )
