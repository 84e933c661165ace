"""Independent brute-force oracle for the axiom checkers, the operator
and homomorphism verifiers, the two grid searches, and the constructions
(induced products, push-forward, the quotient by I_D and its conditions).

Transcribes the defining identities directly as coordinate computations with
its own tiny evaluator; shares no evaluation code with homsplit.axioms or
homsplit.operators.
Runs over exact Fractions for parameter-free bundles and over sympy
expressions for symbolic ones (sympy is a fully independent arithmetic
engine, so engine/oracle agreement checks two disjoint code paths).

The violation functions return (template, witness) sets, or with
`residuals=True` (template, witness, residual text) sets.  One of them,
`template_violations`, evaluates any template set of the engine by a dense
walk of its expression trees: it checks the engine's evaluation against the
same transcription, where the others also check the transcription.  The residual text
is the oracle's own value written in homsplit's canonical polynomial form
(`residual_text`); only that printing is shared with the engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy as sp

from homsplit.poly import Polynomial


def _fraction_scalar(poly):
    return poly.as_fraction()


def _fraction_is_zero(s) -> bool:
    return s == 0


def make_sympy_scalar(names):
    symbols = {n: sp.Symbol(n) for n in names}

    def conv(poly):
        return sp.sympify(str(poly).replace("^", "**"), locals=dict(symbols))

    return conv


def _sympy_is_zero(s) -> bool:
    return sp.expand(s) == 0


def _names(*sources) -> list:
    """Parameter names used by bundles and by matrices."""
    return sorted(set().union(*(
        s.used_parameters() if hasattr(s, "used_parameters") else s.parameters()
        for s in sources
    )))


def scalar_tools(mode: str, *sources):
    """(scalar conversion, zero test) for the bundles and matrices given."""
    if mode == "fraction":
        return _fraction_scalar, _fraction_is_zero
    return make_sympy_scalar(_names(*sources)), _sympy_is_zero


def residual_text(value) -> str:
    """Canonical homsplit text of a Fraction or sympy residual."""
    if isinstance(value, (int, Fraction)):
        return str(Polynomial.constant(value))
    expr = sp.expand(value)
    symbols = sorted(expr.free_symbols, key=lambda symbol: symbol.name)
    terms = sp.Poly(expr, *symbols).terms() if symbols else [((), sp.Rational(expr))]
    return str(Polynomial(
        (tuple((s.name, e) for s, e in zip(symbols, exps) if e), Fraction(int(c.p), int(c.q)))
        for exps, c in terms
    ))


def _found(found: dict, residuals: bool) -> set:
    """{(template, witness): residual} as a witness set, or with residual texts."""
    if not residuals:
        return set(found)
    return {key + (residual_text(value),) for key, value in found.items()}


def _table(op, conv) -> dict:
    return {key: conv(c) for key, c in op.constants}


def _matrix(linear, conv) -> list:
    return [[conv(cell) for cell in row] for row in linear.entries]


def _apply(table: dict, x, y, nout: int):
    out = [0] * nout
    for (i, j, k), c in table.items():
        out[k - 1] = out[k - 1] + x[i - 1] * y[j - 1] * c
    return out


def _map(rows: list, x):
    return [sum(row[c] * x[c] for c in range(len(x))) for row in rows]


def _add(a, b):
    return [p + q for p, q in zip(a, b)]


def _basis(n: int) -> list:
    return [[1 if c == r else 0 for c in range(n)] for r in range(n)]


def _violations(chains, n: int, is_zero) -> dict:
    """chains: list of (label, fn) with fn(x, y, z) -> list of expression
    lists; consecutive-to-first pairs are compared (.a, .b suffixes)."""
    found = {}
    basis = _basis(n)
    for label, fn in chains:
        for i, x in enumerate(basis, start=1):
            for j, y in enumerate(basis, start=1):
                for k, z in enumerate(basis, start=1):
                    exprs = fn(x, y, z)
                    first = exprs[0]
                    suffixes = [""] if len(exprs) == 2 else [".a", ".b"]
                    for suffix, other in zip(suffixes, exprs[1:]):
                        for coord in range(n):
                            residual = first[coord] - other[coord]
                            if not is_zero(residual):
                                found[label + suffix, (i, j, k, coord + 1)] = residual
    return found


def dendriform_violations(
    bundle, mode: str = "fraction", prefix: str = "dend", residuals: bool = False
) -> set:
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    p = _table(bundle.op("prec"), conv)
    s = _table(bundle.op("succ"), conv)
    al = _matrix(bundle.twist, conv)
    P = lambda x, y: _apply(p, x, y, n)
    S = lambda x, y: _apply(s, x, y, n)
    A = lambda x: _map(al, x)
    chains = [
        (f"{prefix}.1", lambda x, y, z: [P(A(x), _add(P(y, z), S(y, z))), P(P(x, y), A(z))]),
        (f"{prefix}.2", lambda x, y, z: [S(A(x), P(y, z)), P(S(x, y), A(z))]),
        (f"{prefix}.3", lambda x, y, z: [S(A(x), S(y, z)), S(_add(P(x, y), S(x, y)), A(z))]),
    ]
    return _found(_violations(chains, n, is_zero), residuals)


def diassociative_violations(bundle, mode: str = "fraction", residuals: bool = False) -> set:
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    d = _table(bundle.op("dashv"), conv)
    v = _table(bundle.op("vdash"), conv)
    al = _matrix(bundle.twist, conv)
    D = lambda x, y: _apply(d, x, y, n)
    V = lambda x, y: _apply(v, x, y, n)
    A = lambda x: _map(al, x)
    chains = [
        ("dias.4", lambda x, y, z: [D(D(x, y), A(z)), D(A(x), D(y, z))]),
        ("dias.5", lambda x, y, z: [D(D(x, y), A(z)), D(A(x), V(y, z))]),
        ("dias.6", lambda x, y, z: [D(V(x, y), A(z)), V(A(x), D(y, z))]),
        ("dias.7", lambda x, y, z: [V(D(x, y), A(z)), V(A(x), V(y, z))]),
        ("dias.8", lambda x, y, z: [V(V(x, y), A(z)), V(A(x), V(y, z))]),
    ]
    return _found(_violations(chains, n, is_zero), residuals)


def quadri_violations(bundle, mode: str = "fraction", residuals: bool = False) -> set:
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    pv = _table(bundle.op("prec_vdash"), conv)
    pd = _table(bundle.op("prec_dashv"), conv)
    sv = _table(bundle.op("succ_vdash"), conv)
    sd = _table(bundle.op("succ_dashv"), conv)
    al = _matrix(bundle.twist, conv)
    PV = lambda x, y: _apply(pv, x, y, n)
    PD = lambda x, y: _apply(pd, x, y, n)
    SV = lambda x, y: _apply(sv, x, y, n)
    SD = lambda x, y: _apply(sd, x, y, n)
    A = lambda x: _map(al, x)
    chains = [
        ("quadri.Hq1", lambda x, y, z: [
            PV(PV(x, y), A(z)), PV(PD(x, y), A(z)),
            PV(A(x), _add(PV(y, z), SV(y, z)))]),
        ("quadri.Hq2", lambda x, y, z: [
            PV(SV(x, y), A(z)), PV(SD(x, y), A(z)), SV(A(x), PV(y, z))]),
        ("quadri.Hq3", lambda x, y, z: [
            SV(A(x), SV(y, z)),
            SV(_add(PV(x, y), SV(x, y)), A(z)),
            SV(_add(PD(x, y), SD(x, y)), A(z))]),
        ("quadri.Hq4", lambda x, y, z: [
            SV(A(x), SV(y, z)),
            SV(_add(PD(x, y), SV(x, y)), A(z)),
            SV(_add(PV(x, y), SD(x, y)), A(z))]),
        ("quadri.Hq5", lambda x, y, z: [
            PD(PV(x, y), A(z)), PV(A(x), _add(PD(y, z), SD(y, z)))]),
        ("quadri.Hq6", lambda x, y, z: [
            PD(SV(x, y), A(z)), SV(A(x), PD(y, z))]),
        ("quadri.Hq7", lambda x, y, z: [
            SV(A(x), SD(y, z)), SD(_add(PV(x, y), SV(x, y)), A(z))]),
        ("quadri.Hq8", lambda x, y, z: [
            PD(PD(x, y), A(z)),
            PD(A(x), _add(PV(y, z), SV(y, z))),
            PD(A(x), _add(PD(y, z), SD(y, z)))]),
        ("quadri.Hq9", lambda x, y, z: [
            PD(PD(x, y), A(z)),
            PD(A(x), _add(PV(y, z), SD(y, z))),
            PD(A(x), _add(PD(y, z), SV(y, z)))]),
        ("quadri.Hq10", lambda x, y, z: [
            PD(SD(x, y), A(z)), SD(A(x), PV(y, z)), SD(A(x), PD(y, z))]),
        ("quadri.Hq11", lambda x, y, z: [
            SD(A(x), SV(y, z)), SD(A(x), SD(y, z)),
            SD(_add(PD(x, y), SD(x, y)), A(z))]),
    ]
    return _found(_violations(chains, n, is_zero), residuals)


def multiplicative_violations(bundle, mode: str = "fraction", residuals: bool = False) -> set:
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    al = _matrix(bundle.twist, conv)
    found = {}
    basis = _basis(n)
    for name in sorted(bundle.ops):
        table = _table(bundle.op(name), conv)
        for i, x in enumerate(basis, start=1):
            for j, y in enumerate(basis, start=1):
                lhs = _map(al, _apply(table, x, y, n))
                rhs = _apply(table, _map(al, x), _map(al, y), n)
                for coord in range(n):
                    residual = lhs[coord] - rhs[coord]
                    if not is_zero(residual):
                        found[f"mult.{name}", (i, j, coord + 1)] = residual
    return _found(found, residuals)


# -- operators and homomorphisms: pair identities plus matrix commutation ----


def _pair_violations(n: int, identities, is_zero, first: bool = False) -> dict:
    """identities: (label, fn) with fn(x, y) -> (lhs, rhs) on basis pairs of
    an n-dimensional space; witnesses (i, j, coordinate).  With `first`, stop
    after the first basis pair that violates an identity."""
    found = {}
    basis = _basis(n)
    for label, fn in identities:
        for i, x in enumerate(basis, start=1):
            for j, y in enumerate(basis, start=1):
                lhs, rhs = fn(x, y)
                for coord in range(len(lhs)):
                    residual = lhs[coord] - rhs[coord]
                    if not is_zero(residual):
                        found[label, (i, j, coord + 1)] = residual
                if first and found:
                    return found
    return found


def _commutation(label: str, X: list, inner: list, outer: list, is_zero) -> dict:
    """Entries of X inner - outer X, witnessed by (row, column)."""
    found = {}
    for r in range(len(X)):
        for c in range(len(inner[0])):
            left = sum(X[r][k] * inner[k][c] for k in range(len(inner)))
            right = sum(outer[r][k] * X[k][c] for k in range(len(outer)))
            residual = left - right
            if not is_zero(residual):
                found[label, (r + 1, c + 1)] = residual
    return found


def averaging_assoc_violations(
    algebra, H, mode: str = "fraction", strict_twist=False, first=False, residuals=False
) -> set:
    conv, is_zero = scalar_tools(mode, algebra, H)
    n = algebra.dim
    mu = _table(algebra.op("mu"), conv)
    h, al = _matrix(H, conv), _matrix(algebra.twist, conv)
    M = lambda x, y: _apply(mu, x, y, n)
    Hm = lambda x: _map(h, x)
    found = _pair_violations(n, [
        ("avg.mu.a", lambda x, y: (M(Hm(x), Hm(y)), Hm(M(x, Hm(y))))),
        ("avg.mu.b", lambda x, y: (M(Hm(x), Hm(y)), Hm(M(Hm(x), y)))),
    ], is_zero, first)
    if strict_twist:
        found |= _commutation("avg.twist", h, al, al, is_zero)
    return _found(found, residuals)


def rota_baxter_violations(
    algebra, R, mode: str = "fraction", first=False, residuals=False
) -> set:
    conv, is_zero = scalar_tools(mode, algebra, R)
    n = algebra.dim
    r, al = _matrix(R, conv), _matrix(algebra.twist, conv)
    Rm = lambda x: _map(r, x)
    identities = []
    for name in ("dashv", "vdash"):
        O = lambda x, y, t=_table(algebra.op(name), conv): _apply(t, x, y, n)
        identities.append((
            f"rb.{name}",
            lambda x, y, O=O: (O(Rm(x), Rm(y)), Rm(_add(O(Rm(x), y), O(x, Rm(y))))),
        ))
    return _found(_pair_violations(n, identities, is_zero, first) | _commutation(
        "rb.twist", r, al, al, is_zero
    ), residuals)


def averaging_quadri_violations(
    algebra, H, mode: str = "fraction", first=False, residuals=False
) -> set:
    conv, is_zero = scalar_tools(mode, algebra, H)
    n = algebra.dim
    h, al = _matrix(H, conv), _matrix(algebra.twist, conv)
    Hm = lambda x: _map(h, x)
    identities = []
    for name in sorted(algebra.ops):
        O = lambda x, y, t=_table(algebra.op(name), conv): _apply(t, x, y, n)
        identities += [
            (f"qavg.{name}.a", lambda x, y, O=O: (O(Hm(x), Hm(y)), Hm(O(Hm(x), y)))),
            (f"qavg.{name}.b", lambda x, y, O=O: (O(Hm(x), Hm(y)), Hm(O(x, Hm(y))))),
        ]
    return _found(_pair_violations(n, identities, is_zero, first) | _commutation(
        "qavg.twist", h, al, al, is_zero
    ), residuals)


def relative_averaging_violations(
    rep, T, mode: str = "fraction", first=False, residuals=False
) -> set:
    """T: M -> D with Tu op Tv = T(Tu op_l v) = T(u op_r Tv), T beta = alpha T."""
    conv, is_zero = scalar_tools(mode, rep, T)
    d, m = rep.base.dim, rep.module_dim
    t = _matrix(T, conv)
    Tm = lambda x: _map(t, x)
    identities = []
    for name in ("prec", "succ"):
        B = lambda x, y, tb=_table(rep.base.op(name), conv): _apply(tb, x, y, d)
        L = lambda x, y, tl=_table(rep.action(f"{name}_l"), conv): _apply(tl, x, y, m)
        R = lambda x, y, tr=_table(rep.action(f"{name}_r"), conv): _apply(tr, x, y, m)
        identities += [
            (f"ravg.{name}.l", lambda u, v, B=B, L=L: (B(Tm(u), Tm(v)), Tm(L(Tm(u), v)))),
            (f"ravg.{name}.r", lambda u, v, B=B, R=R: (B(Tm(u), Tm(v)), Tm(R(u, Tm(v))))),
        ]
    beta, alpha = _matrix(rep.module_twist, conv), _matrix(rep.base.twist, conv)
    return _found(_pair_violations(m, identities, is_zero, first) | _commutation(
        "ravg.twist", t, beta, alpha, is_zero
    ), residuals)


def homomorphism_violations(
    T, source, target, mode: str = "fraction", first=False, residuals=False
) -> set:
    """T(x op y) = Tx op Ty on source basis pairs, plus T alpha = alpha' T."""
    conv, is_zero = scalar_tools(mode, source, target, T)
    t = _matrix(T, conv)
    Tm = lambda x: _map(t, x)
    identities = []
    for name in sorted(source.ops):
        A = lambda x, y, ta=_table(source.op(name), conv): _apply(ta, x, y, source.dim)
        B = lambda x, y, tb=_table(target.op(name), conv): _apply(tb, x, y, target.dim)
        identities.append(
            (f"hom.{name}", lambda x, y, A=A, B=B: (Tm(A(x, y)), B(Tm(x), Tm(y))))
        )
    alpha_s, alpha_t = _matrix(source.twist, conv), _matrix(target.twist, conv)
    return _found(_pair_violations(source.dim, identities, is_zero, first) | _commutation(
        "hom.twist", t, alpha_s, alpha_t, is_zero
    ), residuals)


def operator_violations(
    kind: str, context, H, mode: str = "fraction", strict_twist=False, first=False,
    residuals=False,
) -> set:
    """Oracle counterpart of homsplit.operators.verify_operator for algebra,
    representation and action contexts (adjoint ones built by the caller)."""
    if kind == "averaging_assoc":
        return averaging_assoc_violations(context, H, mode, strict_twist, first, residuals)
    if kind == "rota_baxter":
        return rota_baxter_violations(context, H, mode, first, residuals)
    if kind == "averaging_quadri":
        return averaging_quadri_violations(context, H, mode, first, residuals)
    if kind == "relative_averaging":
        return relative_averaging_violations(context, H, mode, first, residuals)
    if kind == "homomorphic_relative_averaging":
        rep = context.representation()
        return relative_averaging_violations(rep, H, mode, first, residuals) | (
            homomorphism_violations(H, context.acted, context.acting, mode, first, residuals)
        )
    raise ValueError(kind)


def template_violations(templates, dims: dict, ops: dict, maps: dict, mode: str) -> set:
    """(template, witness, residual text) of templates of `homsplit.axioms`,
    each side evaluated at every basis tuple by the dense tree walk below.
    It reads the engine's own transcription of the identities, so it checks
    the engine's evaluation (tables, joins, scales), not the transcription."""
    conv, is_zero = scalar_tools(mode, *ops.values(), *maps.values())
    tables = {name: (_table(op, conv), op.dim_out) for name, op in ops.items()}
    matrices = {name: _matrix(linear, conv) for name, linear in maps.items()}

    def value(expr, point: dict) -> list:
        kind = type(expr).__name__
        if kind == "Var":
            return point[expr.name]
        if kind == "App":
            return _map(matrices[expr.map_name], value(expr.arg, point))
        if kind == "Op":
            table, nout = tables[expr.op_name]
            return _apply(table, value(expr.left, point), value(expr.right, point), nout)
        terms = [value(term, point) for term in expr.terms]
        return [sum(coords) for coords in zip(*terms)]

    found = {}
    for template in templates:
        bases = [_basis(dims[space]) for _, space in template.variables]
        for combo in itertools.product(*(range(1, len(basis) + 1) for basis in bases)):
            point = {
                name: basis[i - 1]
                for (name, _), basis, i in zip(template.variables, bases, combo)
            }
            lhs, rhs = value(template.lhs, point), value(template.rhs, point)
            for coord, (a, b) in enumerate(zip(lhs, rhs), start=1):
                if not is_zero(a - b):
                    found[template.id, (*combo, coord)] = a - b
    return _found(found, residuals=True)


def engine_violation_set(report) -> set:
    return {(v.template, v.witness) for v in report.entries}


def engine_residual_set(report) -> set:
    return {(v.template, v.witness, str(v.residual)) for v in report.entries}


# -- constructions: induced products, push-forward, quotient by I_D ------------


def _tensor(fn, dims: tuple, is_zero) -> dict:
    """{(i, j, k): value} of the nonzero coordinates k of fn(e_i, e_j)."""
    dim_left, dim_right = dims
    return {
        (i, j, k): value
        for i, x in enumerate(_basis(dim_left), start=1)
        for j, y in enumerate(_basis(dim_right), start=1)
        for k, value in enumerate(fn(x, y), start=1)
        if not is_zero(value)
    }


def averaging_dias_tensors(algebra, H, mode: str = "fraction") -> dict:
    """a dashv b = mu(a, Hb), a vdash b = mu(Ha, b)."""
    conv, is_zero = scalar_tools(mode, algebra, H)
    n = algebra.dim
    mu, h = _table(algebra.op("mu"), conv), _matrix(H, conv)
    M = lambda x, y: _apply(mu, x, y, n)
    Hm = lambda x: _map(h, x)
    return {
        "dashv": _tensor(lambda x, y: M(x, Hm(y)), (n, n), is_zero),
        "vdash": _tensor(lambda x, y: M(Hm(x), y), (n, n), is_zero),
    }


def rota_baxter_tensors(algebra, R, mode: str = "fraction") -> dict:
    """x new-op y = Rx op y + x op Ry for op = dashv, vdash."""
    conv, is_zero = scalar_tools(mode, algebra, R)
    n = algebra.dim
    r = _matrix(R, conv)
    Rm = lambda x: _map(r, x)
    out = {}
    for name in ("dashv", "vdash"):
        O = lambda x, y, t=_table(algebra.op(name), conv): _apply(t, x, y, n)
        out[name] = _tensor(lambda x, y, O=O: _add(O(Rm(x), y), O(x, Rm(y))), (n, n), is_zero)
    return out


def twisted_sum_tensor(algebra, H, mode: str = "fraction") -> dict:
    """x, y -> Hx dashv y + x vdash y: a sum of two products of different ops."""
    conv, is_zero = scalar_tools(mode, algebra, H)
    n = algebra.dim
    d, v, h = _table(algebra.op("dashv"), conv), _table(algebra.op("vdash"), conv), _matrix(H, conv)
    return _tensor(
        lambda x, y: _add(_apply(d, _map(h, x), y, n), _apply(v, x, y, n)), (n, n), is_zero
    )


def relative_averaging_tensors(rep, T, mode: str = "fraction") -> dict:
    """u op_vdash v = T(u) op_l v and u op_dashv v = u op_r T(v) on the module."""
    conv, is_zero = scalar_tools(mode, rep, T)
    m = rep.module_dim
    t = _matrix(T, conv)
    Tm = lambda x: _map(t, x)
    out = {}
    for name in ("prec", "succ"):
        L = lambda x, y, tl=_table(rep.action(f"{name}_l"), conv): _apply(tl, x, y, m)
        R = lambda x, y, tr=_table(rep.action(f"{name}_r"), conv): _apply(tr, x, y, m)
        out[f"{name}_vdash"] = _tensor(lambda u, v, L=L: L(Tm(u), v), (m, m), is_zero)
        out[f"{name}_dashv"] = _tensor(lambda u, v, R=R: R(u, Tm(v)), (m, m), is_zero)
    return out


def _inverse(rows: list) -> list:
    n = len(rows)
    augmented = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(rows)]
    echelon, _ = _rref(augmented, 2 * n)
    return [row[n:] for row in echelon]


def push_forward_tensors(bundle, basis_change, mode: str = "fraction") -> dict:
    """x op' y = S^-1(Sx op Sy) for an invertible parameter-free S."""
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    s = _matrix(basis_change, conv)
    s_inv = _inverse(s)
    out = {}
    for name in sorted(bundle.ops):
        O = lambda x, y, t=_table(bundle.op(name), conv): _apply(t, x, y, n)
        out[name] = _tensor(
            lambda x, y, O=O: _map(s_inv, O(_map(s, x), _map(s, y))), (n, n), is_zero
        )
    return out


def _ideal(bundle, conv) -> tuple:
    """RREF basis rows and pivots of I_D, spanned by all x op_dashv y - x op_vdash y."""
    n = bundle.dim
    generators = []
    for flavor in ("prec", "succ"):
        dashv = _table(bundle.op(f"{flavor}_dashv"), conv)
        vdash = _table(bundle.op(f"{flavor}_vdash"), conv)
        for x in _basis(n):
            for y in _basis(n):
                generators.append(
                    [a - b for a, b in zip(_apply(dashv, x, y, n), _apply(vdash, x, y, n))]
                )
    return _rref(generators, n)


def _reducer(rows: list, pivots: list):
    """v -> v - sum_r v[pivot_r] row_r, reduction modulo the row space."""
    def reduce(v):
        out = list(v)
        for row, pivot in zip(rows, pivots):
            out = [a - v[pivot] * b for a, b in zip(out, row)]
        return out

    return reduce


def quotient_oracle(bundle, mode: str = "fraction") -> dict:
    """The quotient of a parameter-free quadri bundle by I_D, transcribed:
    "violations" {(template, witness): residual} of the closure of I_D under
    the four operations (both sides) and the twist, then of the agreement of
    the two flavors on complement classes; once both hold, the quotient
    "ops" (vdash-flavored), "twist" and "projection" rows."""
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    rows, pivots = _ideal(bundle, conv)
    reduce = _reducer(rows, pivots)
    alpha = _matrix(bundle.twist, conv)
    found = {}

    def record(template, witness, vector):
        for coord, value in enumerate(vector, start=1):
            if not is_zero(value):
                found[template, witness + (coord,)] = value

    for name in sorted(bundle.ops):
        O = lambda x, y, t=_table(bundle.op(name), conv): _apply(t, x, y, n)
        for i, x in enumerate(_basis(n), start=1):
            for w_index, w in enumerate(rows, start=1):
                record(f"quotient.closure.left.{name}", (i, w_index), reduce(O(x, w)))
                record(f"quotient.closure.right.{name}", (w_index, i), reduce(O(w, x)))
    for w_index, w in enumerate(rows, start=1):
        record("quotient.closure.twist", (w_index,), reduce(_map(alpha, w)))
    if found:
        return {"violations": found}
    complement = [c for c in range(n) if c not in pivots]
    project = lambda v: [reduce(v)[c] for c in complement]
    e = _basis(n)
    ops = {}
    for flavor in ("prec", "succ"):
        vdash = _table(bundle.op(f"{flavor}_vdash"), conv)
        dashv = _table(bundle.op(f"{flavor}_dashv"), conv)
        ops[flavor] = {}
        for r, cr in enumerate(complement, start=1):
            for s, cs in enumerate(complement, start=1):
                main = project(_apply(vdash, e[cr], e[cs], n))
                other = project(_apply(dashv, e[cr], e[cs], n))
                difference = [a - b for a, b in zip(main, other)]
                record(f"quotient.flavor-mismatch.{flavor}", (r, s), difference)
                ops[flavor].update(
                    {(r, s, k): v for k, v in enumerate(main, start=1) if not is_zero(v)}
                )
    if found:
        return {"violations": found}
    twist = [[project(_map(alpha, e[cs]))[r] for cs in complement] for r in range(len(complement))]
    projection = [[project(e[j])[r] for j in range(n)] for r in range(len(complement))]
    return {"violations": {}, "ops": ops, "twist": twist, "projection": projection,
            "complement": [c + 1 for c in complement]}


def embedding_action_tensors(bundle, complement, mode: str = "fraction") -> dict:
    """Actions of D/I_D on D through the complement representatives e_c:
    r op_l x = e_{c_r} op_vdash x and x op_r r = x op_dashv e_{c_r}."""
    conv, is_zero = scalar_tools(mode, bundle)
    n, q = bundle.dim, len(complement)
    lift = lambda r: _basis(n)[complement[r.index(1)] - 1]
    out = {}
    for flavor in ("prec", "succ"):
        V = lambda x, y, t=_table(bundle.op(f"{flavor}_vdash"), conv): _apply(t, x, y, n)
        D = lambda x, y, t=_table(bundle.op(f"{flavor}_dashv"), conv): _apply(t, x, y, n)
        out[f"{flavor}_l"] = _tensor(lambda r, x, V=V: V(lift(r), x), (q, n), is_zero)
        out[f"{flavor}_r"] = _tensor(lambda x, r, D=D: D(x, lift(r)), (n, q), is_zero)
    return out


def closure_violations(ops: dict, R, W, Z, alpha, mode: str = "fraction") -> dict:
    """{(template, witness): residual} of R(x op Ww) = Zw, R(Ww op x) = Zw and
    R(alpha Ww) = Zw over basis vectors x of D and w of I, for arbitrary
    matrices R: D -> D, W: I -> D, Z: I -> D and alpha: D -> D; with the
    reduction modulo I_D, its inclusion and Z = 0 these are the closure
    conditions of the quotient.  `ops` holds square tensors on D."""
    conv, is_zero = scalar_tools(mode, R, W, Z, alpha, *ops.values())
    r, w_rows, z, al = (_matrix(m, conv) for m in (R, W, Z, alpha))
    n, m = len(w_rows), len(w_rows[0])
    found = {}

    def record(template, witness, lhs, rhs):
        for coord, (a, b) in enumerate(zip(lhs, rhs), start=1):
            if not is_zero(a - b):
                found[template, witness + (coord,)] = a - b

    for w_index, w in enumerate(_basis(m), start=1):
        image, zw = _map(w_rows, w), _map(z, w)
        for name in sorted(ops):
            table = _table(ops[name], conv)
            for i, x in enumerate(_basis(n), start=1):
                record(f"quotient.closure.left.{name}", (i, w_index),
                       _map(r, _apply(table, x, image, n)), zw)
                record(f"quotient.closure.right.{name}", (w_index, i),
                       _map(r, _apply(table, image, x, n)), zw)
        record("quotient.closure.twist", (w_index,), _map(r, _map(al, image)), zw)
    return found


def perp_compat_violations(bundle, mode: str = "fraction") -> dict:
    """{(template, witness): residual} where x op_perp y and x op_vdash y
    differ modulo I_D (the ideal of the six bundle's quadri operations)."""
    conv, is_zero = scalar_tools(mode, bundle)
    n = bundle.dim
    reduce = _reducer(*_ideal(bundle, conv))
    found = {}
    for flavor in ("prec", "succ"):
        perp = _table(bundle.op(f"{flavor}_perp"), conv)
        vdash = _table(bundle.op(f"{flavor}_vdash"), conv)
        for i, x in enumerate(_basis(n), start=1):
            for j, y in enumerate(_basis(n), start=1):
                pairs = zip(_apply(perp, x, y, n), _apply(vdash, x, y, n))
                diff = reduce([a - b for a, b in pairs])
                for coord, value in enumerate(diff, start=1):
                    if not is_zero(value):
                        found[f"quotient.perp-compat.{flavor}", (i, j, coord)] = value
    return found


# -- grid searches: the candidate-by-candidate enumerators, in plain Fractions --


def _rref(rows: list, ncols: int) -> tuple:
    """(nonzero rows, pivot columns) of the reduced row echelon form, for
    Fraction or sympy number entries."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _nullspace(equations: list, ncols: int) -> list:
    """Basis of {x : A x = 0} read off the reduced row echelon form: one
    vector per free column, 1 there and 0 at the other free columns."""
    m, pivots = _rref(equations, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def _commuting_basis(inner: list, outer: list) -> list:
    """Nullspace basis of X inner = outer X in the row-major entries of X."""
    rows, cols = len(outer), len(inner)
    equations = []
    for i in range(rows):
        for j in range(cols):
            coeff = [Fraction(0)] * (rows * cols)
            for k in range(cols):
                coeff[i * cols + k] += inner[k][j]
            for k in range(rows):
                coeff[k * cols + j] -= outer[i][k]
            equations.append(coeff)
    return _nullspace(equations, rows * cols)


def grid_operator_solutions(kind: str, context, grid, strict_twist=False) -> list:
    """Solutions of `operator_violations` (same context conventions) whose
    coordinates over the twist-commutation nullspace lie in the grid; a
    kind whose definition omits twist commutation runs over every matrix
    entry.  Row lists, in row-major order."""
    from homsplit.model import LinearMap

    if kind in ("averaging_assoc", "rota_baxter", "averaging_quadri"):
        rows = cols = context.dim
        inner = outer = context.twist.to_fraction_rows()
        bound = kind != "averaging_assoc" or strict_twist
    else:
        rep = context.representation() if kind == "homomorphic_relative_averaging" else context
        rows, cols = rep.base.dim, rep.module_dim
        inner, outer = rep.module_twist.to_fraction_rows(), rep.base.twist.to_fraction_rows()
        bound = True
    n = rows * cols
    if bound:
        basis = _commuting_basis(inner, outer)
    else:
        basis = [[Fraction(int(p == q)) for q in range(n)] for p in range(n)]
    solutions = []
    for coefficients in itertools.product(sorted(set(grid)), repeat=len(basis)):
        flat = [
            sum((c * vec[p] for c, vec in zip(coefficients, basis)), Fraction(0))
            for p in range(n)
        ]
        matrix = [flat[r * cols : (r + 1) * cols] for r in range(rows)]
        H = LinearMap.from_fractions(matrix)
        if not operator_violations(kind, context, H, "fraction", strict_twist, first=True):
            solutions.append(matrix)
    return sorted(solutions)


def _determinant(rows: list) -> Fraction:
    """Cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, cell in enumerate(rows[0]):
        if cell:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * cell * _determinant(minor)
    return total


def _is_homomorphism(t: list, source, target) -> bool:
    """T(x op y) = Tx op' Ty on every basis pair, stopping at the first miss."""
    n = source.dim
    basis = _basis(n)
    for name in sorted(source.ops):
        a = _table(source.op(name), _fraction_scalar)
        b = _table(target.op(name), _fraction_scalar)
        for x in basis:
            for y in basis:
                if _map(t, _apply(a, x, y, n)) != _apply(b, _map(t, x), _map(t, y), n):
                    return False
    return True


def first_grid_isomorphism(source, target, grid):
    """Rows of the first grid matrix T, entries enumerated row-major over the
    sorted grid, with T alpha = alpha' T, det T != 0 and T a homomorphism;
    None when there is none."""
    n = source.dim
    # integral values as ints: the same numbers, compared much faster
    narrow = lambda v: v.numerator if v.denominator == 1 else v
    alpha_s = [[narrow(v) for v in row] for row in source.twist.to_fraction_rows()]
    alpha_t = [[narrow(v) for v in row] for row in target.twist.to_fraction_rows()]
    values = sorted({narrow(Fraction(v)) for v in grid})
    for flat in itertools.product(values, repeat=n * n):
        t = [list(flat[r * n : (r + 1) * n]) for r in range(n)]
        if any(
            sum(t[i][k] * alpha_s[k][j] for k in range(n))
            != sum(alpha_t[i][k] * t[k][j] for k in range(n))
            for i in range(n)
            for j in range(n)
        ):
            continue
        if _determinant(t) != 0 and _is_homomorphism(t, source, target):
            return t
    return None
