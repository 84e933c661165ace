"""Identity templates and per-kind axiom checkers.

Every defining identity is a template: an expression tree over placeholders
combining named operations, twist applications, and formal sums.  A checker
instantiates the placeholders with every tuple of basis vectors and demands
that each coordinate of lhs - rhs be the zero polynomial, symbolically in
all declared parameters.  Violations carry the basis witness with the
coordinate index appended, and the residual polynomial.

Every identity set is text, one line per identity in the paper's notation,
parsed on first use (`_identities`):

    quadri.Hq1: (x pv y) pv a(z) = (x pd y) pv a(z) = a(x) pv (y pv z + y sv z)
    qavg.{op}: H(x) op H(y) = H(H(x) op y) = H(x op H(y))

A side is a sum of terms, a term being a placeholder, a sum in
parentheses, a map applied to one, or two of these around one op.  Ops and
maps are written by their aliases in one table, `_ALIASES` ("pv" is
prec_vdash, "-|" dashv, "a" alpha, "am" alpha_m; an operator, morphism or
graph map such as "H", "T", "G" is its own alias).  Each placeholder has
one space (`_SPACES`):

    x y z     "D", the algebra
    m u v w   "M", the module
    p q       "P", the domain of a graph
    n         "I", the basis of an ideal

The witness order of a template is the order in which its placeholders
first appear, read from the left of its lhs.  A chained equality a = b = c
is split pairwise as first=second (".a") and first=third (".b"); the implied
second=third is not checked.  A line whose id holds "{op}" is read once for
each op name a set is read over, with "{op}" and the alias "op" standing for
that name and "op'" for the name with a prime (the target's op in
"hom.{op}"); for each op all such lines come first, in order, then the set's
other lines.  A set with per-op lines read over no op is refused.

What the constructions build is text too: `_CONSTRUCTIONS` holds one line
`id: expr` per op or map, such as "avg-dias.dashv: x mu H(y)", parsed with
rhs None (`constructions.build`).  Only it holds lines with no "=", and a set
name is looked up there when the identities have no line of it.

Template ids are the line ids ("dias.4"-"dias.8" are numbered as in the
source equations), and "six.dend.*" are the "dend" lines read over prec_perp
and succ_perp.  Operators, morphisms and graphs are named maps ("H", "T",
"G"): "avg.mu.a"/"avg.mu.b", "rb.<op>", "ravg.<op>.l"/"ravg.<op>.r",
"qavg.<op>.a"/"qavg.<op>.b", "hom.<op>", "mult.<op>" and
"graph.<op>"/"graph.twist".  The quotient by the ideal I_D is checked the
same way, with reduction modulo I_D as the map "R":
"quotient.closure.left/right.<op>", "quotient.closure.twist" and
"quotient.perp-compat.<flavor>"; the generators of I_D are the residuals of
"ideal.<flavor>".  Twist commutation X o alpha = alpha' o X
("avg.twist", "rb.twist", "ravg.twist", "qavg.twist", "hom.twist") is the
one template written in Python, over the transposed maps (`twist_template`),
so that it is witnessed by (row, col).

The evaluator tabulates each distinct subterm once per basis tuple of its own
placeholders and shares the tables across the templates of one call that bind
their placeholders to the same spaces.  What that takes from the templates
alone (the distinct subterms, the order they are tabulated in, the tables each
template drops, the placeholder names of every subterm and the projectors
between their index tuples) is an evaluation plan, made once per template set
and kept across calls (`_Plan`).  Tables are sparse: a table holds only the
basis tuples where the subterm's vector is nonzero, and a vector only its
nonzero coordinates, as {index: coordinate}; a missing key or index is zero.
A placeholder's table is full.  Two shapes need no evaluation: the table of
x op y over two distinct placeholders is the op's own structure constants,
{(i, j): {k: c_ijk}} (keyed (j, i) when y's name sorts first), and the table
of f(x) of a placeholder is the columns of f, {(j,): {i: f_ij}}; each is read
from the converted op or map once per call and shared by every subterm that
reads it (`_Compiled.pairs`, `_Compiled.columns`).  Any other op walks, from
each nonzero x_i of a left entry, only the structure constants c_ij* of row
i, each with the right entries that agree with it on their shared
placeholders and have y_j nonzero, so every product it forms meets a
structure constant; any other map application, and a sum, keeps only the
entries that do not come out zero.  A template whose two tables and scales
are equal passes outright, and otherwise only the coordinates present on
either side are compared.

Tables hold exact integers.  Each call converts every op and map it uses once
(`poly.IntegerForm`) into sparse {packed monomial: int} entries over the
sorted union of the parameters of the call's ops and maps, a monomial being
one int whose bit fields hold its exponents, so that multiplying two
monomials is one integer addition; the fields are wide enough that no
exponent the call forms can carry into the next (see `_Compiled`).  Each op
and map is scaled by the least common multiple of its own denominators.  A
table carries the scale of its subterm: an op or map application multiplies
its own scale with its children's, and a Sum takes the least common multiple
of its terms' scales and multiplies each term by the matching integer.  The
two sides of a template may have different scales (`mult.*` applies alpha
once on one side and twice on the other), so a coordinate passes when
lhs * (L / sL) == rhs * (L / sR) as integer dicts, with L = lcm(sL, sR).  A
nonzero residual stays the integer dict over L in its Violation, which builds
the canonical Polynomial only on demand.

The sq15 identity mixes two operations across its sides in the source; both
the literal reading and the symmetrized one are implemented, selectable via
`sq15="literal"` (default) or `sq15="symmetric"`, which bind the alias "r15"
of its two right sides to "pd" or to "sd".
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter

from .model import (
    ActionBundle, AlgebraBundle, BilinearOp, KIND_OPS, LinearMap, RepresentationBundle,
)
from .poly import IntegerForm, max_exponent
from .report import Report, scaled_violation

SQ15_READINGS = ("literal", "symmetric")
SQ15_DEFAULT = "literal"


# ---------------------------------------------------------------------------
# expression trees


def _hash_once(node) -> int:
    """Subterms key the evaluator's tables, so each node hashes its fields once."""
    if "_hash" not in node.__dict__:
        node.__dict__["_hash"] = hash(tuple(node.__dict__.values()))
    return node.__dict__["_hash"]


@dataclass(frozen=True)
class Var:
    name: str
    __hash__ = _hash_once


@dataclass(frozen=True)
class App:
    map_name: str
    arg: object
    __hash__ = _hash_once


@dataclass(frozen=True)
class Op:
    op_name: str
    left: object
    right: object
    __hash__ = _hash_once


@dataclass(frozen=True)
class Sum:
    terms: tuple
    __hash__ = _hash_once


@dataclass(frozen=True)
class Template:
    id: str
    variables: tuple  # ((placeholder, space), ...) in witness order
    lhs: object
    rhs: object
    __hash__ = _hash_once


def _children(expr) -> tuple:
    if isinstance(expr, Var):
        return ()
    if isinstance(expr, App):
        return (expr.arg,)
    if isinstance(expr, Op):
        return (expr.left, expr.right)
    if isinstance(expr, Sum):
        return expr.terms
    raise TypeError(f"not an expression node: {expr!r}")


def _nodes(expr) -> int:
    """The number of Op and App nodes of `expr`."""
    return isinstance(expr, (Op, App)) + sum(map(_nodes, _children(expr)))


def _projector(names, sub):
    """Map an index tuple over `names` to the one over `sub`, whose names are
    taken from `names` (a repeated name reads its first position)."""
    if tuple(sub) == tuple(names):
        return lambda combo: combo
    positions = [names.index(name) for name in sub]
    if not positions:
        return lambda combo: ()
    if len(positions) == 1:
        (position,) = positions
        return lambda combo: (combo[position],)
    return itemgetter(*positions)


# ---------------------------------------------------------------------------
# the integer backend: a vector is a dict {coordinate index: coordinate} of its
# nonzero coordinates, and a coordinate is a dict {packed monomial: int}

_ZERO: dict = {}  # the zero vector and the zero coordinate; shared, so never mutated


def _vector(out: dict) -> dict:
    """The vector of the accumulated coordinates {index: dict}, without zero
    coefficients and without the coordinates that cancelled to zero."""
    vector = {}
    for k, acc in out.items():
        if 0 in acc.values():
            acc = {m: c for m, c in acc.items() if c}
        if acc:
            vector[k] = acc
    return vector


def _accumulate(acc: dict, terms, factor_terms, constant) -> None:
    """acc += terms * factor, the factor being the int `constant` when it is a
    constant, else the polynomial `factor_terms`."""
    if constant is not None:
        for mono, coeff in terms:
            acc[mono] = acc.get(mono, 0) + coeff * constant
        return
    for m1, c1 in terms:
        for m2, c2 in factor_terms:
            mono = m1 + m2
            acc[mono] = acc.get(mono, 0) + c1 * c2


def _facts(value) -> tuple:
    """(parameters, largest exponent) of an op or map, worked out once per
    object and kept on it, as `_hash_once` keeps a node's hash."""
    if "_facts" not in value.__dict__:
        polys = (
            [poly for _, poly in value.constants] if isinstance(value, BilinearOp)
            else [cell for row in value.entries for cell in row]
        )
        value.__dict__["_facts"] = value.parameters(), max_exponent(polys)
    return value.__dict__["_facts"]


class _Compiled:
    """The ops and maps of one call as scaled integer tensors and matrices.

    `form` writes polynomials over the sorted union of the parameters they
    use, with monomials packed into ints (`poly.IntegerForm`); a coordinate
    is a dict {packed monomial: int}, the empty dict being zero, and the
    product of two monomials is their sum.  `nodes` bounds the number of Op
    and App nodes on a template side: a product multiplies one entry of each
    op and map on its side, a sum keeps the exponents of its terms and a
    residual difference adds none, so no exponent exceeds `nodes` times the
    largest exponent of any entry, which is the `degree` the form holds
    without carrying.  The parameters and largest exponent of each op and
    map are kept on the object (`_facts`), so a later call does not work
    them out again.  Each op and map is converted on first use, scaled by
    the least common multiple of its own coefficient denominators, and kept
    as (scale, dims, kernel): an op's kernel is the data `_join` walks, a
    map's a function of a vector.  The converted values themselves are kept
    too (`values`), and read directly, without a join or a map application,
    by the tables of x op y over two distinct placeholders (`pairs`) and of
    f(x) of a placeholder (`columns`).
    """

    def __init__(self, ops: dict, maps: dict, nodes: int):
        self.ops, self.maps = ops, maps
        facts = [_facts(value) for value in itertools.chain(ops.values(), maps.values())]
        self.form = IntegerForm(
            sorted(set().union(*(names for names, _ in facts))),
            nodes * max((exponent for _, exponent in facts), default=0),
        )
        self.kernels: dict = {}
        self.values: dict = {}

    @staticmethod
    def _factor(terms: dict) -> tuple:
        """(terms, None), or (None, c) for the constant polynomial c."""
        if len(terms) == 1 and 0 in terms:
            return None, terms[0]
        return tuple(terms.items()), None

    def op(self, name: str) -> tuple:
        """(scale, dims, rows), the structure constants by row of the left
        factor: `rows[i]` = ((j, targets), ...) over the j of the constants
        c_ij*, `targets` = ((k, terms, constant), ...) being those constants
        as `_factor` writes them (0-based indices)."""
        if ("op", name) not in self.kernels:
            op = self.ops[name]
            scale, values = self.form.scaled(poly for _, poly in op.constants)
            rows = [{} for _ in range(op.dim_left)]
            for ((i, j, k), _), terms in zip(op.constants, values):
                rows[i - 1].setdefault(j - 1, []).append((k - 1, *self._factor(terms)))
            rows = tuple(tuple(row.items()) for row in rows)
            self.kernels["op", name] = scale, (op.dim_left, op.dim_right, op.dim_out), rows
            self.values["op", name] = values
        return self.kernels["op", name]

    def map(self, name: str) -> tuple:
        if ("map", name) not in self.kernels:
            linear = self.maps[name]
            scale, values = self.form.scaled(cell for row in linear.entries for cell in row)
            columns = [[] for _ in range(linear.dim_in)]
            for index, terms in enumerate(values):
                if terms:
                    row, col = divmod(index, linear.dim_in)
                    columns[col].append((row, *self._factor(terms)))

            def apply(v):
                out = {}
                for j, vj in v.items():
                    items = vj.items()
                    for row, terms, constant in columns[j]:
                        _accumulate(out.setdefault(row, {}), items, terms, constant)
                return _vector(out)

            self.kernels["map", name] = scale, (linear.dim_in, linear.dim_out), apply
            self.values["map", name] = values
        return self.kernels["map", name]

    def pairs(self, name: str, flip: bool) -> dict:
        """The table of x op y for two distinct placeholders, {(i, j): {k - 1:
        c_ijk}}, keyed (j, i) when `flip` (y's name sorts first), over the
        scale of `op`.  Built on first use; every slot that reads it shares it."""
        if ("pairs", name, flip) not in self.kernels:
            self.op(name)
            table: dict = {}
            for ((i, j, k), _), terms in zip(self.ops[name].constants, self.values["op", name]):
                if terms:
                    table.setdefault((j, i) if flip else (i, j), {})[k - 1] = terms
            self.kernels["pairs", name, flip] = table
        return self.kernels["pairs", name, flip]

    def columns(self, name: str) -> dict:
        """The table of f(x) for a placeholder x, {(j,): {i - 1: f_ij}}, over
        the scale of the map f; built and shared as `pairs` is."""
        if ("columns", name) not in self.kernels:
            self.map(name)
            table: dict = {}
            for index, terms in enumerate(self.values["map", name]):
                if terms:
                    row, col = divmod(index, self.maps[name].dim_in)
                    table.setdefault((col + 1,), {})[row] = terms
            self.kernels["columns", name] = dict(sorted(table.items()))
        return self.kernels["columns", name]


# ---------------------------------------------------------------------------
# evaluation plans

_VAR, _APP, _OP, _SUM, _PAIR, _COLUMNS = range(6)


def _spreader(free: tuple, names: tuple, spaces: dict):
    """How `_spread` re-keys a table over `free` by tuples over `names`, which
    hold every name of `free`: None when they are equal, else (the spaces of
    the names missing from `free`, the projector onto `names`)."""
    if free == names:
        return None
    missing = tuple(name for name in names if name not in free)
    return tuple(spaces[name] for name in missing), _projector(free + missing, names)


def _spread(table: dict, spreader, dims: dict) -> dict:
    """`table` re-keyed as `spreader` says (see `_spreader`): each entry stands
    for all the tuples that agree with its key on the table's own names.  A
    missing key is still zero."""
    if spreader is None:
        return table
    spaces, pick = spreader
    extensions = list(itertools.product(*(range(1, dims[space] + 1) for space in spaces)))
    return {pick(key + extra): vector for key, vector in table.items() for extra in extensions}


class _Plan:
    """How to evaluate one template set, worked out once from the templates
    alone: no dimension, op or map enters it.

    Each distinct (subterm, scope) gets a slot; `scope` binds each
    placeholder to its space, so a subterm shared by several templates over
    the same spaces is tabulated once.  `code[slot]` is the instruction that
    tabulates it from the slots of its children, which come first, with the
    projectors its op join or sum needs (and an op's shared placeholder
    names), and `free[slot]` its sorted placeholder names.  Two instructions
    have no children and read a call's converted kernels directly: `_PAIR`
    (op name, the spaces of x and y, and whether y's name sorts first) for
    x op y over two distinct placeholders, and `_COLUMNS` (map name, space)
    for f(x) of a placeholder; every other shape, x op x included, is joined
    or applied.  `steps` holds, per template in order: the template, the
    range of slots it tabulates first, the slots of its two sides with the
    spreaders that re-key them by its witness order, and the slots it uses
    last, whose tables are dropped after it.  `nodes` is the largest number of Op and App nodes on a
    template side (see `_Compiled`).
    """

    def __init__(self, templates: tuple):
        self.code: list = []
        self.free: list = []
        self._slots: dict = {}
        self.steps: list = []
        self.nodes = max(
            (_nodes(side) for template in templates for side in (template.lhs, template.rhs)),
            default=0,
        )
        last_use = {}
        for t, template in enumerate(templates):
            scope = tuple(sorted(template.variables))
            spaces = dict(scope)
            start, used = len(self.code), set()
            lhs, rhs = (self.slot(side, scope, used) for side in (template.lhs, template.rhs))
            names = tuple(name for name, _ in template.variables)
            self.steps.append((
                template, range(start, len(self.code)), lhs, rhs,
                _spreader(self.free[lhs], names, spaces),
                _spreader(self.free[rhs], names, spaces),
                [],
            ))
            for slot in used:
                last_use[slot] = t
        for slot, t in last_use.items():
            self.steps[t][-1].append(slot)

    def slot(self, expr, scope: tuple, used: set) -> int:
        """The slot of `expr` over `scope`, adding the instructions of it and
        of its subterms that have none yet; `used` collects the slots read."""
        key = expr, scope
        slot = self._slots.get(key)
        if slot is None:
            spaces = dict(scope)
            if isinstance(expr, Var):
                free, code = (expr.name,), (_VAR, spaces[expr.name])
            elif isinstance(expr, App) and isinstance(expr.arg, Var):
                free, code = (expr.arg.name,), (_COLUMNS, expr.map_name, spaces[expr.arg.name])
            elif (isinstance(expr, Op) and isinstance(expr.left, Var)
                  and isinstance(expr.right, Var) and expr.left != expr.right):
                a, b = expr.left.name, expr.right.name
                free = tuple(sorted((a, b)))
                code = _PAIR, expr.op_name, spaces[a], spaces[b], b < a
            else:
                children = [self.slot(child, scope, used) for child in _children(expr)]
                free = tuple(sorted(set().union(*(self.free[child] for child in children))))
                if isinstance(expr, App):
                    code = _APP, children[0], expr.map_name
                elif isinstance(expr, Op):
                    (free_a, free_b) = (self.free[child] for child in children)
                    shared = tuple(name for name in free_b if name in free_a)
                    code = (
                        _OP, *children, expr.op_name, shared,
                        _projector(free_a, shared), _projector(free_b, shared),
                        _projector(free_a + free_b, free),
                    )
                else:
                    code = _SUM, children, [_spreader(self.free[c], free, spaces) for c in children]
            slot = self._slots[key] = len(self.code)
            self.code.append(code)
            self.free.append(free)
        used.add(slot)
        return slot


@functools.lru_cache(maxsize=64)
def _plan(templates: tuple) -> _Plan:
    """The plan of a template set, kept for the 64 sets used last."""
    return _Plan(templates)


def _index(b: dict, at_b) -> dict:
    """The right factor `b` of an op, indexed for `_join`: {its entries'
    shared placeholder group `at_b(key)`: {j: [(key, y_j items), ...]}},
    each entry filed under each of its nonzero coordinates y_j."""
    index: dict = {}
    for key, vector in b.items():
        group = index.setdefault(at_b(key), {})
        for j, yj in vector.items():
            group.setdefault(j, []).append((key, yj.items()))
    return index


def _join(a: dict, index: dict, rows: tuple, at_a, pick) -> dict:
    """The sparse table of an op with kernel `rows` (`_Compiled.op`) over
    the table `a` of its left factor and the `_index` of its right one.

    x op y is the sum of c_ijk x_i y_j e_k, so for each nonzero x_i of a left
    entry the join walks only row i, and each (j, targets) only with the
    right entries of the left entry's group whose y_j is nonzero.  The
    products of one left entry are made into vectors, a zero one dropped,
    before the next left entry starts."""
    table = {}
    for key_a, vector_a in a.items():
        group = index.get(at_a(key_a))
        if group is None:
            continue
        out: dict = {}
        for i, xi in vector_a.items():
            xi = xi.items()
            for j, targets in rows[i]:
                right = group.get(j)
                if right is None:
                    continue
                for key_b, yj in right:
                    xy = [(m1 + m2, c1 * c2) for m1, c1 in xi for m2, c2 in yj]
                    accs = out.get(key_b)
                    if accs is None:
                        accs = out[key_b] = {}
                    for k, terms, constant in targets:
                        acc = accs.get(k)
                        if acc is None:
                            acc = accs[k] = {}
                        if constant is None:
                            _accumulate(acc, xy, terms, None)
                        else:
                            for mono, coeff in xy:
                                acc[mono] = acc.get(mono, 0) + coeff * constant
        for key_b, accs in out.items():
            product = _vector(accs)
            if product:
                table[pick(key_a + key_b)] = product
    return table


def _tabulate(code: tuple, tables: list, dims: dict, compiled: _Compiled) -> tuple:
    """(scale, dimension, {basis indices of the slot's names: integer
    vector}, {shared names: `_index`}) of the instruction `code` (see
    `_Plan`) over the tables of its children; the value of the subterm is
    the vector / scale.

    Tables and vectors are sparse (see the module docstring).  A
    placeholder's table is full, x op y and f(x) of placeholders are the
    shared tables of `_Compiled.pairs` and `_Compiled.columns` (with a fresh
    index dict per slot, since the slots differ in their names), any other
    op or map application keeps the entries it does not send to zero, an op
    multiplies only present coordinates that meet a structure constant
    (`_join`), and a sum runs over the union of its terms' keys.  An op
    builds the index of its right factor once per call and set of shared
    names, and keeps it with that table, which drops it.  A subterm's scale
    is its own op or map scale times its children's scales; a sum takes the
    least common multiple of its terms'.
    """
    kind = code[0]
    if kind == _VAR:
        dim = dims[code[1]]
        return 1, dim, {(i,): {i - 1: {0: 1}} for i in range(1, dim + 1)}, {}
    if kind in (_APP, _COLUMNS):
        if kind == _APP:
            _, child, name = code
            scale, child_dim, vectors, _ = tables[child]
        else:
            _, name, space = code
            scale, child_dim = 1, dims[space]
        own, (dim_in, dim), apply = compiled.map(name)
        if child_dim != dim_in:
            raise ValueError(f"map expects dimension {dim_in}, got vector of length {child_dim}")
        if kind == _COLUMNS:
            return own, dim, compiled.columns(name), {}
        table = {combo: image for combo, vector in vectors.items() if (image := apply(vector))}
        return own * scale, dim, table, {}
    if kind in (_OP, _PAIR):
        if kind == _OP:
            _, left, right, name, shared, at_a, at_b, pick = code
            (scale_a, dim_a, a, _), (scale_b, dim_b, b, indexes) = tables[left], tables[right]
        else:
            _, name, space_a, space_b, flip = code
            dim_a, dim_b = dims[space_a], dims[space_b]
        own, (dim_left, dim_right, dim), rows = compiled.op(name)
        if (dim_a, dim_b) != (dim_left, dim_right):
            raise ValueError(
                f"operation expects {dim_left} x {dim_right}, got {dim_a} x {dim_b}"
            )
        if kind == _PAIR:
            return own, dim, compiled.pairs(name, flip), {}
        index = indexes.get(shared)
        if index is None:
            index = indexes[shared] = _index(b, at_b)
        return own * scale_a * scale_b, dim, _join(a, index, rows, at_a, pick), {}
    _, children, spreaders = code
    terms = [tables[child] for child in children]
    dim = terms[0][1]
    if any(term_dim != dim for _, term_dim, _, _ in terms):
        raise ValueError("vector dimension mismatch")
    scale = math.lcm(*(term_scale for term_scale, _, _, _ in terms))
    factors = [scale // term_scale for term_scale, _, _, _ in terms]
    spread = [
        _spread(table, spreader, dims) for (_, _, table, _), spreader in zip(terms, spreaders)
    ]
    table = {}
    for combo in set().union(*spread):
        out: dict = {}
        for factor, term in zip(factors, spread):
            for k, coord in term.get(combo, _ZERO).items():
                _accumulate(out.setdefault(k, {}), coord.items(), None, factor)
        if total := _vector(out):
            table[combo] = total
    return scale, dim, table, {}


def _difference(a: dict, a_factor: int, b: dict, b_factor: int) -> dict:
    """a * a_factor - b * b_factor, without zero coefficients: a copy of a,
    from which b is subtracted in place.  The coefficients of a and b and both
    factors are nonzero, so a coefficient that comes out zero was in the copy."""
    out = dict(a) if a_factor == 1 else {mono: coeff * a_factor for mono, coeff in a.items()}
    for mono, coeff in b.items():
        value = out.get(mono, 0) - coeff * b_factor
        if value:
            out[mono] = value
        else:
            del out[mono]
    return out


def _violations(
    step: tuple, tables: list, same_names: bool, dims: dict, form, residuals: dict,
    witnesses: dict,
) -> list:
    """The violations of the template of the plan step `step`, whose sides
    have the tabulations `tables[lhs]` and `tables[rhs]`; see
    `evaluate_templates`.  `residuals` and `witnesses` hold those made so far
    in the call: {scale: {the set of a residual's terms: its `scaled`
    tuple}} and {witness: itself}."""
    template, _, lhs, rhs, lhs_spreader, rhs_spreader, _ = step
    (lhs_scale, lhs_dim, lhs, _), (rhs_scale, rhs_dim, rhs, _) = tables[lhs], tables[rhs]
    if lhs_dim != rhs_dim:
        raise ValueError(
            f"template {template.id}: the sides have dimensions {lhs_dim} and {rhs_dim}"
        )
    if lhs_scale == rhs_scale and same_names and lhs == rhs:
        return []
    lhs, rhs = _spread(lhs, lhs_spreader, dims), _spread(rhs, rhs_spreader, dims)
    scale = math.lcm(lhs_scale, rhs_scale)
    lhs_factor, rhs_factor = scale // lhs_scale, scale // rhs_scale
    same = lhs_factor == rhs_factor
    tid = template.id
    shared = residuals.setdefault(scale, {})
    entries = []
    for combo in sorted(lhs.keys() | rhs.keys()):
        left, right = lhs.get(combo, _ZERO), rhs.get(combo, _ZERO)
        if same and left == right:
            continue
        for k in sorted(left.keys() | right.keys()):
            a, b = left.get(k, _ZERO), right.get(k, _ZERO)
            if a == b and (same or not a):
                continue
            residual = _difference(a, lhs_factor, b, rhs_factor)
            if residual:
                key = frozenset(residual.items())
                scaled = shared.get(key)
                if scaled is None:
                    scaled = shared[key] = form, residual, scale
                witness = (*combo, k + 1)
                witness = witnesses.setdefault(witness, witness)
                entries.append(scaled_violation(tid, witness, scaled))
    return entries


def evaluate_templates(templates, dims: dict, ops: dict, maps: dict) -> Report:
    """Evaluate templates over all basis tuples; exact zero residual to pass.

    The structure of the evaluation comes from the plan of the template set
    (`_Plan`), kept across calls.  Both sides are tabulated as sparse integer
    tables with scales sL and sR.  A template whose two tables and scales are
    equal passes outright.  Else the tuples where either side is nonzero are
    visited, a missing side being the zero vector, and at each the coordinates
    where either side is nonzero; every other coordinate is zero on both sides
    and passes.  With L = lcm(sL, sR), a coordinate passes when
    lhs * (L / sL) == rhs * (L / sR) as integer dicts; a nonzero difference
    is kept as its integer dict over L, and the Violation builds the
    Polynomial or its text on demand.  All violations of one call with equal
    residual terms and scale share one `scaled` tuple, and equal witnesses
    share one tuple, so a dense failing check holds each distinct residual
    once.  Subterm tables are shared across the templates of one call and
    dropped after the last template that reads them.
    """
    plan = _plan(tuple(templates))
    compiled = _Compiled(ops, maps, plan.nodes)
    code, free = plan.code, plan.free
    tables: list = [None] * len(code)
    entries = []
    residuals: dict = {}
    witnesses: dict = {}
    for step in plan.steps:
        _, new, lhs, rhs, _, _, expired = step
        for slot in new:
            tables[slot] = _tabulate(code[slot], tables, dims, compiled)
        entries += _violations(
            step, tables, free[lhs] == free[rhs], dims, compiled.form, residuals, witnesses
        )
        for slot in expired:
            tables[slot] = None
    return Report(entries)


# ---------------------------------------------------------------------------
# template sets

# The identity sets, one line per identity (see the module docstring); a set
# is the lines whose id starts with its name and a dot, and a line whose id
# holds "{op}" is read once per op name.
_IDENTITIES = """
dend.1: a(x) p (y p z + y s z) = (x p y) p a(z)
dend.2: a(x) s (y p z) = (x s y) p a(z)
dend.3: a(x) s (y s z) = (x p y + x s y) s a(z)
assoc.1: a(x) mu (y mu z) = (x mu y) mu a(z)
dias.4: (x -| y) -| a(z) = a(x) -| (y -| z)
dias.5: (x -| y) -| a(z) = a(x) -| (y |- z)
dias.6: (x |- y) -| a(z) = a(x) |- (y -| z)
dias.7: (x -| y) |- a(z) = a(x) |- (y |- z)
dias.8: (x |- y) |- a(z) = a(x) |- (y |- z)
tri.assoc: a(x) _|_ (y _|_ z) = (x _|_ y) _|_ a(z)
tri.mixed.1: (x -| y) -| a(z) = a(x) -| (y _|_ z)
tri.mixed.2: (x |- y) _|_ a(z) = a(x) |- (y _|_ z)
tri.mixed.3: (x _|_ y) -| a(z) = a(x) _|_ (y -| z)
tri.mixed.4: (x _|_ y) |- a(z) = a(x) |- (y |- z)
tri.mixed.5: (x -| y) _|_ a(z) = a(x) _|_ (y |- z)
quadri.Hq1: (x pv y) pv a(z) = (x pd y) pv a(z) = a(x) pv (y pv z + y sv z)
quadri.Hq2: (x sv y) pv a(z) = (x sd y) pv a(z) = a(x) sv (y pv z)
quadri.Hq3: a(x) sv (y sv z) = (x pv y + x sv y) sv a(z) = (x pd y + x sd y) sv a(z)
quadri.Hq4: a(x) sv (y sv z) = (x pd y + x sv y) sv a(z) = (x pv y + x sd y) sv a(z)
quadri.Hq5: (x pv y) pd a(z) = a(x) pv (y pd z + y sd z)
quadri.Hq6: (x sv y) pd a(z) = a(x) sv (y pd z)
quadri.Hq7: a(x) sv (y sd z) = (x pv y + x sv y) sd a(z)
quadri.Hq8: (x pd y) pd a(z) = a(x) pd (y pv z + y sv z) = a(x) pd (y pd z + y sd z)
quadri.Hq9: (x pd y) pd a(z) = a(x) pd (y pv z + y sd z) = a(x) pd (y pd z + y sv z)
quadri.Hq10: (x sd y) pd a(z) = a(x) sd (y pv z) = a(x) sd (y pd z)
quadri.Hq11: a(x) sd (y sv z) = a(x) sd (y sd z) = (x pd y + x sd y) sd a(z)
six.sq1: (x pv y) pp a(z) = a(x) pv (y pp z + y sp z)
six.sq2: (x sv y) pp a(z) = a(x) sv (y pp z)
six.sq3: a(x) sv (y sp z) = (x pv y + x sv y) sp a(z)
six.sq4: (x pd y) pp a(z) = a(x) pp (y pv z + y sv z)
six.sq5: (x sd y) pp a(z) = a(x) sp (y pv z)
six.sq6: a(x) sp (y sv z) = (x pd y + x sd y) sp a(z)
six.sq7: (x pp y) pd a(z) = a(x) pp (y pd z + y sd z)
six.sq8: (x sp y) pd a(z) = a(x) sp (y pd z)
six.sq9: a(x) sp (y sd z) = (x pp y + x sp y) sd a(z)
six.sq10: (x pp y) pv a(z) = (x pv y) pv a(z) = (x pd y) pv a(z)
six.sq11: (x sp y) pv a(z) = (x sv y) pv a(z) = (x sd y) pv a(z)
six.sq12: (x pp y) sv a(z) = (x pv y) sv a(z) = (x pd y) sv a(z)
six.sq13: (x sp y) sv a(z) = (x sv y) sv a(z) = (x sd y) sv a(z)
six.sq14: a(x) pd (y pp z) = a(x) pd (y pv z) = a(x) pd (y pd z)
six.sq15: a(x) sd (y pp z) = a(x) r15 (y pv z) = a(x) r15 (y pd z)
six.sq16: a(x) sd (y sp z) = a(x) sd (y sv z) = a(x) sd (y sd z)
six.sq17: a(x) pd (y sp z) = a(x) pd (y sv z) = a(x) pd (y sd z)
rep.I.1: (x p y) p_l b(m) = a(x) p_l (y p_l m + y s_l m)
rep.I.2: (x s y) p_l b(m) = a(x) s_l (y p_l m)
rep.I.3: a(x) s_l (y s_l m) = (x p y + x s y) s_l b(m)
rep.II.1: b(m) p_r (x p y + x s y) = (m p_r x) p_r a(y)
rep.II.2: b(m) s_r (x p y) = (m s_r x) p_r a(y)
rep.II.3: (m p_r x + m s_r x) s_r a(y) = b(m) s_r (x s y)
rep.III.1: (x p_l m) p_r a(y) = a(x) p_l (m p_r y + m s_r y)
rep.III.2: (x s_l m) p_r a(y) = a(x) s_l (m p_r y)
rep.III.3: (x p_l m + x s_l m) s_r a(y) = a(x) s_l (m s_r y)
act.13: (x p_l v) p_m am(w) = a(x) p_l (v p_m w + v s_m w)
act.14: (x s_l v) p_m am(w) = a(x) s_l (v p_m w)
act.15: a(x) s_l (v s_m w) = (x p_l v + x s_l v) s_m am(w)
act.16: (u p_r y) p_m am(w) = am(u) p_m (y p_l w + y s_l w)
act.17: (u s_r y) p_m am(w) = am(u) s_m (y p_l w)
act.18: am(u) s_m (y s_l w) = (u p_r y + u s_r y) s_m am(w)
act.19: (u p_m v) p_r a(z) = am(u) p_m (v p_r z + v s_r z)
act.20: (u s_m v) p_r a(z) = am(u) s_m (v p_r z)
act.21: (u p_m v + u s_m v) s_r a(z) = am(u) s_m (v s_r z)
avg.mu: H(x) mu H(y) = H(x mu H(y)) = H(H(x) mu y)
rb.{op}: H(x) op H(y) = H(H(x) op y + x op H(y))
qavg.{op}: H(x) op H(y) = H(H(x) op y) = H(x op H(y))
ravg.prec.l: H(u) p H(v) = H(H(u) p_l v)
ravg.prec.r: H(u) p H(v) = H(u p_r H(v))
ravg.succ.l: H(u) s H(v) = H(H(u) s_l v)
ravg.succ.r: H(u) s H(v) = H(u s_r H(v))
hom.{op}: T(x op y) = T(x) op' T(y)
mult.{op}: a(x op y) = a(x) op a(y)
graph.{op}: image(G(p) op G(q)) = X(domain(G(p) op G(q)))
graph.twist: image(a(G(p))) = X(domain(a(G(p))))
quotient.closure.left.{op}: R(x op W(n)) = Z(n)
quotient.closure.right.{op}: R(W(n) op x) = Z(n)
quotient.closure.twist: R(a(W(n))) = Z(n)
quotient.perp-compat.prec: R(x pp y) = R(x pv y)
quotient.perp-compat.succ: R(x sp y) = R(x sv y)
ideal.prec: x pd y = x pv y
ideal.succ: x sd y = x sv y
"""
# The construction sets, one line per op or map a construction builds, the
# expression it is (see the module docstring and `constructions.build`).
_CONSTRUCTIONS = """
sum-dias.vdash: x pv y + x sv y
sum-dias.dashv: x pd y + x sd y
sum-tri.perp: x pp y + x sp y
sum-tri.vdash: x pv y + x sv y
sum-tri.dashv: x pd y + x sd y
quadri-part.prec_vdash: x pv y
quadri-part.prec_dashv: x pd y
quadri-part.succ_vdash: x sv y
quadri-part.succ_dashv: x sd y
perp-part.prec: x pp y
perp-part.succ: x sp y
avg-dias.dashv: x mu H(y)
avg-dias.vdash: H(x) mu y
rb-dias.{op}: H(x) op y + x op H(y)
ravg-quadri.prec_vdash: H(x) p_l y
ravg-quadri.prec_dashv: x p_r H(y)
ravg-quadri.succ_vdash: H(x) s_l y
ravg-quadri.succ_dashv: x s_r H(y)
quotient-dend.prec: P(C(x) pv C(y))
quotient-dend.succ: P(C(x) sv C(y))
quotient-dend.alpha: P(a(C(x)))
embed.prec_l: C(x) pv y
embed.succ_l: C(x) sv y
embed.prec_r: y pd C(x)
embed.succ_r: y sd C(x)
push.{op}: Sinv(S(x) op S(y))
push.alpha: Sinv(a(S(x)))
"""
# The op and map names of the text, by alias: an alias between two operands
# is an op, one before a parenthesis a map.  "-|", "|-" and "_|_" stand for
# the paper's dashv, vdash and perp, and "p_l" for its prec with subscript l.
_ALIASES = {
    "p": "prec", "s": "succ", "mu": "mu", "-|": "dashv", "|-": "vdash", "_|_": "perp",
    "pv": "prec_vdash", "pd": "prec_dashv", "sv": "succ_vdash", "sd": "succ_dashv",
    "pp": "prec_perp", "sp": "succ_perp", "p_l": "prec_l", "s_l": "succ_l",
    "p_r": "prec_r", "s_r": "succ_r", "p_m": "prec_m", "s_m": "succ_m",
    "a": "alpha", "b": "beta", "am": "alpha_m",
    **{name: name for name in "H T G X R W Z P C S Sinv image domain".split()},
}
# The space of each placeholder (see the table in the module docstring).
_SPACES = {
    "x": "D", "y": "D", "z": "D", "m": "M", "u": "M", "v": "M", "w": "M",
    "p": "P", "q": "P", "n": "I",
}
_TOKEN = re.compile(r"[()+]|[^\s()+]+")


def _side(tid: str, text: str, aliases: dict, seen: dict):
    """The tree of `text`, one side of the identity `tid`: a sum of terms,
    a term being an operand or two operands around an op, an operand a
    placeholder, a sum in parentheses or a map applied to one.  Each
    placeholder met for the first time goes into `seen` with its space."""
    tokens = ["", *reversed(_TOKEN.findall(text))]  # popped from the end; "" ends

    def fail(why: str):
        raise ValueError(f"identity {tid}: {why} in {text.strip()!r}")

    def alias(token: str) -> str:
        if token not in aliases:
            fail(f"unknown alias {token!r}")
        return aliases[token]

    def operand():
        if tokens[-1] in ("+", ")", ""):
            fail("missing operand")
        token = tokens.pop()
        if token == "(":
            inner = expr()
            if tokens.pop() != ")":
                fail("missing ')'")
            return inner
        if tokens[-1] == "(":
            return App(alias(token), operand())
        if token not in _SPACES:
            fail(f"unknown placeholder {token!r}")
        seen.setdefault(token, _SPACES[token])
        return Var(token)

    def term():
        left = operand()
        if tokens[-1] in ("+", ")", ""):
            return left
        return Op(alias(tokens.pop()), left, operand())

    def expr():
        terms = [term()]
        while tokens[-1] == "+":
            tokens.pop()
            terms.append(term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    tree = expr()
    if tokens != [""]:
        fail(f"unexpected {tokens[-1]!r}")
    return tree


def _parse(lines, prefix: str, aliases: dict, built: bool = False) -> tuple:
    """The templates of the identity lines `lines`, each `id: lhs = rhs` or a
    chain `id: first = second = third`, which gives "id.a" (first = second)
    and "id.b" (first = third), or when `built` of the lines `id: expr`, with
    rhs None.  The witness order is the order in which the placeholders first
    appear, read from the left.  Each id gets `prefix`."""
    templates = []
    for line in lines:
        tid, colon, text = line.partition(":")
        tid = prefix + tid.strip()
        if not colon:
            raise ValueError(f"identity {tid}: no ':' after the id")
        seen: dict = {}
        first, *rest = [_side(tid, side, aliases, seen) for side in text.split("=")]
        variables = tuple(seen.items())
        if built:
            if rest:
                raise ValueError(f"identity {tid}: {len(rest)} '=' in a construction line")
            templates.append(Template(tid, variables, first, None))
            continue
        if len(rest) not in (1, 2):
            raise ValueError(f"identity {tid}: {len(rest)} '=' where 1 or 2 are allowed")
        suffixes = [""] if len(rest) == 1 else [".a", ".b"]
        templates += [Template(tid + s, variables, first, side) for s, side in zip(suffixes, rest)]
    return tuple(templates)


@functools.cache
def _identities(name: str, prefix: str = "", ops: tuple = (), **bound) -> tuple:
    """The templates of the set `name` of `_IDENTITIES`, or else of
    `_CONSTRUCTIONS`, parsed once per process, with `prefix` before each id
    and each alias key of `bound` read as the alias it is bound to.  The
    lines whose id holds "{op}" come first, all of them for each name of
    `ops` in turn, with "op" read as that name and "op'" as the name with a
    prime; the other lines follow."""
    for built, text in ((False, _IDENTITIES), (True, _CONSTRUCTIONS)):
        lines = [line for line in text.splitlines() if line.startswith(f"{name}.")]
        if lines:
            break
    else:
        raise ValueError(f"identity set {name} has no lines")
    per_op = [line for line in lines if "{op}" in line]
    if per_op and not ops:
        raise ValueError(f"identity set {name} has per-op lines and no op to read them over")
    aliases = {**_ALIASES, **{key: _ALIASES[value] for key, value in bound.items()}}
    templates = ()
    for op in ops:
        expanded = [line.replace("{op}", op) for line in per_op]
        templates += _parse(expanded, prefix, {**aliases, "op": op, "op'": op + "'"}, built)
    rest = [line for line in lines if line not in per_op]
    return templates + _parse(rest, prefix, aliases, built)


def dendriform_templates() -> list:
    return list(_identities("dend"))


def associative_templates() -> list:
    return list(_identities("assoc"))


def diassociative_templates() -> list:
    return list(_identities("dias"))


def quadri_templates() -> list:
    return list(_identities("quadri"))


@functools.cache
def _triassociative() -> tuple:
    return _identities("dias") + _identities("tri")


def triassociative_templates() -> list:
    return list(_triassociative())


def _require_sq15(sq15: str) -> None:
    if sq15 not in SQ15_READINGS:
        raise ValueError(f"sq15 must be one of {SQ15_READINGS}")


@functools.cache
def _six(sq15: str) -> tuple:
    _require_sq15(sq15)
    return (
        _identities("dend", "six.", p="pp", s="sp")
        + _identities("quadri")
        + _identities("six", r15="pd" if sq15 == "literal" else "sd")
    )


def six_templates(sq15: str = SQ15_DEFAULT) -> list:
    """The dendriform identities of the perp ops ("six.dend.*"), the quadri
    ones and sq1-sq17, the alias "r15" of sq15 being "pd" in its literal
    reading and "sd" in its symmetric one."""
    return list(_six(sq15))


def twist_template(prefix: str, name: str, space: str = "D") -> Template:
    """Twist commutation X o inner = outer o X for the map X named `name`,
    with x over the rows of X (`space`): transposed, inner^T(X^T x) =
    X^T(outer^T x), so that coordinate c at x = e_r is the entry (r, c) of
    X inner - outer X, witnessed by (r, c).  The maps are `twist_maps`."""
    xt, x = f"{name}^T", Var("x")
    lhs, rhs = App("inner^T", App(xt, x)), App(xt, App("outer^T", x))
    return Template(f"{prefix}.twist", (("x", space),), lhs, rhs)


def twist_maps(name: str, linear: LinearMap, inner: LinearMap, outer: LinearMap) -> dict:
    """The transposed maps of `twist_template` for X = `linear`."""
    maps = {f"{name}^T": linear, "inner^T": inner, "outer^T": outer}
    return {key: matrix.transpose() for key, matrix in maps.items()}


@functools.cache
def _homomorphism(names: tuple) -> tuple:
    """The "hom.<op>" lines per operation, and twist commutation with x over
    the target ("D'")."""
    return (*_identities("hom", ops=names), twist_template("hom", "T", "D'"))


# ---------------------------------------------------------------------------
# checkers


def _require_kind(bundle: AlgebraBundle, kind: str) -> None:
    got = getattr(bundle, "kind", type(bundle).__name__)
    if not isinstance(bundle, AlgebraBundle) or got != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"expected {article} {kind} bundle, got {got!r}")


def _run(bundle: AlgebraBundle, kind: str, templates: tuple) -> Report:
    _require_kind(bundle, kind)
    return evaluate_templates(templates, *bundle.parts())


def check_dendriform(bundle: AlgebraBundle) -> Report:
    return _run(bundle, "dendriform", _identities("dend"))


def check_associative(bundle: AlgebraBundle) -> Report:
    return _run(bundle, "associative", _identities("assoc"))


def check_diassociative(bundle: AlgebraBundle) -> Report:
    return _run(bundle, "diassociative", _identities("dias"))


def check_quadri(bundle: AlgebraBundle) -> Report:
    return _run(bundle, "quadri_dendriform", _identities("quadri"))


def check_triassociative(bundle: AlgebraBundle) -> Report:
    return _run(bundle, "triassociative", _triassociative())


def check_six(bundle: AlgebraBundle, sq15: str = SQ15_DEFAULT) -> Report:
    return _run(bundle, "six_dendriform", _six(sq15))


def check_representation(rep: RepresentationBundle) -> Report:
    _require_kind(rep.base, "dendriform")
    return evaluate_templates(_identities("rep"), *rep.parts())


def check_action(action: ActionBundle) -> Report:
    _require_kind(action.acting, "dendriform")
    _require_kind(action.acted, "dendriform")
    rep_report = check_representation(action.representation())
    return rep_report.merged(evaluate_templates(_identities("act"), *action.parts()))


def check_multiplicative(bundle: AlgebraBundle) -> Report:
    if bundle.kind not in KIND_OPS:
        raise ValueError(f"unknown kind {bundle.kind!r}")
    return evaluate_templates(_identities("mult", ops=tuple(sorted(bundle.ops))), *bundle.parts())


def check_homomorphism(
    kind: str, linear: LinearMap, source: AlgebraBundle, target: AlgebraBundle
) -> Report:
    """Per-op intertwining T(x op y) = T(x) op' T(y) plus T o alpha = alpha' o T."""
    if kind not in KIND_OPS:
        raise ValueError(f"unknown kind {kind!r}")
    if source.kind != kind or target.kind != kind:
        raise ValueError(f"both bundles must have kind {kind!r}")
    if (linear.dim_in, linear.dim_out) != (source.dim, target.dim):
        raise ValueError("morphism matrix shape does not match the bundles")
    names = sorted(KIND_OPS[kind])
    ops = {name: source.op(name) for name in names}
    ops.update({name + "'": target.op(name) for name in names})
    maps = {"T": linear, **twist_maps("T", linear, source.twist, target.twist)}
    templates = _homomorphism(tuple(names))
    return evaluate_templates(templates, {"D": source.dim, "D'": target.dim}, ops, maps)


_KIND_CHECKERS = {
    "associative": check_associative,
    "dendriform": check_dendriform,
    "diassociative": check_diassociative,
    "triassociative": check_triassociative,
    "quadri_dendriform": check_quadri,
    "six_dendriform": check_six,
}


def check_kind(bundle: AlgebraBundle, sq15: str = SQ15_DEFAULT) -> Report:
    """Dispatch to the axiom checker of the bundle's kind; refuse an unknown sq15."""
    _require_sq15(sq15)
    checker = _KIND_CHECKERS.get(bundle.kind)
    if checker is None:
        raise ValueError(f"unknown kind {bundle.kind!r}")
    if bundle.kind == "six_dendriform":
        return checker(bundle, sq15=sq15)
    return checker(bundle)
