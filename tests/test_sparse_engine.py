"""Sparse subterm tables of the template engine, against the oracle.

`axioms.evaluate_templates` keeps, for each subterm, only the basis tuples
where its vector is nonzero; a missing key is the zero vector.  These tests
reach the cases where that matters: a tuple where one side of a template is
zero and the other is not (the key on one side only), sums whose terms
cancel, maps with zero columns that drop entries, templates whose two sides
have different placeholders, and the value of an expression read as the
residuals of expr = 0, as the constructions read it.  Each compares the
engine with `oracle.py`.  A vector holds only its nonzero coordinates too:
random sparse six-dendriform instances, whose op joins meet right factors
with several nonzero coordinates and products that cancel, are compared with
the oracle's dense evaluation of the same templates, and the tables of a
check are held to that sparse form.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import dense_six, expression_values, op_sum, random_bundle, random_op
from oracle import (
    closure_violations,
    dendriform_violations,
    engine_residual_set,
    homomorphism_violations,
    multiplicative_violations,
    quadri_violations,
    quotient_oracle,
    residual_text,
    scalar_tools,
    template_violations,
)
from homsplit import axioms
from homsplit.axioms import (
    App,
    Op,
    Sum,
    Template,
    Var,
    _children,
    check_dendriform,
    check_homomorphism,
    check_kind,
    check_multiplicative,
    check_quadri,
    evaluate_templates,
    six_templates,
)
from homsplit.constructions import quotient_dendriform
from homsplit.model import KIND_OPS, AlgebraBundle, BilinearOp, LinearMap
from homsplit.poly import IntegerForm, Polynomial

P = Polynomial.parse


def square(dim, entries) -> BilinearOp:
    return BilinearOp.square(dim, [(i, j, k, P(c)) for i, j, k, c in entries])


def residuals(found: dict) -> set:
    return {key + (residual_text(value),) for key, value in found.items()}


def test_one_sided_tuples_are_violations_with_the_key_on_either_side():
    """T(x mu y) = Tx mu' Ty with T killing e1: at (1, 1) only the lhs is
    nonzero (T(e1 e1) = e2, T e1 = 0), at (2, 2) only the rhs (e2 e2 = 0 in
    the source, e2 e2 = e2 in the target)."""
    identity = LinearMap.from_strings([["1", "0"], ["0", "1"]])
    source = AlgebraBundle("associative", 2, {"mu": square(2, [(1, 1, 2, "1")])}, identity, ())
    target = AlgebraBundle("associative", 2, {"mu": square(2, [(2, 2, 2, "1")])}, identity, ())
    T = LinearMap.from_strings([["0", "0"], ["0", "1"]])
    report = check_homomorphism("associative", T, source, target)
    got = engine_residual_set(report)
    assert got == homomorphism_violations(T, source, target, residuals=True)
    assert got == {("hom.mu", (1, 1, 2), "1"), ("hom.mu", (2, 2, 2), "-1")}


@pytest.mark.parametrize("seed", range(6))
def test_one_sided_tuples_of_random_sparse_homomorphisms(seed):
    rng = random.Random(seed)
    source = random_bundle(rng, "dendriform", 3, count=2)
    target = random_bundle(rng, "dendriform", 3, count=2)
    rows = [[rng.choice((0, 0, 1, Fraction(-1, 2))) for _ in range(3)] for _ in range(3)]
    T = LinearMap.from_fractions(rows)
    report = check_homomorphism("dendriform", T, source, target)
    assert engine_residual_set(report) == homomorphism_violations(
        T, source, target, residuals=True
    )


def cancelling_dendriform(partial: bool) -> AlgebraBundle:
    """succ = -prec, so that prec + succ, a Sum in dend.1 and dend.3, is zero
    at every tuple; with `partial`, one extra succ entry keeps it nonzero at
    one pair."""
    prec = [(1, 1, 2, "p"), (1, 2, 2, "1/2"), (2, 1, 1, "-1"), (2, 2, 1, "2*p")]
    succ = [(i, j, k, f"-({c})") for i, j, k, c in prec]
    if partial:
        succ.append((2, 2, 2, "1/3"))
    twist = LinearMap.from_strings([["1", "1/2"], ["0", "p"]])
    return AlgebraBundle(
        "dendriform", 2, {"prec": square(2, prec), "succ": square(2, succ)}, twist, ("p",)
    )


@pytest.mark.parametrize("partial", [False, True])
def test_sums_whose_terms_cancel(partial):
    bundle = cancelling_dendriform(partial)
    report = check_dendriform(bundle)
    got = engine_residual_set(report)
    assert got == dendriform_violations(bundle, mode="sympy", residuals=True)
    assert {template for template, _, _ in got} == {"dend.1", "dend.2", "dend.3"}


def singular(rng, dim: int) -> LinearMap:
    """A random twist with its first and last columns zero."""
    rows = [
        [0 if c in (0, dim - 1) else rng.choice((1, -1, 2, Fraction(1, 2))) for c in range(dim)]
        for _ in range(dim)
    ]
    return LinearMap.from_fractions(rows)


@pytest.mark.parametrize("seed", range(4))
def test_twists_with_zero_columns_drop_entries(seed):
    rng = random.Random(seed)
    for kind, check, oracle in (
        ("dendriform", check_dendriform, dendriform_violations),
        ("quadri_dendriform", check_quadri, quadri_violations),
    ):
        base = random_bundle(rng, kind, 3, count=4)
        bundle = AlgebraBundle(kind, 3, base.ops, singular(rng, 3), ())
        assert engine_residual_set(check(bundle)) == oracle(bundle, residuals=True)
        assert engine_residual_set(check_multiplicative(bundle)) == multiplicative_violations(
            bundle, residuals=True
        )


def test_quotient_closure_sides_have_different_placeholders():
    """R(x op Ww) has the placeholders x and w, Zw only w.  With Z = 0 the
    rhs table is empty; with Z nonzero each of its entries stands for every x."""
    rng = random.Random(7)
    failing = 0
    for _ in range(12):
        base = random_bundle(rng, "dendriform", 3, count=3)
        shift = random_op(rng, 3, 3, 3, 1)
        ops = {
            "prec_vdash": base.op("prec"), "prec_dashv": op_sum(base.op("prec"), shift),
            "succ_vdash": base.op("succ"), "succ_dashv": base.op("succ"),
        }
        bundle = AlgebraBundle("quadri_dendriform", 3, ops, base.twist, ())
        result = quotient_dendriform(bundle)
        expected = quotient_oracle(bundle)["violations"]
        assert engine_residual_set(result.report) == residuals(expected)
        failing += bool(expected)
    assert failing
    dim, ideal = 3, 2
    maps = {
        "R": LinearMap.from_fractions([[1, 0, 0], [0, 0, 0], [Fraction(1, 2), 0, 1]]),
        "W": LinearMap.from_fractions([[1, 0], [0, 0], [0, -1]]),
        "Z": LinearMap.from_fractions([[0, 0], [0, 0], [0, 3]]),
        "alpha": LinearMap.from_fractions([[0, 1, 0], [1, 0, 0], [0, 0, 2]]),
    }
    ops = {name: random_op(rng, dim, dim, dim, 3) for name in ("prec", "succ")}
    templates = axioms._identities("quotient.closure", ops=tuple(sorted(ops)))
    report = evaluate_templates(templates, {"D": dim, "I": ideal}, ops, maps)
    expected = closure_violations(ops, maps["R"], maps["W"], maps["Z"], maps["alpha"])
    assert engine_residual_set(report) == residuals(expected)
    assert any(witness[-1] == 3 and template.startswith("quotient.closure.left")
               for template, witness in expected)


def test_a_template_whose_sides_differ_in_dimension_is_refused():
    """F e1 = e1 in a 2-dimensional space and G e1 = e3 in a 3-dimensional
    one: a coordinatewise comparison of the two would never see e3."""
    F = LinearMap.from_fractions([[1], [0]])
    G = LinearMap.from_fractions([[0], [0], [1]])
    template = Template("t", (("x", "A"),), App("F", Var("x")), App("G", Var("x")))
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        evaluate_templates([template], {"A": 1}, {}, {"F": F, "G": G})


def test_expression_values_match_the_oracle_on_every_tuple():
    """f: A x B -> C with dimensions 2, 3, 4; its products at (1, 2) and
    (2, 3) have a zero first coordinate.  G: A -> C makes a sum over terms
    with different placeholders, and K: A -> B a product whose two factors
    share the placeholder x and lack y.  A coordinate missing from the values
    is zero."""
    f = BilinearOp.from_entries(2, 3, 4, [
        (1, 2, 3, P("p")), (1, 2, 4, P("-1")), (2, 3, 2, P("1/2")), (2, 1, 1, P("2")),
    ])
    G = LinearMap.from_strings([["0", "0"], ["0", "0"], ["0", "1/3"], ["0", "0"]])
    K = LinearMap.from_strings([["0", "1"], ["0", "0"], ["0", "p"]])
    dims = {"A": 2, "B": 3, "C": 4}
    variables = (("y", "B"), ("x", "A"))
    conv, is_zero = scalar_tools("sympy", f, G, K)
    cases = [
        (Op("f", Var("x"), Var("y")), lambda i, j: product(f, conv, i, j)),
        (Sum((App("G", Var("x")), Op("f", Var("x"), Var("y")))),
         lambda i, j: [a + b for a, b in zip(column(G, conv, i), product(f, conv, i, j))]),
        (Op("f", Var("x"), App("K", Var("x"))),
         lambda i, j: [
             sum(c * product(f, conv, i, b)[k] for b, c in enumerate(column(K, conv, i), 1))
             for k in range(4)
         ]),
    ]
    for expr, expected in cases:
        values = expression_values(expr, variables, 4, dims, {"f": f}, {"G": G, "K": K})
        assert all(1 <= j <= 3 and 1 <= i <= 2 and 1 <= k <= 4 for j, i, k in values)
        zero = 0
        for j in range(1, 4):
            for i in range(1, 3):
                want = expected(i, j)
                got = [values.get((j, i, k), Polynomial.zero()) for k in range(1, 5)]
                assert all(is_zero(conv(g) - value) for g, value in zip(got, want))
                zero += all(is_zero(value) for value in want)
        assert zero


def product(op: BilinearOp, conv, i: int, j: int) -> list:
    out = [0] * op.dim_out
    for (a, b, k), c in op.constants:
        if (a, b) == (i, j):
            out[k - 1] += conv(c)
    return out


def column(linear: LinearMap, conv, j: int) -> list:
    return [conv(row[j - 1]) for row in linear.entries]


def test_residual_text_depends_on_terms_and_scale():
    form = IntegerForm(("p",), 1)
    p, one = form.pack((1,)), form.pack((0,))
    terms = {p: 3, one: -2}
    assert form.text(terms, 1) == "-2 + 3*p"
    assert form.text(terms, 2) == "-1 + 3/2*p"
    assert form.text(dict(terms), 1) == "-2 + 3*p"
    assert form.text({p: 3, one: -2}, 6) == "-1/3 + 1/2*p"


def test_a_dense_check_holds_each_distinct_residual_and_witness_once():
    """Equal (residual terms, scale) share one `scaled` tuple, and equal
    witnesses one tuple.  Terms are compared as sets: 216 of the 975 residuals
    are made with their terms in more than one order."""
    entries = check_kind(dense_six(random.Random(5), 4), sq15="symmetric").entries
    by_residual, by_witness = {}, {}
    for v in entries:
        _, terms, scale = v.scaled
        assert by_residual.setdefault((frozenset(terms.items()), scale), v.scaled) is v.scaled
        assert by_witness.setdefault(v.witness, v.witness) is v.witness
    assert len(entries) == 7236 and len(by_residual) == 975 and len(by_witness) == 4**4


def test_equal_terms_over_different_scales_share_nothing():
    """The same terms over scales s and 2s are two residuals: template "b"
    is template "a" under the map h = I/2, whose integer form is I over 2."""
    m = dense_six(random.Random(5), 3).op("prec_dashv")
    xy, yx = Op("m", Var("x"), Var("y")), Op("m", Var("y"), Var("x"))
    variables = (("x", "D"), ("y", "D"))
    templates = [
        Template("a", variables, xy, yx),
        Template("b", variables, App("h", xy), App("h", yx)),
    ]
    half = LinearMap.from_fractions([[Fraction(i == j, 2) for j in range(3)] for i in range(3)])
    report = evaluate_templates(templates, {"D": 3}, {"m": m}, {"h": half})
    a = {v.witness: v for v in report.entries if v.template == "a"}
    b = {v.witness: v for v in report.entries if v.template == "b"}
    assert a and a.keys() == b.keys()
    for witness, va in a.items():
        vb = b[witness]
        assert va.scaled[1] == vb.scaled[1] and 2 * va.scaled[2] == vb.scaled[2]
        assert va.scaled is not vb.scaled and va.witness is vb.witness
        assert vb.residual_text() == str(va.residual * Fraction(1, 2))


def test_report_rows_make_each_shared_residual_text_once(monkeypatch):
    """`Report.to_dict` writes the rows `Violation.to_dict` writes, and
    formats the text of each shared residual once."""
    report = check_kind(dense_six(random.Random(5), 3))
    expected = [v.to_dict() for v in report.entries]
    texts = []
    text = IntegerForm.text

    def counted(self, terms, scale):
        texts.append(scale)
        return text(self, terms, scale)

    monkeypatch.setattr(IntegerForm, "text", counted)
    assert report.to_dict() == {"status": "fail", "entries": expected}
    assert len(texts) == len({id(v.scaled) for v in report.entries}) < len(expected)


SIX_OPS = tuple(sorted(KIND_OPS["six_dendriform"]))
SCALARS = ("1", "-1", "2", "-1/2", "p", "-p", "2*p")


def nested(expr) -> set:
    """The (outer, inner) op names of the subterms u outer (y inner z) of
    `expr`, y and z being placeholders."""
    right = getattr(expr, "right", None)
    found = {(expr.op_name, right.op_name)} if isinstance(right, Op) and all(
        isinstance(factor, Var) for factor in (right.left, right.right)
    ) else set()
    return found.union(*map(nested, _children(expr)))


NESTED = sorted(set().union(*(
    nested(side) for template in six_templates() for side in (template.lhs, template.rhs)
)))


@st.composite
def sparse_six(draw):
    """(templates, dims, ops, maps) of a random sparse six-dendriform instance
    of dimension 2-4 in the parameter p, checked under a random sq15 reading
    and for multiplicativity, with a twist that has at least one zero column.

    Planted in every instance, for a subterm u B (y A z) of a six template:
    y A z = c e_k + e_l at (a, b), a right factor with two nonzero
    coordinates, and B_ikm = 1, B_ilm = -c, the only constants B_*km and
    B_*lm, so coordinate m of u B (y A z) cancels at every u, while the twist
    sends some e_x to a vector whose coordinate i is 1."""
    dim = draw(st.integers(2, 4))
    index = st.integers(1, dim)
    scalar = st.sampled_from(SCALARS)
    outer, inner = draw(st.sampled_from(NESTED))
    a, b, i, m = (draw(index) for _ in range(4))
    k, l = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    c = draw(scalar)
    planted: dict = {}
    planted.setdefault(inner, []).extend([(a, b, k, c), (a, b, l, "1")])
    planted.setdefault(outer, []).extend([(i, k, m, "1"), (i, l, m, f"-({c})")])
    assume(len({(name, e[:3]) for name, es in planted.items() for e in es}) == 4)
    ops = {}
    for name in SIX_OPS:
        entries = draw(st.lists(st.tuples(index, index, index, scalar), max_size=dim + 1))
        entries = [
            e for e in entries
            if not (name == inner and e[:2] == (a, b))
            and not (name == outer and e[1:3] in {(k, m), (l, m)})
        ]
        ops[name] = square(dim, entries + planted.get(name, []))
    right = {key[2] for key, _ in ops[inner].constants if key[:2] == (a, b)}
    meeting = {key for key, _ in ops[outer].constants if key[1:] in {(k, m), (l, m)}}
    assume(right == {k, l} and meeting == {(i, k, m), (i, l, m)})
    zero = draw(st.sets(index, min_size=1, max_size=dim - 1))
    twist = [[draw(st.sampled_from(("0",) + SCALARS)) if col not in zero else "0"
              for col in range(1, dim + 1)] for _ in range(dim)]
    twist[i - 1][min(set(range(1, dim + 1)) - zero) - 1] = "1"
    sq15 = draw(st.sampled_from(("literal", "symmetric")))
    templates = six_templates(sq15) + list(axioms._identities("mult", ops=SIX_OPS))
    return templates, {"D": dim}, ops, {"alpha": LinearMap.from_strings(twist)}


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(sparse_six())
def test_random_sparse_six_instances_agree_with_the_oracle(case):
    templates, dims, ops, maps = case
    report = evaluate_templates(templates, dims, ops, maps)
    assert engine_residual_set(report) == template_violations(
        templates, dims, ops, maps, "sympy"
    )


def test_a_right_factor_indexed_under_two_sets_of_shared_names():
    """The table of y is the right factor of a(x) mu y and a(x) nu y, which
    share no placeholder with it, and of y mu y and y nu y, which share y:
    one table, indexed once for each set of shared names."""
    rng = random.Random(3)
    ops = {name: random_op(rng, 3, 3, 3, 6) for name in ("mu", "nu")}
    maps = {"a": LinearMap.from_fractions([[1, 0, 2], [0, -1, 0], [1, 1, 0]])}
    x, y = App("a", Var("x")), Var("y")
    xy = (("x", "D"), ("y", "D"))
    templates = [
        Template("a", xy, Op("mu", x, y), Op("nu", x, y)),
        Template("b", xy, Op("mu", y, y), Op("nu", y, y)),
    ]
    report = evaluate_templates(templates, {"D": 3}, ops, maps)
    expected = template_violations(templates, {"D": 3}, ops, maps, "fraction")
    assert engine_residual_set(report) == expected
    assert {template for template, _, _ in expected} == {"a", "b"}


def tables_of(templates, dims, ops, maps) -> list:
    """The (scale, dimension, table, indexes) of every slot of the plan of
    `templates`, tabulated as `evaluate_templates` does but none dropped."""
    plan = axioms._plan(tuple(templates))
    compiled = axioms._Compiled(ops, maps, plan.nodes)
    tables = []
    for code in plan.code:
        tables.append(axioms._tabulate(code, tables, dims, compiled))
    return tables


def test_tables_hold_only_nonzero_entries_coordinates_and_coefficients():
    """A table keeps no zero vector, a vector no zero coordinate and a
    coordinate no zero coefficient, so that equal values compare equal.  In
    x B (y A z), y A z = p e1 + e2 at (1, 1) and B_112 = 1, B_122 = -p, so
    the second coordinate of x B (y A z) cancels at (1, 1, 1); A + B is zero
    at (2, 2) and alpha kills e1, so that a sum and a map come out zero too."""
    A = square(2, [(1, 1, 1, "p"), (1, 1, 2, "1"), (2, 2, 1, "1")])
    B = square(2, [(1, 1, 2, "1"), (1, 2, 2, "-p"), (1, 2, 1, "1"), (2, 2, 1, "-1")])
    alpha = LinearMap.from_strings([["0", "1"], ["0", "0"]])
    x, y, z = Var("x"), Var("y"), Var("z")
    xyz = (("x", "D"), ("y", "D"), ("z", "D"))
    templates = [
        Template("t", xyz, Op("B", x, Op("A", y, z)), App("alpha", Op("A", x, y))),
        Template("u", xyz[:2], Sum((Op("A", x, y), Op("B", x, y))), App("alpha", x)),
    ]
    tables = tables_of(templates, {"D": 2}, {"A": A, "B": B}, {"alpha": alpha})
    nested = tables[axioms._plan(tuple(templates))._slots[templates[0].lhs, xyz]][2]
    assert nested[1, 1, 1] == {0: {0: 1}}
    for _, _, table, _ in tables:
        for vector in table.values():
            assert vector and all(coord and all(coord.values()) for coord in vector.values())


# -- tables read straight from the structure constants ---------------------------


def tensor(rng, dim_left: int, dim_right: int, dim_out: int, count: int) -> BilinearOp:
    return BilinearOp.from_entries(dim_left, dim_right, dim_out, [
        (rng.randrange(1, dim_left + 1), rng.randrange(1, dim_right + 1),
         rng.randrange(1, dim_out + 1), P(rng.choice(SCALARS)))
        for _ in range(count)
    ])


def matrix(rng, dim_out: int, dim_in: int) -> LinearMap:
    return LinearMap.from_strings(
        [[rng.choice(("0",) + SCALARS) for _ in range(dim_in)] for _ in range(dim_out)]
    )


@pytest.mark.parametrize("base_dim, module_dim", [(2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_flipped_pairs_of_representations_and_actions_agree_with_the_oracle(
    seed, base_dim, module_dim
):
    """x p_l m and y p_l m (rep.*), x p_l v and y p_l w (act.*): the right
    placeholder's name sorts first, so their tables are keyed (m, x), over a
    base and a module of different dimensions."""
    rng = random.Random(seed)
    b, m = base_dim, module_dim
    shapes = {"prec": (b, b, b), "succ": (b, b, b), "prec_l": (b, m, m), "succ_l": (b, m, m),
              "prec_r": (m, b, m), "succ_r": (m, b, m), "prec_m": (m, m, m), "succ_m": (m, m, m)}
    ops = {name: tensor(rng, *shape, 2 * b * m) for name, shape in shapes.items()}
    maps = {"alpha": matrix(rng, b, b), "beta": matrix(rng, m, m), "alpha_m": matrix(rng, m, m)}
    dims = {"D": b, "M": m}
    for templates in (axioms._identities("rep"), axioms._identities("act")):
        flipped = {
            (code[1], code[-1]) for code in axioms._plan(tuple(templates)).code
            if code[0] == axioms._PAIR
        }
        assert {("prec_l", True), ("succ_l", True), ("prec_r", False)} <= flipped
        report = evaluate_templates(templates, dims, ops, maps)
        assert engine_residual_set(report) == template_violations(
            templates, dims, ops, maps, "sympy"
        )


def test_x_op_y_and_y_op_z_read_one_shared_table():
    """In Hq1, x pv y and y pv z are two slots over different placeholders:
    both read one pair table, each slot with its own right-factor indexes,
    and a(x), a(z) one column table."""
    rng = random.Random(7)
    ops = {name: tensor(rng, 3, 3, 3, 8) for name in KIND_OPS["quadri_dendriform"]}
    maps = {"alpha": matrix(rng, 3, 3)}
    templates = axioms.quadri_templates()
    plan = axioms._plan(tuple(templates))
    tables = tables_of(templates, {"D": 3}, ops, maps)
    x, y, z = Var("x"), Var("y"), Var("z")
    xyz = (("x", "D"), ("y", "D"), ("z", "D"))
    xy, yz = (plan._slots[Op("prec_vdash", *pair), xyz] for pair in ((x, y), (y, z)))
    ax, az = (plan._slots[App("alpha", v), xyz] for v in (x, z))
    assert plan.code[xy][0] == axioms._PAIR and plan.code[ax][0] == axioms._COLUMNS
    assert tables[xy][2] is tables[yz][2] and tables[xy][3] is not tables[yz][3]
    assert tables[ax][2] is tables[az][2] and tables[ax][3] is not tables[az][3]
    report = evaluate_templates(templates, {"D": 3}, ops, maps)
    assert engine_residual_set(report) == template_violations(
        templates, {"D": 3}, ops, maps, "sympy"
    )


def test_the_same_bundle_checked_twice_gives_equal_reports():
    """The tables a call shares are its own: a second check of the same
    bundle in the same process reports the same, and both match the oracle."""
    bundle = dense_six(random.Random(11), 3)
    first, second = (check_kind(bundle).to_dict() for _ in range(2))
    assert first == second and first["status"] == "fail"
    assert check_multiplicative(bundle).to_dict() == check_multiplicative(bundle).to_dict()
    templates = six_templates()
    ops, maps = dict(bundle.ops), {"alpha": bundle.twist}
    assert engine_residual_set(check_kind(bundle)) == template_violations(
        templates, {"D": 3}, ops, maps, "sympy"
    )


def test_a_dimension_mismatch_reads_as_on_the_join_and_apply_path():
    """x f y and f(x) of placeholders raise the text that a(x) f y and f(a(x))
    raise, a being the identity, when the space is not the one f expects."""
    f = square(2, [(1, 2, 1, "1")])
    F = LinearMap.from_fractions([[1, 0], [0, 1]])
    identity = LinearMap.identity(3)
    x, y = Var("x"), Var("y")
    ax = App("a", x)
    xy = (("x", "D"), ("y", "D"))
    cases = [
        (Op("f", x, y), Op("f", ax, y), "operation expects 2 x 2, got 3 x 3"),
        (App("F", x), App("F", ax), "map expects dimension 2, got vector of length 3"),
    ]
    for direct, joined, text in cases:
        for expr in (direct, joined):
            template = Template("t", xy, expr, expr)
            with pytest.raises(ValueError) as raised:
                evaluate_templates([template], {"D": 3}, {"f": f}, {"F": F, "a": identity})
            assert str(raised.value) == text
