"""Sparse subterm tables of the template engine, against the oracle.

`axioms.evaluate_templates` keeps, for each subterm, only the basis tuples
where its vector is nonzero; a missing key is the zero vector.  These tests
reach the cases where that matters: a tuple where one side of a template is
zero and the other is not (the key on one side only), sums whose terms
cancel, maps with zero columns that drop entries, templates whose two sides
have different placeholders, and the value of an expression read as the
residuals of expr = 0, as the constructions read it.  Each compares the
engine with `oracle.py`.
"""

import random
from fractions import Fraction

import pytest

from helpers import dense_six, expression_values, random_bundle, random_op
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
)
from homsplit.axioms import (
    App,
    Op,
    S,
    Template,
    Var,
    check_dendriform,
    check_homomorphism,
    check_kind,
    check_multiplicative,
    check_quadri,
    evaluate_templates,
    quotient_closure_templates,
)
from homsplit.constructions import quotient_dendriform
from homsplit.model import AlgebraBundle, BilinearOp, LinearMap
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
            "prec_vdash": base.op("prec"), "prec_dashv": base.op("prec").add(shift),
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
    report = evaluate_templates(
        quotient_closure_templates(sorted(ops)), {"D": dim, "I": ideal}, ops, maps
    )
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
        (S(App("G", Var("x")), Op("f", Var("x"), Var("y"))),
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
