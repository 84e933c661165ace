"""Packed monomials and cached evaluation plans of the template engine.

A monomial of the engine is one int whose bit fields hold its exponents
(`poly.IntegerForm`), and multiplying two monomials adds the ints, so a field
that overflowed would carry into the next parameter.  The field width comes
from a bound: the largest exponent of any entry of the call's ops and maps
times the largest number of Op and App nodes on a template side.  These
tests put two parameters at that bound, run them through nested templates
and compare with the independent oracle.

The plan of a template set is kept across calls, keyed by the templates
themselves; the checkers pass tuples built once, and the public factories
still return fresh lists.  These tests show that the key tells apart two
sets with the same template ids, that mutating a returned list changes no
later check, and that the cache stays bounded.
"""

import random
from fractions import Fraction

import pytest

from helpers import expression_values, near_valid_six
from oracle import dendriform_violations, multiplicative_violations, quadri_violations
from test_residuals import assert_lazy_residuals
from homsplit import axioms
from homsplit.axioms import (
    App,
    Op,
    Template,
    Var,
    check_kind,
    check_multiplicative,
    check_six,
    evaluate_templates,
    quadri_templates,
    six_templates,
)
from homsplit.model import KIND_OPS, AlgebraBundle, BilinearOp, LinearMap
from homsplit.poly import IntegerForm, Polynomial
from homsplit.report import Report

P = Polynomial.parse


def monomial_six(rng: random.Random, dim: int, k: int) -> AlgebraBundle:
    """A dense failing six-dendriform algebra in the parameters p and q whose
    largest exponent is k: a third of its constants are +-p^k*q^k, the rest
    +-1, and its twist is the identity plus p^k*q^k in its top right corner."""
    cells = [(i, j, l) for i in range(1, dim + 1) for j in range(1, dim + 1)
             for l in range(1, dim + 1)]
    top = P(f"p^{k}*q^{k}")
    ops = {}
    for name in sorted(KIND_OPS["six_dendriform"]):
        entries = []
        for index, cell in enumerate(sorted(rng.sample(cells, round(0.3 * len(cells))))):
            sign = rng.choice((1, -1))
            entries.append((*cell, top * sign if index % 3 == 0 else Polynomial.constant(sign)))
        ops[name] = BilinearOp.square(dim, entries)
    rows = [[Polynomial.constant(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows[0][dim - 1] = top
    return AlgebraBundle("six_dendriform", dim, ops, LinearMap.from_rows(rows), ("p", "q"))


def part(bundle: AlgebraBundle, kind: str, names: dict) -> AlgebraBundle:
    return AlgebraBundle(
        kind, bundle.dim, {new: bundle.op(old) for new, old in names.items()},
        bundle.twist, bundle.parameters,
    )


@pytest.mark.parametrize("k", [1, 3])
def test_exponents_at_the_bound_never_carry(k):
    """Six templates have up to four Op and App nodes on a side and `mult.*`
    three, so a residual reaches p^(3k)*q^(3k).  With k = 1 the `mult.*` check
    runs with 2-bit fields, and 3 = 0b11 is the largest exponent they hold; a
    field sized from the largest entry exponent alone would hold 1."""
    bundle = monomial_six(random.Random(20 + k), 3, k)
    report = check_kind(bundle)
    quadri = part(bundle, "quadri_dendriform", {n: n for n in (
        "prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")})
    dend = part(bundle, "dendriform", {"prec": "prec_perp", "succ": "succ_perp"})
    parts = {
        "quadri.": quadri_violations(quadri, "sympy", residuals=True),
        "six.dend.": dendriform_violations(dend, "sympy", prefix="six.dend", residuals=True),
    }
    for prefix, oracle in parts.items():
        assert oracle
        assert_lazy_residuals(
            Report([v for v in report.entries if v.template.startswith(prefix)]), oracle
        )
    mult = check_multiplicative(bundle)
    assert max(exp for v in mult.entries for mono, _ in v.residual.terms for _, exp in mono) == 3 * k
    assert_lazy_residuals(mult, multiplicative_violations(bundle, "sympy", residuals=True))


def test_expression_values_size_their_fields_from_the_expression():
    """Three twists, or a product of two twisted vectors with a p*q constant,
    reach p^3*q^3 from entries of degree one in each parameter: with three
    Op and App nodes the fields are 2 bits wide, and 3 = 0b11 fills them.
    The values are the nonzero coordinates, keyed (*basis tuple, coordinate)."""
    alpha = LinearMap.from_rows([[P("p*q"), P("1")], [P("0"), P("1")]])
    cube = App("alpha", App("alpha", App("alpha", Var("x"))))
    values = expression_values(cube, (("x", "D"),), 2, {"D": 2}, {}, {"alpha": alpha})
    assert values == {(1, 1): P("p^3*q^3"), (2, 1): P("p^2*q^2 + p*q + 1"), (2, 2): P("1")}
    square = Op("mu", App("alpha", Var("x")), App("alpha", Var("y")))
    mu = BilinearOp.square(2, [(1, 2, 1, P("p*q"))])
    values = expression_values(
        square, (("x", "D"), ("y", "D")), 2, {"D": 2}, {"mu": mu}, {"alpha": alpha}
    )
    assert values == {(1, 2, 1): P("p^2*q^2"), (2, 2, 1): P("p*q")}


def test_scaled_refuses_an_exponent_above_its_field():
    form = IntegerForm(("p", "q"), 3)
    assert form.width == 2
    scale, (terms,) = form.scaled([P("1/2*p^3*q - q^3")])
    assert scale == 2 and terms == {form.pack((3, 1)): 1, form.pack((0, 3)): -2}
    for text in ("p^4", "q^4*p", "p^7"):
        with pytest.raises(ValueError):
            form.scaled([P(text)])
    with pytest.raises(ValueError):
        form.pack((0, 4))
    widths = [IntegerForm(("p",), degree).width for degree in (0, 1, 2, 3, 4, 8)]
    assert widths == [1, 1, 2, 2, 3, 4]


def test_packed_monomials_multiply_by_adding():
    form = IntegerForm(("a", "b", "c"), 6)
    a2c, abc3 = form.pack((2, 0, 1)), form.pack((1, 1, 3))
    assert form.monomial(a2c + abc3) == (("a", 3), ("b", 1), ("c", 4))
    assert form.monomial(0) == () and form.pack((0, 0, 0)) == 0
    assert form.polynomial({a2c + abc3: 4, 0: -2}, 6) == P("-1/3 + 2/3*a^3*b*c^4")


# ---------------------------------------------------------------------------
# cached plans


def test_literal_and_symmetric_sq15_keep_their_own_reports():
    """The two readings share every template id, and sq15 differs in its
    right-hand sides; alternating calls in one process keep both reports."""
    bundle = near_valid_six()
    first = {sq15: check_six(bundle, sq15=sq15).to_dict() for sq15 in ("literal", "symmetric")}
    assert first["literal"] != first["symmetric"]
    ids = {sq15: [t.id for t in six_templates(sq15=sq15)] for sq15 in first}
    assert ids["literal"] == ids["symmetric"]
    for sq15 in ("symmetric", "literal", "symmetric"):
        assert check_six(bundle, sq15=sq15).to_dict() == first[sq15]
        fresh = evaluate_templates(
            six_templates(sq15=sq15), {"D": bundle.dim}, dict(bundle.ops), {"alpha": bundle.twist}
        )
        assert fresh.to_dict() == first[sq15]


def test_factories_return_fresh_lists_that_checks_do_not_share():
    bundle = near_valid_six()
    expected = check_kind(bundle, sq15="symmetric").to_dict()
    assert expected["status"] == "fail"
    templates = six_templates(sq15="symmetric")
    assert templates is not six_templates(sq15="symmetric")
    assert templates == six_templates(sq15="symmetric")
    templates.reverse()
    templates[:10] = []
    templates.append(Template("six.sq1", (("x", "D"),), Var("x"), App("alpha", Var("x"))))
    quadri = quadri_templates()
    quadri.clear()
    assert check_kind(bundle, sq15="symmetric").to_dict() == expected
    assert len(six_templates(sq15="symmetric")) == 47


def test_the_plan_cache_is_bounded():
    mu = BilinearOp.square(1, [(1, 1, 1, P("2"))])
    dims, ops = {"D": 1}, {"mu": mu}
    limit = 64
    assert axioms._plan.cache_info().maxsize == limit
    for n in range(limit + 5):
        # mu(x, x) = n x fails at every n but 2
        template = Template(f"t{n}", (("x", "D"),), Op("mu", Var("x"), Var("x")),
                            axioms.Sum((Var("x"),) * n) if n else App("zero", Var("x")))
        maps = {"zero": LinearMap.from_fractions([[Fraction(0)]])}
        report = evaluate_templates([template], dims, ops, maps)
        assert report.ok == (n == 2)
        assert axioms._plan.cache_info().currsize <= limit
