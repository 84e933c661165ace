"""Residuals of the template engine: text from integers, polynomials on demand.

A violation from `axioms.evaluate_templates` keeps its residual as an integer
dict over a scale.  `to_dict` writes the residual text with
`IntegerForm.text`, and `residual` builds the canonical Polynomial on first
access.  These tests hold the text to `str(IntegerForm.polynomial(...))` and
the lazy polynomial to the independent oracle, on the corpus and on a dense
failing six-dendriform algebra.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_six
from oracle import (
    dendriform_violations,
    diassociative_violations,
    multiplicative_violations,
    operator_violations,
    quadri_violations,
)
from test_oracle_operators import corpus_operators, perturbed
from homsplit.axioms import check_kind, check_multiplicative
from homsplit.corpus import CORPUS_ROOT, list_entries, load_algebra
from homsplit.model import AlgebraBundle
from homsplit.operators import verify_operator
from homsplit.poly import IntegerForm, Polynomial
from homsplit.report import Report, Violation, scaled_violation

# string order differs from numeric order in a10 < a2
ORDERS = [(), ("p",), ("a10", "a2", "b", "eta")]


@st.composite
def integer_polynomials(draw):
    order = draw(st.sampled_from(ORDERS))
    exponents = st.tuples(*[st.integers(0, 3)] * len(order))
    coefficients = st.integers(-60, 60).filter(bool) | st.integers(-(10**30), 10**30).filter(bool)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=8))
    scale = draw(st.sampled_from([1, 2, 4, 6, 12, 60, 97]) | st.integers(1, 10**12))
    form = IntegerForm(order, 3)
    return form, {form.pack(exps): coeff for exps, coeff in terms.items()}, scale


@settings(derandomize=True, max_examples=500, deadline=None)
@given(integer_polynomials())
def test_integer_text_equals_polynomial_text(case):
    form, terms, scale = case
    assert form.text(terms, scale) == str(form.polynomial(terms, scale))


@pytest.mark.parametrize("terms, scale, text", [
    ({}, 5, "0"),
    ({(0, 0, 0, 0): -6}, 4, "-3/2"),
    ({(0, 1, 0, 0): 4, (1, 0, 0, 0): -2}, 4, "-1/2*a10 + a2"),
    ({(0, 0, 2, 1): 3, (0, 0, 0, 0): 3}, 3, "1 + b^2*eta"),
])
def test_integer_text_examples(terms, scale, text):
    form = IntegerForm(ORDERS[2], 2)
    assert form.text({form.pack(exps): coeff for exps, coeff in terms.items()}, scale) == text


def assert_lazy_residuals(report, oracle: set) -> None:
    """The violations are the oracle's; each writes its residual text from
    its integers, and its lazy residual is the oracle's polynomial."""
    expected = {(t, w): Polynomial.parse(text) for t, w, text in oracle}
    assert {(v.template, v.witness) for v in report.entries} == set(expected)
    for v in report.entries:
        text = v.to_dict()["residual"]
        residual = v.residual
        assert residual is v.residual
        assert residual == expected[v.template, v.witness]
        assert text == str(residual)


ORACLES = {
    "quadri_dendriform": quadri_violations,
    "dendriform": dendriform_violations,
    "diassociative": diassociative_violations,
}


def mode(*sources) -> str:
    used = set().union(*(
        s.used_parameters() if hasattr(s, "used_parameters") else s.parameters()
        for s in sources
    ))
    return "sympy" if used else "fraction"


def test_corpus_algebra_residuals_agree_with_oracle():
    failing = 0
    for entry in list_entries():
        if entry["type"] != "algebra":
            continue
        bundle = load_algebra(CORPUS_ROOT / entry["path"])
        report = check_kind(bundle)
        assert_lazy_residuals(report, ORACLES[bundle.kind](bundle, mode(bundle), residuals=True))
        assert_lazy_residuals(
            check_multiplicative(bundle),
            multiplicative_violations(bundle, mode(bundle), residuals=True),
        )
        failing += not report.ok
    assert failing


def test_corpus_operator_residuals_agree_with_oracle():
    rng = random.Random(11)
    failing = 0
    for _, kind, context, matrix in corpus_operators():
        for candidate in (matrix, perturbed(rng, matrix)):
            report = verify_operator(kind, context, candidate)
            oracle = operator_violations(
                kind, context, candidate, mode(context, candidate), residuals=True
            )
            assert_lazy_residuals(report, oracle)
            failing += not report.ok
    assert failing


def test_dense_six_residuals_agree_with_oracle():
    bundle = dense_six(random.Random(10), 3)
    report = check_kind(bundle)
    parts = {
        "quadri.": quadri_violations(AlgebraBundle(
            "quadri_dendriform", 3,
            {name: bundle.op(name) for name in ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")},
            bundle.twist, bundle.parameters,
        ), "sympy", residuals=True),
        "six.dend.": dendriform_violations(AlgebraBundle(
            "dendriform", 3,
            {"prec": bundle.op("prec_perp"), "succ": bundle.op("succ_perp")},
            bundle.twist, bundle.parameters,
        ), "sympy", prefix="six.dend", residuals=True),
    }
    for prefix, oracle in parts.items():
        assert_lazy_residuals(
            Report([v for v in report.entries if v.template.startswith(prefix)]), oracle
        )
    assert_lazy_residuals(
        check_multiplicative(bundle), multiplicative_violations(bundle, "sympy", residuals=True)
    )


def test_violation_built_from_a_polynomial():
    residual = Polynomial.parse("1/2*p - 1")
    v = Violation("t", (1, 2), residual)
    assert v.residual is residual
    assert v.to_dict() == {"template": "t", "witness": [1, 2], "residual": "-1 + 1/2*p"}
    assert v == Violation("t", (1, 2), Polynomial.zero())
    assert sorted([Violation("t", (2,), residual), v]) == [v, Violation("t", (2,), residual)]
    with pytest.raises(AttributeError):
        v.template = "u"


def test_scaled_violation_is_the_dataclass_violation():
    form = IntegerForm(("p",), 2)
    scaled = (form, {form.pack((2,)): 3, 0: -1}, 2)
    fast, slow = scaled_violation("t", (1, 2), scaled), Violation("t", (1, 2), None, scaled)
    assert type(fast) is Violation and fast == slow and hash(fast) == hash(slow)
    assert fast.scaled is scaled and repr(fast) == repr(slow)
    row = {"template": "t", "witness": [1, 2], "residual": "-1/2 + 3/2*p^2"}
    assert fast.to_dict() == slow.to_dict() == row
    assert fast.residual is fast.residual == Polynomial.parse("3/2*p^2 - 1/2")
    assert sorted([Violation("t", (2,)), fast, Violation("s", (9,))]) == [
        Violation("s", (9,)), slow, Violation("t", (2,))
    ]
    with pytest.raises(AttributeError):
        fast.witness = (3,)
