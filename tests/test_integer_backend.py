"""The integer backend of the template engine: engine vs independent oracle.

`axioms.evaluate_templates`, which every checker and construction calls, scales
every op and map by the least common multiple of its own denominators, carries
the scales through the subterm tables and compares the two sides of a template
as integer dicts.  These tests reach the cases the corpus and the benchmark
inputs do not: sums whose terms carry different scales, fractional twists and
morphisms, templates that apply a map a different number of times on each
side, parameter names whose string order differs from their numeric suffix,
and entries of high degree.  Each compares the full (template, witness,
residual text) sets with `oracle.py` in Fraction mode and, on symbolic inputs,
in sympy mode.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import expression_values
from oracle import (
    dendriform_violations,
    engine_residual_set,
    homomorphism_violations,
    multiplicative_violations,
    operator_violations,
    quadri_violations,
    rota_baxter_tensors,
    rota_baxter_violations,
    scalar_tools,
    twisted_sum_tensor,
)
from homsplit.axioms import (
    App,
    Op,
    Sum,
    Var,
    check_dendriform,
    check_homomorphism,
    check_multiplicative,
    check_quadri,
)
from homsplit.constructions import rota_baxter_induced
from homsplit.model import KIND_OPS, AlgebraBundle, BilinearOp, LinearMap
from homsplit.operators import verify_operator
from homsplit.poly import Polynomial

P = Polynomial.parse


def op(dim, *entries) -> BilinearOp:
    return BilinearOp.square(dim, [(i, j, k, P(c)) for i, j, k, c in entries])


def algebra(kind, dim, alpha_rows, **ops) -> AlgebraBundle:
    twist = LinearMap.from_strings(alpha_rows)
    ops = {name: op(dim, *entries) for name, entries in ops.items()}
    bundle = AlgebraBundle(kind, dim, ops, twist, ())
    return AlgebraBundle(kind, dim, ops, twist, tuple(sorted(bundle.used_parameters())))


def mode_of(*sources) -> str:
    used = set()
    for source in sources:
        used |= (
            source.used_parameters() if hasattr(source, "used_parameters") else source.parameters()
        )
    return "sympy" if used else "fraction"


def assert_agrees(report, oracle: set) -> set:
    engine = engine_residual_set(report)
    assert engine == oracle
    return engine


# prec has denominator 2 and succ denominator 3, so the sums in dend.1 and
# dend.3 add terms of scales 2^k and 3^k
HALVES_THIRDS = dict(
    prec=[(1, 1, 2, "1/2"), (2, 1, 1, "-3/2"), (2, 2, 2, "1/2"), (1, 2, 1, "1")],
    succ=[(1, 1, 1, "2/3"), (1, 2, 2, "-1/3"), (2, 2, 1, "1"), (2, 1, 2, "1/3")],
)


@pytest.mark.parametrize("alpha", [[["1", "0"], ["0", "1"]], [["1/2", "1"], ["0", "-2/3"]]])
def test_dendriform_sums_of_terms_with_different_scales(alpha):
    D = algebra("dendriform", 2, alpha, **HALVES_THIRDS)
    found = assert_agrees(check_dendriform(D), dendriform_violations(D, "fraction", residuals=True))
    assert {t for t, _, _ in found} == {"dend.1", "dend.2", "dend.3"}
    assert any("/" in text for _, _, text in found)


def test_symbolic_dendriform_sums_of_terms_with_different_scales():
    D = algebra(
        "dendriform", 2, [["1/2*a", "1"], ["0", "1/3"]],
        prec=[(1, 1, 2, "1/2*a"), (2, 1, 1, "-3/2"), (2, 2, 2, "1/2*b")],
        succ=[(1, 1, 1, "2/3"), (1, 2, 2, "-1/3*b"), (2, 1, 2, "1/3*a*b")],
    )
    found = assert_agrees(check_dendriform(D), dendriform_violations(D, "sympy", residuals=True))
    assert {t for t, _, _ in found} == {"dend.1", "dend.2", "dend.3"}


def rb_context(symbolic: bool) -> AlgebraBundle:
    alpha = [["1", "1/2*a", "0"], ["0", "1", "0"], ["0", "0", "1/3"]] if symbolic else [
        ["1", "1/2", "0"], ["0", "1", "0"], ["0", "0", "1/3"]]
    return algebra(
        "diassociative", 3, alpha,
        dashv=[(1, 2, 3, "-1/2"), (2, 1, 3, "1"), (2, 2, 3, "3/2"), (3, 1, 1, "1/2")],
        vdash=[(1, 1, 3, "1/3"), (1, 2, 3, "1"), (2, 2, 3, "2/3"), (3, 3, 2, "-1/3")],
    )


@pytest.mark.parametrize("symbolic", [False, True])
def test_rota_baxter_sums_of_terms_with_different_scales(symbolic):
    D = rb_context(symbolic)
    for rows in ([["1/2", "0", "0"], ["0", "1", "0"], ["1/5", "0", "0"]],
                 [["0", "0", "0"], ["1", "0", "0"], ["0", "1/3", "0"]]):
        R = LinearMap.from_strings(rows)
        mode = mode_of(D, R)
        found = assert_agrees(
            verify_operator("rota_baxter", D, R),
            operator_violations("rota_baxter", D, R, mode, residuals=True),
        )
        assert any(t.startswith("rb.") and t != "rb.twist" for t, _, _ in found)


@pytest.mark.parametrize("mode", ["fraction", "sympy"])
def test_fractional_twist_on_quadri(mode):
    Q = algebra(
        "quadri_dendriform", 2,
        [["1/2", "b"], ["0", "-2/3"]] if mode == "sympy" else [["1/2", "1"], ["0", "-2/3"]],
        prec_vdash=[(1, 1, 2, "1/2"), (2, 1, 1, "1")],
        prec_dashv=[(1, 2, 1, "-1/3")],
        succ_vdash=[(2, 2, 2, "2"), (1, 1, 1, "1/3")],
        succ_dashv=[(2, 1, 2, "-1/2")],
    )
    assert assert_agrees(check_quadri(Q), quadri_violations(Q, mode, residuals=True))


@pytest.mark.parametrize("kind", sorted(KIND_OPS))
def test_homomorphism_with_fractional_morphism(kind):
    names = sorted(KIND_OPS[kind])
    source = algebra(kind, 2, [["1/2", "0"], ["1", "1"]],
                     **{n: [(1, 1, 2, "1/3"), (2, 1, 1, "1")] for n in names})
    target = algebra(kind, 2, [["1", "0"], ["1/3", "1/2"]],
                     **{n: [(1, 1, 1, "1/2"), (2, 2, 1, "-1")] for n in names})
    for rows in ([["1/2", "0"], ["1/3", "1"]], [["1/2*t", "0"], ["0", "1/3*t"]]):
        T = LinearMap.from_strings(rows)
        mode = mode_of(T)
        found = assert_agrees(
            check_homomorphism(kind, T, source, target),
            homomorphism_violations(T, source, target, mode, residuals=True),
        )
        assert any(t.startswith("hom.") and t != "hom.twist" for t, _, _ in found)


@pytest.mark.parametrize("alpha", [[["1/2", "1"], ["0", "1/3"]], [["1/2*c", "1"], ["0", "1/3"]]])
def test_multiplicative_applies_alpha_once_and_twice(alpha):
    D = algebra("dendriform", 2, alpha, **HALVES_THIRDS)
    found = assert_agrees(
        check_multiplicative(D), multiplicative_violations(D, mode_of(D), residuals=True)
    )
    assert {t for t, _, _ in found} == {"mult.prec", "mult.succ"}


def test_parameter_names_in_string_order_unlike_numeric_order():
    # sorted as strings a10 < a2; numerically 2 < 10
    D = algebra(
        "dendriform", 2, [["a2", "1/2*a10"], ["0", "1"]],
        prec=[(1, 1, 2, "a10"), (2, 1, 1, "a2^2"), (2, 2, 2, "1/3*a10*a2")],
        succ=[(1, 2, 2, "-a2"), (2, 1, 2, "a10^2*a2"), (1, 1, 1, "1/2")],
    )
    found = assert_agrees(check_dendriform(D), dendriform_violations(D, "sympy", residuals=True))
    assert any("a10" in text and "a2" in text for _, _, text in found)
    found = assert_agrees(
        check_multiplicative(D), multiplicative_violations(D, "sympy", residuals=True)
    )
    assert found


def test_degree_64_entry_through_a_depth_3_template():
    D = algebra(
        "dendriform", 2, [["a", "0"], ["1", "1/2"]],
        prec=[(1, 1, 1, "a^64"), (1, 2, 2, "1/2")],
        succ=[(1, 1, 2, "1/3*a^64"), (2, 1, 1, "a")],
    )
    report = check_dendriform(D)
    assert_agrees(report, dendriform_violations(D, "sympy", residuals=True))
    assert max(v.residual.total_degree() for v in report.entries) == 129  # a^64 a^64 a


def assert_same_tensor(op: BilinearOp, expected: dict, conv, is_zero):
    engine = dict(op.constants)
    assert set(engine) == set(expected) and expected
    for key, value in engine.items():
        assert is_zero(conv(value) - expected[key]), key


@pytest.mark.parametrize("symbolic", [False, True])
def test_tabulated_sum_with_mixed_scales(symbolic):
    D = rb_context(symbolic)
    H = LinearMap.from_strings([["1/5", "0", "1"], ["0", "1/2", "0"], ["1", "0", "0"]])
    mode = mode_of(D, H)
    conv, is_zero = scalar_tools(mode, D, H)
    x, y = Var("x"), Var("y")
    expr = Sum((Op("dashv", App("H", x), y), Op("vdash", x, y)))
    values = expression_values(expr, (("x", "D"), ("y", "D")), D.dim, *D.parts_with(H=H))
    tensor = BilinearOp.from_entries(3, 3, 3, [(*key, c) for key, c in values.items()])
    assert_same_tensor(tensor, twisted_sum_tensor(D, H, mode), conv, is_zero)
    # the Rota-Baxter products Rx op y + x op Ry through the "rb-dias" lines
    R = LinearMap.from_strings([["1/2", "0", "0"], ["0", "1", "0"], ["1/5", "0", "0"]])
    induced = rota_baxter_induced(D, R, force=True)
    for name, expected in rota_baxter_tensors(D, R, mode).items():
        assert_same_tensor(induced.op(name), expected, conv, is_zero)


# ---------------------------------------------------------------------------
# property-based: random small contexts, engine vs oracle

COEFFICIENTS = [Fraction(n, d) for n in (1, -1) for d in (1, 2, 3)] + [Fraction(2), Fraction(-2)]
PARAMETERS = ("p", "q")


@st.composite
def entries(draw, dims, count):
    """Up to `count` sparse entries at indices within `dims`: a coefficient,
    sometimes times one of two parameters."""
    cell = st.tuples(
        st.sampled_from(COEFFICIENTS), st.sampled_from((None, None, None) + PARAMETERS)
    )
    out = []
    for _ in range(draw(st.integers(0, count))):
        index = tuple(draw(st.integers(1, dim)) for dim in dims)
        coeff, name = draw(cell)
        poly = Polynomial.constant(coeff)
        out.append((*index, poly * Polynomial.variable(name) if name else poly))
    return out


@st.composite
def tensors(draw, dim, count=6):
    return BilinearOp.square(dim, draw(entries((dim, dim, dim), count)))


@st.composite
def matrices(draw, rows, cols, count=3):
    cells = [[Polynomial.zero()] * cols for _ in range(rows)]
    for i, j, poly in draw(entries((rows, cols), count)):
        cells[i - 1][j - 1] = cells[i - 1][j - 1] + poly
    return LinearMap.from_rows(cells)


@st.composite
def bundles(draw, kind, dim=None):
    dim = dim or draw(st.integers(1, 3))
    ops = {name: draw(tensors(dim)) for name in sorted(KIND_OPS[kind])}
    bundle = AlgebraBundle(kind, dim, ops, draw(matrices(dim, dim)), ())
    return AlgebraBundle(kind, dim, ops, bundle.twist, tuple(sorted(bundle.used_parameters())))


PROPERTY = settings(
    derandomize=True, max_examples=50, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(bundles("dendriform"))
def test_property_dendriform_and_multiplicative(D):
    mode = mode_of(D)
    assert_agrees(check_dendriform(D), dendriform_violations(D, mode, residuals=True))
    assert_agrees(check_multiplicative(D), multiplicative_violations(D, mode, residuals=True))


@PROPERTY
@given(bundles("diassociative"), st.data())
def test_property_rota_baxter(D, data):
    R = data.draw(matrices(D.dim, D.dim))
    assert_agrees(
        verify_operator("rota_baxter", D, R),
        rota_baxter_violations(D, R, mode_of(D, R), residuals=True),
    )


@PROPERTY
@given(st.sampled_from(sorted(KIND_OPS)), st.integers(1, 3), st.integers(1, 3), st.data())
def test_property_homomorphism(kind, source_dim, target_dim, data):
    source = data.draw(bundles(kind, source_dim))
    target = data.draw(bundles(kind, target_dim))
    T = data.draw(matrices(target_dim, source_dim))
    assert_agrees(
        check_homomorphism(kind, T, source, target),
        homomorphism_violations(T, source, target, mode_of(source, target, T), residuals=True),
    )
