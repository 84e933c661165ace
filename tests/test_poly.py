import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homsplit import poly
from homsplit.corpus import CORPUS_ROOT, load_algebra
from homsplit.model import unknown_matrix
from homsplit.operators import solve_operators_grid, verify_operator
from homsplit.poly import CompiledSystem, IntegerForm, ParseError, Polynomial
from homsplit.report import Violation

P = Polynomial.parse

NAMES = ["a", "b", "eta", "gamma", "t11", "t21"]


def rand_poly(rng, max_terms=4, max_deg=3):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        mono = []
        for name in rng.sample(NAMES, rng.randrange(3)):
            mono.append((name, rng.randrange(1, max_deg + 1)))
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        terms.append((tuple(sorted(mono)), coeff))
    return Polynomial(terms)


# -- parsing -----------------------------------------------------------------

def test_parse_zero():
    assert P("0").is_zero()


def test_parse_half_a():
    p = P("1/2*a")
    assert p.terms == (((("a", 1),), Fraction(1, 2)),)


def test_parse_cancellation_is_canonical_zero():
    assert P("a^2 - a^2") == Polynomial.zero()
    assert P("a^2 - a^2").terms == ()


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2a")


@pytest.mark.parametrize(
    "text,offset",
    [("a^0", 2), ("a^-1", 2), ("1/0", 2), ("a**2", 2), ("", 0), ("(a", 2), ("a +", 3)],
)
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        P(text)
    assert err.value.offset == offset


def test_parentheses_and_unary_minus():
    assert P("-(a - 1)") == P("1 - a")
    assert P("2 - -3") == Polynomial.constant(5)
    assert P("-a^2") == -P("a")**2


# -- arithmetic --------------------------------------------------------------

def test_add_examples():
    assert (P("a") + P("-a")).is_zero()
    assert P("1") + P("1") == Polynomial.constant(2)
    # declared canonical order: constant monomial first, then by name tuple
    two_terms = P("eta") + P("1/2")
    assert [m for m, _ in two_terms.terms] == [(), (("eta", 1),)]
    assert str(two_terms) == "1/2 + eta"


def test_mul_examples():
    assert (P("a") * Polynomial.zero()).is_zero()
    assert P("(a+1)") * P("(a-1)") == P("a^2 - 1")
    prod = P("t21") * P("t22")
    assert len(prod.terms) == 1
    assert prod == P("t21*t22")


def test_specialize_examples():
    assert P("a+1").specialize({"a": 1}) == Polynomial.constant(2)
    assert P("eta").specialize({}) == P("eta")
    assert P("1/2*eta").specialize({"eta": 2}) == Polynomial.one()
    # unbound parameters persist
    assert P("a*b").specialize({"a": 2}) == P("2*b")


def test_is_zero_examples():
    assert Polynomial.zero().is_zero()
    assert (P("a") - P("a")).is_zero()
    assert not P("eta - 1").is_zero()


def run_ring_axiom_suite(cases: int, seed: int = 20240811) -> None:
    rng = random.Random(seed)
    one = Polynomial.one()
    zero = Polynomial.zero()
    for _ in range(cases):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p
        assert p * one == p
        assert (p - p).is_zero()


def run_roundtrip_suite(cases: int, seed: int = 977) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        p = rand_poly(rng)
        assert P(str(p)) == p


def test_ring_axioms_random():
    run_ring_axiom_suite(300)


def test_roundtrip_random():
    run_roundtrip_suite(300)


def test_specialization_is_ring_homomorphism():
    rng = random.Random(4242)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        bindings = {
            name: Fraction(rng.randrange(-3, 4))
            for name in rng.sample(NAMES, rng.randrange(len(NAMES) + 1))
        }
        assert (p * q).specialize(bindings) == p.specialize(bindings) * q.specialize(bindings)
        assert (p + q).specialize(bindings) == p.specialize(bindings) + q.specialize(bindings)


def test_multiplication_against_sympy():
    rng = random.Random(31337)
    symbols = {n: sp.Symbol(n) for n in NAMES}
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        ours = sp.sympify(str(p * q).replace("^", "**"), locals=symbols)
        theirs = sp.expand(
            sp.sympify(str(p).replace("^", "**"), locals=symbols)
            * sp.sympify(str(q).replace("^", "**"), locals=symbols)
        )
        assert sp.expand(ours - theirs) == 0


def test_reduce_imaginary():
    assert P("i^2").reduce_imaginary() == Polynomial.constant(-1)
    assert P("i^3*a").reduce_imaginary() == P("-i*a")
    assert P("i^4 + i^2").reduce_imaginary().is_zero()
    assert P("a*b").reduce_imaginary() == P("a*b")


def test_printer_emits_parseable_grammar():
    samples = [P("0"), P("-1/3 + a"), P("a*b^2 - 2*eta"), P("1/2*a - b")]
    for p in samples:
        assert P(str(p)) == p
        assert "**" not in str(p)


def test_float_scalars_are_rejected():
    # Fraction(0.1) would store the binary float 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        Polynomial.constant(0.1)
    with pytest.raises(TypeError, match="float"):
        P("a + 1").specialize({"a": 0.5})
    assert Polynomial.constant(Fraction(1, 10)) == P("1/10")


def test_deep_nesting_is_a_parse_error():
    # about 3,000 levels would overflow the recursive-descent parser's stack
    with pytest.raises(ParseError, match="nest"):
        P("(" * 3000 + "a" + ")" * 3000)
    with pytest.raises(ParseError, match="nest"):
        P("-" * 3000 + "a")
    shallow = 50
    assert P("(" * shallow + "a" + ")" * shallow) == P("a")
    assert P("-" * shallow + "a") == P("a")


def test_huge_exponent_is_a_parse_error_naming_the_cap():
    with pytest.raises(ParseError, match="cap of 64"):
        P("a^100000000")
    with pytest.raises(ParseError, match="cap of 64"):
        P("(a + 1)^65")
    assert P("a^64") == Polynomial((((("a", 64),), 1),))


def test_power_by_squaring_matches_repeated_multiplication():
    base = P("a - 2*b + 1/3")
    expected = Polynomial.one()
    for exponent in range(0, 12):
        assert base ** exponent == expected
        expected = expected * base


def engine_violation(template, witness, residual, order):
    """A violation as the template engine keeps it: `residual` scaled to
    integers in an `IntegerForm` over `order`."""
    form = IntegerForm(order, poly.max_exponent([residual]))
    scale, (terms,) = form.scaled([residual])
    return Violation(template, witness, None, (form, terms, scale))


def test_compiled_system_vanishes_exactly_where_the_polynomials_do():
    system = [P("1/2*t1 - 1/3*t2"), P("t1^2*t2 - 12"), P("t1*t2 - 6")]
    compiled = CompiledSystem(
        [engine_violation("v", (k,), p, ["t1", "t2"]) for k, p in enumerate(system)], ["t1", "t2"]
    )
    for point in [(2, 3), (Fraction(2), Fraction(3)), (1, 1), (Fraction(1, 2), 3), (0, 0), (-2, -3)]:
        expected = all(p.specialize({"t1": point[0], "t2": point[1]}).is_zero() for p in system)
        assert compiled.vanishes_at(point) == expected
    assert compiled.vanishes_at((2, 3)) and not compiled.vanishes_at((-2, -3))
    assert CompiledSystem([], ["t1"]).vanishes_at((5,))


def test_compiled_system_finds_unknown_positions_by_name():
    form = IntegerForm(["a", "b"], 1)
    violations = [
        # (a - 2*b) / 3, and b - 1 in a form of its own over (b,)
        Violation("x", (1,), None, (form, {form.pack((1, 0)): 1, form.pack((0, 1)): -2}, 3)),
        engine_violation("y", (1,), P("b - 1"), ["b"]),
    ]
    compiled = CompiledSystem(violations, ["b", "a"])
    assert compiled.vanishes_at((1, 2))  # b = 1, a = 2
    assert not compiled.vanishes_at((2, 1))
    assert not compiled.vanishes_at((1, 1))


def test_compiled_system_over_a_report_vanishes_where_its_residuals_do():
    d4 = load_algebra(CORPUS_ROOT / "dim3" / "D4.json")
    names, symbolic = unknown_matrix(3, 3)
    report = verify_operator("averaging_quadri", d4, symbolic)
    # every residual, twist commutation's too, is kept as engine integers
    assert "qavg.twist" in {v.template for v in report.entries}
    assert all(v.scaled is not None for v in report.entries)
    order = names[::-1]  # not the engine's sorted order
    compiled = CompiledSystem(report.entries, order)
    residuals = set(v.residual for v in report.entries)
    points = [
        [v for row in m.to_fraction_rows() for v in row]
        for m in solve_operators_grid(d4, "averaging_quadri", [-1, 0, 1])
    ]
    rng = random.Random(8)
    points += [[rng.choice((-1, 0, 1, Fraction(1, 2))) for _ in names] for _ in range(100)]
    vanishing = 0
    for point in points:
        binding = dict(zip(names, point))
        expected = all(r.specialize(binding).is_zero() for r in residuals)
        assert compiled.vanishes_at([binding[name] for name in order]) == expected
        vanishing += expected
    assert 0 < vanishing < len(points)


def test_integer_form_scales_by_the_common_denominator_and_reads_back():
    form = IntegerForm(sorted(["a2", "a10", "b"]), 3)  # string order: a10, a2, b
    polys = [P("1/2*a10*a2^3 - 2/3*b + 1"), P("0"), P("a2 + 1/4")]
    scale, terms = form.scaled(polys)
    assert scale == 12
    pack = form.pack
    assert terms[0] == {pack((1, 3, 0)): 6, pack((0, 0, 1)): -8, pack((0, 0, 0)): 12}
    assert terms[1] == {}
    for poly, dicts in zip(polys, terms):
        assert form.polynomial(dicts, scale) == poly
        assert str(form.polynomial(dicts, scale)) == str(poly)
    # a difference over another scale reads back in lowest terms
    assert form.polynomial({pack((0, 1, 0)): 3, pack((0, 0, 0)): -6}, 9) == P("1/3*a2 - 2/3")


def test_products_and_powers_above_the_term_cap_are_parse_errors():
    # the term bound is |p|*|q| for a product and C(e+t-1, e) for p^e with
    # t terms; these would build 10,626, 513 and 274,625 terms
    for text in ("(a+b+c+d+1)^20", "((a+1)^64)^8", "(a+1)^64*(b+1)^64*(c+1)^64"):
        with pytest.raises(ParseError) as info:
            P(text)
        assert f"cap of {poly.MAX_TERMS} terms" in str(info.value)
    assert len(P("(a+1)^64").terms) == 65
    assert len(P("(a+b+c+1)^10").terms) == 286


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


LITERAL_LIKE = st.text(alphabet="-0123456789/ +()", max_size=8) | st.from_regex(
    r"-?\d{1,25}(/\d{1,25})?", fullmatch=True
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(LITERAL_LIKE)
@example("-0")
@example("007")
@example("1/0")
@example("-1/00")
@example(" 1")
@example("1 ")
@example("--1")
@example("-1/2")
@example("+1")
@example("1/-2")
@example("18446744073709551629/7")
def test_rational_literals_parse_as_the_parser_reads_them(text):
    assert parse_outcome(Polynomial.parse, text) == parse_outcome(
        lambda t: poly._Parser(t).run(), text
    )
