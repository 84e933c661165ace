"""Exact multivariate polynomial arithmetic over the rationals.

This is the universal scalar of the workbench: every structure constant,
twist-map entry, and residual is one of these.  Coefficients are
`fractions.Fraction` (never floats), parameters are named indeterminates,
and the representation is canonical, so equality with the zero polynomial
is an exact yes/no decision.

Representation:

  Monomial   = tuple of (name, exponent) pairs, sorted by name, exponents > 0;
               the empty tuple is the constant monomial.
  Polynomial = tuple of (monomial, coefficient) terms, no zero coefficients,
               no duplicate monomials, sorted by the canonical monomial order.

Canonical monomial order: by name tuple (lexicographic), then total degree,
then exponent tuple.  The constant monomial sorts first.  Any fixed total
order would do; this one is frozen by the round-trip tests.

Compiled form, for code that evaluates many polynomials at once (the template
engine's tables and `CompiledSystem`): `IntegerForm(order, degree).scaled`
writes polynomials over a fixed parameter order as {packed monomial: int}
dicts, all scaled by the least common multiple L of their coefficient
denominators.  A packed monomial is one int holding each exponent in a bit
field wide enough for `degree`, so that multiplying monomials is adding ints.
`IntegerForm.polynomial` turns such a dict over L back into a canonical
Polynomial.  `IntegerForm.text` writes the same polynomial's text straight
from the ints; it and `Polynomial.__str__` share one formatter (`_format`).
`CompiledSystem` compiles the residuals of a symbolic report from those
integer dicts, without making a Polynomial.

A bare rational literal ("1", "-1/2"), which is most of a structure-constant
file, is read by `Polynomial.parse` without the tokenizer; any other text,
and a literal with a zero denominator, goes through the parser below.

Text grammar (parse/str are mutually inverse on canonical forms):

  expr    := term (('+' | '-') term)*
  term    := factor ('*' factor)*
  factor  := '-' factor | primary ('^' INT)?      -- 1 <= INT <= MAX_EXPONENT
  primary := INT ('/' INT)? | NAME | '(' expr ')'
  NAME    := [A-Za-z][A-Za-z0-9_]*

Implicit multiplication ("2a") is deliberately a syntax error: table
transcriptions must spell out every '*'.  Parentheses and unary minus signs
nest at most MAX_NESTING levels deep, so hostile text is a ParseError rather
than a stack overflow.  A product or power whose term bound exceeds MAX_TERMS
is refused before it is formed: |p|*|q| for p*q, and C(e+t-1, e), the number
of degree-e monomials in t symbols, for p^e with t terms.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .linalg import _exact

Monomial = tuple

ScalarLike = Union[int, Fraction]

MAX_EXPONENT = 64
MAX_NESTING = 100
MAX_TERMS = 10_000

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_LITERAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[-+*^/()])"
)


class ParseError(ValueError):
    """Syntax error in polynomial text; `offset` is the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _mono_key(mono: Monomial):
    names = tuple(n for n, _ in mono)
    exps = tuple(e for _, e in mono)
    return (names, sum(exps), exps)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged: dict = {}
    for name, exp in a:
        merged[name] = exp
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


class Polynomial:
    """Immutable canonical-form polynomial; supports +, -, *, ** and scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        acc: dict = {}
        for mono, coeff in terms:
            coeff = Fraction(coeff)
            if coeff:
                prev = acc.get(mono)
                total = coeff if prev is None else prev + coeff
                if total:
                    acc[mono] = total
                elif prev is not None:
                    del acc[mono]
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=lambda t: _mono_key(t[0])))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def constant(value: ScalarLike) -> "Polynomial":
        """Made without `__init__`'s sort: one term or none is canonical."""
        poly, value = object.__new__(Polynomial), Fraction(_exact(value))
        object.__setattr__(poly, "terms", (((), value),) if value else ())
        return poly

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid parameter name {name!r}")
        return Polynomial(((((name, 1),), Fraction(1)),))

    @staticmethod
    def parse(text: str) -> "Polynomial":
        """The polynomial of `text` (grammar in the module docstring).  A bare
        rational literal, exactly -?INT or -?INT/INT with a nonzero
        denominator, is read without the tokenizer; the value is the same."""
        literal = _LITERAL_RE.fullmatch(text)
        if literal is not None:
            numerator, denominator = literal.groups()
            if denominator is None:
                return Polynomial.constant(int(numerator))
            if int(denominator):
                return Polynomial.constant(Fraction(int(numerator), int(denominator)))
        return _Parser(text).run()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(self.terms + other.terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial((m, -c) for m, c in self.terms)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            return Polynomial((m, c * scale) for m, c in self.terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                out.append((_mono_mul(m1, m2), c1 * c2))
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = _ONE
        square = self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def parameters(self) -> frozenset:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return self.terms[0][1]
        raise ValueError(f"polynomial {self} is not constant")

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m, _ in self.terms), default=0)

    # -- substitution ------------------------------------------------------

    def specialize(self, bindings: Mapping[str, ScalarLike]) -> "Polynomial":
        """Substitute rational values for a subset of parameters."""
        if not bindings:
            return self
        values = {name: Fraction(_exact(v)) for name, v in bindings.items()}
        out = []
        for mono, coeff in self.terms:
            kept = []
            for name, exp in mono:
                if name in values:
                    coeff = coeff * values[name] ** exp
                else:
                    kept.append((name, exp))
            out.append((tuple(kept), coeff))
        return Polynomial(out)

    def reduce_imaginary(self, name: str = "i") -> "Polynomial":
        """Rewrite powers of `name` using name^2 = -1 (Gaussian reduction)."""
        out = []
        for mono, coeff in self.terms:
            kept = []
            for n, exp in mono:
                if n == name:
                    half, rem = divmod(exp, 2)
                    coeff = coeff * (-1) ** half
                    if rem:
                        kept.append((n, 1))
                else:
                    kept.append((n, exp))
            out.append((tuple(kept), coeff))
        return Polynomial(out)

    # -- hashing / printing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        return _format((_mono_text(m), c.numerator, c.denominator) for m, c in self.terms)

    def __repr__(self) -> str:
        return f"Polynomial.parse({str(self)!r})"


def _mono_text(mono: Monomial) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)


def _format(terms: Iterable[tuple]) -> str:
    """The canonical text of (monomial text, numerator, denominator) terms,
    given in canonical monomial order, each a nonzero coefficient in lowest
    terms with a positive denominator: "0", or signed terms "c*m", "m" or "c"."""
    parts = []
    for mono_text, numerator, denominator in terms:
        parts.append(" - " if numerator < 0 else " + ")
        numerator = abs(numerator)
        coeff = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
        if not mono_text:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono_text)
        else:
            parts.append(f"{coeff}*{mono_text}")
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


_ZERO = Polynomial()
_ONE = Polynomial.constant(1)


def max_exponent(polynomials: Iterable[Polynomial]) -> int:
    """The largest exponent of any name in `polynomials`; 0 if none has one."""
    return max(
        (exp for poly in polynomials for mono, _ in poly.terms for _, exp in mono), default=0
    )


class IntegerForm:
    """Polynomials over a fixed parameter order as scaled integer dicts.

    A polynomial becomes {packed monomial: int}, its coefficients scaled to
    ints.  A monomial is packed into one int: the exponent of the k-th name of
    `order` is the field of `width` bits at shift k * width, so the constant
    monomial is 0 and the product of two monomials is their sum (a*c^2 over
    (a, b, c) with width 2 is 1 + (2 << 4)).  `width` is the bit length of
    `degree`, the largest exponent the caller will form by such sums: while
    every exponent stays within it, no field carries into the next.  `scaled`
    refuses an exponent above its field.  `polynomial` and `text` read the
    dicts back and need `order` sorted, so that their monomials are
    canonical; each distinct monomial is decoded once (`monomial`).
    """

    def __init__(self, order: Sequence[str], degree: int):
        self.order = tuple(order)
        self.width = max(degree, 1).bit_length()
        self._position = {name: index for index, name in enumerate(self.order)}
        self._monomials: dict = {}
        self._labels: dict = {}

    def pack(self, exponents: Sequence[int]) -> int:
        """The packed monomial with `exponents`, one per name of `order`."""
        width, packed = self.width, 0
        for index, exp in enumerate(exponents):
            if not 0 <= exp < 1 << width:
                raise ValueError(f"exponent {exp} does not fit a field of {width} bits")
            packed |= exp << (index * width)
        return packed

    def monomial(self, packed: int) -> Monomial:
        """The Polynomial monomial ((name, exponent), ...) of a packed one."""
        mono = self._monomials.get(packed)
        if mono is None:
            width, field = self.width, (1 << self.width) - 1
            mono = self._monomials[packed] = tuple(
                (name, exp)
                for index, name in enumerate(self.order)
                if (exp := packed >> (index * width) & field)
            )
        return mono

    def scaled(self, polynomials: Iterable[Polynomial]) -> tuple:
        """(L, [{packed monomial: int}, ...]): the polynomials times L, the least
        common multiple of all their coefficient denominators.  Every name they
        use must be in `order`, and every exponent must fit a field (else
        ValueError); the dicts keep their term order and hold no zero."""
        polynomials = list(polynomials)
        scale = math.lcm(*(c.denominator for poly in polynomials for _, c in poly.terms))
        out = []
        for poly in polynomials:
            terms = {}
            for mono, coeff in poly.terms:
                exponents = [0] * len(self.order)
                for name, exp in mono:
                    exponents[self._position[name]] = exp
                terms[self.pack(exponents)] = coeff.numerator * (scale // coeff.denominator)
            out.append(terms)
        return scale, out

    def polynomial(self, terms: Mapping, scale: int) -> Polynomial:
        """The canonical Polynomial of {distinct packed monomial: nonzero int} / scale."""
        monomial = self.monomial
        out = [(monomial(packed), Fraction(coeff, scale)) for packed, coeff in terms.items()]
        out.sort(key=lambda term: _mono_key(term[0]))
        poly = object.__new__(Polynomial)
        object.__setattr__(poly, "terms", tuple(out))
        return poly

    def text(self, terms: Mapping, scale: int) -> str:
        """str(self.polynomial(terms, scale)), from the ints: each coefficient
        is reduced by its gcd with `scale`, and no Fraction or Polynomial is made."""
        labels = self._labels
        out = []
        for packed, coeff in terms.items():
            label = labels.get(packed)
            if label is None:
                mono = self.monomial(packed)
                label = labels[packed] = (_mono_key(mono), _mono_text(mono))
            divisor = math.gcd(coeff, scale)
            out.append((label, coeff // divisor, scale // divisor))
        out.sort()
        return _format(
            (mono_text, numerator, denominator)
            for (_, mono_text), numerator, denominator in out
        )


class CompiledSystem:
    """The residuals of a symbolic report, compiled once for exact evaluation
    at many points.

    A residual vanishes exactly where its scaled integer numerator does.
    The violations are the template engine's, which hold that numerator
    already, as the {packed monomial: int} dict of their `scaled` = (form,
    terms, scale), so no Polynomial is made.  The coefficients are ints, so
    the evaluation at a point with int coordinates is plain int arithmetic.
    Each term is stored as (coefficient, factors), the factors being the
    positions in `unknowns` of its names, looked up by name and repeated by
    multiplicity (t11*t23^2 over t11..t33 is (0, 5, 5)); each distinct
    monomial of a form is decoded once.  Equations with the same integer
    terms are kept once, in the order of their first violation, under their
    level: the number of leading unknowns they need (0 for a constant).
    """

    def __init__(self, violations: Iterable, unknowns: Sequence[str]):
        position = {name: index for index, name in enumerate(unknowns)}
        forms: dict = {}  # form -> {packed monomial: factors}
        equations: dict = {}
        for violation in violations:
            form, terms, _ = violation.scaled
            known = forms.setdefault(form, {})
            equation = []
            for packed, coeff in terms.items():
                factors = known.get(packed)
                if factors is None:
                    factors = known[packed] = tuple(
                        position[name] for name, exp in form.monomial(packed) for _ in range(exp)
                    )
                equation.append((coeff, factors))
            equations.setdefault(frozenset(equation), equation)
        self.levels: list = [[] for _ in range(len(unknowns) + 1)]
        for equation in equations.values():
            level = max((max(factors, default=-1) for _, factors in equation), default=-1) + 1
            self.levels[level].append(equation)

    def vanishes_at(self, point: Sequence, depth: int | None = None) -> bool:
        """Is every residual of level `depth`, or of every level when `depth`
        is None, zero at `point` (values in unknown order)?  Stops at the
        first residual that does not vanish."""
        for level in self.levels if depth is None else (self.levels[depth],):
            for terms in level:
                total = 0
                for value, factors in terms:
                    for index in factors:
                        value *= point[index]
                    total += value
                if total:
                    return False
        return True


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if match.lastgroup != "ws":
                self.tokens.append((match.lastgroup, match.group(), match.start()))
            pos = match.end()
        self.tokens.append(("end", "", len(text)))
        self.index = 0
        self.depth = 0

    def bounded(self, bound: int, offset: int) -> None:
        """Refuse a product or power that may have more than MAX_TERMS terms."""
        if bound > MAX_TERMS:
            raise ParseError(
                f"result may have {bound} terms, above the cap of {MAX_TERMS} terms", offset
            )

    def nested(self, offset: int) -> None:
        """Enter one more '(' or unary '-' level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def run(self) -> Polynomial:
        result = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", offset)
        return result

    def expr(self) -> Polynomial:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                rhs = self.term()
                node = node + rhs if value == "+" else node - rhs
            else:
                return node

    def term(self) -> Polynomial:
        node = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                rhs = self.factor()
                self.bounded(len(node.terms) * len(rhs.terms), offset)
                node = node * rhs
            else:
                return node

    def factor(self) -> Polynomial:
        kind, value, offset = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            self.nested(offset)
            node = -self.factor()
            self.depth -= 1
            return node
        base = self.primary()
        kind, value, power_offset = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            kind, value, offset = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a positive integer", offset)
            exponent = int(value)
            if exponent <= 0:
                raise ParseError("exponent must be a positive integer", offset)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {value} exceeds the cap of {MAX_EXPONENT}", offset
                )
            self.bounded(math.comb(exponent + len(base.terms) - 1, exponent), power_offset)
            return base ** exponent
        return base

    def primary(self) -> Polynomial:
        kind, value, offset = self.advance()
        if kind == "int":
            numerator = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "sym" and value2 == "/":
                self.advance()
                kind3, value3, offset3 = self.advance()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", offset3)
                denominator = int(value3)
                if denominator == 0:
                    raise ParseError("denominator literal is zero", offset3)
                return Polynomial.constant(Fraction(numerator, denominator))
            return Polynomial.constant(numerator)
        if kind == "name":
            return Polynomial.variable(value)
        if kind == "sym" and value == "(":
            self.nested(offset)
            inner = self.expr()
            kind2, value2, offset2 = self.advance()
            if not (kind2 == "sym" and value2 == ")"):
                raise ParseError("expected ')'", offset2)
            self.depth -= 1
            return inner
        raise ParseError(
            f"expected a number, parameter, or '(' (got {value!r})"
            if value
            else "unexpected end of input",
            offset,
        )
