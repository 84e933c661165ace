"""Deterministic verdict reports shared by every checker and verifier.

A report is a sorted list of violations; an empty list means "pass".
Each violation names the identity template that failed, the basis-index
witness where it failed (with the coordinate index appended), and the
residual polynomial (lhs - rhs at that coordinate).  Residuals from the
template engine are lazy: a violation keeps the integer residual, writes its
text from the integers and builds the Polynomial on first access.  The
violations of one evaluation share their residuals: all those with equal
integer terms and scale hold one `scaled` tuple, and equal witnesses one
tuple, so a dense failing report holds each distinct residual once.

A violation's row is {"residual", "template", "witness"} (`to_dict`).
`Report.to_dict` lists the row dicts, making the text of each shared
residual once; `Report.payload` lists the violations themselves, which
`files.json_text` writes as the same row text without making a dict per
violation, and the first line of a row once per shared residual.  The CLI
streams its reports (`files.json_stream`): the text goes to the report
file and stdout in chunks as it is made, and is never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .poly import Polynomial


@dataclass(frozen=True, order=True, repr=False, slots=True)
class Violation:
    """One failed coordinate, compared and ordered by (template, witness).

    `Violation(template, witness, residual)` takes the residual Polynomial.
    The template engine passes None and `scaled` = (form, terms, scale)
    instead, through `scaled_violation`: the residual is the {packed
    monomial: int} dict `terms` over the int `scale`, in the
    `poly.IntegerForm` `form`.  Such a violation writes its residual text
    from the ints and builds the Polynomial only when `residual` is first
    read, and keeps it.
    """

    template: str
    witness: tuple[int, ...]
    _residual: Polynomial | None = field(default=None, compare=False)
    scaled: tuple | None = field(default=None, compare=False)

    @property
    def residual(self) -> Polynomial:
        if self._residual is None:
            form, terms, scale = self.scaled
            object.__setattr__(self, "_residual", form.polynomial(terms, scale))
        return self._residual

    def residual_text(self) -> str:
        """str(self.residual)."""
        if self.scaled is None:
            return str(self._residual)
        form, terms, scale = self.scaled
        return form.text(terms, scale)

    def to_dict(self, residual: str | None = None) -> dict:
        """The row; `residual`, if given, is the residual's text."""
        return {
            "template": self.template,
            "witness": list(self.witness),
            "residual": self.residual_text() if residual is None else residual,
        }

    def __repr__(self) -> str:
        return (
            f"Violation(template={self.template!r}, witness={self.witness!r}, "
            f"residual={self.residual!r})"
        )


_new = object.__new__
_set_template = Violation.template.__set__
_set_witness = Violation.witness.__set__
_set_residual = Violation._residual.__set__
_set_scaled = Violation.scaled.__set__


def scaled_violation(template: str, witness: tuple, scaled: tuple) -> Violation:
    """`Violation(template, witness, None, scaled)`, made by setting its slots
    directly.  The template engine makes one per failed coordinate, and the
    frozen dataclass's `__init__` takes about twice as long."""
    violation = _new(Violation)
    _set_template(violation, template)
    _set_witness(violation, witness)
    _set_residual(violation, None)
    _set_scaled(violation, scaled)
    return violation


_ORDER = attrgetter("template", "witness")


@dataclass
class Report:
    entries: list[Violation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries = sorted(self.entries, key=_ORDER)

    @property
    def ok(self) -> bool:
        return not self.entries

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def merged(self, other: "Report") -> "Report":
        return Report(self.entries + other.entries)

    def to_dict(self) -> dict:
        """The status and the row of each violation; the text of a residual
        that several violations share (their `scaled` tuple) is made once."""
        texts: dict = {}  # id of a `scaled` tuple, or of a violation -> residual text
        entries = []
        for v in self.entries:
            key = id(v.scaled or v)
            text = texts.get(key)
            if text is None:
                text = texts[key] = v.residual_text()
            entries.append(v.to_dict(text))
        return {"status": self.status, "entries": entries}

    def payload(self) -> dict:
        """`to_dict()` with the violations themselves as its entries, for
        `files.json_text`, which writes the same text from either."""
        return {"status": self.status, "entries": self.entries}

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.entries)} violation(s))"]
        for v in self.entries[:20]:
            lines.append(f"  {v.template} @ {list(v.witness)}: {v.residual_text()}")
        if len(self.entries) > 20:
            lines.append(f"  ... {len(self.entries) - 20} more")
        return "\n".join(lines)


class PreconditionError(ValueError):
    """A construction refused to build because its precondition check failed."""

    def __init__(self, message: str, report: Report):
        super().__init__(message)
        self.report = report
