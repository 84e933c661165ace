"""Deterministic verdict reports shared by every checker and verifier.

A report is a sorted list of violations; an empty list means "pass".
Each violation names the identity template that failed, the basis-index
witness where it failed (with the coordinate index appended), and the
residual polynomial (lhs - rhs at that coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import Polynomial


@dataclass(frozen=True, order=True)
class Violation:
    template: str
    witness: tuple[int, ...]
    residual: Polynomial = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "template": self.template,
            "witness": list(self.witness),
            "residual": str(self.residual),
        }


@dataclass
class Report:
    entries: list[Violation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries = sorted(self.entries, key=lambda v: (v.template, v.witness))

    @property
    def ok(self) -> bool:
        return not self.entries

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def merged(self, other: "Report") -> "Report":
        return Report(self.entries + other.entries)

    def templates(self) -> set[str]:
        return {v.template for v in self.entries}

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "entries": [v.to_dict() for v in self.entries],
        }

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.entries)} violation(s))"]
        for v in self.entries[:20]:
            lines.append(f"  {v.template} @ {list(v.witness)}: {v.residual}")
        if len(self.entries) > 20:
            lines.append(f"  ... {len(self.entries) - 20} more")
        return "\n".join(lines)


class PreconditionError(ValueError):
    """A construction refused to build because its precondition check failed."""

    def __init__(self, message: str, report: Report):
        super().__init__(message)
        self.report = report
