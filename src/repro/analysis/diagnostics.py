"""Diagnostic records produced by checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity; the CLI exit code reflects the worst one
    at or above the ``--fail-on`` threshold (default ``warning``, so
    notes are informational)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


def parse_severity(name: str) -> Severity:
    """``"note"``/``"warning"``/``"error"`` -> :class:`Severity`."""
    try:
        return Severity[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown severity {name!r}; expected one of "
            f"{[str(s) for s in Severity]}"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a source location.

    ``rule`` is the registered checker name (the token used in
    ``# lint: disable=<rule>``); ``symbol`` optionally names the
    offending entity (class, attribute, field) for machine consumers.

    ``line``/``col`` follow the AST convention (1-based line, 0-based
    column) in both reports.  The optional ``end_line``/``end_col``
    bound the region when the checker knows it (``end_col`` exclusive,
    matching ``ast.end_col_offset``); zero means "unset" and the JSON
    report leaves them out.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: Severity = Severity.ERROR
    symbol: str = field(default="")
    end_line: int = 0
    end_col: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.severity} [{self.rule}] {self.message}"

    def to_json(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "symbol": self.symbol,
        }
        if self.end_line:
            payload["end_line"] = self.end_line
            payload["end_col"] = self.end_col
        return payload


def sort_key(diag: Diagnostic) -> tuple[str, int, int, str]:
    return (diag.path, diag.line, diag.col, diag.rule)
