"""Text and JSON diagnostic reporters."""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.diagnostics import Diagnostic, Severity


def _counts(diags: Sequence[Diagnostic]) -> dict[str, int]:
    return {
        "total": len(diags),
        "errors": sum(1 for d in diags if d.severity == Severity.ERROR),
        "warnings": sum(1 for d in diags if d.severity == Severity.WARNING),
        "notes": sum(1 for d in diags if d.severity == Severity.NOTE),
    }


def render_text(diags: Sequence[Diagnostic]) -> str:
    """One ``path:line:col: severity [rule] message`` line per finding,
    plus a summary line."""
    lines = [d.format() for d in diags]
    c = _counts(diags)
    if diags:
        lines.append(
            f"found {c['total']} problem(s) ({c['errors']} error(s), "
            f"{c['warnings']} warning(s), {c['notes']} note(s))"
        )
    else:
        lines.append("no problems found")
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic]) -> str:
    """Machine-readable report: a stable JSON document for CI tooling."""
    payload = {
        "diagnostics": [d.to_json() for d in diags],
        "summary": _counts(diags),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_RENDERERS = {"text": render_text, "json": render_json}


def render(diags: Sequence[Diagnostic], fmt: str) -> str:
    try:
        return _RENDERERS[fmt](diags)
    except KeyError:
        raise KeyError(f"unknown report format {fmt!r}; available: {sorted(_RENDERERS)}") from None
