"""Plain-text table formatting for experiment outputs.

``repro figures --save`` writes each experiment's table to
``reports/<name>.txt`` (and its rows, stamped with provenance, to
``reports/<name>.json``) so EXPERIMENTS.md can cite concrete numbers.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable

from repro.telemetry.provenance import RunManifest, collect_manifest


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Iterable[dict], title: str = "") -> str:
    """Render a list of homogeneous dicts as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no data)\n"
    cols = list(rows[0].keys())
    table = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def save_report(name: str, text: str, directory: str = "reports") -> str:
    """Write a report file (created under the repo root by default)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def save_json_report(
    name: str,
    payload: dict | list,
    directory: str = "reports",
    manifest: RunManifest | None = None,
) -> str:
    """Write ``reports/<name>.json`` stamped with a provenance manifest.

    ``payload`` is the report body (table rows or any JSON-serializable
    document); the manifest (collected now when not supplied) records
    the config hash, seed, git state and package versions that produced
    it, so saved numbers stay traceable to the tree state behind them.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    doc = {
        "name": name,
        "manifest": (manifest or collect_manifest()).to_dict(),
        "data": payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
