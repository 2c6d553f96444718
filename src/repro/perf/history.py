"""``BENCH_perf.json``: the committed performance trajectory.

One JSON document holds an append-only list of provenance-stamped
entries; each entry is one suite run (or one telemetry-overhead
measurement) with its :class:`~repro.telemetry.provenance.RunManifest`,
so every number in the history is attributable to the exact tree,
config and host that produced it.  The comparator
(:mod:`repro.perf.compare`) gates regressions against the recent
window of this file.

Layout::

    {
      "schema": 1,
      "entries": [
        {
          "kind": "perf-suite",
          "created_utc": "...",
          "manifest": {...},                # RunManifest.to_dict()
          "context": {"repeats": 3, ...},   # caller-provided
          "results": {"pipeline_cycle_loop": {"best_s": 0.8, "repeats": 3}, ...}
        },
        ...
      ]
    }
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping

from repro.telemetry.provenance import RunManifest, collect_manifest

#: History layout version; bump when entry fields change meaning.
HISTORY_SCHEMA = 1

#: Default location, committed at the repository root.
DEFAULT_HISTORY_PATH = "BENCH_perf.json"

#: Entries kept per file — bounds the committed file as history grows.
MAX_ENTRIES = 50

#: Entry kind written by ``repro perf run``.
KIND_PERF_SUITE = "perf-suite"

#: Entry kind written by ``repro.telemetry.overhead``.
KIND_TELEMETRY_OVERHEAD = "telemetry-overhead"


def empty_history() -> dict[str, Any]:
    return {"schema": HISTORY_SCHEMA, "entries": []}


def load_history(path: str) -> dict[str, Any]:
    """Load a history file; a missing file is an empty history.

    A present-but-malformed file raises ``ValueError`` — silently
    restarting the trajectory would hide exactly the regression the
    file exists to catch.
    """
    if not os.path.exists(path):
        return empty_history()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path}: not a BENCH_perf history document")
    doc.setdefault("schema", HISTORY_SCHEMA)
    return doc


def load_results_document(path: str) -> dict[str, Any]:
    """The per-case results of a saved ``perf`` results JSON:
    its ``results`` mapping, or the document itself when it has none.

    Raises ``ValueError`` when the file cannot be read, is not JSON, or
    its results are not a mapping of case names.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    results = doc.get("results", doc) if isinstance(doc, dict) else None
    if not isinstance(results, dict):
        raise ValueError(f"{path}: not a results document")
    return results


def entries_of_kind(history: Mapping[str, Any], kind: str = KIND_PERF_SUITE) -> list[dict[str, Any]]:
    """The history's entries of one kind, oldest first."""
    return [
        e
        for e in history.get("entries", ())
        if isinstance(e, Mapping) and e.get("kind") == kind
    ]


def _result_dict(value: Any) -> dict[str, Any]:
    if hasattr(value, "to_dict"):
        return dict(value.to_dict())
    if isinstance(value, Mapping):
        return dict(value)
    return {"best_s": float(value)}


def make_entry(
    results: Mapping[str, Any],
    *,
    kind: str = KIND_PERF_SUITE,
    manifest: RunManifest | None = None,
    context: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build one history entry from suite results.

    ``results`` values may be :class:`~repro.perf.bench.BenchResult`
    objects, mappings with a ``best_s`` key, or bare seconds.
    """
    if manifest is None:
        manifest = collect_manifest(extra={"bench_kind": kind})
    return {
        "kind": kind,
        "created_utc": manifest.created_utc,
        "manifest": manifest.to_dict(),
        "context": dict(context or {}),
        "results": {name: _result_dict(v) for name, v in sorted(results.items())},
    }


def append_entry(
    path: str,
    results: Mapping[str, Any],
    *,
    kind: str = KIND_PERF_SUITE,
    manifest: RunManifest | None = None,
    context: Mapping[str, Any] | None = None,
    max_entries: int = MAX_ENTRIES,
) -> dict[str, Any]:
    """Append one entry to ``path`` (rewriting the whole document).

    The file is created when absent; the entry list is trimmed to the
    newest ``max_entries``.  Returns the appended entry.
    """
    history = load_history(path)
    entry = make_entry(results, kind=kind, manifest=manifest, context=context)
    entries = list(history.get("entries", []))
    entries.append(entry)
    if max_entries > 0:
        entries = entries[-max_entries:]
    history["entries"] = entries
    history["schema"] = HISTORY_SCHEMA
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry
