"""Simulator-aware static analysis (``python -m repro.lint``).

A pluggable lint framework for the invariants the simulator's results
rest on that no generic tool and no run-time test checks.  The IQ and
ROB running counters, ``__slots__`` completeness and cross-run state
are pinned at run time by the tier-1 tests, so no rule re-checks them.
Per-file AST rules:

* **determinism** — all nondeterminism must flow through seeded RNGs;
  wall-clock reads and set-iteration-order escapes are flagged.
* **dimension-mismatch** — arithmetic must not mix cycles, bits and
  bit-cycles, or drop the bits x cycles AVF normalization.
* **config-bounds** — numeric dataclass fields in ``config.py`` must be
  covered by the class's ``validate()``.
* **event-schema** — every ``bus.emit(...)`` call site must match a
  registered topic schema.

Project passes (:mod:`repro.analysis.flow` — symbol tables and an
import-resolved call graph):

* **paper-fidelity** — catalogued paper constants (interval length,
  ``Tcache_miss``, DVM trigger fraction, IQL region caps, …) must flow
  from :mod:`repro.config`, never be re-hard-coded or silently drifted.
* **emit-coverage** — state-mutating decision hooks in the DVM /
  resource-allocation / fetch-policy modules must have a call-graph
  path to a ``bus.emit``.

Checkers register themselves in :mod:`repro.analysis.registry`; the
engine (:mod:`repro.analysis.engine`) parses each file once, runs the
per-file rules and then the project passes in one serial pass, applies
``# lint: disable=<rule>`` suppressions, and hands the diagnostics to
the text or JSON reporter.
"""

from repro.analysis.diagnostics import Diagnostic, Severity, parse_severity
from repro.analysis.engine import FileContext, LintEngine
from repro.analysis.registry import (
    BaseChecker,
    ProjectChecker,
    all_rules,
    get_checker,
    register,
)

__all__ = [
    "BaseChecker",
    "Diagnostic",
    "FileContext",
    "LintEngine",
    "ProjectChecker",
    "Severity",
    "all_rules",
    "get_checker",
    "parse_severity",
    "register",
]
