"""Simulator-aware static analysis (``python -m repro.lint``).

A pluggable lint framework that enforces the invariants the simulator's
correctness rests on but that no generic tool checks.  Per-file AST
rules:

* **determinism** — all nondeterminism must flow through seeded RNGs;
  wall-clock reads and set-iteration-order escapes are flagged.
* **counter-balance** — registered running counters
  (``pred_ace_bits``, ``ready_pred_ace``, ``per_thread``, …) must be
  decremented on a squash/remove path in every class that increments
  them.
* **slots** — attributes assigned on ``self`` in a ``__slots__`` class
  must be declared in ``__slots__``.
* **stage-purity** — pipeline-stage methods must not reach into another
  structure's ``_``-private state.
* **config-bounds** — numeric dataclass fields in ``config.py`` must be
  covered by the class's ``validate()``.
* **event-schema** — every ``bus.emit(...)`` call site must match a
  registered topic schema.

Project-wide dataflow passes (:mod:`repro.analysis.flow` — symbol
tables, import-resolved call graph, CFGs with reaching definitions):

* **paper-fidelity** — catalogued paper constants (interval length,
  ``Tcache_miss``, DVM trigger fraction, IQL region caps, …) must flow
  from :mod:`repro.config`, never be re-hard-coded or silently drifted.
* **nondet-iteration** — set iteration order must not reach simulation
  state or an ``emit()`` payload, traced through reaching definitions.
* **emit-coverage** — state-mutating decision hooks in the DVM /
  resource-allocation / fetch-policy modules must have a call-graph
  path to a ``bus.emit``.
* **hidden-state** — attributes first bound outside ``__init__`` must
  be restored by ``reset()`` (checked across helper methods and base
  classes), and ``__slots__`` completeness is enforced across the MRO.

Checkers register themselves in :mod:`repro.analysis.registry`; the
engine (:mod:`repro.analysis.engine`) walks files behind an incremental
file-hash cache (with a whole-project snapshot giving the project
passes transitive invalidation, and a dependency map powering
``--changed``), applies ``# lint: disable=<rule>`` suppressions, and
hands diagnostics to the text/JSON/SARIF reporters; ``--baseline``
(:mod:`repro.analysis.baseline`) gates CI on new findings only, and
:mod:`repro.analysis.sarif_schema` structurally validates the SARIF
output in CI.
"""

from repro.analysis.baseline import filter_new, load_baseline, write_baseline
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
    "filter_new",
    "get_checker",
    "load_baseline",
    "parse_severity",
    "register",
    "write_baseline",
]
