"""Built-in simulator-aware checkers.

Importing this package registers every built-in rule; the registry does
this lazily so ``import repro.analysis`` stays cheap.  Per-file
(AST-only) rules come first; the rest are the project-wide dataflow
passes built on :mod:`repro.analysis.flow`.
"""

from repro.analysis.checkers.config_bounds import ConfigBoundsChecker
from repro.analysis.checkers.counter_balance import CounterBalanceChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dimension import DimensionChecker
from repro.analysis.checkers.emit_coverage import EmitCoverageChecker
from repro.analysis.checkers.event_schema import EventSchemaChecker
from repro.analysis.checkers.hidden_state import HiddenStateChecker
from repro.analysis.checkers.nondet_iteration import NondetIterationChecker
from repro.analysis.checkers.paper_fidelity import PaperFidelityChecker
from repro.analysis.checkers.slots import SlotsCompletenessChecker
from repro.analysis.checkers.stage_purity import StagePurityChecker

__all__ = [
    "ConfigBoundsChecker",
    "CounterBalanceChecker",
    "DeterminismChecker",
    "DimensionChecker",
    "EmitCoverageChecker",
    "EventSchemaChecker",
    "HiddenStateChecker",
    "NondetIterationChecker",
    "PaperFidelityChecker",
    "SlotsCompletenessChecker",
    "StagePurityChecker",
]
