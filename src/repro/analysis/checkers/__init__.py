"""Built-in simulator-aware checkers.

Importing this package registers every built-in rule; the registry does
this lazily so ``import repro.analysis`` stays cheap.  Four rules are
per-file (AST-only); ``paper-fidelity`` and ``emit-coverage`` are the
project passes built on :mod:`repro.analysis.flow`.
"""

from repro.analysis.checkers.config_bounds import ConfigBoundsChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.dimension import DimensionChecker
from repro.analysis.checkers.emit_coverage import EmitCoverageChecker
from repro.analysis.checkers.event_schema import EventSchemaChecker
from repro.analysis.checkers.paper_fidelity import PaperFidelityChecker

__all__ = [
    "ConfigBoundsChecker",
    "DeterminismChecker",
    "DimensionChecker",
    "EmitCoverageChecker",
    "EventSchemaChecker",
    "PaperFidelityChecker",
]
