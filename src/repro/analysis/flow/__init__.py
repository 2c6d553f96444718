"""Project-wide analysis: symbol tables and call graph.

The per-file engine sees one module at a time, which caps it at
syntax: it cannot know that a helper called three frames away emits a
telemetry event.  This package adds the project layer:

* :mod:`repro.analysis.flow.symbols` — per-module symbol tables
  (classes, functions, import bindings) with dotted-module naming;
* :mod:`repro.analysis.flow.callgraph` — an import-resolved,
  inheritance-aware call graph over every scanned module;
* :mod:`repro.analysis.flow.project` — :class:`ProjectContext`, the
  facade the engine builds once per run and hands to every
  :class:`~repro.analysis.registry.ProjectChecker`.
"""

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import ProjectContext
from repro.analysis.flow.symbols import ClassInfo, ModuleInfo, build_module_info

__all__ = [
    "CallGraph",
    "ClassInfo",
    "ModuleInfo",
    "ProjectContext",
    "build_module_info",
]
