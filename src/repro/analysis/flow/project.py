""":class:`ProjectContext` — the shared whole-project view.

The engine builds one per :meth:`LintEngine.run`, from the same
:class:`~repro.analysis.engine.FileContext` objects the per-file
checkers saw (one parse per file, shared by both layers), and hands it
to every registered :class:`~repro.analysis.registry.ProjectChecker`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.symbols import ModuleInfo, build_module_info

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext


class ProjectContext:
    """Symbol tables and call graph for a set of modules."""

    def __init__(self, files: "list[FileContext]"):
        #: path -> ModuleInfo, and dotted module name -> ModuleInfo.
        self.modules: dict[str, ModuleInfo] = {}
        by_name: dict[str, ModuleInfo] = {}
        for ctx in files:
            info = build_module_info(ctx.path, ctx.tree)
            self.modules[ctx.path] = info
            by_name[info.name] = info
        self.modules_by_name = by_name
        self.call_graph = CallGraph(by_name)

    def iter_modules(self) -> Iterator[ModuleInfo]:
        """Modules in deterministic (path) order."""
        for path in sorted(self.modules):
            yield self.modules[path]
