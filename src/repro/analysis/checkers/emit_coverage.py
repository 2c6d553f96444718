"""``emit-coverage`` — decision hooks must be observable on the bus.

PR 2's per-call-site ``event-schema`` rule validates the emits that
*exist*; this is its cross-module complement: in the three
decision-making modules (``dvm.py``, ``resource_alloc.py``,
``fetch_policy.py``), every public event hook (an ``on_*`` method) that
mutates controller state must have *some* call path — traced through
the project call graph, across helpers, base classes and modules — to
a ``bus.emit(...)``.  A decision that leaves no telemetry trace cannot
be replayed, audited or charted, which is how silent behavioural drift
survives review.

Empty hooks (docstring/``pass``/ellipsis bodies on base classes) are
exempt: they decide nothing.  Findings are warnings — an accepted gap
is suppressed at the hook with ``# lint: disable=emit-coverage`` and a
comment giving the reason, where review sees it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.callgraph import FunctionNode
from repro.analysis.flow.project import ProjectContext
from repro.analysis.registry import ProjectChecker, register

#: The modules whose public hooks constitute "decisions" in the paper's
#: mechanisms (DVM trigger/response, IQL capping, fetch gating).
_DECISION_BASENAMES = frozenset({"dvm.py", "resource_alloc.py", "fetch_policy.py"})


def _is_trivial_body(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Docstring-only / ``pass`` / ``...`` bodies decide nothing."""
    for stmt in func.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis
        return False
    return True


def _mutates_state(node: FunctionNode, func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the hook write instance state (assign, subscript-store or
    mutator call on a self attribute)?"""
    if node.writes_self_attrs:
        return True
    for stmt in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for tgt in targets:
            base = tgt
            while isinstance(base, ast.Subscript):
                base = base.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                return True
        if (
            isinstance(stmt, ast.Call)
            and isinstance(stmt.func, ast.Attribute)
            and stmt.func.attr in ("append", "add", "discard", "remove", "clear", "pop", "update")
        ):
            recv = stmt.func.value
            if (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
            ):
                return True
    return False


@register
class EmitCoverageChecker(ProjectChecker):
    rule = "emit-coverage"
    description = "state-mutating decision hooks must reach a bus.emit"

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        graph = project.call_graph
        for qual in sorted(graph.functions):
            node = graph.functions[qual]
            mod = project.modules_by_name.get(node.module)
            if mod is None or mod.basename not in _DECISION_BASENAMES:
                continue
            func = node.node
            if node.cls is None or not func.name.startswith("on_") or not node.is_public:
                continue
            if _is_trivial_body(func) or not _mutates_state(node, func):
                continue
            if graph.reaches_emit(qual):
                continue
            yield Diagnostic(
                path=mod.path,
                line=func.lineno,
                col=func.col_offset,
                rule=self.rule,
                message=(
                    f"decision hook {node.cls}.{func.name} mutates controller "
                    "state but no call path from it reaches a bus.emit(); the "
                    "decision is invisible to telemetry/replay — emit a topic "
                    "or suppress the accepted gap with "
                    "'# lint: disable=emit-coverage' and a reason"
                ),
                severity=Severity.WARNING,
                symbol=f"{node.cls}.{func.name}",
            )
