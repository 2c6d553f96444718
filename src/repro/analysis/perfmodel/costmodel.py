"""Loop-depth-weighted static cost model over the project call graph.

Performance work needs to know *statically* which functions dominate
per-cycle cost, before any profiler runs.  This
module assigns every statement a nesting-weighted cost — a statement
``d`` loops deep costs ``LOOP_WEIGHT ** d`` — and propagates call
frequency from the simulator's entry points through the call graph:

* **local cost** of a function is the weighted statement count of its
  own body (nested ``def`` bodies are attributed to the enclosing
  function: benchmark factories build closures whose loops are the
  actual hot path);
* **call score** is the loop-weighted number of times the function is
  reached per entry-point invocation — a callee invoked from inside a
  caller's loop inherits the caller's score times ``LOOP_WEIGHT``;
* **total cost** (``score * local``) ranks where the interpreter
  actually spends statements; **inclusive cost** folds callee costs in
  and is the quantity cross-validated against measured span durations
  (``repro lint hotpaths --validate-spans``).

Entry points default to the pipeline cycle loop (``SMTPipeline.run``)
and every ``_make_*`` benchmark factory in a ``bench.py`` module — the
same roots the measured perf suite exercises.  Recursion (call-graph
cycles) is handled by collapsing strongly connected components: every
member of a cycle shares the score flowing into the component, so a
recursive helper never amplifies its own cost to infinity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.flow.callgraph import FunctionNode
from repro.analysis.flow.project import ProjectContext
from repro.analysis.flow.symbols import ClassInfo, ModuleInfo

#: Assumed iterations per loop level.  Deliberately coarse: the model
#: ranks, it does not predict; 8 keeps three nesting levels (8^3 = 512)
#: clearly separated from straight-line code without overflowing the
#: ranking with one deep loop.  Documented in docs/static_analysis.md —
#: change both together.
LOOP_WEIGHT = 8.0

#: Statement rank at or above which the hot-loop checker treats an
#: allocation as "on the hot path": two weighted loop levels deep
#: (e.g. a loop body inside a function called once per simulated cycle).
HOT_RANK_THRESHOLD = LOOP_WEIGHT * LOOP_WEIGHT


@dataclass(frozen=True)
class FunctionCost:
    """Cost-model facts for one call-graph function."""

    qualname: str
    local_cost: float
    call_score: float
    total_cost: float
    inclusive_cost: float

    def to_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "local_cost": self.local_cost,
            "call_score": self.call_score,
            "total_cost": self.total_cost,
            "inclusive_cost": self.inclusive_cost,
        }


@dataclass(frozen=True)
class _LocalFacts:
    """Weighted statement cost and per-callee call weights of one body."""

    cost: float
    #: callee qualname -> summed loop weight of its call sites.
    call_weights: dict[str, float]
    #: every resolved/unresolved call with its loop depth (for checkers).
    call_depths: tuple[tuple[int, int], ...]  # (id-order index, depth)


def is_default_entry_point(node: FunctionNode) -> bool:
    """The roots the measured perf suite exercises (see module docs)."""
    if node.cls == "SMTPipeline" and node.name == "run":
        return True
    return (
        node.cls is None
        and node.name.startswith("_make_")
        and node.module.rsplit(".", 1)[-1] == "bench"
    )


def default_entry_points(project: ProjectContext) -> list[str]:
    """Entry-point qualnames present in this project, sorted."""
    graph = project.call_graph
    return sorted(
        qual for qual in graph.functions if is_default_entry_point(graph.functions[qual])
    )


def _scan(node: ast.AST, depth: int, weight: float, acc: list) -> None:
    """Recursive weighted walk: ``acc`` is ``[cost, calls]`` where
    ``calls`` collects ``(ast.Call, depth)``."""
    if isinstance(node, ast.stmt):
        acc[0] += weight**depth
    if isinstance(node, ast.Call):
        acc[1].append((node, depth))
    if isinstance(node, (ast.For, ast.AsyncFor)):
        _scan(node.target, depth, weight, acc)
        _scan(node.iter, depth, weight, acc)
        for child in node.body:
            _scan(child, depth + 1, weight, acc)
        for child in node.orelse:
            _scan(child, depth, weight, acc)
        return
    if isinstance(node, ast.While):
        _scan(node.test, depth + 1, weight, acc)
        for child in node.body:
            _scan(child, depth + 1, weight, acc)
        for child in node.orelse:
            _scan(child, depth, weight, acc)
        return
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        # The element expression runs once per produced item.
        inner = depth + 1
        for gen in node.generators:
            _scan(gen.iter, depth, weight, acc)
            for cond in gen.ifs:
                _scan(cond, inner, weight, acc)
        if isinstance(node, ast.DictComp):
            _scan(node.key, inner, weight, acc)
            _scan(node.value, inner, weight, acc)
        else:
            _scan(node.elt, inner, weight, acc)
        return
    if isinstance(node, ast.ClassDef):
        return  # nested class bodies execute once at definition; ignore
    for child in ast.iter_child_nodes(node):
        _scan(child, depth, weight, acc)


def scan_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef, weight: float = LOOP_WEIGHT
) -> tuple[float, list[tuple[ast.Call, int]]]:
    """Weighted statement cost of ``func`` plus every call with its
    loop depth.  Nested ``def`` bodies are attributed to ``func``."""
    acc: list = [0.0, []]
    for stmt in func.body:
        _scan(stmt, 0, weight, acc)
    return acc[0], acc[1]


class CostModel:
    """Static cost ranking of every function in a :class:`ProjectContext`."""

    def __init__(
        self,
        project: ProjectContext,
        entry_points: Iterable[str] | None = None,
        *,
        loop_weight: float = LOOP_WEIGHT,
    ):
        self.project = project
        self.loop_weight = loop_weight
        self.entry_points = (
            sorted(entry_points)
            if entry_points is not None
            else default_entry_points(project)
        )
        self._locals: dict[str, _LocalFacts] = {}
        self._costs: dict[str, FunctionCost] | None = None

    # -- local facts ---------------------------------------------------
    def _owner(self, node: FunctionNode) -> tuple[ModuleInfo | None, ClassInfo | None]:
        mod = self.project.modules_by_name.get(node.module)
        cls = mod.classes.get(node.cls) if (mod is not None and node.cls) else None
        return mod, cls

    def local_facts(self, qual: str) -> _LocalFacts:
        cached = self._locals.get(qual)
        if cached is not None:
            return cached
        graph = self.project.call_graph
        node = graph.functions[qual]
        mod, cls = self._owner(node)
        cost, calls = scan_function(node.node, self.loop_weight)
        weights: dict[str, float] = {}
        depths: list[tuple[int, int]] = []
        for index, (call, depth) in enumerate(calls):
            depths.append((index, depth))
            if mod is None:
                continue
            callee = graph._resolve_call(mod, cls, call.func)
            if callee is not None and callee != qual:
                weights[callee] = weights.get(callee, 0.0) + self.loop_weight**depth
        facts = _LocalFacts(cost=cost, call_weights=weights, call_depths=tuple(depths))
        self._locals[qual] = facts
        return facts

    # -- strongly connected components ---------------------------------
    def _sccs(self, quals: list[str]) -> list[list[str]]:
        """Tarjan's SCCs, iterative, in reverse topological order
        (every SCC appears before any SCC that calls into it... inverted:
        callees first)."""
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def edges(q: str) -> list[str]:
            return sorted(w for w in self.local_facts(q).call_weights if w in node_set)

        node_set = set(quals)
        for root in quals:
            if root in index_of:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                qual, ei = work.pop()
                if ei == 0:
                    index_of[qual] = low[qual] = counter[0]
                    counter[0] += 1
                    stack.append(qual)
                    on_stack.add(qual)
                succ = edges(qual)
                advanced = False
                while ei < len(succ):
                    nxt = succ[ei]
                    ei += 1
                    if nxt not in index_of:
                        work.append((qual, ei))
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[qual] = min(low[qual], index_of[nxt])
                if advanced:
                    continue
                if low[qual] == index_of[qual]:
                    scc: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == qual:
                            break
                    sccs.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[qual])
        return sccs

    # -- solving -------------------------------------------------------
    def _solve(self) -> dict[str, FunctionCost]:
        graph = self.project.call_graph
        quals = sorted(graph.functions)
        for qual in quals:
            self.local_facts(qual)

        sccs = self._sccs(quals)  # callees before callers
        comp_of: dict[str, int] = {}
        for i, scc in enumerate(sccs):
            for qual in scc:
                comp_of[qual] = i

        # Inclusive cost: process components callees-first; members of a
        # cycle share the component's summed local cost (no self-feeding).
        inclusive: dict[str, float] = {}
        for i, scc in enumerate(sccs):
            members = set(scc)
            base = sum(self._locals[q].cost for q in scc) if len(scc) > 1 else None
            for qual in scc:
                facts = self._locals[qual]
                total = base if base is not None else facts.cost
                for callee, weight in sorted(facts.call_weights.items()):
                    if callee in members:
                        continue
                    total += weight * inclusive[callee]
                inclusive[qual] = total

        # Call score: entry points seed 1.0; propagate callers-first
        # (reverse component order), intra-component edges ignored.
        comp_score = [0.0] * len(sccs)
        for qual in self.entry_points:
            if qual in comp_of:
                comp_score[comp_of[qual]] += 1.0
        for i in range(len(sccs) - 1, -1, -1):
            score = comp_score[i]
            if score <= 0.0:
                continue
            for qual in sccs[i]:
                for callee, weight in sorted(self._locals[qual].call_weights.items()):
                    j = comp_of[callee]
                    if j != i:
                        comp_score[j] += score * weight

        costs: dict[str, FunctionCost] = {}
        for qual in quals:
            local = self._locals[qual].cost
            score = comp_score[comp_of[qual]]
            costs[qual] = FunctionCost(
                qualname=qual,
                local_cost=local,
                call_score=score,
                total_cost=score * local,
                inclusive_cost=inclusive[qual],
            )
        return costs

    # -- queries -------------------------------------------------------
    @property
    def costs(self) -> Mapping[str, FunctionCost]:
        if self._costs is None:
            self._costs = self._solve()
        return self._costs

    def cost_of(self, qual: str) -> FunctionCost | None:
        return self.costs.get(qual)

    def score_of(self, qual: str) -> float:
        cost = self.costs.get(qual)
        return cost.call_score if cost is not None else 0.0

    def ranking(self, top: int | None = None) -> list[FunctionCost]:
        """Reached functions by descending total cost (stable tiebreak)."""
        ranked = sorted(
            (c for c in self.costs.values() if c.call_score > 0.0),
            key=lambda c: (-c.total_cost, c.qualname),
        )
        return ranked if top is None else ranked[:top]

    def hot_functions(self, min_score: float = 1.0) -> list[str]:
        return [q for q, c in sorted(self.costs.items()) if c.call_score >= min_score]
