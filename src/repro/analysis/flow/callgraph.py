"""Import-resolved, inheritance-aware call graph over scanned modules.

Nodes are fully-qualified function names (``repro.reliability.dvm.
DVMController.on_sample``); edges are the statically-resolvable calls:

* bare names resolved through module-level functions and ``from x
  import y`` bindings;
* ``self.method(...)`` resolved through the enclosing class and then
  its method-resolution order (base classes are looked up through the
  importing module's bindings, across module boundaries);
* ``super().method(...)`` resolved to the nearest base defining it;
* ``Class.method(...)`` and ``module.func(...)`` attribute chains
  resolved through the symbol tables.

Names bound by package ``__init__`` re-exports (``from repro.core
import IssueQueue``) are followed through the import chain to the
defining module, so subclasses of re-exported classes keep their
``super()``/MRO edges.

Receiver types of arbitrary expressions are not inferred — a call that
cannot be resolved simply contributes no edge, keeping the graph a
conservative *under*-approximation suitable for "no path to X" rules
only when combined with per-node syntactic facts (each node also
records whether its own body contains an ``.emit(...)`` call, so
reachability questions degrade gracefully).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.symbols import ClassInfo, ModuleInfo


@dataclass
class FunctionNode:
    """One function/method in the call graph."""

    qualname: str  # module.Class.method or module.func
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: str
    cls: str | None = None  # enclosing class name, if a method
    calls: list[str] = field(default_factory=list)  # resolved callee qualnames
    contains_emit: bool = False
    writes_self_attrs: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        return not self.node.name.startswith("_")


class CallGraph:
    """Project call graph with reachability queries."""

    def __init__(self, modules: dict[str, ModuleInfo]):
        #: dotted module name -> ModuleInfo
        self.modules = modules
        self.functions: dict[str, FunctionNode] = {}
        self._emit_reach: dict[str, bool] | None = None
        # Two phases: register every node first, then resolve edges —
        # resolution consults self.functions, so a single interleaved
        # pass would drop edges into modules not yet scanned.
        owners: list[tuple[ModuleInfo, ClassInfo | None, FunctionNode]] = []
        for mod in modules.values():
            for func in mod.functions.values():
                owners.append((mod, None, self._add_function(mod, None, func)))
            for cls in mod.classes.values():
                for method in cls.methods.values():
                    owners.append((mod, cls, self._add_function(mod, cls, method)))
        for mod, cls, node in owners:
            self._resolve_edges(mod, cls, node)

    # -- construction --------------------------------------------------
    def _add_function(
        self,
        mod: ModuleInfo,
        cls: ClassInfo | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> FunctionNode:
        qual = f"{mod.name}.{cls.name}.{func.name}" if cls else f"{mod.name}.{func.name}"
        node = FunctionNode(qualname=qual, node=func, module=mod.name, cls=cls.name if cls else None)
        for stmt in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for tgt in targets:
                tgt = tgt if not isinstance(tgt, ast.Starred) else tgt.value
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    node.writes_self_attrs.add(tgt.attr)
        self.functions[qual] = node
        return node

    def _resolve_edges(
        self, mod: ModuleInfo, cls: ClassInfo | None, node: FunctionNode
    ) -> None:
        for call in ast.walk(node.node):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if isinstance(fn, ast.Attribute) and fn.attr == "emit":
                node.contains_emit = True
            callee = self._resolve_call(mod, cls, fn)
            if callee is not None:
                node.calls.append(callee)

    def _resolve_call(
        self, mod: ModuleInfo, cls: ClassInfo | None, fn: ast.expr
    ) -> str | None:
        # name(...) — local function or from-imported function.
        if isinstance(fn, ast.Name):
            if fn.id in mod.functions:
                return f"{mod.name}.{fn.id}"
            target = mod.imports.get(fn.id)
            if target is not None:
                node = self._lookup_qual(target)
                if node is not None:
                    return node.qualname
            return None
        if not isinstance(fn, ast.Attribute):
            return None
        base = fn.value
        # self.method(...) — resolve through the MRO.
        if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
            owner = self.resolve_method(mod, cls, fn.attr)
            return owner
        # super().method(...)
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
            and cls is not None
        ):
            for parent in self._bases_of(mod, cls):
                pmod, pcls = parent
                owner = self.resolve_method(pmod, pcls, fn.attr)
                if owner is not None:
                    return owner
            return None
        # Class.method(...) / module.func(...) dotted chains.
        dotted = _dotted_chain(fn)
        if dotted is None:
            return None
        head, rest = dotted[0], dotted[1:]
        target = mod.imports.get(head)
        if target is None and head in mod.classes:
            target = f"{mod.name}.{head}"
        if target is None:
            return None
        qual = ".".join([target] + rest)
        node = self._lookup_qual(qual)
        return node.qualname if node is not None else None

    def _lookup_qual(self, qual: str) -> FunctionNode | None:
        node = self.functions.get(qual)
        if node is not None:
            return node
        # Not a directly-defined function: the prefix may be an alias
        # bound by a package ``__init__`` re-export (``from repro.core
        # import IssueQueue``), or the method may be inherited.  Follow
        # the import chain to the defining module, then the MRO.
        if "." not in qual:
            return None
        prefix, leaf = qual.rsplit(".", 1)
        resolved = self.resolve_class(prefix)
        if resolved is not None:
            owner = self.resolve_method(resolved[0], resolved[1], leaf)
            return self.functions.get(owner) if owner is not None else None
        chained = self._follow_exports(qual)
        if chained is not None and chained != qual:
            return self._lookup_qual(chained)
        return None

    def _follow_exports(self, dotted: str) -> str | None:
        """One step through a ``from x import y`` re-export chain."""
        if "." not in dotted:
            return None
        mod_name, leaf = dotted.rsplit(".", 1)
        owner = self.modules.get(mod_name)
        if owner is None:
            return None
        return owner.imports.get(leaf)

    def resolve_class(self, dotted: str) -> tuple[ModuleInfo, ClassInfo] | None:
        """Resolve a dotted name to a project class, following re-export
        chains through package ``__init__`` modules (``repro.core.
        IssueQueue`` -> ``repro.core.issue_queue.IssueQueue``)."""
        seen: set[str] = set()
        while dotted and dotted not in seen:
            seen.add(dotted)
            if "." not in dotted:
                return None
            mod_name, leaf = dotted.rsplit(".", 1)
            owner = self.modules.get(mod_name)
            if owner is None:
                return None
            cls = owner.classes.get(leaf)
            if cls is not None:
                return owner, cls
            nxt = owner.imports.get(leaf)
            if nxt is None:
                return None
            dotted = nxt
        return None

    def _bases_of(self, mod: ModuleInfo, cls: ClassInfo) -> list[tuple[ModuleInfo, ClassInfo]]:
        """Direct base classes resolvable inside the project."""
        found: list[tuple[ModuleInfo, ClassInfo]] = []
        for base in cls.bases:
            parts = base.split(".")
            if base in mod.classes:  # same module, bare name
                found.append((mod, mod.classes[base]))
                continue
            target = mod.imports.get(parts[0])
            if target is None:
                continue
            # "from m import C" -> target == m.C; "import m" -> m with
            # parts[1:] == [C]; either way resolve_class follows any
            # package-__init__ re-exports down to the defining module.
            resolved = self.resolve_class(".".join([target] + parts[1:]))
            if resolved is not None:
                found.append(resolved)
        return found

    def mro(self, mod: ModuleInfo, cls: ClassInfo) -> list[tuple[ModuleInfo, ClassInfo]]:
        """Linearized ancestry (C3 is overkill: left-to-right DFS, deduped)."""
        seen: set[str] = set()
        order: list[tuple[ModuleInfo, ClassInfo]] = []

        def visit(m: ModuleInfo, c: ClassInfo) -> None:
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            order.append((m, c))
            for pm, pc in self._bases_of(m, c):
                visit(pm, pc)

        visit(mod, cls)
        return order

    def resolve_method(self, mod: ModuleInfo, cls: ClassInfo, name: str) -> str | None:
        """Qualname of ``name`` looked up on ``cls`` through its MRO."""
        for m, c in self.mro(mod, cls):
            if name in c.methods:
                return f"{m.name}.{c.name}.{name}"
        return None

    # -- queries -------------------------------------------------------
    def reaches_emit(self, qual: str) -> bool:
        """May any call path from ``qual`` execute an ``.emit(...)``?"""
        if self._emit_reach is None:
            self._emit_reach = {}
        cached = self._emit_reach.get(qual)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = [qual]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = self.functions.get(current)
            if node is None:
                continue
            if node.contains_emit:
                self._emit_reach[qual] = True
                return True
            stack.extend(node.calls)
        self._emit_reach[qual] = False
        return False


def _dotted_chain(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return list(reversed(parts))
