"""Intra-procedural control-flow graphs with reaching definitions.

:func:`build_flow` turns one function body into a statement-level CFG:
every simple statement and every compound-statement *header* (the
``if``/``while``/``for``/``try``/``with`` line) is a node; edges follow
Python's control flow including loop back-edges, ``break``/``continue``,
``return``/``raise`` termination, and a conservative approximation of
exception edges into ``except`` handlers.

A forward **reaching-definitions** solver runs over the graph on
demand: for a statement and a local name, the set of definition
statements whose binding may still be live there.  It is a
may-analysis solved to a fixed point with a worklist; bodies of nested
``def``/``class`` statements are opaque (they neither define nor use
names in the enclosing frame for our purposes — closures are out of
scope for lint-grade analysis).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_TERMINATORS = (ast.Return, ast.Raise)


def bound_names(target: ast.expr) -> set[str]:
    """Local names bound by an assignment target (unpacking included)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for elt in target.elts:
            names |= bound_names(elt)
        return names
    if isinstance(target, ast.Starred):
        return bound_names(target.value)
    return set()  # attribute/subscript targets bind no local name


def stmt_defs(stmt: ast.stmt) -> set[str]:
    """Local names (re)bound by the statement's header."""
    if isinstance(stmt, ast.Assign):
        names: set[str] = set()
        for tgt in stmt.targets:
            names |= bound_names(tgt)
        return names
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return bound_names(stmt.target)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return bound_names(stmt.target)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        names = set()
        for item in stmt.items:
            if item.optional_vars is not None:
                names |= bound_names(item.optional_vars)
        return names
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {a.asname or a.name.split(".")[0] for a in stmt.names}
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    return set()


@dataclass
class FunctionFlow:
    """CFG plus lazily-solved dataflow facts for one function."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: list[ast.stmt] = field(default_factory=list)
    succ: dict[int, list[ast.stmt]] = field(default_factory=dict)
    pred: dict[int, list[ast.stmt]] = field(default_factory=dict)
    entry: list[ast.stmt] = field(default_factory=list)
    _reach_in: dict[int, dict[str, set[int]]] | None = None
    _by_id: dict[int, ast.stmt] = field(default_factory=dict)

    # -- reaching definitions ------------------------------------------
    def reaching_in(self, stmt: ast.stmt) -> dict[str, list[ast.stmt]]:
        """name -> definition statements that may reach ``stmt``.

        Parameter bindings are represented by the function node itself.
        """
        if self._reach_in is None:
            self._solve_reaching()
        assert self._reach_in is not None
        table = self._reach_in.get(id(stmt), {})
        return {
            name: [self._by_id[d] for d in sorted(defs, key=lambda i: self._order[i])]
            for name, defs in table.items()
        }

    def _solve_reaching(self) -> None:
        self._order = {id(n): i for i, n in enumerate(self.nodes)}
        self._order[id(self.func)] = -1
        self._by_id[id(self.func)] = self.func
        params = self._param_names()
        entry_out: dict[str, set[int]] = {p: {id(self.func)} for p in params}

        reach_in: dict[int, dict[str, set[int]]] = {id(n): {} for n in self.nodes}
        out: dict[int, dict[str, set[int]]] = {id(n): {} for n in self.nodes}
        entry_ids = {id(n) for n in self.entry}
        work = list(self.nodes)
        while work:
            node = work.pop(0)
            nid = id(node)
            new_in: dict[str, set[int]] = {}
            if nid in entry_ids:
                for name, defs in entry_out.items():
                    new_in.setdefault(name, set()).update(defs)
            for p in self.pred.get(nid, ()):  # merge predecessor OUTs
                for name, defs in out[id(p)].items():
                    new_in.setdefault(name, set()).update(defs)
            killed = stmt_defs(node)
            new_out = {n: set(d) for n, d in new_in.items() if n not in killed}
            for name in killed:
                new_out[name] = {nid}
            if new_in != reach_in[nid] or new_out != out[nid]:
                reach_in[nid] = new_in
                out[nid] = new_out
                for s in self.succ.get(nid, ()):
                    if s not in work:
                        work.append(s)
        self._reach_in = reach_in

    def _param_names(self) -> set[str]:
        args = self.func.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    # -- convenience ---------------------------------------------------
    def assigned_value(self, def_stmt: ast.stmt, name: str) -> ast.expr | None:
        """The expression a reaching definition binds to ``name``.

        Only plain ``name = <expr>`` / ``name: T = <expr>`` forms have a
        recoverable value; loop targets, ``with`` aliases and parameter
        bindings return None.
        """
        if isinstance(def_stmt, ast.Assign):
            for tgt in def_stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == name:
                    return def_stmt.value
        elif isinstance(def_stmt, ast.AnnAssign):
            if isinstance(def_stmt.target, ast.Name) and def_stmt.target.id == name:
                return def_stmt.value
        return None


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[ast.stmt] = []
        self.succ: dict[int, list[ast.stmt]] = {}
        self.pred: dict[int, list[ast.stmt]] = {}
        self.by_id: dict[int, ast.stmt] = {}
        self.loops: list[tuple[ast.stmt, list[ast.stmt]]] = []

    def edge(self, src: ast.stmt, dst: ast.stmt) -> None:
        self.succ.setdefault(id(src), []).append(dst)
        self.pred.setdefault(id(dst), []).append(src)

    def seq(self, stmts: Iterable[ast.stmt], frontier: list[ast.stmt]) -> list[ast.stmt]:
        for stmt in stmts:
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, s: ast.stmt, frontier: list[ast.stmt]) -> list[ast.stmt]:
        self.nodes.append(s)
        self.by_id[id(s)] = s
        for f in frontier:
            self.edge(f, s)
        if isinstance(s, ast.If):
            body_exit = self.seq(s.body, [s])
            orelse_exit = self.seq(s.orelse, [s]) if s.orelse else [s]
            return body_exit + orelse_exit
        if isinstance(s, _LOOPS):
            breaks: list[ast.stmt] = []
            self.loops.append((s, breaks))
            body_exit = self.seq(s.body, [s])
            self.loops.pop()
            for e in body_exit:  # back edge to the loop header
                self.edge(e, s)
            orelse_exit = self.seq(s.orelse, [s]) if s.orelse else [s]
            return orelse_exit + breaks
        if isinstance(s, (ast.With, ast.AsyncWith)):
            return self.seq(s.body, [s])
        if isinstance(s, ast.Try) or (hasattr(ast, "TryStar") and isinstance(s, ast.TryStar)):
            body_exit = self.seq(s.body, [s])
            # Any point in the try body may raise; approximating the
            # raise sources as {header} ∪ body-exits keeps handler
            # entry reachable without quadratic edges.
            handler_entry = [s] + body_exit
            handler_exits: list[ast.stmt] = []
            for handler in s.handlers:
                handler_exits += self.seq(handler.body, list(handler_entry))
            orelse_exit = self.seq(s.orelse, body_exit) if s.orelse else body_exit
            merged = orelse_exit + handler_exits
            if s.finalbody:
                return self.seq(s.finalbody, merged)
            return merged
        if isinstance(s, _TERMINATORS):
            return []
        if isinstance(s, ast.Break):
            if self.loops:
                self.loops[-1][1].append(s)
            return []
        if isinstance(s, ast.Continue):
            if self.loops:
                self.edge(s, self.loops[-1][0])
            return []
        return [s]


def build_flow(func: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionFlow:
    """Build the CFG for one function; dataflow solves lazily."""
    builder = _Builder()
    builder.seq(func.body, [])
    flow = FunctionFlow(
        func=func,
        nodes=builder.nodes,
        succ=builder.succ,
        pred=builder.pred,
        entry=builder.nodes[:1],
        _by_id=builder.by_id,
    )
    return flow
