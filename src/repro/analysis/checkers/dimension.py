"""``dimension-mismatch`` — cycle / bit / bit-cycle unit discipline.

AVF = ACE bit-cycles / (bits × cycles) (PAPER.md §3); the quantities
all live in plain ints and floats, so nothing stops a cycle count from
being added to a bit-cycle accumulator or an AVF from skipping its
``bits × cycles`` normalization.  This rule seeds dimensions from the
repository's naming conventions (``*_cycles``, ``*_bits``,
``*_bit_cycles``, ``*avf*``/``*fraction*``), propagates them through
local assignments and arithmetic, and reports the two
statically-decidable failure modes:

* a ``+``/``-`` whose operands carry *different known* dimensions;
* an assignment (or call keyword) whose target name declares one
  dimension while the expression evaluates to another — the shape a
  dropped ``/ (bits * cycles)`` normalization takes.

The lattice: ``cycles``, ``bits``, ``bit_cycles``, ``fraction`` (any
dimensionless ratio: AVF, rates, fractions), ``per_cycle`` (an inverse
rate — what ``bits / bit_cycles`` leaves behind, i.e. exactly the
residue of the dropped-normalization bug), ``any`` (literals —
compatible with everything) and ``unknown`` (no opinion, flags
nothing).  Multiplication combines (bits × cycles = bit-cycles),
division cancels (bit-cycles / cycles = bits, X / X = fraction),
addition and subtraction require equal dimensions (cycle − cycle is a
duration, still ``cycles``).  Everything unseeded stays ``unknown`` —
the checker only speaks when both sides are known, so it is quiet on
code that never names these quantities.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import BaseChecker, register

CYCLES = "cycles"
BITS = "bits"
BIT_CYCLES = "bit_cycles"
FRACTION = "fraction"
PER_CYCLE = "per_cycle"  # 1/cycles: the residue of bits / bit-cycles
ANY = "any"  # numeric literals: compatible with every dimension
UNKNOWN = "unknown"

#: Dimensions that participate in mismatch checks.
_KNOWN = frozenset({CYCLES, BITS, BIT_CYCLES, FRACTION, PER_CYCLE})


def dimension_of_name(name: str) -> str:
    """Seed dimension of an identifier, from naming conventions."""
    lowered = name.lower().lstrip("_")
    if "bit_cycles" in lowered or "bitcycles" in lowered:
        return BIT_CYCLES
    if lowered == "bits" or lowered.endswith("_bits"):
        return BITS
    if lowered in ("cycle", "cycles") or lowered.endswith(("_cycle", "_cycles")):
        return CYCLES
    if "avf" in lowered or "fraction" in lowered:
        return FRACTION
    return UNKNOWN


def _mul(a: str, b: str) -> str:
    if ANY in (a, b):
        return b if a == ANY else a
    if UNKNOWN in (a, b):
        return UNKNOWN
    if {a, b} == {BITS, CYCLES}:
        return BIT_CYCLES
    if {a, b} == {PER_CYCLE, CYCLES}:
        return FRACTION
    if FRACTION in (a, b):
        return b if a == FRACTION else a  # scaling by a ratio keeps units
    return UNKNOWN


def _div(a: str, b: str) -> str:
    if b == ANY:
        return a
    if a == ANY or UNKNOWN in (a, b):
        return UNKNOWN
    if a == b:
        return FRACTION
    if a == BIT_CYCLES and b == CYCLES:
        return BITS
    if a == BIT_CYCLES and b == BITS:
        return CYCLES
    if a == BITS and b == BIT_CYCLES:
        # bits / (bits × cycles) = 1/cycles: the dropped-normalization
        # shape — a *known* dim so assigning it where a fraction is
        # declared gets flagged.
        return PER_CYCLE
    if a == FRACTION and b == CYCLES:
        return PER_CYCLE
    if b == FRACTION:
        return a
    return UNKNOWN


@dataclass(frozen=True)
class DimensionFinding:
    """One statically-decided dimension violation."""

    line: int
    col: int
    end_line: int
    end_col: int
    message: str


class _FunctionDimensions:
    """Straight-line dimension propagation over one function body."""

    def __init__(self) -> None:
        self.env: dict[str, str] = {}
        self.findings: list[DimensionFinding] = []

    # -- inference ------------------------------------------------------
    def infer(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            return ANY if isinstance(node.value, (int, float)) else UNKNOWN
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            return local if local is not None else dimension_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return dimension_of_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            a, b = self.infer(node.body), self.infer(node.orelse)
            return a if a == b else UNKNOWN
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Subscript):
            # Element of a dimension-named container carries its dim.
            return self.infer(node.value)
        return UNKNOWN

    def _infer_call(self, node: ast.Call) -> str:
        func = node.func
        # sum()/max()/min()/abs() of one dimensioned argument keep it.
        if isinstance(func, ast.Name) and func.id in ("sum", "max", "min", "abs", "float", "int"):
            if node.args:
                dims = {self.infer(arg) for arg in node.args}
                dims.discard(ANY)
                if len(dims) == 1:
                    return dims.pop()
            return UNKNOWN
        # A method named like a quantity (``self.avf.capacity_bits(...)``).
        if isinstance(func, ast.Attribute):
            return dimension_of_name(func.attr)
        return UNKNOWN

    def _infer_binop(self, node: ast.BinOp) -> str:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, ast.Mult):
            return _mul(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return _div(left, right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left in _KNOWN and right in _KNOWN and left != right:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self.findings.append(
                    _finding(
                        node,
                        f"mixed dimensions in '{op}': left is {left}, "
                        f"right is {right}",
                    )
                )
                return UNKNOWN
            if left == ANY:
                return right
            if right == ANY:
                return left
            return left if left == right else UNKNOWN
        if isinstance(node.op, ast.Mod):
            return left
        return UNKNOWN

    # -- checks ---------------------------------------------------------
    def check_assign(self, target_name: str, target: ast.expr, value: ast.expr) -> None:
        declared = dimension_of_name(target_name)
        inferred = self.infer(value)
        if (
            declared in _KNOWN
            and inferred in _KNOWN
            and declared != inferred
        ):
            self.findings.append(
                _finding(
                    value,
                    f"assigning a {inferred} expression to "
                    f"{target_name!r} which is named as {declared}",
                )
            )
        if isinstance(target, ast.Name):
            self.env[target.id] = inferred if inferred != ANY else UNKNOWN

    def check_keyword(self, kw: ast.keyword) -> None:
        if kw.arg is None:
            return
        declared = dimension_of_name(kw.arg)
        inferred = self.infer(kw.value)
        if declared in _KNOWN and inferred in _KNOWN and declared != inferred:
            self.findings.append(
                _finding(
                    kw.value,
                    f"passing a {inferred} expression as keyword "
                    f"{kw.arg!r} which is named as {declared}",
                )
            )

    # -- traversal ------------------------------------------------------
    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes have their own environments
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value)
            for target in stmt.targets:
                name = _target_name(target)
                if name is not None:
                    self.check_assign(name, target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._visit_expr(stmt.value)
            name = _target_name(stmt.target)
            if name is not None:
                self.check_assign(name, stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value)
            name = _target_name(stmt.target)
            if name is None:
                return
            declared = dimension_of_name(name)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and declared in _KNOWN:
                inferred = self.infer(stmt.value)
                if declared == BIT_CYCLES and inferred == BITS:
                    # Per-cycle integration: ``acc_bit_cycles += resident
                    # bits`` once per simulated cycle is the canonical
                    # ACE accumulation (bits × 1 cycle) — not a mixup.
                    return
                if inferred in _KNOWN and inferred != declared:
                    op = "+=" if isinstance(stmt.op, ast.Add) else "-="
                    self.findings.append(
                        _finding(
                            stmt.value,
                            f"accumulating a {inferred} expression into "
                            f"{name!r} which is named as {declared} ({op})",
                        )
                    )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._visit_expr(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._visit_expr(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._visit_stmt(child)
                elif isinstance(child, ast.expr):
                    self._visit_expr(child)
            for body_field in ("body", "orelse", "finalbody"):
                for sub in getattr(stmt, body_field, []) or []:
                    if isinstance(sub, ast.stmt):
                        self._visit_stmt(sub)

    def _visit_expr(self, expr: ast.expr) -> None:
        """Surface mixed-dimension adds and keyword mismatches anywhere
        inside the expression (inference runs on demand; this walk makes
        sure every BinOp/keyword gets looked at exactly once)."""
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                self._infer_binop(node)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    self.check_keyword(kw)


def _target_name(target: ast.expr) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _finding(node: ast.AST, message: str) -> DimensionFinding:
    return DimensionFinding(
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        end_line=getattr(node, "end_lineno", None) or 0,
        end_col=getattr(node, "end_col_offset", None) or 0,
        message=message,
    )


def check_function(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[DimensionFinding]:
    """Dimension violations in one function body."""
    dims = _FunctionDimensions()
    dims.run(func.body)
    # A BinOp reachable from several checks (assign + expression walk)
    # may be inferred twice; findings are value-frozen, so dedupe.
    seen: set[DimensionFinding] = set()
    out: list[DimensionFinding] = []
    for finding in dims.findings:
        if finding not in seen:
            seen.add(finding)
            out.append(finding)
    return sorted(out, key=lambda f: (f.line, f.col, f.message))


@register
class DimensionChecker(BaseChecker):
    """Flag arithmetic that mixes cycles, bits and bit-cycles."""

    rule = "dimension-mismatch"
    description = (
        "arithmetic mixes cycle/bit/bit-cycle dimensions or drops the "
        "bits*cycles AVF normalization"
    )

    def check(self, ctx) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for finding in check_function(node):
                yield Diagnostic(
                    path=ctx.path,
                    line=finding.line,
                    col=finding.col,
                    rule=self.rule,
                    message=finding.message,
                    severity=Severity.ERROR,
                    symbol=node.name,
                    end_line=finding.end_line,
                    end_col=finding.end_col,
                )
