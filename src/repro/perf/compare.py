"""Regression comparator: current suite results vs. the history window.

The baseline for a case is the **minimum** ``best_s`` over the last
``window`` suite entries that carry a finite positive value for it —
the same min-of-N philosophy as the measurement itself, and robust to
one noisy historical entry.  A case regresses when

    current > baseline * (1 + tolerance)

and improves when ``current < baseline * (1 - tolerance)``; inside the
band it is ``ok``.  Cases with no usable baseline (empty history, a
newly added benchmark, NaN/zero historical values) are ``new`` and
never fail the gate; a non-finite *current* measurement is ``invalid``
and always fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.perf.history import KIND_PERF_SUITE, entries_of_kind

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_NEW = "new"
STATUS_INVALID = "invalid"


def _valid_seconds(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _current_seconds(value: Any) -> float:
    """Extract seconds from a BenchResult / mapping / bare number."""
    if hasattr(value, "best_s"):
        return float(value.best_s)
    if isinstance(value, Mapping):
        value = value.get("best_s", math.nan)
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True)
class CaseComparison:
    """One case's verdict against its history baseline."""

    name: str
    status: str
    current_s: float
    baseline_s: float | None = None

    @property
    def ratio(self) -> float | None:
        """current/baseline (>1 = slower); None without a baseline."""
        if self.baseline_s is None or self.baseline_s <= 0:
            return None
        return self.current_s / self.baseline_s


@dataclass(frozen=True)
class ComparisonReport:
    """Whole-suite comparison outcome."""

    cases: tuple[CaseComparison, ...]
    tolerance: float
    window: int

    @property
    def regressions(self) -> tuple[CaseComparison, ...]:
        return tuple(c for c in self.cases if c.status == STATUS_REGRESSION)

    @property
    def invalid(self) -> tuple[CaseComparison, ...]:
        return tuple(c for c in self.cases if c.status == STATUS_INVALID)

    @property
    def ok(self) -> bool:
        """True when the gate passes (no regression, nothing invalid)."""
        return not self.regressions and not self.invalid

    def format(self) -> str:
        lines = [
            f"perf comparison (tolerance ±{self.tolerance * 100:.0f}%, "
            f"baseline = min of last {self.window} entries)"
        ]
        width = max((len(c.name) for c in self.cases), default=4)
        for c in self.cases:
            cur = f"{c.current_s * 1e3:10.2f} ms"
            if c.baseline_s is None:
                base, delta = "          -", "    -"
            else:
                base = f"{c.baseline_s * 1e3:10.2f} ms"
                delta = f"{(c.ratio - 1) * 100:+5.1f}%" if c.ratio is not None else "    -"
            lines.append(
                f"  {c.name:<{width}s}  {cur}  vs {base}  {delta}  [{c.status}]"
            )
        verdict = "PASS" if self.ok else "FAIL"
        n_reg, n_inv = len(self.regressions), len(self.invalid)
        lines.append(
            f"{verdict}: {n_reg} regression(s), {n_inv} invalid, "
            f"{sum(1 for c in self.cases if c.status == STATUS_NEW)} new"
        )
        return "\n".join(lines)


def baseline_seconds(
    history: Mapping[str, Any],
    name: str,
    *,
    window: int = 5,
    kind: str = KIND_PERF_SUITE,
) -> float | None:
    """Min ``best_s`` for ``name`` over the last ``window`` entries.

    Entries missing the case, and NaN/zero/negative values, are
    skipped; returns None when no usable value exists.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values: list[float] = []
    for entry in entries_of_kind(history, kind)[-window:]:
        result = entry.get("results", {}).get(name)
        value = result.get("best_s") if isinstance(result, Mapping) else result
        if _valid_seconds(value):
            values.append(float(value))
    return min(values) if values else None


def compare_results(
    history: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerance: float = 0.25,
    window: int = 5,
    kind: str = KIND_PERF_SUITE,
) -> ComparisonReport:
    """Compare ``current`` suite results against the history window."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    cases: list[CaseComparison] = []
    for name in sorted(current):
        cur_s = _current_seconds(current[name])
        base_s = baseline_seconds(history, name, window=window, kind=kind)
        if not _valid_seconds(cur_s):
            status = STATUS_INVALID
        elif base_s is None:
            status = STATUS_NEW
        elif cur_s > base_s * (1 + tolerance):
            status = STATUS_REGRESSION
        elif cur_s < base_s * (1 - tolerance):
            status = STATUS_IMPROVEMENT
        else:
            status = STATUS_OK
        cases.append(CaseComparison(name, status, cur_s, base_s))
    return ComparisonReport(tuple(cases), tolerance, window)
