"""Terminal-friendly charts for reports and examples.

The harness is text-only (no matplotlib dependency), so figures
are rendered as ASCII: sparklines for series, horizontal bars for
categorical values, and strip charts for interval traces.
"""

from __future__ import annotations

from collections.abc import Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: float | None = None, hi: float | None = None) -> str:
    """One-line sparkline of a series (empty input → empty string)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[min(max(idx, 0), len(_SPARK_LEVELS) - 1)])
    return "".join(out)


def hbar_chart(
    items: Sequence[tuple[str, float]],
    width: int = 40,
    fmt: str = "{:.3f}",
) -> str:
    """Horizontal bar chart: one ``label |#####| value`` row per item."""
    rows = list(items)
    if not rows:
        return "(no data)"
    peak = max(v for _, v in rows)
    label_w = max(len(label) for label, _ in rows)
    lines = []
    for label, v in rows:
        n = int(width * v / peak) if peak > 0 else 0
        lines.append(f"{label:<{label_w}} |{'#' * n:<{width}}| {fmt.format(v)}")
    return "\n".join(lines)


def strip_chart(
    values: Sequence[float],
    threshold: float | None = None,
    width: int = 40,
    max_rows: int = 60,
    marker: str = " <-- emergency",
) -> str:
    """Per-interval bars with an optional threshold marker (Figure 8
    style interval traces)."""
    vals = [float(v) for v in values][:max_rows]
    if not vals:
        return "(no intervals)"
    peak = max(max(vals), threshold or 0.0)
    if peak <= 0:
        peak = 1.0
    lines = []
    if threshold is not None:
        cut = int(width * threshold / peak)
        lines.append(f"target {threshold:.3f} at column {cut}")
    for i, v in enumerate(vals):
        n = int(width * v / peak)
        flag = marker if threshold is not None and v > threshold else ""
        lines.append(f"{i:4d} |{'#' * n:<{width}}| {v:.3f}{flag}")
    return "\n".join(lines)


def histogram_chart(
    probabilities: Sequence[float],
    max_bins: int = 40,
    width: int = 40,
) -> str:
    """Render a probability histogram (Figure 2 style)."""
    vals = [float(v) for v in probabilities][:max_bins]
    return hbar_chart([(str(i), v) for i, v in enumerate(vals)], width=width, fmt="{:.4f}")
