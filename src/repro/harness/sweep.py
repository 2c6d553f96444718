"""Generic parameter sweeps over simulation configurations.

``sweep`` runs the cartesian product of parameter axes through
:func:`repro.harness.runner.run_sim` and extracts metrics into flat
rows — the utility behind custom exploration beyond the paper's fixed
figures::

    rows = sweep(
        "MEM-A", scale,
        axes={"scheduler": ["oldest", "visa"], "dispatch": [None, "opt2"]},
        metrics={"ipc": lambda r: r.ipc, "avf": lambda r: r.iq_avf},
    )

The grid-planning and row-assembly helpers (:func:`grid_points`,
:func:`extract_metrics`, :func:`assemble_row`) are shared with the
process-pool engine in :mod:`repro.harness.parallel`, which is what
guarantees ``--jobs N`` output is byte-identical to a serial sweep.
"""

from __future__ import annotations

import inspect
import itertools
import warnings
from collections.abc import Callable, Mapping, Sequence

from repro.core.pipeline import SimulationResult
from repro.harness.runner import BenchScale, run_sim

#: Named metric extractors usable from the CLI (``repro sweep
#: --metric NAME``) and anywhere a picklable metric reference beats an
#: inline lambda.
NAMED_METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "ipc": lambda r: r.ipc,
    "iq_avf": lambda r: r.iq_avf,
    "max_iq_avf": lambda r: r.max_iq_avf,
    "rob_avf": lambda r: r.rob_avf,
    "max_online_estimate": lambda r: r.max_online_estimate,
    "bp_accuracy": lambda r: r.bp_accuracy,
    "l1d_miss_rate": lambda r: r.l1d_miss_rate,
    "l2_misses": lambda r: float(r.l2_misses),
    "squashed": lambda r: float(r.squashed),
    "ace_fraction": lambda r: r.ace_fraction,
    "committed": lambda r: float(r.committed),
}

_DEFAULT_METRICS: dict[str, Callable[[SimulationResult], float]] = {
    name: NAMED_METRICS[name] for name in ("ipc", "iq_avf", "max_iq_avf")
}

#: Public alias; ``repro.harness.parallel`` shares the default set.
DEFAULT_METRICS = _DEFAULT_METRICS


#: Keyword parameters of ``run_sim``: the only names an axis, a fixed
#: kwarg or a ``normalize_to`` baseline may set.
_RUN_SIM_KWARGS = frozenset(
    name
    for name, param in inspect.signature(run_sim).parameters.items()
    if param.kind is inspect.Parameter.KEYWORD_ONLY
)


def check_sweep_kwargs(
    axes: Mapping[str, Sequence],
    fixed: Mapping,
    normalize_to: Mapping | None = None,
) -> None:
    """Reject sweep keys ``run_sim`` does not accept, before any point runs.

    An unknown key would otherwise surface as a ``TypeError`` inside
    every point, be retried and skipped, and leave an empty table.
    """
    unknown = sorted(
        (set(axes) | set(fixed) | set(normalize_to or ())) - _RUN_SIM_KWARGS
    )
    if unknown:
        raise ValueError(
            f"unknown run_sim kwarg(s) {unknown}; valid keys: "
            f"{sorted(_RUN_SIM_KWARGS)}"
        )


def grid_points(axes: Mapping[str, Sequence]) -> list[dict]:
    """Ordered kwargs dicts for the cartesian product of ``axes``.

    Axis order follows the mapping's iteration order and value order is
    preserved, so the grid enumeration (and therefore row order) is
    deterministic and identical for the serial and parallel engines.
    """
    if not axes:
        raise ValueError("at least one axis is required")
    names = list(axes.keys())
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[n] for n in names))
    ]


def normalize_value(value: float, denom: float, metric: str) -> float:
    """``value / denom`` with an explicit NaN for a zero baseline.

    A baseline metric of exactly ``0.0`` used to be silently mapped to
    a normalized value of ``0.0`` — indistinguishable from a perfect
    reduction.  A broken baseline now yields ``float("nan")`` plus a
    :class:`RuntimeWarning` naming the metric.
    """
    if denom == 0.0:
        warnings.warn(
            f"baseline metric {metric!r} is 0.0; normalized values are NaN "
            f"(the baseline configuration produced no signal to divide by)",
            RuntimeWarning,
            stacklevel=3,
        )
        return float("nan")
    return value / denom


def extract_metrics(
    metrics: Mapping[str, Callable[[SimulationResult], float]],
    result: SimulationResult,
) -> dict[str, float]:
    """Raw (un-normalized) metric values of one result, in metric order."""
    return {name: float(extract(result)) for name, extract in metrics.items()}


def assemble_row(
    mix_name: str,
    kwargs: Mapping,
    metric_names: Sequence[str],
    raw: Mapping[str, float],
    baseline_raw: Mapping[str, float] | None = None,
) -> dict:
    """One sweep row from raw metric values (normalizing if asked).

    Key order is ``mix``, then the axis kwargs, then the metrics —
    shared by the serial and parallel paths so rows compare equal.
    """
    row: dict = {"mix": mix_name, **kwargs}
    for name in metric_names:
        value = raw[name]
        if baseline_raw is not None:
            value = normalize_value(value, baseline_raw[name], name)
        row[name] = value
    return row


def sweep(
    mix_name: str,
    scale: BenchScale,
    axes: Mapping[str, Sequence],
    metrics: Mapping[str, Callable[[SimulationResult], float]] | None = None,
    normalize_to: Mapping | None = None,
    **fixed,
) -> list[dict]:
    """Run every combination of ``axes`` values and extract ``metrics``.

    ``axes`` maps ``run_sim`` keyword names to value lists.  When
    ``normalize_to`` (a kwargs dict) is given, each metric is divided by
    the same metric of that baseline configuration; a zero baseline
    metric normalizes to NaN with a :class:`RuntimeWarning` (it cannot
    masquerade as a perfect reduction).
    """
    check_sweep_kwargs(axes, fixed, normalize_to)
    metrics = dict(metrics or _DEFAULT_METRICS)
    points = grid_points(axes)
    baseline_raw = None
    if normalize_to is not None:
        baseline = run_sim(mix_name, scale, **{**fixed, **normalize_to})
        baseline_raw = extract_metrics(metrics, baseline)
    rows = []
    for kwargs in points:
        result = run_sim(mix_name, scale, **{**fixed, **kwargs})
        raw = extract_metrics(metrics, result)
        rows.append(
            assemble_row(mix_name, kwargs, list(metrics), raw, baseline_raw)
        )
    return rows
