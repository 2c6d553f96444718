"""Multi-seed replication for statistical confidence.

The paper reports single SimPoint-based runs; for a simulator study it
is good practice to replicate each data point over several workload
seeds and report mean ± stddev. ``replicate`` runs one configuration
across seeds and aggregates any numeric metric extracted from the
results.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import SimulationResult
from repro.harness.runner import BenchScale, run_sim
from repro.harness.sweep import normalize_value

#: Default extractors of :func:`replicate`.
DEFAULT_METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "ipc": lambda r: r.ipc,
    "iq_avf": lambda r: r.iq_avf,
}


@dataclass(frozen=True)
class Replicated:
    """Mean/stddev summary of one metric over seeds."""

    metric: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n <= 1:
            return 0.0
        return float(np.std(self.values, ddof=1) / np.sqrt(self.n))

    def ci95(self) -> tuple[float, float]:
        """~95% confidence interval (normal approximation)."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.metric}: {self.mean:.4f} ± {self.std:.4f} (n={self.n})"


def replicate(
    mix_name: str,
    scale: BenchScale,
    seeds: Sequence[int],
    metrics: dict[str, Callable[[SimulationResult], float]] | None = None,
    **run_kwargs,
) -> dict[str, Replicated]:
    """Run one configuration across seeds; aggregate the metrics.

    ``metrics`` maps a name to an extractor over
    :class:`SimulationResult`; defaults to IPC and IQ AVF.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if metrics is None:
        metrics = dict(DEFAULT_METRICS)
    samples: dict[str, list[float]] = {name: [] for name in metrics}
    for seed in seeds:
        seeded = dataclasses.replace(scale, seed=seed)
        result = run_sim(mix_name, seeded, **run_kwargs)
        for name, extract in metrics.items():
            samples[name].append(float(extract(result)))
    return {
        name: Replicated(metric=name, values=tuple(vals))
        for name, vals in samples.items()
    }


def replicated_ratio(
    mix_name: str,
    scale: BenchScale,
    seeds: Sequence[int],
    metric: Callable[[SimulationResult], float],
    baseline_kwargs: dict | None = None,
    **run_kwargs,
) -> Replicated:
    """Per-seed normalized metric (treatment / baseline), aggregated.

    Pairing by seed removes cross-seed workload variance, which is the
    right way to replicate the paper's normalized figures.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    baseline_kwargs = baseline_kwargs or {}
    ratios = []
    for seed in seeds:
        seeded = dataclasses.replace(scale, seed=seed)
        base = run_sim(mix_name, seeded, **baseline_kwargs)
        treat = run_sim(mix_name, seeded, **run_kwargs)
        # A zero baseline metric yields NaN + a RuntimeWarning (see
        # normalize_value) — it must not read as a perfect reduction.
        ratios.append(
            normalize_value(float(metric(treat)), float(metric(base)), "ratio")
        )
    return Replicated(metric="ratio", values=tuple(ratios))
