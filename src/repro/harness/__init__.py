"""Experiment harness: scaled runs, per-figure drivers and reporting."""

from repro.harness.runner import (
    BenchScale,
    get_programs,
    mix_harmonic_ipc,
    run_sim,
    single_thread_ipc,
)
from repro.harness import experiments
from repro.harness.report import format_table, save_report
from repro.harness.charts import sparkline, strip_chart
from repro.harness.trace import PipelineTracer, TraceEvent

# Imported last: the parallel engine builds on the sweep helpers and the
# experiment suite registry above.
from repro.harness.parallel import (
    CheckpointShard,
    SweepRun,
    parallel_figures,
    parallel_sweep,
)

__all__ = [
    "BenchScale",
    "run_sim",
    "get_programs",
    "single_thread_ipc",
    "mix_harmonic_ipc",
    "experiments",
    "format_table",
    "save_report",
    "sparkline",
    "strip_chart",
    "PipelineTracer",
    "TraceEvent",
    "CheckpointShard",
    "SweepRun",
    "parallel_figures",
    "parallel_sweep",
]
