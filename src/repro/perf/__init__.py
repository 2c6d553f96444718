"""repro.perf — performance observability for the simulator.

Layers (see the "Performance observability" section of
``docs/observability.md``):

* :mod:`repro.perf.chrome_trace` — Chrome trace-event JSON export
  (Perfetto / about:tracing) plus schema/nesting validation, and
  :class:`TracingProfiler`, the stage profiler that keeps the first
  cycles' laps for the trace's cycle and stage slices;
* :mod:`repro.perf.bench` — the deterministic hot-path benchmark
  suite (min-of-N wall clock at the pinned :data:`PERF_SCALE`);
* :mod:`repro.perf.history` — the committed ``BENCH_perf.json``
  trajectory of provenance-stamped entries;
* :mod:`repro.perf.compare` — the regression comparator gating
  current results against the history window;
* :mod:`repro.perf.cli` — the ``repro perf run/compare/trace``
  commands.
"""

from repro.perf.bench import (
    BENCH_CASES,
    BENCH_NAMES,
    PERF_SCALE,
    BenchCase,
    BenchResult,
    format_results,
    run_benchmarks,
)
from repro.perf.chrome_trace import (
    TracingProfiler,
    build_trace,
    read_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.perf.compare import (
    CaseComparison,
    ComparisonReport,
    baseline_seconds,
    compare_results,
)
from repro.perf.history import (
    DEFAULT_HISTORY_PATH,
    append_entry,
    entries_of_kind,
    load_history,
    make_entry,
)

__all__ = [
    "BENCH_CASES",
    "BENCH_NAMES",
    "PERF_SCALE",
    "BenchCase",
    "BenchResult",
    "format_results",
    "run_benchmarks",
    "TracingProfiler",
    "build_trace",
    "read_trace",
    "validate_trace",
    "write_chrome_trace",
    "CaseComparison",
    "ComparisonReport",
    "baseline_seconds",
    "compare_results",
    "DEFAULT_HISTORY_PATH",
    "append_entry",
    "entries_of_kind",
    "load_history",
    "make_entry",
]
