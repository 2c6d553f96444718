#!/usr/bin/env python
"""Controller decisions as a timeline: DVM + Optimization 2 observed.

Runs one MEM mix with DVM and the L2-miss-sensitive IQ allocation,
records every controller decision through the telemetry bus, and then
walks the evidence: the merged decision/interval timeline, the
per-kind decision counts, the run's provenance manifest, the metrics
snapshot, and the self-profiler's per-stage wall-time shares.

This is the observable counterpart of the paper's Section 5 narrative:
the trigger arming on L2 misses, wq_ratio's slow-up/rapid-down walk,
restore-thread picks while all threads stall, and Opt2's FLUSH-mode
switches are individual, timestamped events here instead of end-of-run
averages.

Usage::

    python examples/decision_timeline.py [mix] [cycles]
"""

import sys

from repro.harness.runner import BenchScale, build_pipeline, get_programs
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.timeline import TimelineRecorder, render_timeline


def main() -> int:
    mix = sys.argv[1] if len(sys.argv) > 1 else "MEM-A"
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 12_000
    scale = BenchScale().with_cycles(cycles)

    pipe = build_pipeline(
        get_programs(mix, scale), scale, dispatch="opt2", dvm_target=0.10
    )
    pipe.profiler = StageProfiler()
    with TimelineRecorder(pipe.bus) as recorder:
        result = pipe.run()
    profile = pipe.profiler.report()

    print(render_timeline(
        recorder.events,
        title=f"decision timeline [{mix}, opt2 + DVM(0.10)]",
        chart=True,
        max_rows=30,
    ))

    print("decision kinds:")
    for topic, count in sorted(recorder.decision_kinds().items()):
        print(f"  {topic:14s} x{count}")

    manifest = result.manifest
    print("\nprovenance:")
    print(f"  config hash  {manifest.config_hash}")
    print(f"  seed         {manifest.seed}")
    print(f"  git          {manifest.git_sha[:12]}{' (dirty)' if manifest.git_dirty else ''}")
    print(f"  packages     {', '.join(f'{k} {v}' for k, v in sorted(manifest.packages.items()))}")

    print("\nselected metrics:")
    for name in (
        "pipeline.cycles", "pipeline.commit.total", "mem.l2.misses",
        "dvm.samples", "dvm.l2_triggers", "dvm.restore_grants",
        "dvm.mean_ratio", "reliability.avf.iq",
    ):
        if name in result.metrics:
            print(f"  {name:24s} {result.metrics[name]}")

    print()
    print(profile.format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
