#!/usr/bin/env python
"""Instruction-level pipeline tracing and analysis.

Attaches a :class:`PipelineTracer` to a short MEM-A run, prints the
stage-latency summary, shows the timeline of the first few committed
instructions of one thread, and demonstrates how IQ residency differs
between (predicted) ACE and un-ACE instructions under the baseline vs
the VISA scheduler — the microscopic view of the paper's Section 2.1
argument.

Usage::

    python examples/pipeline_trace.py [mix] [cycles]
"""

import sys

from repro import SMTPipeline, get_mix, profile_and_apply
from repro.harness.runner import BenchScale
from repro.harness.trace import PipelineTracer


def run_traced(programs, scheduler, cycles):
    sim = BenchScale(max_cycles=cycles, warmup_cycles=cycles // 6).sim_config()
    pipe = SMTPipeline(programs, sim=sim, scheduler=scheduler)
    with PipelineTracer(pipe, limit=200_000) as tracer:
        pipe.run()
    return tracer


def mean_ready_wait(events, ace_pred):
    """Cycles spent ready-but-not-issued — the time VISA reorders."""
    sel = [
        e for e in events
        if not e.squashed and e.ace_pred == ace_pred and e.issue >= 0 and e.ready >= 0
    ]
    if not sel:
        return 0.0
    return sum(max(e.issue - e.ready, 0) for e in sel) / len(sel)


def main() -> None:
    mix_name = sys.argv[1] if len(sys.argv) > 1 else "MEM-A"
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 8_000

    programs = get_mix(mix_name).programs(seed=1)
    for p in programs:
        profile_and_apply(p, n_instructions=30_000, window=6_000)

    base = run_traced(programs, "oldest", cycles)
    print(f"Workload {mix_name}, baseline scheduler — summary:")
    for key, value in base.summary().items():
        print(f"  {key:24s} {value:.3f}" if isinstance(value, float) else f"  {key:24s} {value}")

    print("\nFirst committed instructions of thread 0:")
    print(f"  {'tag':>6s} {'op':8s} {'F':>5s} {'D':>5s} {'I':>5s} {'C':>5s} {'R':>5s} ace")
    for e in [e for e in base.of_thread(0) if not e.squashed][:12]:
        print(
            f"  {e.tag:6d} {e.opclass:8s} {e.fetch:5d} {e.dispatch:5d} "
            f"{e.issue:5d} {e.commit:5d} {e.iq_residency:5d} {e.ace}"
        )

    visa = run_traced(programs, "visa", cycles)
    print("\nMean ready-to-issue wait of issued instructions (cycles):")
    print(f"  {'scheduler':10s} {'pred-ACE':>9s} {'pred-unACE':>11s}")
    for name, tr in (("baseline", base), ("visa", visa)):
        print(
            f"  {name:10s} {mean_ready_wait(tr.events, True):9.2f} "
            f"{mean_ready_wait(tr.events, False):11.2f}"
        )
    print(
        "\nUnder VISA, ready predicted-ACE instructions issue sooner while"
        "\nready un-ACE instructions wait longer — the Section 2.1 mechanism"
        "\nin action (total residency is dominated by operand wait, which"
        "\nscheduling cannot change; that is why VISA alone buys only ~5%)."
    )


if __name__ == "__main__":
    main()
