#!/usr/bin/env python
"""Quickstart — simulate one SMT workload mix and inspect IQ reliability.

Runs the paper's CPU-A mix (bzip2, eon, gcc, perlbmk) on the Table 2
machine, first with the conventional oldest-first scheduler and then
with VISA issue (Section 2.1), and prints throughput and IQ AVF for
both.

Usage::

    python examples/quickstart.py [cycles]
"""

import sys

from repro import (
    SMTPipeline,
    get_mix,
    profile_and_apply,
)
from repro.harness.runner import BenchScale


def main() -> None:
    cycles = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000

    # 1. Instantiate the synthetic SPEC2000 stand-ins for the mix.
    mix = get_mix("CPU-A")
    programs = mix.programs(seed=1)
    print(f"Workload {mix.name}: {', '.join(mix.benchmarks)}")

    # 2. Offline vulnerability profiling (Section 2.1): classify each
    #    static instruction as ACE/un-ACE and encode the 1-bit tag.
    for program in programs:
        prof = profile_and_apply(program, n_instructions=30_000, window=6_000)
        print(
            f"  profiled {program.name:8s}: PC-accuracy {prof.accuracy:5.1%}, "
            f"ACE instances {prof.ace_fraction:5.1%}"
        )

    # 3. Simulate: baseline scheduler, then VISA.
    sim = BenchScale(max_cycles=cycles, warmup_cycles=cycles // 6).sim_config()
    results = {}
    for scheduler in ("oldest", "visa"):
        result = SMTPipeline(programs, sim=sim, scheduler=scheduler).run()
        results[scheduler] = result
        print(
            f"\n[{scheduler:>6s}] IPC {result.ipc:.2f} "
            f"(per thread: {', '.join(f'{x:.2f}' for x in result.per_thread_ipc)})"
        )
        print(f"         IQ AVF {result.iq_avf:.3f} (max interval {result.max_iq_avf:.3f})")
        print(
            f"         branch accuracy {result.bp_accuracy:.1%}, "
            f"L1D miss rate {result.l1d_miss_rate:.1%}, "
            f"L2 misses {result.l2_misses}"
        )

    base, visa = results["oldest"], results["visa"]
    print(
        f"\nVISA vs baseline: IQ AVF x{visa.iq_avf / base.iq_avf:.2f}, "
        f"IPC x{visa.ipc / base.ipc:.2f}"
    )


if __name__ == "__main__":
    main()
