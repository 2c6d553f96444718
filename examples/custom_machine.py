#!/usr/bin/env python
"""Using the library on a custom machine + custom workload.

Shows the public API beyond the paper's exact setup:

* build a non-Table-2 machine (half-size IQ, 2 contexts);
* pick individual benchmark personalities instead of a Table 3 mix;
* compare fetch policies head-to-head on it;
* query per-structure AVFs and branch/cache statistics.

Usage::

    python examples/custom_machine.py
"""

from repro import (
    MachineConfig,
    SMTPipeline,
    Structure,
    generate_program,
    profile_and_apply,
)
from repro.harness.runner import BenchScale


def main() -> None:
    # A narrower SMT core: 2 contexts, 48-entry IQ, 4-wide.
    machine = MachineConfig(
        num_threads=2,
        fetch_width=4, decode_width=4, issue_width=4, commit_width=4,
        iq_size=48,
        rob_size_per_thread=48,
        lsq_size_per_thread=24,
        int_alu=4, fp_alu=4, load_store_units=2,
    )
    machine.validate()

    # One compute-bound and one memory-bound thread.
    programs = [generate_program("gcc", seed=7), generate_program("mcf", seed=8)]
    for p in programs:
        profile_and_apply(p, n_instructions=20_000, window=4_000)

    sim = BenchScale(max_cycles=10_000, warmup_cycles=2_000).sim_config()

    print(f"{'policy':8s} {'IPC':>6s} {'gcc':>6s} {'mcf':>6s} {'IQ AVF':>8s} {'flushes':>8s}")
    for policy in ("icount", "stall", "flush", "dg", "pdg"):
        res = SMTPipeline(
            programs, machine=machine, sim=sim, fetch_policy=policy
        ).run()
        print(
            f"{policy:8s} {res.ipc:6.2f} {res.per_thread_ipc[0]:6.2f} "
            f"{res.per_thread_ipc[1]:6.2f} {res.iq_avf:8.3f} {res.flushes:8d}"
        )

    # Per-structure AVF detail for the last configuration.
    res = SMTPipeline(programs, machine=machine, sim=sim).run()
    print("\nPer-structure AVF (baseline ICOUNT):")
    for s in Structure:
        print(f"  {s.name:4s} {res.overall_avf[s]:.3f}")


if __name__ == "__main__":
    main()
