"""Zero-subscriber telemetry overhead smoke check.

The event bus is designed so that a pipeline with telemetry enabled but
*no subscribers* pays only per-cycle stamping (the run loop's
per-stage hook, which stores ``bus.stage``, plus one version compare)
versus the bare ``telemetry=False`` loop.  This module measures that gap on a small workload and fails when
it exceeds a threshold (default 5%), so a hot-path regression in the
instrumentation is caught by CI instead of silently taxing every
experiment.

Run as a module::

    PYTHONPATH=src python -m repro.telemetry.overhead --max-overhead 0.05

Besides the pass/fail verdict, the measurement is appended as a
``telemetry-overhead`` entry to the ``BENCH_perf.json`` history (via
:mod:`repro.perf.history`), so the zero-subscriber overhead has a
recorded trajectory instead of vanishing into CI logs; ``--no-history``
skips the write.

Timing is wall-clock by necessity, so the determinism rule is
suppressed for this file; nothing here feeds simulated results.
"""
# lint: disable-file=determinism

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from repro.config import MachineConfig
from repro.core.pipeline import SMTPipeline
from repro.harness.runner import BenchScale, at_least_arg, cycles_arg, get_programs
from repro.workloads import get_mix


@dataclass(frozen=True)
class OverheadReport:
    """Best-of-N wall times for the bare and stamped loops."""

    mix: str
    cycles: int
    repeats: int
    bare_s: float
    stamped_s: float

    @property
    def overhead(self) -> float:
        """Relative slowdown of the stamped loop ((stamped-bare)/bare)."""
        if self.bare_s <= 0:
            return 0.0
        return (self.stamped_s - self.bare_s) / self.bare_s

    def results(self) -> dict[str, dict[str, float | int]]:
        """History-writer form: one named result per timed variant."""
        return {
            "telemetry_bare_loop": {"best_s": self.bare_s, "repeats": self.repeats},
            "telemetry_stamped_loop": {
                "best_s": self.stamped_s,
                "repeats": self.repeats,
            },
        }

    def format(self) -> str:
        return (
            f"telemetry overhead [{self.mix}, {self.cycles} cycles, "
            f"best of {self.repeats}]: bare {self.bare_s*1e3:.1f} ms, "
            f"stamped {self.stamped_s*1e3:.1f} ms, "
            f"overhead {self.overhead*100:+.2f}%"
        )


def _timed_run(mix_name: str, scale: BenchScale, telemetry: bool) -> float:
    machine = MachineConfig(num_threads=len(get_mix(mix_name).benchmarks))
    pipe = SMTPipeline(
        get_programs(mix_name, scale),
        machine=machine,
        sim=scale.sim_config(),
        telemetry=telemetry,
    )
    t0 = time.perf_counter()
    pipe.run()
    return time.perf_counter() - t0


def measure_overhead(
    mix_name: str = "MIX-A", cycles: int = 12_000, repeats: int = 3
) -> OverheadReport:
    """Best-of-``repeats`` bare vs. stamped (no-subscriber) wall time.

    The bare/stamped runs are interleaved so slow machine drift (thermal
    throttling, noisy neighbours) hits both variants symmetrically.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scale = BenchScale(max_cycles=cycles)
    get_programs(mix_name, scale)  # warm the program cache outside timing
    _timed_run(mix_name, scale, telemetry=False)  # warm code paths / caches
    bare = float("inf")
    stamped = float("inf")
    for _ in range(repeats):
        bare = min(bare, _timed_run(mix_name, scale, telemetry=False))
        stamped = min(stamped, _timed_run(mix_name, scale, telemetry=True))
    return OverheadReport(
        mix=mix_name, cycles=cycles, repeats=repeats, bare_s=bare, stamped_s=stamped
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.telemetry.overhead",
        description="Fail when the zero-subscriber telemetry overhead "
        "exceeds a threshold.",
    )
    parser.add_argument("--mix", default="MIX-A", help="workload mix (default MIX-A)")
    parser.add_argument("--cycles", type=cycles_arg, default=12_000)
    parser.add_argument("--repeats", type=at_least_arg(int, 1), default=3)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="maximum allowed relative overhead (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--history",
        default="BENCH_perf.json",
        metavar="PATH",
        help="BENCH_perf.json history to append the measurement to",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not persist the measurement into the history file",
    )
    args = parser.parse_args(argv)
    report = measure_overhead(args.mix, cycles=args.cycles, repeats=args.repeats)
    print(report.format())
    if not args.no_history:
        # Imported here: repro.perf builds on the telemetry layer, so
        # importing it at module scope would invert the layering.
        from repro.perf.history import KIND_TELEMETRY_OVERHEAD, append_entry

        append_entry(
            args.history,
            report.results(),
            kind=KIND_TELEMETRY_OVERHEAD,
            context={
                "mix": report.mix,
                "cycles": report.cycles,
                "overhead": report.overhead,
                "max_overhead": args.max_overhead,
            },
        )
        print(f"measurement appended to {args.history}")
    if report.overhead > args.max_overhead:
        print(
            f"FAIL: overhead {report.overhead*100:.2f}% exceeds "
            f"{args.max_overhead*100:.2f}%",
            file=sys.stderr,
        )
        return 1
    print(f"OK: within {args.max_overhead*100:.2f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
