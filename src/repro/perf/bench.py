"""Deterministic hot-path benchmark suite (min-of-N wall clock).

The cases cover the paths every perf-sensitive change touches: the
bare pipeline cycle loop, the issue scheduler's ready order, the DVM
controller's interval-rate decision path, the interval resource
allocator, offline ACE profiling and the telemetry relay round-trip.  Each case's
``make`` factory builds *all* state up front and returns a closure
whose body is only the hot path, so the timed region measures the code
under test and nothing else.  Inputs are fixed by :data:`PERF_SCALE`
(or an explicit scale) and seeded generators, so two runs of a case
execute the identical work — the wall-clock is the only
nondeterminism, and min-of-N strips most of it.

Results feed :mod:`repro.perf.history` (the committed
``BENCH_perf.json`` trajectory) and :mod:`repro.perf.compare` (the
regression gate).

Timing is the purpose of this module, so the determinism rule is
suppressed; benchmark output never feeds simulated results.
"""
# lint: disable-file=determinism

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.config import MachineConfig, ReliabilityConfig
from repro.core.issue_queue import IssueQueue
from repro.core.pipeline import SMTPipeline
from repro.core.scheduler import make_scheduler
from repro.harness.runner import BenchScale, get_programs
from repro.isa.generator import generate_program
from repro.isa.instruction import DynInst
from repro.reliability.dvm import DVMController
from repro.reliability.profiling import profile_program
from repro.reliability.resource_alloc import (
    IntervalSnapshot,
    L2MissSensitiveAllocation,
)
from repro.workloads import get_mix

#: Pinned scale for the perf suite: small enough for a few-second run,
#: large enough that the cycle loop dominates interpreter warm-up.
#: CI and the committed history both use this scale — changing it
#: resets the comparability of the BENCH_perf.json trajectory.
PERF_SCALE = BenchScale(max_cycles=2_500, warmup_cycles=500)

#: The mix the pipeline-level cases simulate.
_BENCH_MIX = "MIX-A"


@dataclass(frozen=True)
class BenchCase:
    """One benchmark: a factory building a zero-argument hot closure."""

    name: str
    description: str
    make: Callable[[BenchScale], Callable[[], None]]


@dataclass(frozen=True)
class BenchResult:
    """Min-of-N wall time of one case."""

    name: str
    best_s: float
    repeats: int

    def to_dict(self) -> dict[str, float | int]:
        return {"best_s": self.best_s, "repeats": self.repeats}


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _make_cycle_loop(mix_name: str):
    """Factory-of-factories for the whole-pipeline cases.

    Each case runs one configuration end to end (``SMTPipeline.run``
    wall time, telemetry off).  The untimed first call populates the
    warm-state snapshot cache (keyed by program identity, which
    ``get_programs`` pins), so the timed repeats measure the
    steady-state cost a sweep pays per run: snapshot restore plus the
    cycle loop.
    """

    def make(scale: BenchScale) -> Callable[[], None]:
        programs = get_programs(mix_name, scale)
        machine = MachineConfig(num_threads=len(get_mix(mix_name).benchmarks))
        sim = scale.sim_config()

        def run() -> None:
            SMTPipeline(programs, machine=machine, sim=sim, telemetry=False).run()

        return run

    return make


#: CPU-bound mix: little idle time in the loop.
_make_pipeline_cycle_loop = _make_cycle_loop(_BENCH_MIX)
#: Memory-bound mix: long L2-miss shadows.
_make_mem_cycle_loop = _make_cycle_loop("MEM-A")


def _make_issue_ready_tags(scale: BenchScale) -> Callable[[], None]:
    """VISA ready-tag order over a full IQ of ready instructions."""
    machine = MachineConfig()
    program = generate_program("mcf", seed=scale.seed)
    statics = list(program.all_insts())
    scheduler = make_scheduler("visa")
    iq = IssueQueue(machine.iq_size, machine.num_threads)
    for tag in range(machine.iq_size):
        st = statics[tag % len(statics)]
        inst = DynInst(
            tag=tag + 1, thread=tag % machine.num_threads, static=st, stream_pos=0
        )
        inst.ace_pred = (tag * 7919) % 3 != 0  # fixed ACE/un-ACE blend
        # A ready entry: in the ready map and in its ascending tag list
        # (the only state ``ready_tags`` reads).
        iq.ready[inst.tag] = inst
        tags = iq.ready_ace_tags if inst.ace_pred else iq.ready_plain_tags
        tags.append(inst.tag)
    iters = 2_000

    def run() -> None:
        for _ in range(iters):
            scheduler.ready_tags(iq)

    return run


def _make_dvm_interval(scale: BenchScale) -> Callable[[], None]:
    """DVM sample/trigger/ratio decision path at interval close rate."""
    rel = ReliabilityConfig(
        interval_cycles=scale.interval_cycles,
        ace_window=scale.ace_window,
        t_cache_miss=scale.t_cache_miss,
    )
    iters = 20_000

    def run() -> None:
        dvm = DVMController(0.2, config=rel)
        for i in range(iters):
            est = 0.05 + 0.3 * ((i * 37) % 100) / 100.0
            dvm.on_sample(est)
            if i % 8 == 0:
                dvm.on_l2_miss()
            if i % 4 == 0:
                dvm.recompute_ratio_gate((i * 13) % 64, (i * 7) % 32)
            dvm.allow_dispatch(i % 4)

    return run


def _make_resource_alloc(scale: BenchScale) -> Callable[[], None]:
    """Opt2 interval-close allocation decision (region + FLUSH gate)."""
    machine = MachineConfig()
    iters = 20_000

    def run() -> None:
        policy = L2MissSensitiveAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
            t_cache_miss=scale.t_cache_miss,
        )
        for i in range(iters):
            policy.on_interval(
                IntervalSnapshot(
                    cycle=(i + 1) * scale.interval_cycles,
                    committed=(i * 379) % 4096,
                    cycles=scale.interval_cycles,
                    avg_ready_queue_len=float((i * 11) % 40),
                    l2_misses=(i * 29) % 160,
                )
            )

    return run


def _make_offline_profile(scale: BenchScale) -> Callable[[], None]:
    """Offline ACE profiling of the first MIX-A program over the
    scale's profiling window (40K instructions, 8K window at
    :data:`PERF_SCALE`): the per-program set-up every process pays."""
    benchmark, program_seed = get_mix(_BENCH_MIX).instances(scale.seed)[0]
    program = generate_program(benchmark, seed=program_seed)

    def run() -> None:
        profile_program(program, scale.profile_instructions, scale.profile_window)

    return run


def _make_relay_roundtrip(scale: BenchScale) -> Callable[[], None]:
    """Telemetry relay worker→parent round-trip, no process pool.

    One in-process worker bus with a ``WorkerRelay`` attached feeds a
    bounded queue drained by a ``RelayDrain`` republishing onto a
    parent bus — the full serialize/batch/drain/republish path a
    monitored ``--jobs N`` sweep pays per relayed event, minus the
    process hop.  Pins the overhead of default batch sizes so relay
    regressions show up as a step in the trajectory.
    """
    import queue as queue_mod

    from repro.telemetry.bus import EventBus
    from repro.telemetry.relay import RelayDrain, WorkerRelay
    from repro.telemetry.topics import TOPIC_INTERVAL_CLOSE

    events = 20_000

    def run() -> None:
        q: queue_mod.Queue = queue_mod.Queue(maxsize=512)
        worker_bus = EventBus()
        relay = WorkerRelay(q)
        relay.attach(worker_bus)
        parent_bus = EventBus()
        drain = RelayDrain(q, parent_bus, worker_slot=lambda pid: 0, t0=0.0)
        for i in range(events):
            worker_bus.emit(
                TOPIC_INTERVAL_CLOSE,
                index=i,
                end_cycle=(i + 1) * scale.interval_cycles,
                committed=(i * 379) % 4096,
                ipc=2.0,
                avg_ready_queue_len=4.0,
                avg_waiting_queue_len=8.0,
                l2_misses=(i * 29) % 160,
                online_avf_estimate=0.05 + (i % 100) / 200.0,
                online_rob_estimate=0.04 + (i % 100) / 250.0,
                iq_limit=64,
            )
            if i % 256 == 0:
                drain.pump()
        relay.flush()
        drain.pump()
        assert drain.dropped == 0

    return run


BENCH_CASES: tuple[BenchCase, ...] = (
    BenchCase(
        "pipeline_cycle_loop",
        "bare MIX-A simulation (telemetry off), warm-state restore + reference loop",
        _make_pipeline_cycle_loop,
    ),
    BenchCase(
        "mem_cycle_loop",
        "bare MEM-A simulation (telemetry off), warm-state restore + reference loop",
        _make_mem_cycle_loop,
    ),
    BenchCase(
        "issue_ready_tags",
        "VISA scheduler ready_tags() over a full ready IQ",
        _make_issue_ready_tags,
    ),
    BenchCase(
        "dvm_interval",
        "DVM sample/trigger/ratio decision path",
        _make_dvm_interval,
    ),
    BenchCase(
        "resource_alloc",
        "Opt2 interval-close allocation decisions",
        _make_resource_alloc,
    ),
    BenchCase(
        "offline_profile",
        "offline ACE profiling of one MIX-A program (40K instructions, 8K window)",
        _make_offline_profile,
    ),
    BenchCase(
        "relay_roundtrip",
        "telemetry relay batch/drain/republish round-trip (20k events)",
        _make_relay_roundtrip,
    ),
)

BENCH_NAMES: tuple[str, ...] = tuple(c.name for c in BENCH_CASES)


def get_cases(names: Iterable[str] | None = None) -> list[BenchCase]:
    """Resolve case names (all cases when ``names`` is None)."""
    if names is None:
        return list(BENCH_CASES)
    wanted = list(names)
    unknown = sorted(set(wanted) - set(BENCH_NAMES))
    if unknown:
        raise KeyError(f"unknown benchmark(s) {unknown}; known: {list(BENCH_NAMES)}")
    return [c for c in BENCH_CASES if c.name in set(wanted)]


def run_benchmarks(
    names: Iterable[str] | None = None,
    *,
    scale: BenchScale | None = None,
    repeats: int = 3,
) -> dict[str, BenchResult]:
    """Run the suite; returns min-of-``repeats`` seconds per case.

    Each case gets one untimed warm-up call (code paths, allocator and
    OS caches) before the timed repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scale = scale if scale is not None else PERF_SCALE
    results: dict[str, BenchResult] = {}
    for case in get_cases(names):
        fn = case.make(scale)
        fn()  # warm-up, untimed
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        results[case.name] = BenchResult(case.name, best, repeats)
    return results


def format_results(
    results: Mapping[str, BenchResult], title: str = "perf suite (min-of-N)"
) -> str:
    """Aligned text table of one suite run."""
    lines = [title]
    width = max((len(n) for n in results), default=4)
    for name in sorted(results):
        r = results[name]
        lines.append(
            f"  {name:<{width}s}  {r.best_s * 1e3:10.2f} ms  (best of {r.repeats})"
        )
    return "\n".join(lines)
