"""Scaled simulation runner with in-process result caching.

The paper simulates 400M instructions per data point on a C simulator;
this pure-Python reproduction scales every interval-based mechanism
proportionally (see DESIGN.md §7) so each data point costs a couple of
seconds.  ``BenchScale`` centralizes the scaling, and honours two
environment variables:

* ``REPRO_FULL=1``  — run all three Table 3 groups per category
  (default: group A per category, the paper reports category averages).
* ``REPRO_CYCLES=N`` — override the per-run cycle budget.

Results are memoized per configuration so the test-suite and
``repro figures`` never re-simulate the same point.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field, replace
from typing import Callable, TypeVar

from repro.config import MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline, SimulationResult
from repro.core.warmstate import reset_warm_states
from repro.isa.generator import generate_program
from repro.isa.program import SyntheticProgram
from repro.reliability.avf import Structure
from repro.reliability.dvm import DVMController
from repro.reliability.profiling import ProfileResult, profile_and_apply
from repro.reliability.resource_alloc import (
    DispatchPolicy,
    DynamicIQAllocation,
    L2MissSensitiveAllocation,
)
from repro.telemetry.topics import TOPIC_PROFILE_PROGRESS
from repro.workloads import get_mix, mixes_in_category


#: The paper's reliability parameters; BenchScale rescales the
#: window-sized ones and inherits the dimensionless ones unchanged.
_PAPER = ReliabilityConfig()


def _cycle_count(raw: str, name: str) -> int:
    """``raw`` as a positive cycle count; ValueError naming ``name`` otherwise."""
    try:
        cycles = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer cycle count, got {raw!r}") from None
    if cycles <= 0:
        raise ValueError(f"{name} must be positive, got {cycles}")
    return cycles


def cycles_arg(text: str) -> int:
    """The argparse ``type=`` of every ``--cycles`` option, so a
    non-positive budget is a usage error (exit 2)."""
    try:
        return _cycle_count(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_N = TypeVar("_N", int, float)


def _checked_arg(
    convert: Callable[[str], _N], ok: Callable[[_N], bool], rule: str
) -> Callable[[str], _N]:
    def parse(text: str) -> _N:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not ok(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


def at_least_arg(convert: Callable[[str], _N], minimum: _N) -> Callable[[str], _N]:
    """An argparse ``type=`` that parses with ``convert`` and makes a
    value below ``minimum`` (or NaN) a usage error (exit 2)."""
    return _checked_arg(convert, lambda value: value >= minimum, f"must be >= {minimum}")


def positive_arg(convert: Callable[[str], _N]) -> Callable[[str], _N]:
    """An argparse ``type=`` that parses with ``convert`` and makes a
    value <= 0 (or NaN) a usage error (exit 2); ``--dvm FRAC`` uses it
    so a target of 0 fails before any simulation."""
    return _checked_arg(convert, lambda value: value > 0, "must be > 0")


@dataclass(frozen=True)
class BenchScale:
    """Scaled-down counterpart of the paper's simulation windows."""

    max_cycles: int = 14_000
    warmup_cycles: int = 3_000
    # 1/5 of the paper's 10K-cycle interval, matching the cycle budget.
    interval_cycles: int = 2_000  # lint: disable=paper-fidelity
    ace_window: int = 4_000  # lint: disable=paper-fidelity
    profile_instructions: int = 40_000
    profile_window: int = 8_000
    # Paper: 16 L2 misses per 10K-cycle interval.  Our synthetic
    # workloads carry compulsory streaming misses the paper's SimPoints
    # did not, so the scaled threshold that separates CPU (≈55/interval)
    # from MIX/MEM (≥110) is 80; ``ablation_tcache_miss`` sweeps it.
    t_cache_miss: int = 80  # lint: disable=paper-fidelity
    num_ipc_regions: int = _PAPER.num_ipc_regions
    dvm_trigger_fraction: float = _PAPER.dvm_trigger_fraction
    seed: int = 1
    groups: tuple[str, ...] = ("A",)

    @staticmethod
    def from_env(cycles: int | None = None) -> "BenchScale":
        """The default scale, widened to all groups by ``REPRO_FULL`` and
        resized by ``REPRO_CYCLES``, or by ``cycles`` (a CLI ``--cycles``)
        when given."""
        groups = ("A", "B", "C") if os.environ.get("REPRO_FULL") else ("A",)
        if cycles is None:
            raw = os.environ.get("REPRO_CYCLES")
            if raw is None:
                return BenchScale(groups=groups)
            cycles = _cycle_count(raw, "REPRO_CYCLES")
        return BenchScale(groups=groups).with_cycles(cycles)

    def with_cycles(self, cycles: int) -> "BenchScale":
        """This scale with a ``cycles`` budget: the one cycle-budget rule.

        A budget below ``max_cycles`` keeps this scale's warm-up
        proportion (3/14 by default); inheriting the absolute warm-up
        would leave a 2000-cycle run all warm-up.  A larger budget keeps
        the warm-up as it is.
        """
        if cycles <= 0:
            raise ValueError(f"a cycle budget must be positive, got {cycles}")
        warmup = self.warmup_cycles
        if cycles < self.max_cycles:
            warmup = max(cycles * self.warmup_cycles // self.max_cycles, 1)
        return replace(self, max_cycles=cycles, warmup_cycles=warmup)

    def sim_config(self, *, collect_hist: bool = False) -> SimulationConfig:
        rel = ReliabilityConfig(
            interval_cycles=self.interval_cycles,
            ace_window=self.ace_window,
            t_cache_miss=self.t_cache_miss,
            dvm_trigger_fraction=self.dvm_trigger_fraction,
            num_ipc_regions=self.num_ipc_regions,
        )
        cfg = SimulationConfig(
            max_cycles=self.max_cycles,
            warmup_cycles=self.warmup_cycles,
            seed=self.seed,
            # Long functional fast-forward: CPU-class data footprints
            # must be L2-resident before timing (MEM footprints exceed
            # the L2 and stay miss-bound regardless).
            bp_warmup_instructions=100_000,
            reliability=rel,
            collect_ready_queue_histogram=collect_hist,
        )
        cfg.validate()
        return cfg

    def mixes(self, category: str):
        return [m for m in mixes_in_category(category) if m.group in self.groups]


# ----------------------------------------------------------------------
# Program cache, one entry per program instance (profiling mutates the
# program image, so profiled and unprofiled instances are cached
# separately).
# ----------------------------------------------------------------------
_PROGRAMS: dict = {}
_MIX_PROGRAMS: dict = {}
_RESULTS: dict = {}
_SINGLE_IPC: dict = {}

#: Ambient event bus for ``run_sim`` pipelines.  Pool workers install
#: one (wired to the telemetry relay) via ``_init_worker`` so every
#: simulation a task runs publishes interval/reliability events the
#: relay can forward; when None (the default, and always in the
#: parent), each pipeline keeps its own private bus as before.  The
#: bus never affects results — subscribers only observe — so it is
#: deliberately *not* part of the memo key; cached points simply emit
#: nothing, which is fine because they cost no wall time to watch.
_AMBIENT_BUS = None


def set_ambient_bus(bus) -> None:
    """Install (or clear, with None) the process-wide ambient bus."""
    global _AMBIENT_BUS
    # Deliberate per-process global: each pool worker installs its own
    # bus in its own interpreter; the parent never shares it.
    _AMBIENT_BUS = bus


def clear_caches() -> None:
    """Drop all memoized programs, results and warm states (tests use
    this), so the next run starts from a cold functional warm-up."""
    reset_warm_states()
    _PROGRAMS.clear()
    _MIX_PROGRAMS.clear()
    _RESULTS.clear()
    _SINGLE_IPC.clear()


def get_programs(mix_name: str, scale: BenchScale, profiled: bool = True):
    """The (optionally profiled) synthetic programs of a Table 3 mix;
    the same list on every call."""
    key = (mix_name, scale.seed, profiled, scale.profile_instructions, scale.profile_window)
    if key not in _MIX_PROGRAMS:
        _MIX_PROGRAMS[key] = [
            get_program(benchmark, program_seed, scale, profiled)
            for benchmark, program_seed in get_mix(mix_name).instances(scale.seed)
        ]
    return _MIX_PROGRAMS[key]


def get_program(
    benchmark: str, program_seed: int, scale: BenchScale, profiled: bool = True
) -> SyntheticProgram:
    """One (optionally profiled) program instance, generated and
    profiled once per process: Table 3 mixes share instances (CPU-A and
    MIX-A both run perlbmk with generator seed ``seed*1000+3``)."""
    key = (
        benchmark, program_seed, profiled,
        scale.profile_instructions, scale.profile_window,
    )
    program = _PROGRAMS.get(key)
    if program is None:
        program = generate_program(benchmark, seed=program_seed)
        if profiled:
            profile_scaled(program, scale)
        # Deliberate per-process memo: each pool worker warms its own
        # copy via _init_worker; the parent's cache is never consulted
        # across the fork.
        _PROGRAMS[key] = program
    return program


def profile_scaled(program: SyntheticProgram, scale: BenchScale) -> ProfileResult:
    """Offline-profile ``program`` over ``scale``'s profiling window and
    tag its image, then announce it on the ambient bus: profiling emits
    nothing else and takes seconds per program, so the
    ``profile.progress`` event keeps worker heartbeats alive."""
    result = profile_and_apply(
        program, n_instructions=scale.profile_instructions, window=scale.profile_window
    )
    bus = _AMBIENT_BUS
    if bus is not None and bus.wants(TOPIC_PROFILE_PROGRESS):
        bus.emit(
            TOPIC_PROFILE_PROGRESS,
            program=program.name,
            instructions=scale.profile_instructions,
        )
    return result


def _make_dispatch(name: str | None, scale: BenchScale, machine: MachineConfig) -> DispatchPolicy | None:
    if name in (None, "none"):
        return None
    if name == "opt1":
        return DynamicIQAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
        )
    if name == "opt1-linear":
        return DynamicIQAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
            ratio_mode="linear",
        )
    if name == "opt2":
        return L2MissSensitiveAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
            t_cache_miss=scale.t_cache_miss,
        )
    raise KeyError(f"unknown dispatch policy {name!r} (none/opt1/opt2)")


def _memo_key(mix_name: str, scale: BenchScale, params: dict) -> tuple:
    """The ``_RESULTS`` cache key for one ``run_sim`` configuration.

    Every behaviour-affecting kwarg participates (sorted by name, so two
    configurations can only collide by being equal), and an unhashable
    value fails here with a clear message instead of a bare
    ``TypeError`` deep inside the cache-dict lookup.
    """
    key = (mix_name, scale, tuple(sorted(params.items())))
    try:
        hash(key)
    except TypeError as exc:
        def _hashable(v) -> bool:
            try:
                hash(v)
            except TypeError:
                return False
            return True

        bad = sorted(k for k, v in params.items() if not _hashable(v))
        raise TypeError(
            f"run_sim() configuration is not hashable and cannot be memoized: "
            f"offending kwarg(s) {bad or ['scale']}; pass hashable values or "
            f"use_cache=False"
        ) from exc
    return key


def build_pipeline(
    programs: list[SyntheticProgram],
    scale: BenchScale,
    *,
    fetch_policy: str = "icount",
    scheduler: str = "oldest",
    dispatch: str | None = None,
    dvm_target: float | None = None,
    dvm_static_ratio: float | None = None,
    collect_hist: bool = False,
    iq_size: int = MachineConfig.iq_size,
    dvm_structure: Structure = Structure.IQ,
) -> SMTPipeline:
    """The one way a run request becomes a pipeline.

    ``programs`` run on the Table 2 machine at ``scale``'s windows under
    the named policies, on the ambient bus (a private bus outside pool
    workers).  Callers attach their recorder, observer or profiler to
    the pipeline before ``run()``.  ``iq_size`` and ``dvm_structure``
    serve the extensions beyond the paper's machine (IQ size
    sensitivity, DVM on the ROB); ``run_sim`` leaves them at the paper's.
    """
    machine = MachineConfig(num_threads=len(programs), iq_size=iq_size)
    sim = scale.sim_config(collect_hist=collect_hist)
    dvm = None
    if dvm_target is not None:
        dvm = DVMController(
            dvm_target, config=sim.reliability, static_ratio=dvm_static_ratio
        )
    return SMTPipeline(
        programs,
        machine=machine,
        sim=sim,
        fetch_policy=fetch_policy,
        scheduler=scheduler,
        dispatch_policy=_make_dispatch(dispatch, scale, machine),
        dvm=dvm,
        dvm_structure=dvm_structure,
        bus=_AMBIENT_BUS,
    )


def run_sim(
    mix_name: str,
    scale: BenchScale,
    *,
    fetch_policy: str = "icount",
    scheduler: str = "oldest",
    dispatch: str | None = None,
    dvm_target: float | None = None,
    dvm_static_ratio: float | None = None,
    profiled: bool = True,
    collect_hist: bool = False,
    use_cache: bool = True,
) -> SimulationResult:
    """Run (or fetch from cache) one simulation data point."""
    # locals() at function entry is exactly the parameter set, so a
    # future behaviour-affecting kwarg joins the memo key automatically.
    args = locals()
    params = {
        name: value
        for name, value in args.items()
        if name not in ("mix_name", "scale", "use_cache")
    }
    key = _memo_key(mix_name, scale, params) if use_cache else None
    if key is not None and key in _RESULTS:
        return _RESULTS[key]
    result = build_pipeline(
        get_programs(mix_name, scale, profiled),
        scale,
        fetch_policy=fetch_policy,
        scheduler=scheduler,
        dispatch=dispatch,
        dvm_target=dvm_target,
        dvm_static_ratio=dvm_static_ratio,
        collect_hist=collect_hist,
    ).run()
    if key is not None:
        # Deliberate per-process memo: a worker re-running an identical
        # point hits its own cache; results return to the parent via the
        # pool, never via this dict.
        _RESULTS[key] = result
    return result


class UsageError(ValueError):
    """A request the simulator cannot honour as asked; the CLIs report
    it and exit 2, like an argparse error."""


class WindowTooShort(UsageError):
    """A run whose cycle budget cannot hold what it asks for."""


class DVMTargetOutOfRange(UsageError):
    """A ``--dvm`` fraction whose absolute target is not an AVF in (0, 1]."""


def dvm_target(
    mix_name: str,
    scale: BenchScale,
    fraction: float | None,
    fetch_policy: str = "icount",
) -> float | None:
    """The absolute DVM target that ``--dvm FRACTION`` asks for.

    That is ``fraction`` times the highest online IQ AVF estimate of the
    no-DVM baseline run (same mix, scale and fetch policy), in the units
    the controller measures; None when ``fraction`` is None.  The
    baseline needs a closed interval after the warm-up to have an
    estimate at all, and the product must be an AVF in (0, 1]; a
    fraction above ``1 / max_online_estimate``, or a baseline whose
    estimate is 0, raises :class:`DVMTargetOutOfRange`.
    """
    if fraction is None:
        return None
    interval = scale.interval_cycles
    if scale.max_cycles // interval <= scale.warmup_cycles // interval:
        raise WindowTooShort(
            f"--cycles {scale.max_cycles} leaves no closed {interval}-cycle "
            f"interval after the {scale.warmup_cycles}-cycle warm-up, so "
            f"--dvm has no baseline AVF estimate to scale"
        )
    base = run_sim(mix_name, scale, fetch_policy=fetch_policy)
    peak = base.max_online_estimate
    target = fraction * peak
    if not 0.0 < target <= 1.0:
        raise DVMTargetOutOfRange(
            f"--dvm {fraction:g} times the baseline's maximum online IQ AVF "
            f"estimate {peak:.4g} is {target:.4g}, not an AVF in (0, 1]"
        )
    return target


def single_thread_ipc(
    benchmark: str,
    scale: BenchScale,
    program_seed: int | None = None,
    fetch_policy: str = "icount",
) -> float:
    """IPC of one benchmark running alone (for harmonic IPC).

    ``program_seed`` should match the seed the benchmark got inside its
    mix (``WorkloadMix.instances``) so the single-thread baseline runs
    the identical program instance, taken unprofiled from the program
    memo.
    """
    if program_seed is None:
        program_seed = scale.seed * 1000
    key = (benchmark, program_seed, scale, fetch_policy)
    if key not in _SINGLE_IPC:
        program = get_program(benchmark, program_seed, scale, profiled=False)
        pipe = build_pipeline([program], scale, fetch_policy=fetch_policy)
        _SINGLE_IPC[key] = max(pipe.run().ipc, 1e-6)
    return _SINGLE_IPC[key]


def mix_harmonic_ipc(mix_name: str, scale: BenchScale, result: SimulationResult,
                     fetch_policy: str = "icount") -> float:
    """Harmonic IPC of one mix result against single-thread baselines."""
    from repro.metrics.stats import harmonic_ipc

    singles = [
        single_thread_ipc(b, scale, program_seed=program_seed, fetch_policy=fetch_policy)
        for b, program_seed in get_mix(mix_name).instances(scale.seed)
    ]
    return harmonic_ipc(result.per_thread_ipc, singles)
