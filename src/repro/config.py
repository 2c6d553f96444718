"""Machine and simulation configuration.

The defaults of :class:`MachineConfig` reproduce Table 2 of the paper
("Simulated Machine Configuration"): an 8-wide SMT processor with a
96-entry shared issue queue, per-thread 96-entry ROBs and 48-entry
load/store queues, a gshare branch predictor with a 2K-entry BTB and a
per-thread 32-entry return address stack, 32KB/64KB split L1 caches, a
unified 2MB L2 and a 200-cycle memory.

:class:`SimulationConfig` bundles the run-length and interval knobs used
by the reliability mechanisms (Section 2.2 and Section 5 of the paper).
The paper's values (10K-cycle intervals, 40K-instruction ACE analysis
window, 400M-instruction runs) are the defaults; ``scaled_for_bench``
returns a proportionally scaled configuration so that the pure-Python
simulator regenerates every figure in minutes rather than weeks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level.

    ``size`` is in bytes; ``line_size`` in bytes; ``assoc`` is the set
    associativity; ``latency`` the hit latency in cycles.
    """

    size: int
    assoc: int
    line_size: int
    latency: int

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    def validate(self) -> None:
        if self.size <= 0 or self.line_size <= 0 or self.assoc <= 0:
            raise ValueError("cache size, line size and associativity must be positive")
        if self.latency < 0:
            raise ValueError("cache latency must be non-negative")
        if self.size % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")
        if self.num_lines % self.assoc:
            raise ValueError("number of lines must be a multiple of the associativity")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")


@dataclass
class TLBConfig:
    """Geometry of a TLB: ``entries`` total, ``assoc``-way, with a fixed
    ``miss_latency`` charged on a miss (Table 2: 200 cycles)."""

    entries: int
    assoc: int
    miss_latency: int
    page_size: int = 4096

    def validate(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ValueError("TLB entries and associativity must be positive")
        if self.entries % self.assoc:
            raise ValueError("TLB entries must be a multiple of the associativity")
        if self.miss_latency <= 0:
            raise ValueError("TLB miss latency must be positive")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a positive power of two")


@dataclass
class BranchPredictorConfig:
    """Gshare predictor per Table 2: 2K-entry PHT, 10-bit global history
    per thread, 2K-entry 4-way BTB, 32-entry RAS per thread."""

    pht_entries: int = 2048
    history_bits: int = 10
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 32

    def validate(self) -> None:
        if self.pht_entries <= 0 or self.pht_entries & (self.pht_entries - 1):
            raise ValueError("PHT entries must be a positive power of two")
        if not (0 < self.history_bits <= 30):
            raise ValueError("history_bits must be in (0, 30]")
        if self.btb_entries <= 0 or self.btb_assoc <= 0:
            raise ValueError("BTB entries and associativity must be positive")
        if self.btb_entries % self.btb_assoc:
            raise ValueError("BTB entries must be a multiple of its associativity")
        if self.ras_entries <= 0:
            raise ValueError("RAS entries must be positive")


@dataclass
class MachineConfig:
    """Table 2 machine configuration for the simulated SMT processor."""

    num_threads: int = 4
    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    iq_size: int = 96
    rob_size_per_thread: int = 96
    lsq_size_per_thread: int = 48
    fetch_queue_size: int = 32  # per-thread fetch/decode buffer

    # Function units (Table 2).
    int_alu: int = 8
    int_mult_div: int = 4
    load_store_units: int = 4
    fp_alu: int = 8
    fp_mult_div_sqrt: int = 4

    # Operation latencies (cycles), M-Sim/SimpleScalar-style defaults.
    lat_int_alu: int = 1
    lat_int_mult: int = 3
    lat_int_div: int = 20
    lat_fp_alu: int = 2
    lat_fp_mult: int = 4
    lat_fp_div: int = 12
    lat_fp_sqrt: int = 24

    branch_predictor: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    branch_mispredict_penalty: int = 6  # front-end refill after squash

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=32 * 1024, assoc=2, line_size=32, latency=1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=64 * 1024, assoc=4, line_size=64, latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size=2 * 1024 * 1024, assoc=4, line_size=128, latency=12
        )
    )
    memory_latency: int = 200

    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(entries=128, assoc=4, miss_latency=200))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(entries=256, assoc=4, miss_latency=200))

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent configurations."""
        if self.num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if min(self.fetch_width, self.decode_width, self.issue_width, self.commit_width) <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.iq_size <= 0 or self.rob_size_per_thread <= 0 or self.lsq_size_per_thread <= 0:
            raise ValueError("queue sizes must be positive")
        if self.fetch_queue_size <= 0:
            raise ValueError("fetch_queue_size must be positive")
        if (
            min(
                self.int_alu,
                self.int_mult_div,
                self.load_store_units,
                self.fp_alu,
                self.fp_mult_div_sqrt,
            )
            <= 0
        ):
            raise ValueError("functional-unit counts must be positive")
        if (
            min(
                self.lat_int_alu,
                self.lat_int_mult,
                self.lat_int_div,
                self.lat_fp_alu,
                self.lat_fp_mult,
                self.lat_fp_div,
                self.lat_fp_sqrt,
            )
            <= 0
        ):
            raise ValueError("operation latencies must be positive")
        if self.branch_mispredict_penalty < 0:
            raise ValueError("branch_mispredict_penalty must be non-negative")
        if self.memory_latency <= 0:
            raise ValueError("memory_latency must be positive")
        for cache in (self.l1i, self.l1d, self.l2):
            cache.validate()
        self.itlb.validate()
        self.dtlb.validate()
        self.branch_predictor.validate()

    def replace(self, **kwargs: Any) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass
class ReliabilityConfig:
    """Knobs of the paper's reliability mechanisms.

    Defaults are the paper's choices: 10K-cycle adaptation interval
    (Section 2.2), ``t_cache_miss = 16`` L2 misses per interval
    (Section 2.2(2)), 40K-instruction post-retirement ACE analysis window
    (Section 2.1, following Mukherjee et al.), a DVM trigger threshold at
    90% of the reliability target, 5 fine-grained AVF samples per
    interval and a waiting/ready ratio recomputed every 50 cycles
    (Section 5.1).
    """

    interval_cycles: int = 10_000
    ace_window: int = 40_000
    t_cache_miss: int = 16
    dvm_trigger_fraction: float = 0.9
    dvm_samples_per_interval: int = 5
    dvm_ratio_period: int = 50
    # wq_ratio adaptation: slow (additive) increase, rapid (multiplicative)
    # decrease — Section 5.1 "adapted through slow increases and rapid
    # decreases in order to ensure a quick response".  Bounds sized for
    # this machine's natural waiting/ready ratios (~3 on CPU mixes, up
    # to ~30-60 on clogged MEM mixes).
    wq_ratio_initial: float = 16.0
    wq_ratio_min: float = 0.5
    wq_ratio_max: float = 64.0
    wq_ratio_increase_step: float = 2.0
    wq_ratio_decrease_factor: float = 0.5
    num_ipc_regions: int = 4

    def validate(self) -> None:
        if self.interval_cycles <= 0 or self.ace_window <= 0:
            raise ValueError("interval_cycles and ace_window must be positive")
        if self.t_cache_miss < 0:
            raise ValueError("t_cache_miss must be non-negative")
        if not (0.0 < self.dvm_trigger_fraction <= 1.0):
            raise ValueError("dvm_trigger_fraction must be in (0, 1]")
        if self.dvm_samples_per_interval <= 0 or self.dvm_ratio_period <= 0:
            raise ValueError("DVM sampling parameters must be positive")
        if not (0.0 < self.wq_ratio_min <= self.wq_ratio_initial <= self.wq_ratio_max):
            raise ValueError("wq_ratio bounds must satisfy min <= initial <= max")
        if self.wq_ratio_increase_step <= 0.0:
            raise ValueError("wq_ratio_increase_step must be positive")
        if not (0.0 < self.wq_ratio_decrease_factor < 1.0):
            raise ValueError("wq_ratio_decrease_factor must be in (0, 1)")
        if self.num_ipc_regions <= 0:
            raise ValueError("num_ipc_regions must be positive")


@dataclass
class SimulationConfig:
    """Run-length and bookkeeping knobs of a simulation."""

    max_cycles: int = 100_000
    max_instructions: int | None = None
    warmup_cycles: int = 0
    #: Functional branch-predictor warm-up: before timing starts, each
    #: thread's committed path is replayed through the predictor for
    #: this many instructions (the fast-forward warming that SimPoint
    #: sampling gives the paper's 400M-instruction runs).
    bp_warmup_instructions: int = 30_000
    seed: int = 42
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    collect_ready_queue_histogram: bool = False

    def validate(self) -> None:
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if self.max_instructions is not None and self.max_instructions <= 0:
            raise ValueError("max_instructions must be positive when set")
        if self.warmup_cycles < 0 or self.warmup_cycles >= self.max_cycles:
            raise ValueError("warmup_cycles must be in [0, max_cycles)")
        if self.bp_warmup_instructions < 0:
            raise ValueError("bp_warmup_instructions must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.reliability.validate()

    @staticmethod
    def scaled_for_bench(
        max_cycles: int = 20_000,
        warmup_cycles: int = 2_000,
        seed: int = 42,
        **reliability_overrides: Any,
    ) -> "SimulationConfig":
        """A configuration scaled so every figure regenerates quickly.

        Interval mechanisms shrink from the paper's 10K cycles to 2K so a
        20K-cycle run still spans ~10 adaptation intervals, matching the
        control-loop dynamics of the paper's 400M-instruction runs.
        """
        rel = ReliabilityConfig(
            interval_cycles=2_000,
            ace_window=4_000,
            dvm_ratio_period=50,
            **reliability_overrides,
        )
        return SimulationConfig(
            max_cycles=max_cycles,
            warmup_cycles=warmup_cycles,
            seed=seed,
            # Long functional fast-forward: CPU-class data footprints
            # must be L2-resident before timing (MEM footprints exceed
            # the L2 and stay miss-bound regardless).
            bp_warmup_instructions=100_000,
            reliability=rel,
        )


DEFAULT_MACHINE = MachineConfig()
