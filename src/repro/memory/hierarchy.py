"""The full memory stack of Table 2.

``MemoryHierarchy`` composes the split L1s, the unified L2, the two
TLBs and a flat DRAM latency.  It is a timing model: an access returns
the total latency and whether it reached DRAM (an "L2 miss" in the
paper's terminology — the event that drives the FLUSH/STALL fetch
policies, Optimization 2 and the DVM trigger).

Per-thread address spaces are disambiguated by tagging bit 44+ with the
hardware thread id, mirroring distinct processes on an SMT core (the
caches are still physically shared, so capacity contention between
threads is modelled faithfully).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import TLB

_THREAD_SHIFT = 44


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one data or instruction access."""

    latency: int
    l1_miss: bool
    l2_miss: bool
    tlb_miss: bool


def _outcomes(
    l1_latency: int, l2_latency: int, memory_latency: int, tlb_miss_latency: int
) -> tuple[tuple[AccessResult, AccessResult], ...]:
    """Every possible result of one access path, indexed by
    ``[level][tlb missed]`` (level 0 = L1 hit, 1 = L2 hit, 2 = DRAM).
    Latencies are fixed per machine and results are frozen, so each
    access returns a shared instance instead of building one."""
    return tuple(
        tuple(
            AccessResult(l1_latency + extra + penalty, level >= 1, level == 2, penalty > 0)
            for penalty in (0, tlb_miss_latency)
        )
        for level, extra in enumerate((0, l2_latency, l2_latency + memory_latency))
    )


class MemoryHierarchy:
    """Shared L1I/L1D + unified L2 + DRAM, with ITLB/DTLB."""

    def __init__(self, machine: MachineConfig):
        machine.validate()
        self.machine = machine
        self.l1i = SetAssocCache(machine.l1i, "L1I")
        self.l1d = SetAssocCache(machine.l1d, "L1D")
        self.l2 = SetAssocCache(machine.l2, "L2")
        self.itlb = TLB(machine.itlb, "ITLB")
        self.dtlb = TLB(machine.dtlb, "DTLB")
        self._instr_outcomes = _outcomes(
            machine.l1i.latency, machine.l2.latency, machine.memory_latency,
            machine.itlb.miss_latency,
        )
        self._data_outcomes = _outcomes(
            machine.l1d.latency, machine.l2.latency, machine.memory_latency,
            machine.dtlb.miss_latency,
        )
        # Running counters the fetch policies / Optimization 2 consume.
        self.l2_miss_count = 0
        self.l2_data_miss_count = 0

    @staticmethod
    def thread_addr(addr: int, thread: int) -> int:
        """Tag an address with its hardware thread id.

        The id is placed both above the tag bits (distinct address
        spaces) and XORed into the low page bits, so identical virtual
        layouts in different threads do not collide on the same cache
        sets (the effect ASLR/physical allocation has on a real SMT)."""
        return (addr ^ (thread * 0x3740)) | (thread << _THREAD_SHIFT)

    def access_instr(self, addr: int, thread: int) -> AccessResult:
        """Instruction fetch access: ITLB + L1I + (L2 + DRAM)."""
        a = self.thread_addr(addr, thread)
        tlb_missed = self.itlb.access(a) > 0
        outcomes = self._instr_outcomes
        if self.l1i.access(a):
            return outcomes[0][tlb_missed]
        if self.l2.access(a):
            return outcomes[1][tlb_missed]
        self.l2_miss_count += 1
        return outcomes[2][tlb_missed]

    def access_data(self, addr: int, thread: int, is_write: bool = False) -> AccessResult:
        """Data access: DTLB + L1D + (L2 + DRAM)."""
        a = self.thread_addr(addr, thread)
        tlb_missed = self.dtlb.access(a) > 0
        outcomes = self._data_outcomes
        if self.l1d.access(a, is_write):
            return outcomes[0][tlb_missed]
        if self.l2.access(a, is_write):
            return outcomes[1][tlb_missed]
        self.l2_miss_count += 1
        self.l2_data_miss_count += 1
        return outcomes[2][tlb_missed]

    def reset_stats(self) -> None:
        for c in (self.l1i, self.l1d, self.l2):
            c.stats.reset()
        self.l2_miss_count = 0
        self.l2_data_miss_count = 0
