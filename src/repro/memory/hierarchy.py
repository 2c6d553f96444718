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

from collections.abc import Sequence
from dataclasses import dataclass

from repro.config import MachineConfig
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import TLB

_THREAD_SHIFT = 44
_THREAD_XOR = 0x3740

#: Kinds of a reference handed to :meth:`MemoryHierarchy.replay`, in
#: its low two bits: bit 0 marks data, bit 1 a write.
REF_FETCH = 0
REF_LOAD = 1
REF_STORE = 3


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
        return (addr ^ (thread * _THREAD_XOR)) | (thread << _THREAD_SHIFT)

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

    def replay(self, refs: Sequence[int], thread: int) -> None:
        """Apply thread ``thread``'s references in order, leaving every
        tag array, statistic and L2 miss counter as the equivalent
        :meth:`access_instr` / :meth:`access_data` calls would.

        Each reference is ``addr << 2 | kind`` (``REF_FETCH``,
        ``REF_LOAD`` or ``REF_STORE``).  The functional warm-up calls
        this with its buffered references.  One loop updates the five
        LRU tag arrays in place, and the counts are added once at the
        end; the per-access path makes four nested calls per reference
        and returns a latency the warm-up never reads.
        """
        tx = thread * _THREAD_XOR  # thread_addr, applied per reference
        th = thread << _THREAD_SHIFT
        it_sets, it_mask, it_ls, it_ts, it_assoc = self.itlb.array.geometry()
        dt_sets, dt_mask, dt_ls, dt_ts, dt_assoc = self.dtlb.array.geometry()
        i_sets, i_mask, i_ls, i_ts, i_assoc = self.l1i.geometry()
        d_sets, d_mask, d_ls, d_ts, d_assoc = self.l1d.geometry()
        l2_sets, l2_mask, l2_ls, l2_ts, l2_assoc = self.l2.geometry()
        n_data = n_writes = 0
        it_miss = it_ev = dt_miss = dt_ev = 0
        i_miss = i_ev = d_miss = d_ev = 0
        l2_acc = l2_writes = l2_miss = l2_data_miss = l2_ev = 0
        for ref in refs:
            a = ((ref >> 2) ^ tx) | th
            if ref & 1:
                n_data += 1
                line = a >> dt_ls
                way = dt_sets[line & dt_mask]
                tag = line >> dt_ts
                if tag in way:
                    if way[0] != tag:
                        way.remove(tag)
                        way.insert(0, tag)
                else:
                    dt_miss += 1
                    way.insert(0, tag)
                    if len(way) > dt_assoc:
                        way.pop()
                        dt_ev += 1
                write = ref & 2
                if write:
                    n_writes += 1
                line = a >> d_ls
                way = d_sets[line & d_mask]
                tag = line >> d_ts
                if tag in way:
                    if way[0] != tag:
                        way.remove(tag)
                        way.insert(0, tag)
                    continue
                d_miss += 1
                way.insert(0, tag)
                if len(way) > d_assoc:
                    way.pop()
                    d_ev += 1
                if write:
                    l2_writes += 1
            else:
                line = a >> it_ls
                way = it_sets[line & it_mask]
                tag = line >> it_ts
                if tag in way:
                    if way[0] != tag:
                        way.remove(tag)
                        way.insert(0, tag)
                else:
                    it_miss += 1
                    way.insert(0, tag)
                    if len(way) > it_assoc:
                        way.pop()
                        it_ev += 1
                line = a >> i_ls
                way = i_sets[line & i_mask]
                tag = line >> i_ts
                if tag in way:
                    if way[0] != tag:
                        way.remove(tag)
                        way.insert(0, tag)
                    continue
                i_miss += 1
                way.insert(0, tag)
                if len(way) > i_assoc:
                    way.pop()
                    i_ev += 1
            # An L1 miss: the L2.
            l2_acc += 1
            line = a >> l2_ls
            way = l2_sets[line & l2_mask]
            tag = line >> l2_ts
            if tag in way:
                if way[0] != tag:
                    way.remove(tag)
                    way.insert(0, tag)
                continue
            l2_miss += 1
            l2_data_miss += ref & 1
            way.insert(0, tag)
            if len(way) > l2_assoc:
                way.pop()
                l2_ev += 1
        n_fetch = len(refs) - n_data
        self.itlb.stats.add(n_fetch, it_miss, it_ev)
        self.dtlb.stats.add(n_data, dt_miss, dt_ev)
        self.l1i.stats.add(n_fetch, i_miss, i_ev)
        self.l1d.stats.add(n_data, d_miss, d_ev, n_writes)
        self.l2.stats.add(l2_acc, l2_miss, l2_ev, l2_writes)
        self.l2_miss_count += l2_miss
        self.l2_data_miss_count += l2_data_miss

    def reset_stats(self) -> None:
        for stats in (
            self.l1i.stats, self.l1d.stats, self.l2.stats, self.itlb.stats, self.dtlb.stats
        ):
            stats.reset()
        self.l2_miss_count = 0
        self.l2_data_miss_count = 0
