"""TLBs and the composed memory hierarchy."""

import pytest

from repro.config import MachineConfig, TLBConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB


class TestTLB:
    def test_miss_then_hit(self):
        t = TLB(TLBConfig(entries=16, assoc=4, miss_latency=200))
        assert t.access(0x1000) == 200
        assert t.access(0x1000) == 0

    def test_same_page_hits(self):
        t = TLB(TLBConfig(entries=16, assoc=4, miss_latency=200))
        t.access(0x1000)
        assert t.access(0x1FFF) == 0  # same 4KB page

    def test_different_page_misses(self):
        t = TLB(TLBConfig(entries=16, assoc=4, miss_latency=200))
        t.access(0x1000)
        assert t.access(0x2000) == 200

    def test_capacity_eviction(self):
        t = TLB(TLBConfig(entries=4, assoc=1, miss_latency=100))
        pages = [i * 4096 * 4 for i in range(8)]  # conflict in set 0... spread
        for p in pages:
            t.access(p)
        # at most 4 entries can be resident
        hits = sum(1 for p in pages if t.access(p) == 0)
        assert hits <= 4

    def test_invalidate(self):
        t = TLB(TLBConfig(entries=16, assoc=4, miss_latency=200))
        t.access(0x1000)
        t.invalidate_all()
        assert t.access(0x1000) == 200


class TestHierarchyTiming:
    def setup_method(self):
        self.mem = MemoryHierarchy(MachineConfig())

    def test_l1d_hit_latency(self):
        self.mem.access_data(0x1000, 0)  # warm everything
        res = self.mem.access_data(0x1000, 0)
        assert res.latency == self.mem.machine.l1d.latency
        assert not res.l1_miss and not res.l2_miss

    def test_cold_miss_goes_to_memory(self):
        res = self.mem.access_data(0x5000, 0)
        assert res.l1_miss and res.l2_miss and res.tlb_miss
        expected = (
            self.mem.machine.l1d.latency
            + self.mem.machine.l2.latency
            + self.mem.machine.memory_latency
            + self.mem.machine.dtlb.miss_latency
        )
        assert res.latency == expected

    def test_l2_hit_after_l1_eviction(self):
        # Touch a line, thrash L1 set, line should still be in L2.
        m = self.mem.machine
        target = 0x0
        self.mem.access_data(target, 0)
        sets = m.l1d.num_sets
        for i in range(1, m.l1d.assoc + 2):
            self.mem.access_data(target + i * sets * m.l1d.line_size, 0)
        res = self.mem.access_data(target, 0)
        assert res.l1_miss and not res.l2_miss

    def test_l2_miss_counter(self):
        before = self.mem.l2_miss_count
        self.mem.access_data(0x9000, 0)
        assert self.mem.l2_miss_count == before + 1
        self.mem.access_data(0x9000, 0)
        assert self.mem.l2_miss_count == before + 1

    def test_instruction_path_separate_from_data(self):
        self.mem.access_instr(0x4000, 0)
        res = self.mem.access_data(0x4000, 0)
        assert res.l1_miss  # L1I fill does not populate L1D

    def test_instruction_second_access_hits(self):
        self.mem.access_instr(0x4000, 0)
        res = self.mem.access_instr(0x4000, 0)
        assert res.latency == self.mem.machine.l1i.latency

    def test_unified_l2_shared_by_instr_and_data(self):
        self.mem.access_instr(0x4000, 0)
        res = self.mem.access_data(0x4000, 0)
        assert not res.l2_miss  # the I-fetch already filled L2

    def test_reset_stats(self):
        self.mem.access_data(0x1234, 0)
        self.mem.reset_stats()
        assert self.mem.l2_miss_count == 0
        assert self.mem.l1d.stats.accesses == 0
        assert self.mem.dtlb.stats.accesses == 0


class TestThreadIsolation:
    def setup_method(self):
        self.mem = MemoryHierarchy(MachineConfig())

    def test_same_address_different_threads_dont_share_lines(self):
        self.mem.access_data(0x1000, 0)
        res = self.mem.access_data(0x1000, 1)
        assert res.l1_miss  # different address space

    def test_thread_addr_injective_per_thread(self):
        a0 = MemoryHierarchy.thread_addr(0x1000, 0)
        a1 = MemoryHierarchy.thread_addr(0x1000, 1)
        assert a0 != a1

    def test_thread_addr_perturbs_set_index(self):
        # Identical virtual layouts must not collide on the same L1 sets.
        m = self.mem.machine
        shift = m.l1d.line_size.bit_length() - 1
        mask = m.l1d.num_sets - 1
        set0 = (MemoryHierarchy.thread_addr(0x1000, 0) >> shift) & mask
        set1 = (MemoryHierarchy.thread_addr(0x1000, 1) >> shift) & mask
        assert set0 != set1
