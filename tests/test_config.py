"""Configuration defaults (Table 2) and validation."""

import dataclasses

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    ReliabilityConfig,
    SimulationConfig,
    TLBConfig,
)


class TestTable2Defaults:
    """The default machine must be the paper's Table 2 machine."""

    def setup_method(self):
        self.m = MachineConfig()

    def test_widths(self):
        assert self.m.fetch_width == 8
        assert self.m.issue_width == 8
        assert self.m.commit_width == 8

    def test_issue_queue(self):
        assert self.m.iq_size == 96

    def test_rob_per_thread(self):
        assert self.m.rob_size_per_thread == 96

    def test_lsq_per_thread(self):
        assert self.m.lsq_size_per_thread == 48

    def test_function_units(self):
        assert self.m.int_alu == 8
        assert self.m.int_mult_div == 4
        assert self.m.load_store_units == 4
        assert self.m.fp_alu == 8
        assert self.m.fp_mult_div_sqrt == 4

    def test_l1_instruction_cache(self):
        assert self.m.l1i.size == 32 * 1024
        assert self.m.l1i.assoc == 2
        assert self.m.l1i.line_size == 32
        assert self.m.l1i.latency == 1

    def test_l1_data_cache(self):
        assert self.m.l1d.size == 64 * 1024
        assert self.m.l1d.assoc == 4
        assert self.m.l1d.line_size == 64

    def test_l2_cache(self):
        assert self.m.l2.size == 2 * 1024 * 1024
        assert self.m.l2.assoc == 4
        assert self.m.l2.line_size == 128
        assert self.m.l2.latency == 12

    def test_memory_latency(self):
        assert self.m.memory_latency == 200

    def test_tlbs(self):
        assert self.m.itlb.entries == 128
        assert self.m.dtlb.entries == 256
        assert self.m.itlb.miss_latency == 200
        assert self.m.dtlb.miss_latency == 200

    def test_branch_predictor(self):
        bp = self.m.branch_predictor
        assert bp.pht_entries == 2048
        assert bp.history_bits == 10
        assert bp.btb_entries == 2048
        assert bp.btb_assoc == 4
        assert bp.ras_entries == 32

    def test_validates(self):
        self.m.validate()


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig(size=64 * 1024, assoc=4, line_size=64, latency=1)
        assert c.num_lines == 1024
        assert c.num_sets == 256

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, assoc=4, line_size=64, latency=1).validate()

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size=3 * 64 * 4, assoc=4, line_size=64, latency=1).validate()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CacheConfig(size=-1, assoc=4, line_size=64, latency=1).validate()


class TestTLBConfig:
    def test_valid(self):
        TLBConfig(entries=128, assoc=4, miss_latency=200).validate()

    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=100, assoc=3, miss_latency=200).validate()

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0, assoc=1, miss_latency=200).validate()


class TestBranchPredictorConfig:
    def test_rejects_non_pow2_pht(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(pht_entries=1000).validate()

    def test_rejects_btb_mismatch(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(btb_entries=100, btb_assoc=3).validate()


class TestMachineValidation:
    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            MachineConfig(num_threads=0).validate()

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            MachineConfig(issue_width=0).validate()

    def test_rejects_zero_iq(self):
        with pytest.raises(ValueError):
            MachineConfig(iq_size=0).validate()

    def test_replace_returns_copy(self):
        m = MachineConfig()
        m2 = m.replace(num_threads=2)
        assert m2.num_threads == 2
        assert m.num_threads == 4
        assert m2 is not m


class TestReliabilityConfig:
    def test_paper_defaults(self):
        r = ReliabilityConfig()
        assert r.interval_cycles == 10_000
        assert r.ace_window == 40_000
        assert r.t_cache_miss == 16
        assert r.dvm_trigger_fraction == 0.9
        assert r.dvm_samples_per_interval == 5
        assert r.dvm_ratio_period == 50
        assert r.num_ipc_regions == 4
        r.validate()

    def test_rejects_bad_trigger_fraction(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(dvm_trigger_fraction=1.5).validate()

    def test_rejects_bad_ratio_bounds(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(wq_ratio_min=10.0, wq_ratio_initial=1.0).validate()

    def test_rejects_zero_interval(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(interval_cycles=0).validate()

    def test_rejects_zero_regions(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(num_ipc_regions=0).validate()


class TestSimulationConfig:
    def test_defaults_validate(self):
        SimulationConfig().validate()

    def test_rejects_warmup_beyond_run(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_cycles=100, warmup_cycles=100).validate()
