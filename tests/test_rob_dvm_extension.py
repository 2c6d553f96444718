"""ROB-targeted DVM — the paper's suggested generalization.

The conclusion of the paper: "In this paper we focus on the IQ, however
we believe our technique could be extended to other microarchitecture
structures."  This extension points the DVM trigger at an online
predicted-ACE-bit counter over the reorder buffers instead of the IQ.
"""

import pytest

from repro.config import ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.reliability.avf import Structure
from repro.reliability.dvm import DVMController
from repro.workloads import get_mix
from tests.stage_reference import pred_bits


def sim(cycles=6_000):
    rel = ReliabilityConfig(interval_cycles=1_000, ace_window=2_000)
    return SimulationConfig(
        max_cycles=cycles, warmup_cycles=1_000, seed=3,
        bp_warmup_instructions=10_000, reliability=rel,
    )


@pytest.fixture(scope="module")
def mem_base():
    return SMTPipeline(get_mix("MEM-A").programs(seed=3), sim=sim()).run()


class TestRobCounter:
    def test_counter_never_negative(self):
        pipe = SMTPipeline(get_mix("MIX-A").programs(seed=3), sim=sim(cycles=2_500))
        bad = []
        orig = pipe._tick_stats

        def checked():
            if pipe.rob_pred_ace_bits < 0:
                bad.append(pipe.cycle)
            orig()

        pipe._tick_stats = checked
        pipe.run()
        assert bad == []

    def test_counter_zero_when_robs_empty(self):
        pipe = SMTPipeline(get_mix("CPU-A").programs(seed=3), sim=sim(cycles=1_200))
        pipe.run()
        resident = sum(len(r) for r in pipe.robs)
        expected_zero = resident == 0
        if expected_zero:
            assert pipe.rob_pred_ace_bits == 0

    def test_counter_consistent_with_occupancy(self):
        """The running counter must equal the recomputed sum at any
        sampled cycle."""
        pipe = SMTPipeline(get_mix("MEM-A").programs(seed=3), sim=sim(cycles=2_000))
        mismatches = []
        orig = pipe._tick_stats

        def checked():
            if pipe.cycle % 250 == 0:
                actual = sum(
                    pred_bits(pipe.avf.rob_pred_bits, i)
                    for rob in pipe.robs
                    for i in rob.entries
                )
                if actual != pipe.rob_pred_ace_bits:
                    mismatches.append((pipe.cycle, actual, pipe.rob_pred_ace_bits))
            orig()

        pipe._tick_stats = checked
        pipe.run()
        assert mismatches == []


class TestResultSurface:
    def test_rob_interval_avf_present(self, mem_base):
        assert len(mem_base.rob_interval_avf) > 0
        assert all(0.0 <= a <= 1.0 for a in mem_base.rob_interval_avf)

    def test_rob_summary_stats(self, mem_base):
        assert 0.0 < mem_base.rob_avf <= 1.0
        assert mem_base.max_rob_avf >= mem_base.rob_avf
        assert mem_base.max_online_rob_estimate > 0

    def test_pve_rob_monotone(self, mem_base):
        hi = mem_base.pve_rob(0.9 * mem_base.max_rob_avf)
        lo = mem_base.pve_rob(0.1 * mem_base.max_rob_avf)
        assert lo >= hi


class TestRobGovernance:
    def test_rejects_unsupported_structure(self):
        with pytest.raises(ValueError):
            SMTPipeline(
                get_mix("CPU-A").programs(seed=3), sim=sim(cycles=1_000),
                dvm=DVMController(0.1), dvm_structure=Structure.RF,
            )

    def test_rob_dvm_reduces_rob_avf(self, mem_base):
        target = 0.5 * mem_base.max_online_rob_estimate
        dvm = DVMController(max(target, 1e-4), config=sim().reliability)
        governed = SMTPipeline(
            get_mix("MEM-A").programs(seed=3), sim=sim(),
            dvm=dvm, dvm_structure=Structure.ROB,
        ).run()
        assert governed.rob_avf <= mem_base.rob_avf
        assert dvm.stats.samples > 0

    def test_rob_dvm_cuts_rob_pve(self, mem_base):
        target = 0.6 * mem_base.max_rob_avf
        online = 0.6 * mem_base.max_online_rob_estimate
        dvm = DVMController(max(online, 1e-4), config=sim().reliability)
        governed = SMTPipeline(
            get_mix("MEM-A").programs(seed=3), sim=sim(),
            dvm=dvm, dvm_structure=Structure.ROB,
        ).run()
        assert governed.pve_rob(target) <= mem_base.pve_rob(target)
