"""SMT pipeline integration: correctness invariants on short runs."""

import pytest

from repro.config import MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.isa.generator import generate_program
from repro.isa.instruction import DynState
from repro.reliability.dvm import DVMController
from repro.reliability.resource_alloc import DynamicIQAllocation
from repro.telemetry.topics import TOPIC_COMMIT
from repro.workloads import get_mix


def short_sim(cycles=3_000, warmup=500, **rel):
    rel_cfg = ReliabilityConfig(
        interval_cycles=500, ace_window=1_000,
        **rel,
    )
    return SimulationConfig(
        max_cycles=cycles, warmup_cycles=warmup, seed=3,
        bp_warmup_instructions=5_000, reliability=rel_cfg,
    )


@pytest.fixture(scope="module")
def cpu_result():
    programs = get_mix("CPU-A").programs(seed=3)
    return SMTPipeline(programs, sim=short_sim()).run()


class TestBasicExecution:
    def test_commits_instructions(self, cpu_result):
        assert cpu_result.committed > 1_000

    def test_every_thread_progresses(self, cpu_result):
        assert all(c > 0 for c in cpu_result.per_thread_committed)

    def test_ipc_positive_and_bounded(self, cpu_result):
        assert 0 < cpu_result.ipc <= 8.0  # commit width bound

    def test_avf_in_unit_interval(self, cpu_result):
        assert 0.0 <= cpu_result.iq_avf <= 1.0
        for s, v in cpu_result.overall_avf.items():
            assert 0.0 <= v <= 1.0, s

    def test_interval_records_cover_run(self, cpu_result):
        assert len(cpu_result.intervals) == 3_000 // 500

    def test_bp_accuracy_sane(self, cpu_result):
        assert 0.5 < cpu_result.bp_accuracy <= 1.0

    def test_ace_fraction_sane(self, cpu_result):
        assert 0.3 < cpu_result.ace_fraction < 0.95


class TestDeterminism:
    def test_same_seed_identical_results(self):
        programs1 = get_mix("MEM-A").programs(seed=5)
        programs2 = get_mix("MEM-A").programs(seed=5)
        r1 = SMTPipeline(programs1, sim=short_sim(cycles=1_500)).run()
        r2 = SMTPipeline(programs2, sim=short_sim(cycles=1_500)).run()
        assert r1.committed == r2.committed
        assert r1.per_thread_committed == r2.per_thread_committed
        assert r1.iq_avf == r2.iq_avf
        assert r1.squashed == r2.squashed

    def test_different_seed_differs(self):
        r1 = SMTPipeline(get_mix("MEM-A").programs(seed=5), sim=short_sim(cycles=1_500)).run()
        sim2 = short_sim(cycles=1_500)
        sim2.seed = 4
        r2 = SMTPipeline(get_mix("MEM-A").programs(seed=5), sim=sim2).run()
        assert r1.committed != r2.committed


class TestStructuralInvariants:
    def test_iq_capacity_never_exceeded(self):
        programs = get_mix("CPU-A").programs(seed=3)
        pipe = SMTPipeline(programs, sim=short_sim(cycles=1_200))
        orig = pipe._tick_stats
        violations = []

        def checked():
            if len(pipe.iq) > pipe.machine.iq_size:
                violations.append(pipe.cycle)
            for t in range(pipe.num_threads):
                if len(pipe.robs[t]) > pipe.machine.rob_size_per_thread:
                    violations.append(("rob", pipe.cycle))
                if len(pipe.lsqs[t]) > pipe.machine.lsq_size_per_thread:
                    violations.append(("lsq", pipe.cycle))
            orig()

        pipe._tick_stats = checked
        pipe.run()
        assert violations == []

    def test_outstanding_counters_never_negative(self):
        programs = get_mix("MEM-A").programs(seed=3)
        pipe = SMTPipeline(programs, sim=short_sim(cycles=1_500))
        orig = pipe._tick_stats
        bad = []

        def checked():
            if any(v < 0 for v in pipe._outstanding_l2):
                bad.append(("l2", pipe.cycle))
            if any(v < 0 for v in pipe._outstanding_l1d):
                bad.append(("l1d", pipe.cycle))
            orig()

        pipe._tick_stats = checked
        pipe.run()
        assert bad == []

    def test_committed_plus_squashed_le_fetched(self):
        programs = get_mix("MIX-A").programs(seed=3)
        pipe = SMTPipeline(programs, sim=short_sim(cycles=1_500))
        res = pipe.run()
        fetched = pipe._next_tag - 1
        assert res.committed + res.squashed <= fetched

    def test_rob_heads_commit_in_tag_order(self):
        programs = get_mix("CPU-A").programs(seed=3)
        pipe = SMTPipeline(programs, sim=short_sim(cycles=1_200))
        last_tag = [0] * pipe.num_threads
        bad = []

        def checked(event):
            dyn = event["inst"]
            if dyn.tag <= last_tag[dyn.thread]:
                bad.append(dyn.tag)
            last_tag[dyn.thread] = dyn.tag

        with pipe.bus.subscribe(TOPIC_COMMIT, checked):
            pipe.run()
        assert bad == []
        assert all(last_tag)

    def test_max_instructions_stops_early(self):
        programs = get_mix("CPU-A").programs(seed=3)
        sim = short_sim(cycles=50_000)
        sim.max_instructions = 2_000
        res = SMTPipeline(programs, sim=sim).run()
        assert res.committed >= 2_000
        assert res.cycles < 50_000


class TestSchedulersAndPolicies:
    def test_visa_runs_and_commits(self):
        programs = get_mix("CPU-A").programs(seed=3)
        res = SMTPipeline(programs, sim=short_sim(cycles=1_500), scheduler="visa").run()
        assert res.committed > 500

    @pytest.mark.parametrize("policy", ["icount", "stall", "flush", "dg", "pdg", "rr"])
    def test_all_fetch_policies_run(self, policy):
        programs = get_mix("MEM-A").programs(seed=3)
        res = SMTPipeline(
            programs, sim=short_sim(cycles=1_200), fetch_policy=policy
        ).run()
        assert res.committed > 100

    def test_flush_policy_actually_flushes(self):
        programs = get_mix("MEM-A").programs(seed=3)
        res = SMTPipeline(
            programs, sim=short_sim(cycles=2_500), fetch_policy="flush"
        ).run()
        assert res.flushes > 0

    def test_dispatch_cap_respected(self):
        programs = get_mix("CPU-A").programs(seed=3)
        pipe = SMTPipeline(
            programs, sim=short_sim(cycles=1_500),
            dispatch_policy=DynamicIQAllocation(96, min_limit=16),
        )
        orig = pipe._tick_stats
        over = []

        def checked():
            # Dispatch may never push occupancy above the current cap
            # by more than the decode width in the same cycle.
            if len(pipe.iq) > pipe.dispatch_policy.iq_limit + pipe.machine.decode_width:
                over.append(pipe.cycle)
            orig()

        pipe._tick_stats = checked
        pipe.run()
        assert over == []

    def test_single_thread_run(self):
        program = generate_program("gcc", seed=3)
        res = SMTPipeline([program], sim=short_sim(cycles=1_500)).run()
        assert res.committed > 300

    def test_two_thread_run(self):
        programs = [generate_program("gcc", seed=3), generate_program("mcf", seed=4)]
        res = SMTPipeline(programs, sim=short_sim(cycles=1_500)).run()
        assert len(res.per_thread_committed) == 2


class TestDVMIntegration:
    def test_dvm_run_completes(self):
        programs = get_mix("MEM-A").programs(seed=3)
        dvm = DVMController(0.1, config=short_sim().reliability)
        res = SMTPipeline(programs, sim=short_sim(cycles=2_000), dvm=dvm).run()
        assert res.committed > 100
        assert dvm.stats.samples > 0
        assert res.dvm_mean_ratio is not None

    def test_dvm_reduces_interval_avf_vs_baseline(self):
        programs = get_mix("MEM-A").programs(seed=3)
        base = SMTPipeline(programs, sim=short_sim(cycles=2_500)).run()
        target = 0.5 * base.max_online_estimate
        dvm = DVMController(max(target, 1e-3), config=short_sim().reliability)
        controlled = SMTPipeline(programs, sim=short_sim(cycles=2_500), dvm=dvm).run()
        assert controlled.iq_avf <= base.iq_avf


class TestResultProperties:
    def test_warm_cycles(self, cpu_result):
        assert cpu_result.warm_cycles == cpu_result.cycles - cpu_result.warmup_cycles

    def test_pve_monotone_in_target(self, cpu_result):
        # Tighter targets can only increase the emergency fraction.
        targets = [0.9, 0.5, 0.1, 0.01]
        pves = [cpu_result.pve(t * max(cpu_result.max_iq_avf, 1e-9)) for t in targets]
        assert pves == sorted(pves)

    def test_max_avf_bounds_intervals(self, cpu_result):
        assert all(a <= cpu_result.max_iq_avf + 1e-12 for a in cpu_result.warm_iq_interval_avf)

    def test_per_thread_ipc_sums_to_ipc(self, cpu_result):
        assert sum(cpu_result.per_thread_ipc) == pytest.approx(cpu_result.ipc)
