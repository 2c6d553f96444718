"""Event-level pipeline tests on hand-crafted micro-programs."""

import pytest

from repro.config import MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.isa.instruction import (
    BranchBehavior,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)
from repro.isa.program import BasicBlock, SyntheticProgram
from repro.telemetry.topics import TOPIC_COMMIT


def tiny_sim(cycles=800, **kw):
    rel = ReliabilityConfig(interval_cycles=200, ace_window=500)
    return SimulationConfig(
        max_cycles=cycles, warmup_cycles=0, seed=1,
        bp_warmup_instructions=kw.pop("bp_warm", 500), reliability=rel,
    )


def straightline_loop(n_alu=6, mem=None, branch_bias=1.0):
    """One block of ALU ops (optionally a load) that jumps to itself."""
    insts = []
    pc = 0x1000
    for i in range(n_alu):
        insts.append(StaticInst(pc=pc, opclass=OpClass.IALU, dest=i % 4, srcs=((i + 1) % 4,)))
        pc += 4
    if mem is not None:
        insts.append(StaticInst(pc=pc, opclass=OpClass.LOAD, dest=5, srcs=(1,), mem=mem))
        pc += 4
    insts.append(StaticInst(pc=pc, opclass=OpClass.JUMP, taken_block=0))
    block = BasicBlock(bid=0, insts=insts)
    prog = SyntheticProgram(name="micro", blocks=[block])
    prog.validate()
    return prog


class TestStraightline:
    def test_simple_loop_commits_steadily(self):
        res = SMTPipeline([straightline_loop()], sim=tiny_sim()).run()
        assert res.committed > 500
        assert res.squashed == 0  # unconditional jumps never mispredict

    def test_jump_never_counts_as_branch(self):
        pipe = SMTPipeline([straightline_loop()], sim=tiny_sim())
        res = pipe.run()
        assert pipe.bp.stats.direction_lookups == 0

    def test_nop_program(self):
        insts = [StaticInst(pc=0x1000 + 4 * i, opclass=OpClass.NOP) for i in range(6)]
        insts.append(StaticInst(pc=0x1020, opclass=OpClass.JUMP, taken_block=0))
        prog = SyntheticProgram(name="nops", blocks=[BasicBlock(bid=0, insts=insts)])
        res = SMTPipeline([prog], sim=tiny_sim(cycles=400)).run()
        assert res.committed > 100
        assert res.ace_fraction < 0.5  # NOPs are un-ACE


class TestMemoryPath:
    def test_hot_loads_hit_after_warm(self):
        mem = MemBehavior(MemPattern.HOT, base=0x10000, footprint=1 << 16, hot_size=2048)
        pipe = SMTPipeline([straightline_loop(mem=mem)], sim=tiny_sim())
        res = pipe.run()
        assert res.l1d_miss_rate < 0.2

    def test_huge_random_loads_miss(self):
        mem = MemBehavior(
            MemPattern.RANDOM, base=0x10000, footprint=1 << 28, page_local_16=0
        )
        pipe = SMTPipeline([straightline_loop(mem=mem)], sim=tiny_sim(bp_warm=0))
        res = pipe.run()
        assert res.l2_misses > 10

    def test_l2_misses_slow_the_thread(self):
        hot = MemBehavior(MemPattern.HOT, base=0x10000, footprint=1 << 16, hot_size=2048)
        cold = MemBehavior(
            MemPattern.RANDOM, base=0x10000, footprint=1 << 28, page_local_16=0
        )
        fast = SMTPipeline([straightline_loop(mem=hot)], sim=tiny_sim()).run()
        slow = SMTPipeline([straightline_loop(mem=cold)], sim=tiny_sim(bp_warm=0)).run()
        assert fast.ipc > slow.ipc


class TestBranchRecovery:
    def _branchy(self, bias, predictability):
        """Block A ends in a conditional branch to itself or block B."""
        a = BasicBlock(bid=0)
        pc = 0x1000
        for i in range(4):
            a.insts.append(StaticInst(pc=pc, opclass=OpClass.IALU, dest=i % 3, srcs=(2,)))
            pc += 4
        a.insts.append(
            StaticInst(
                pc=pc, opclass=OpClass.BRANCH, srcs=(0,),
                branch=BranchBehavior(taken_bias=bias, predictability=predictability),
                taken_block=0, fall_block=1,
            )
        )
        b = BasicBlock(bid=1)
        b.insts.append(StaticInst(pc=pc + 4, opclass=OpClass.JUMP, taken_block=0))
        prog = SyntheticProgram(name="branchy", blocks=[a, b])
        prog.validate()
        return prog

    def test_random_branch_causes_squashes(self):
        prog = self._branchy(bias=0.5, predictability=0.0)
        pipe = SMTPipeline([prog], sim=tiny_sim())
        res = pipe.run()
        assert res.squashed > 0
        assert 0.3 < res.bp_accuracy < 0.9

    def test_deterministic_branch_no_steady_state_squashes(self):
        prog = self._branchy(bias=1.0, predictability=1.0)
        res = SMTPipeline([prog], sim=tiny_sim()).run()
        # After bp warm-up, the always-taken branch never mispredicts.
        assert res.bp_accuracy > 0.99

    def test_commit_stream_matches_architectural_path(self):
        """Despite wrong-path excursions, the committed stream must be
        exactly the correct path (the functional walk)."""
        prog = self._branchy(bias=0.5, predictability=0.0)
        pipe = SMTPipeline([prog], sim=tiny_sim(cycles=600))
        committed_pcs = []
        with pipe.bus.subscribe(TOPIC_COMMIT, lambda ev: committed_pcs.append(ev["inst"].pc)):
            pipe.run()
        assert committed_pcs

        from repro.isa.program import ThreadContext

        ctx = ThreadContext(prog, seed=pipe.sim.seed * 7919)
        # The pipeline fast-forwards bp_warmup_instructions before
        # timing; the committed stream starts there.
        expected = []
        for i in range(pipe.sim.bp_warmup_instructions + len(committed_pcs)):
            st = ctx.peek()
            if i >= pipe.sim.bp_warmup_instructions:
                expected.append(st.pc)
            if st.opclass.is_control:
                t, tg = ctx.resolve_control(st)
                ctx.advance_control(st, t, tg)
            else:
                ctx.advance()
        assert committed_pcs == expected


class TestCommitWidth:
    def test_commit_bandwidth_respected(self):
        programs = [straightline_loop() for _ in range(2)]
        pipe = SMTPipeline(programs, sim=tiny_sim(cycles=400))
        per_cycle = []
        orig = pipe._commit

        def counted():
            before = pipe.total_committed
            orig()
            per_cycle.append(pipe.total_committed - before)

        pipe._commit = counted
        pipe.run()
        assert max(per_cycle) <= pipe.machine.commit_width


class TestMultithreadSharing:
    def test_two_identical_threads_share_fairly(self):
        programs = [straightline_loop(), straightline_loop()]
        res = SMTPipeline(programs, sim=tiny_sim()).run()
        a, b = res.per_thread_committed
        assert abs(a - b) / max(a, b) < 0.2

    def test_thread_count_matches_programs(self):
        programs = [straightline_loop() for _ in range(3)]
        pipe = SMTPipeline(programs, sim=tiny_sim(cycles=200))
        assert pipe.num_threads == 3
        assert pipe.machine.num_threads == 3

    def test_empty_program_list_rejected(self):
        with pytest.raises(ValueError):
            SMTPipeline([], sim=tiny_sim())
