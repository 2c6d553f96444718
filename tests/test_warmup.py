"""The block-stepped functional warm-up and the batched memory replay.

``SMTPipeline._warm_thread`` walks the correct path a basic block at a
time and replays its memory references in chunks through
``MemoryHierarchy.replay``.  Both must leave exactly the state of the
per-instruction reference (``tests/warmup_reference.py``) and of
per-reference ``access_instr``/``access_data`` calls: thread contexts,
every tag array in LRU order, every statistic, the L2 miss counters and
the whole branch predictor.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig, SimulationConfig, TLBConfig
from repro.core.pipeline import SMTPipeline
from repro.isa.instruction import MemBehavior, MemPattern, OpClass, StaticInst
from repro.isa.program import BasicBlock, SyntheticProgram, ThreadContext
from repro.memory.hierarchy import REF_FETCH, REF_LOAD, REF_STORE, MemoryHierarchy
from repro.workloads import MIXES, get_mix

from tests.warmup_reference import functional_warmup, warm_thread


def _mem_state(mem):
    arrays = [mem.l1i, mem.l1d, mem.l2, mem.itlb.array, mem.dtlb.array]
    return (
        [(c.geometry()[0], vars(c.stats)) for c in arrays],
        mem.l2_miss_count,
        mem.l2_data_miss_count,
    )


def _state(pipe):
    bp = {k: v for k, v in vars(pipe.bp).items() if k != "config"}
    contexts = [(c.block, c.index, c.stream_pos, c.call_stack) for c in pipe.contexts]
    return contexts, _mem_state(pipe.mem), bp


def _pipes(programs, n_insts=0):
    sim = SimulationConfig(bp_warmup_instructions=n_insts)
    return SMTPipeline(programs, sim=sim), SMTPipeline(programs, sim=sim)


def _warm_both(programs, n_insts):
    """Warm every thread without the final stats reset, so the
    comparison covers every counter."""
    fast, ref = _pipes(programs)
    for t in range(len(programs)):
        fast._warm_thread(t, n_insts)
        warm_thread(ref, t, n_insts)
    return fast, ref


class TestWarmupEqualsReference:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_table3_mix(self, mix):
        fast, ref = _warm_both(get_mix(mix).programs(seed=7), 30_001)
        assert _state(fast) == _state(ref)
        assert fast.mem.l2.stats.accesses > 0

    @pytest.mark.parametrize("n_insts", [1, 2, 3, 5, 4_099, 9_001])
    def test_lengths(self, n_insts):
        """From one instruction (shorter than any block) past a replay
        chunk; the odd lengths end inside a block."""
        fast, ref = _warm_both(get_mix("MIX-A").programs(seed=3), n_insts)
        assert _state(fast) == _state(ref)
        assert all(c.stream_pos == n_insts for c in fast.contexts)

    def test_lengths_end_mid_block(self):
        fast, _ = _warm_both(get_mix("MIX-A").programs(seed=3), 9_001)
        assert any(c.index > 0 for c in fast.contexts)

    def test_call_depth_overflow(self):
        """A program that only ever calls: the call stack saturates at
        ``MAX_CALL_DEPTH`` and drops its oldest return site."""
        load = MemBehavior(MemPattern.RANDOM, base=0x10_0000, footprint=1 << 20)
        b0 = BasicBlock(bid=0, insts=[
            StaticInst(pc=0x0, opclass=OpClass.LOAD, dest=1, srcs=(2,), mem=load),
            StaticInst(pc=0x4, opclass=OpClass.IALU, dest=2, srcs=(1,)),
            StaticInst(pc=0x8, opclass=OpClass.CALL, taken_block=0, fall_block=1),
        ])
        b1 = BasicBlock(bid=1, insts=[
            StaticInst(pc=0x40, opclass=OpClass.STORE, srcs=(1, 2), mem=load),
            StaticInst(pc=0x44, opclass=OpClass.RET),
        ])
        program = SyntheticProgram(name="recurse", blocks=[b0, b1])
        program.validate()
        fast, ref = _warm_both([program], 1_000)
        assert _state(fast) == _state(ref)
        assert len(fast.contexts[0].call_stack) == ThreadContext.MAX_CALL_DEPTH

    @pytest.mark.parametrize("mix", ["CPU-A", "MEM-C"])
    def test_functional_warmup(self, mix):
        programs = get_mix(mix).programs(seed=7)
        fast, ref = _pipes(programs, 20_000)
        fast._functional_warmup()
        functional_warmup(ref)
        assert _state(fast) == _state(ref)
        # Warm-up translations do not count, like warm-up cache accesses.
        assert fast.mem.itlb.stats.accesses == 0
        assert fast.mem.dtlb.stats.accesses == 0


class TestWalk:
    def test_segments_are_the_single_step_path(self):
        program = get_mix("CPU-B").programs(seed=5)[0]
        stepped = ThreadContext(program, seed=11)
        expected = []
        for _ in range(5_003):
            st_ = stepped.peek()
            expected.append((st_, stepped.stream_pos))
            if st_.opclass.is_control:
                stepped.advance_control(st_, *stepped.resolve_control(st_))
            else:
                stepped.advance()
        walked = ThreadContext(program, seed=11)
        got = []
        for block, start, stop, pos, taken in walked.walk(5_003):
            insts = block.insts
            got.extend((insts[i], pos + i - start) for i in range(start, stop))
            assert (taken is not None) == (
                stop == len(insts) and insts[-1].opclass.is_control
            )
        assert got == expected
        assert walked.checkpoint() == stepped.checkpoint()

    def test_nothing_to_walk(self):
        ctx = ThreadContext(get_mix("CPU-A").programs(seed=1)[0])
        assert list(ctx.walk(0)) == []
        assert ctx.checkpoint() == (ctx.program.entry, 0, 0, ())


def _small_machine():
    """Tiny caches and TLBs, so short reference streams evict."""
    return MachineConfig(
        l1i=CacheConfig(size=512, assoc=2, line_size=32, latency=1),
        l1d=CacheConfig(size=512, assoc=2, line_size=64, latency=1),
        l2=CacheConfig(size=2048, assoc=4, line_size=128, latency=12),
        itlb=TLBConfig(entries=4, assoc=2, miss_latency=200),
        dtlb=TLBConfig(entries=8, assoc=4, miss_latency=200),
    )


_REFS = st.lists(
    st.tuples(
        st.integers(0, 2),  # thread
        st.sampled_from([REF_FETCH, REF_LOAD, REF_STORE]),
        st.integers(0, 1 << 16),  # address
    ),
    max_size=300,
)


class TestReplay:
    @settings(max_examples=60, deadline=None)
    @given(refs=_REFS)
    def test_replay_equals_per_reference_accesses(self, refs):
        """Runs of one thread go through ``replay``; the same references
        one by one through ``access_instr``/``access_data``."""
        machine = _small_machine()
        batched, single = MemoryHierarchy(machine), MemoryHierarchy(machine)
        run: list[int] = []
        for i, (thread, kind, addr) in enumerate(refs):
            if kind == REF_FETCH:
                single.access_instr(addr, thread)
            else:
                single.access_data(addr, thread, kind == REF_STORE)
            run.append(addr << 2 | kind)
            if i + 1 == len(refs) or refs[i + 1][0] != thread:
                batched.replay(run, thread)
                run = []
        assert _mem_state(batched) == _mem_state(single)

    def test_empty_replay_changes_nothing(self):
        mem = MemoryHierarchy(_small_machine())
        before = copy.deepcopy(_mem_state(mem))
        mem.replay([], 1)
        assert _mem_state(mem) == before
