"""Instruction lifetime and the paused cyclic collector.

A committed ``DynInst`` is freed by reference counting once nothing in
flight, the rename map or the ACE analyzer's unswept block holds it:
commit clears its squash-repair link (``prev_producer``), so the rename
map no longer chains back to every earlier writer of a register.  The
run loop runs with the cyclic collector paused (``collector_paused``);
these tests check that this is safe: no instruction is ever cyclic
garbage, the garbage a run does leave does not grow with its length,
and the collector's state is restored whatever happens.  Offline
profiling allocates no per-instruction objects at all; its traced peak
is bounded instead.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.harness.runner import BenchScale, build_pipeline, get_programs
from repro.isa.generator import NUM_FP_REGS, NUM_INT_REGS, generate_program
from repro.isa.instruction import DynInst, collector_paused
from repro.reliability.profiling import profile_program
from repro.telemetry.topics import TOPIC_COMMIT


def _live_dyninsts() -> int:
    return sum(1 for o in gc.get_objects() if type(o) is DynInst)


def _cyclic_garbage(work) -> list[object]:
    """The unreachable cyclic objects left behind by ``work()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture
def collector_state():
    """Restore the collector's enabled state after a test toggles it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestInstructionLifetime:
    def test_live_instructions_bounded_by_the_machine(self):
        # What may still hold a DynInst after a run: the ROB, the fetch
        # queue and the rename map (one producer per architectural
        # register), per thread.  A chain of committed writers through
        # the rename map grows with the run instead.
        counts = {}
        for cycles in (3_000, 12_000):
            scale = BenchScale.from_env(cycles)
            pipe = build_pipeline(get_programs("CPU-A", scale), scale)
            pipe.run()
            gc.collect()
            counts[cycles] = _live_dyninsts()
            m = pipe.machine
            bound = m.num_threads * (
                m.rob_size_per_thread + m.fetch_queue_size + NUM_INT_REGS + NUM_FP_REGS
            )
            del pipe
        assert counts[12_000] <= bound, counts
        assert counts[3_000] <= bound, counts

    def test_profiling_traced_peak_is_bounded(self):
        # The backward pass holds one list slot per instance (0.85 MB at
        # 40K); a DynInst and an ACE record per instance took 4.56 MB.
        program = generate_program("gcc", seed=21)
        tracemalloc.start()
        try:
            profile_program(program, 40_000, 8_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak

    def test_commit_clears_the_squash_repair_link(self):
        scale = BenchScale.from_env(2_000)
        pipe = build_pipeline(get_programs("MIX-A", scale), scale)
        committed: list[DynInst] = []
        with pipe.bus.subscribe(TOPIC_COMMIT, lambda ev: committed.append(ev["inst"])):
            pipe.run()
        assert committed
        assert all(inst.prev_producer is None for inst in committed)


class TestCollectorPaused:
    @pytest.mark.parametrize("kwargs", [
        {"dvm_target": 0.2},
        {"fetch_policy": "flush"},
    ], ids=["dvm", "flush"])
    def test_run_leaves_no_instruction_garbage(self, kwargs):
        def garbage(cycles: int) -> list[object]:
            scale = BenchScale.from_env(cycles)
            programs = get_programs("MEM-A", scale)
            return _cyclic_garbage(lambda: build_pipeline(programs, scale, **kwargs).run())

        garbage(3_000)  # fill the per-process program and warm-state caches
        short, long = garbage(3_000), garbage(6_000)
        for objs in (short, long):
            assert not [o for o in objs if isinstance(o, DynInst)]
        # The pipeline's own object graph, not per-instruction state.
        assert len(short) == len(long)

    def test_profiling_leaves_no_instruction_garbage(self):
        program = generate_program("gcc", seed=21)
        short = _cyclic_garbage(lambda: profile_program(program, 5_000, window=1_000))
        long = _cyclic_garbage(lambda: profile_program(program, 10_000, window=1_000))
        for objs in (short, long):
            assert not [o for o in objs if isinstance(o, DynInst)]
        assert len(short) == len(long)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_collector(self, collector_state, enabled):
        scale = BenchScale.from_env(2_000)
        pipe = build_pipeline(get_programs("CPU-A", scale), scale)
        seen = []
        gc.enable() if enabled else gc.disable()
        with pipe.bus.subscribe(TOPIC_COMMIT, lambda ev: seen.append(gc.isenabled())):
            pipe.run()
        assert gc.isenabled() is enabled
        assert seen and not any(seen)  # paused for the whole loop

    def test_run_restores_the_collector_when_a_stage_raises(self, collector_state):
        scale = BenchScale.from_env(2_000)
        pipe = build_pipeline(get_programs("CPU-A", scale), scale)

        def broken_fetch() -> None:
            raise RuntimeError("fetch failed")

        pipe._fetch = broken_fetch
        gc.enable()
        with pytest.raises(RuntimeError, match="fetch failed"):
            pipe.run()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_helper_restores_the_entry_state(self, collector_state, enabled):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(KeyError):
            with collector_paused():
                assert not gc.isenabled()
                raise KeyError("x")
        assert gc.isenabled() is enabled
