"""Offline PC-based ACE profiling (Section 2.1 / Table 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import BenchScale
from repro.isa.generator import generate_program
from repro.isa.instruction import OP_IS_CONTROL, DynInst, DynState
from repro.isa.personalities import PERSONALITIES
from repro.isa.program import SyntheticProgram, ThreadContext
from repro.reliability.profiling import (
    ProfileResult,
    apply_profile,
    profile_and_apply,
    profile_program,
)
from repro.workloads.mixes import get_mix
from tests.ace_reference import StreamingACEAnalyzer


def streaming_profile(
    program: SyntheticProgram, n_instructions: int, window: int, seed: int = 0
) -> ProfileResult:
    """The oracle for ``profile_program``: the same correct-path walk,
    one ``DynInst`` per committed instance fed through the streaming
    reference analyzer, with each instance counted when the analyzer
    resolves it."""
    result = ProfileResult(program_name=program.name, instructions=n_instructions)

    def on_resolve(dyn: DynInst) -> None:
        pc = dyn.static.pc
        if dyn.ace:
            result.ace_instances[pc] = result.ace_instances.get(pc, 0) + 1
            result.pc_table[pc] = True
        else:
            result.unace_instances[pc] = result.unace_instances.get(pc, 0) + 1
            result.pc_table.setdefault(pc, False)

    analyzer = StreamingACEAnalyzer(1, window, resolve_cb=on_resolve)
    ctx = ThreadContext(program, seed=seed)
    for i in range(n_instructions):
        inst = ctx.peek()
        dyn = DynInst(tag=i, thread=0, static=inst, stream_pos=ctx.stream_pos)
        dyn.state = DynState.COMMITTED
        if OP_IS_CONTROL[inst.opclass]:
            taken, target = ctx.resolve_control(inst)
            ctx.advance_control(inst, taken, target)
        else:
            ctx.advance()
        analyzer.commit(dyn, i)
    analyzer.flush(final_cycle=n_instructions)
    return result


def assert_matches_oracle(
    program: SyntheticProgram, n_instructions: int, window: int, seed: int = 0
) -> None:
    got = profile_program(program, n_instructions, window, seed)
    want = streaming_profile(program, n_instructions, window, seed)
    assert got.pc_table == want.pc_table
    assert got.ace_instances == want.ace_instances
    assert got.unace_instances == want.unace_instances


@pytest.fixture(scope="module")
def gcc_profile():
    program = generate_program("gcc", seed=21)
    return program, profile_program(program, n_instructions=20_000, window=5_000)


class TestProfileRun:
    def test_covers_executed_pcs(self, gcc_profile):
        program, prof = gcc_profile
        assert len(prof.pc_table) > 100

    def test_accuracy_in_range(self, gcc_profile):
        _, prof = gcc_profile
        assert 0.8 < prof.accuracy <= 1.0

    def test_ace_fraction_plausible(self, gcc_profile):
        _, prof = gcc_profile
        assert 0.3 < prof.ace_fraction < 0.95

    def test_deterministic(self):
        p1 = generate_program("gap", seed=5)
        p2 = generate_program("gap", seed=5)
        r1 = profile_program(p1, n_instructions=5_000, window=1_000)
        r2 = profile_program(p2, n_instructions=5_000, window=1_000)
        assert r1.pc_table == r2.pc_table
        assert r1.accuracy == r2.accuracy

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            profile_program(generate_program("gap", seed=5), n_instructions=0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="window"):
            profile_program(generate_program("gap", seed=5), 100, window=window)


class TestMatchesStreamingAnalyzer:
    """The backward pass classifies every instance as the streaming
    analyzer does, window rule included."""

    @pytest.mark.parametrize("name", ["gcc", "mcf", "swim", "mesa"])
    @pytest.mark.parametrize("n, window", [
        (1, 1),  # one instruction, flushed at once
        (1, 8),
        (500, 1),  # every record leaves the window one commit later
        (3_000, 1),
        (2_000, 2_000),  # window == n: nothing leaves before the flush
        (2_000, 5_000),  # window > n
    ])
    def test_edge_sizes(self, name, n, window):
        assert_matches_oracle(generate_program(name, seed=4), n, window)

    def test_bench_scale_programs(self):
        """Every program CPU-A, MIX-A and MEM-A run, at ``BenchScale``'s
        profiling size."""
        scale = BenchScale()
        instances = {
            inst
            for mix in ("CPU-A", "MIX-A", "MEM-A")
            for inst in get_mix(mix).instances(scale.seed)
        }
        for benchmark, program_seed in sorted(instances):
            assert_matches_oracle(
                generate_program(benchmark, seed=program_seed),
                scale.profile_instructions, scale.profile_window,
            )


@st.composite
def _sizes(draw):
    n = draw(st.integers(1, 6_000))
    return n, draw(st.integers(1, 2 * n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PERSONALITIES)), st.integers(0, 50), _sizes())
def test_property_matches_streaming_analyzer(name, seed, sizes):
    n, window = sizes
    assert_matches_oracle(generate_program(name, seed=seed), n, window, seed=seed)


class TestFalsePositiveOnly:
    def test_no_false_negatives(self, gcc_profile):
        """A PC with any ACE instance must be tagged ACE (the paper's
        conservative guarantee: false positives only)."""
        _, prof = gcc_profile
        for pc, n_ace in prof.ace_instances.items():
            if n_ace > 0:
                assert prof.pc_table[pc] is True

    def test_unseen_pc_defaults_ace(self, gcc_profile):
        _, prof = gcc_profile
        assert prof.predict(0xDEAD0000) is True


class TestAccuracyMath:
    def test_accuracy_from_counts(self):
        r = ProfileResult(program_name="x", instructions=10)
        r.pc_table = {1: True, 2: False}
        r.ace_instances = {1: 6}
        r.unace_instances = {1: 2, 2: 2}
        # pc1 predicted ACE: 6 of 8 correct; pc2 predicted unACE: 2 of 2.
        assert r.accuracy == pytest.approx(8 / 10)

    def test_empty_profile_zero(self):
        r = ProfileResult(program_name="x", instructions=0)
        assert r.accuracy == 0.0
        assert r.ace_fraction == 0.0
        assert r.static_ace_fraction == 0.0


class TestApply:
    def test_apply_sets_hints(self, gcc_profile):
        program, prof = gcc_profile
        n_unace = apply_profile(program, prof)
        assert n_unace > 0
        tagged = [st for st in program.all_insts() if not st.ace_hint]
        assert len(tagged) == n_unace

    def test_profile_and_apply_roundtrip(self):
        program = generate_program("twolf", seed=9)
        prof = profile_and_apply(program, n_instructions=10_000, window=2_000)
        for st in program.all_insts():
            assert st.ace_hint == prof.predict(st.pc)


class TestPaperShape:
    def test_mesa_worse_than_perlbmk(self):
        """Table 1's headline contrast must reproduce."""
        mesa = profile_program(generate_program("mesa", seed=3), 20_000, 5_000)
        perl = profile_program(generate_program("perlbmk", seed=3), 20_000, 5_000)
        assert mesa.accuracy < perl.accuracy

    def test_average_accuracy_band(self):
        """Average over a sample of benchmarks lands near the paper's
        93.7% (we accept 88-100%)."""
        names = ("gcc", "swim", "mesa", "vpr", "perlbmk", "mcf")
        accs = [
            profile_program(generate_program(n, seed=3), 15_000, 4_000).accuracy
            for n in names
        ]
        avg = sum(accs) / len(accs)
        assert 0.88 <= avg <= 1.0


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["gcc", "mcf", "swim", "mesa"]), st.integers(0, 50))
def test_property_accuracy_bounded(name, seed):
    prof = profile_program(generate_program(name, seed=seed), 3_000, 1_000)
    assert 0.0 <= prof.accuracy <= 1.0
    assert 0.0 <= prof.ace_fraction <= 1.0
