"""Post-retirement ACE analysis: ground-truth liveness semantics.

The semantic cases run the block analyzer with its block size
monkeypatched to 1 and to 2, so every stream crosses block edges; the
property holds it equal to the streaming reference
(``tests/ace_reference.py``) on random multi-thread streams.
"""

import copy
import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.isa.instruction import (
    DynInst,
    DynState,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)
from repro.reliability import ace
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.avf import AVFAccount, Structure
from tests.ace_reference import StreamingACEAnalyzer
from tests.stage_reference import ace_commit


def make_dyn(tag, opclass, dest=-1, srcs=(), thread=0):
    kw = {}
    if opclass.is_mem:
        kw["mem"] = MemBehavior(MemPattern.HOT, base=0, footprint=4096)
    if opclass == OpClass.BRANCH:
        from repro.isa.instruction import BranchBehavior

        kw["branch"] = BranchBehavior(taken_bias=0.5)
        kw["taken_block"] = 0
        kw["fall_block"] = 0
    st = StaticInst(pc=0x1000 + tag * 4, opclass=opclass, dest=dest, srcs=srcs, **kw)
    d = DynInst(tag=tag, thread=thread, static=st, stream_pos=tag)
    d.state = DynState.COMMITTED
    return d


def analyzer_with_block(block, *args, **kwargs):
    """An ``ACEAnalyzer`` that sweeps every ``block`` commits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ace, "BLOCK", block)
        return ACEAnalyzer(*args, **kwargs)


#: Block sizes the semantic cases run under.
BLOCKS = (1, 2)


class Harness:
    """Feeds one committed stream, one cycle per instruction, to an
    analyzer per block size in :data:`BLOCKS` and records what each
    classifies and which register lifetimes it closes."""

    def __init__(self, threads=1, window=1000):
        self.runs = []
        for block in BLOCKS:
            run = SimpleNamespace(resolved={}, lifetimes=[])
            run.analyzer = analyzer_with_block(
                block, threads, window_size=window,
                resolve_cb=lambda insts, run=run: run.resolved.update(
                    (d.tag, d.ace) for d in insts
                ),
                rf_cb=lambda t, closed, run=run: run.lifetimes.extend(closed),
            )
            self.runs.append(run)
        self._cycle = 0

    def commit(self, dyn, cycle):
        for run in self.runs:
            ace_commit(run.analyzer, copy.copy(dyn), cycle)

    def feed(self, *dyns):
        for d in dyns:
            self.commit(d, self._cycle)
            self._cycle += 1

    def finish(self, cycle=None):
        for run in self.runs:
            run.analyzer.flush(self._cycle if cycle is None else cycle)

    @property
    def resolved(self):
        """Tag -> ACE-ness of every instance each block size has
        classified; they must agree."""
        first, *rest = (run.resolved for run in self.runs)
        common = {t: a for t, a in first.items() if all(t in r for r in rest)}
        for r in rest:
            assert {t: r[t] for t in common} == common
        return common

    @property
    def stats(self):
        first, *rest = (run.analyzer.stats for run in self.runs)
        assert all(s == first for s in rest)
        return first

    @property
    def lifetimes(self):
        first, *rest = (sorted(run.lifetimes) for run in self.runs)
        assert all(r == first for r in rest)
        return first


class TestRoots:
    def test_store_is_ace(self):
        h = Harness()
        h.feed(make_dyn(1, OpClass.STORE, srcs=(2, 3)))
        h.finish()
        assert h.resolved[1] is True

    def test_branch_is_ace(self):
        h = Harness()
        h.feed(make_dyn(1, OpClass.BRANCH, srcs=(2,)))
        h.finish()
        assert h.resolved[1] is True

    def test_nop_never_ace(self):
        h = Harness()
        h.feed(make_dyn(1, OpClass.NOP))
        h.finish()
        assert h.resolved[1] is False

    def test_prefetch_never_ace(self):
        h = Harness()
        h.feed(make_dyn(1, OpClass.PREFETCH, srcs=(2,)))
        h.finish()
        assert h.resolved[1] is False

    def test_output_flag_makes_ace(self):
        h = Harness()
        d = make_dyn(1, OpClass.IALU, dest=1, srcs=())
        d.static.is_output = True
        h.feed(d)
        h.finish()
        assert h.resolved[1] is True


class TestLiveness:
    def test_value_feeding_store_is_ace(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=5, srcs=()),
            make_dyn(2, OpClass.STORE, srcs=(5, 6)),
        )
        h.finish()
        assert h.resolved[1] is True

    def test_overwritten_unread_is_dead(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=5, srcs=()),
            make_dyn(2, OpClass.IALU, dest=5, srcs=()),  # overwrites r5
            make_dyn(3, OpClass.STORE, srcs=(5,)),
        )
        h.finish()
        assert h.resolved[1] is False
        assert h.resolved[2] is True

    def test_transitive_chain_to_root(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=1, srcs=()),
            make_dyn(2, OpClass.IALU, dest=2, srcs=(1,)),
            make_dyn(3, OpClass.IALU, dest=3, srcs=(2,)),
            make_dyn(4, OpClass.STORE, srcs=(3,)),
        )
        h.finish()
        assert all(h.resolved[t] for t in (1, 2, 3, 4))

    def test_transitively_dead_chain(self):
        """Read only by a dead instruction -> still dead (the paper's
        'dynamically dead' transitive case)."""
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=1, srcs=()),
            make_dyn(2, OpClass.IALU, dest=2, srcs=(1,)),  # reads r1, dies
            make_dyn(3, OpClass.IALU, dest=1, srcs=()),
            make_dyn(4, OpClass.IALU, dest=2, srcs=()),
        )
        h.finish()
        assert h.resolved[1] is False
        assert h.resolved[2] is False

    def test_read_by_nop_like_consumer_not_ace(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=5, srcs=()),
            make_dyn(2, OpClass.PREFETCH, srcs=(5,)),  # un-ACE reader
            make_dyn(3, OpClass.IALU, dest=5, srcs=()),
        )
        h.finish()
        assert h.resolved[1] is False

    def test_branch_source_chain_ace(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=4, srcs=()),
            make_dyn(2, OpClass.BRANCH, srcs=(4,)),
        )
        h.finish()
        assert h.resolved[1] is True

    def test_diamond_style_flip(self):
        """Same PC: one instance consumed (ACE), one overwritten (dead)."""
        h = Harness()
        st = StaticInst(pc=0x5000, opclass=OpClass.IALU, dest=9, srcs=())

        def instance(tag):
            d = DynInst(tag=tag, thread=0, static=st, stream_pos=tag)
            d.state = DynState.COMMITTED
            return d

        h.feed(
            instance(1),
            make_dyn(2, OpClass.STORE, srcs=(9,)),  # consumed: ACE
            instance(3),
            make_dyn(4, OpClass.IALU, dest=9, srcs=()),  # overwritten: dead
            make_dyn(5, OpClass.STORE, srcs=(9,)),
        )
        h.finish()
        assert h.resolved[1] is True
        assert h.resolved[3] is False


class TestWindow:
    def test_unresolved_until_window_or_flush(self):
        h = Harness(window=10)
        d = make_dyn(1, OpClass.IALU, dest=5, srcs=())
        h.feed(d)
        assert 1 not in h.resolved  # still pending
        h.finish()
        assert h.resolved[1] is False

    def test_window_exit_declares_unace(self):
        h = Harness(window=3)
        h.feed(make_dyn(1, OpClass.IALU, dest=5, srcs=()))
        for t in range(2, 7):
            h.feed(make_dyn(t, OpClass.IALU, dest=6, srcs=()))
        assert h.resolved[1] is False  # exited the window unmarked

    def test_late_ace_counted(self):
        """A read arriving after window expiry is the documented
        approximation: counted, not crashed."""
        h = Harness(window=2)
        h.feed(make_dyn(1, OpClass.IALU, dest=5, srcs=()))
        h.feed(make_dyn(2, OpClass.IALU, dest=6, srcs=()))
        h.feed(make_dyn(3, OpClass.IALU, dest=6, srcs=()))
        h.feed(make_dyn(4, OpClass.STORE, srcs=(5,)))
        h.finish()
        assert h.stats.late_ace == 1
        assert h.resolved[1] is False  # resolution is final

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ACEAnalyzer(1, window_size=0)


class TestThreads:
    def test_threads_independent(self):
        h = Harness(threads=2)
        h.feed(
            make_dyn(1, OpClass.IALU, dest=5, srcs=(), thread=0),
            make_dyn(2, OpClass.STORE, srcs=(5,), thread=1),  # different thread!
        )
        h.finish()
        assert h.resolved[1] is False  # thread 1's read is of its own r5


class TestStats:
    def test_counts(self):
        h = Harness()
        h.feed(
            make_dyn(1, OpClass.IALU, dest=5, srcs=()),
            make_dyn(2, OpClass.STORE, srcs=(5,)),
            make_dyn(3, OpClass.NOP),
        )
        h.finish()
        s = h.stats
        assert s.committed == 3
        assert s.ace == 2
        assert s.unace == 1
        assert s.ace_fraction == pytest.approx(2 / 3)


class TestRegisterLifetimes:
    def test_rf_callback_on_overwrite(self):
        h = Harness()
        h.commit(make_dyn(1, OpClass.IALU, dest=5, srcs=()), 10)
        h.commit(make_dyn(2, OpClass.STORE, srcs=(5,)), 20)
        h.commit(make_dyn(3, OpClass.IALU, dest=5, srcs=()), 30)
        h.finish(99)
        assert h.lifetimes == [(10, 20, 30), (30, -1, 99)]

    def test_rf_callback_on_flush(self):
        h = Harness()
        h.commit(make_dyn(1, OpClass.IALU, dest=5, srcs=()), 10)
        h.finish(99)
        assert [end for _, _, end in h.lifetimes] == [99]


# ----------------------------------------------------------------------
# Equal to the streaming reference
# ----------------------------------------------------------------------
#: Registers drawn mostly from a few, so values meet readers, but over
#: the whole architectural range.
_REGS = st.one_of(st.integers(0, 3), st.integers(0, 63))
#: One committed instruction: opclass, destination, sources, thread
#: (modulo the thread count), output flag (when 0), cycles since the
#: previous commit, ROB and IQ residency, execution latency (0: never
#: issued).
_INST = st.tuples(
    st.sampled_from(list(OpClass)),
    st.one_of(st.integers(-1, 3), st.integers(-1, 63)),
    st.lists(_REGS, max_size=2),
    st.integers(0, 3),
    st.integers(0, 9),
    st.integers(0, 3),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 4),
)


@st.composite
def _streams(draw):
    """1-4 interleaved threads' committed stream with its timing."""
    threads = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    rows = draw(st.lists(_INST, min_size=n, max_size=n))
    cycle = 0
    insts = []
    for tag, (op, dest, srcs, thread, output, gap, rob, iq, latency) in enumerate(rows, 1):
        d = make_dyn(tag, op, dest=dest, srcs=tuple(srcs), thread=thread % threads)
        d.static.is_output = output == 0
        cycle += gap
        d.dispatch_cycle = max(cycle - rob, 0)
        d.iq_leave_cycle = min(d.dispatch_cycle + iq, cycle)
        if latency:
            d.issue_cycle = d.iq_leave_cycle
            d.exec_latency = latency
        insts.append((d, cycle))
    # Short windows often, so that readers land exactly on a window's end.
    window = draw(st.one_of(st.integers(1, min(4, 2 * n)), st.integers(1, 2 * n)))
    block = draw(st.sampled_from([1, 2, 17, n + 1]))
    return threads, insts, window, block


def _avf_figures(acct, total_cycles):
    acct.close(total_cycles)
    return {
        s: (acct.overall_avf(s), acct.interval_avf(s)) for s in Structure
    }


# Without the explain phase, which re-runs a failing example's every
# draw for minutes before the report.
@given(_streams())
@settings(
    max_examples=200, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
def test_property_matches_streaming_reference(stream):
    threads, insts, window, block = stream
    final_cycle = insts[-1][1] + 1
    machine = MachineConfig(num_threads=threads)

    ref_acct = AVFAccount(machine, interval_cycles=7)
    ref_lifetimes = []
    reference = StreamingACEAnalyzer(
        threads, window, resolve_cb=lambda d: ref_acct.attribute((d,)),
        rf_cb=lambda rec, end: (
            ref_lifetimes.append(
                (rec.dyn.thread, rec.commit_cycle, rec.last_read_cycle, end)
            ),
            ref_acct.attribute_rf(
                rec.dyn.thread, [(rec.commit_cycle, rec.last_read_cycle, end)]
            ),
        ),
    )
    acct = AVFAccount(machine, interval_cycles=7)
    lifetimes = []
    analyzer = analyzer_with_block(
        block, threads, window_size=window, resolve_cb=acct.attribute,
        rf_cb=lambda t, closed: (
            lifetimes.extend((t, *life) for life in closed),
            acct.attribute_rf(t, closed),
        ),
    )
    ref_insts = []
    block_insts = []
    per_thread = [[] for _ in range(threads)]
    for d, cycle in insts:
        for commit, copies in (
            (reference.commit, ref_insts),
            (lambda c, cycle: ace_commit(analyzer, c, cycle), block_insts),
        ):
            c = copy.copy(d)
            c.commit_cycle = cycle
            copies.append(c)
            commit(c, cycle)
        # Classified by the first sweep after its window has passed.
        stream = per_thread[d.thread]
        stream.append(block_insts[-1])
        swept = len(stream) - len(stream) % block
        assert None not in [c.ace for c in stream[:max(swept - window, 0)]]
    reference.flush(final_cycle)
    analyzer.flush(final_cycle)

    assert [d.ace for d in block_insts] == [d.ace for d in ref_insts]
    assert None not in [d.ace for d in block_insts]
    assert analyzer.stats == reference.stats
    assert sorted(lifetimes) == sorted(ref_lifetimes)
    assert _avf_figures(acct, final_cycle) == _avf_figures(ref_acct, final_cycle)


def test_late_ace_run_report_is_pinned():
    """Late ACE through the pipeline: a MEM-A run with a 37-instruction
    window, whose observer report matches the streaming analyzer's."""
    from repro.harness.runner import BenchScale, build_pipeline, get_programs
    from repro.reliability.observe import ReliabilityObserver

    scale = replace(BenchScale(), ace_window=37).with_cycles(4_000)
    pipe = build_pipeline(get_programs("MEM-A", scale), scale)
    with ReliabilityObserver.for_pipeline(pipe) as observer:
        result = pipe.run()
    report = observer.report(result.cycles).to_dict()
    assert pipe.analyzer.stats == ace.ACEStats(
        committed=4043, ace=3122, unace=921, late_ace=84
    )
    assert report["late_ace"] == {"1": 52, "3": 32}
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "167fb2e01ea173cb"
