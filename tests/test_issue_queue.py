"""Shared issue queue: wakeup, readiness, squash, counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.issue_queue import IssueQueue
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from tests import stage_reference as ref


def alu(pc=0x10, dest=1, srcs=(2,)):
    return StaticInst(pc=pc, opclass=OpClass.IALU, dest=dest, srcs=srcs)


def dyn(tag, thread=0, src_tags=(), ace_pred=True):
    d = DynInst(tag=tag, thread=thread, static=alu(pc=0x10 + tag * 4), stream_pos=tag)
    d.src_tags = list(src_tags)
    d.ace_pred = ace_pred
    return d


def make_iq(cap=8, threads=2):
    return IssueQueue(cap, threads)


class TestInsertAndReadiness:
    def test_no_sources_born_ready(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1), cycle=0)
        assert len(iq.ready) == 1
        assert len(iq.waiting) == 0

    def test_pending_source_waits(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(2, src_tags=[1]), cycle=0)
        assert len(iq.waiting) == 1
        assert len(iq.ready) == 0

    def test_wakeup_moves_to_ready(self):
        iq = make_iq()
        d = dyn(2, src_tags=[1])
        ref.iq_insert(iq, d, cycle=0)
        ref.iq_wakeup(iq, 1, cycle=3)
        assert len(iq.ready) == 1
        assert d.ready_cycle == 3

    def test_partial_wakeup_stays_waiting(self):
        iq = make_iq()
        d = dyn(3, src_tags=[1, 2])
        ref.iq_insert(iq, d, cycle=0)
        ref.iq_wakeup(iq, 1, cycle=1)
        assert len(iq.waiting) == 1
        ref.iq_wakeup(iq, 2, cycle=2)
        assert len(iq.ready) == 1

    def test_overflow_raises(self):
        iq = make_iq(cap=1)
        ref.iq_insert(iq, dyn(1), cycle=0)
        with pytest.raises(RuntimeError):
            ref.iq_insert(iq, dyn(2), cycle=0)

    def test_dispatch_cycle_recorded(self):
        iq = make_iq()
        d = dyn(1)
        ref.iq_insert(iq, d, cycle=7)
        assert d.dispatch_cycle == 7
        assert d.state == DynState.DISPATCHED


class TestCounters:
    def test_pred_ace_bits_tracks_inserts(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1, ace_pred=True), cycle=0)
        ref.iq_insert(iq, dyn(2, ace_pred=False), cycle=0)
        # An ALU entry's predicted bits: 96 if predicted ACE, else 12.
        assert iq.pred_ace_bits == 96 + 12

    def test_pred_ace_bits_on_issue(self):
        iq = make_iq()
        d = dyn(1, ace_pred=True)
        ref.iq_insert(iq, d, cycle=0)
        ref.iq_remove_issued(iq, d)
        assert iq.pred_ace_bits == 0

    def test_ready_pred_ace_counter(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1, ace_pred=True), cycle=0)
        ref.iq_insert(iq, dyn(2, ace_pred=False), cycle=0)
        w = dyn(3, src_tags=[1], ace_pred=True)
        ref.iq_insert(iq, w, cycle=0)
        assert iq.ready_pred_ace == 1
        ref.iq_wakeup(iq, 1, cycle=1)
        assert iq.ready_pred_ace == 2

    def test_per_thread_counts(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1, thread=0), cycle=0)
        ref.iq_insert(iq, dyn(2, thread=1), cycle=0)
        ref.iq_insert(iq, dyn(3, thread=1), cycle=0)
        assert iq.per_thread == [1, 2]

    def test_free_entries(self):
        iq = make_iq(cap=4)
        ref.iq_insert(iq, dyn(1), cycle=0)
        assert iq.capacity - len(iq) == len(iq.free_slots) == 3


class TestSquash:
    def test_squash_removes_younger_of_thread(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1, thread=0), cycle=0)
        ref.iq_insert(iq, dyn(2, thread=0, src_tags=[99]), cycle=0)
        ref.iq_insert(iq, dyn(3, thread=1), cycle=0)
        removed = iq.squash_thread(0, after_tag=1)
        assert [d.tag for d in removed] == [2]
        assert len(iq) == 2
        assert iq.per_thread[0] == 1

    def test_squash_restores_counters(self):
        iq = make_iq()
        ref.iq_insert(iq, dyn(1, thread=0, ace_pred=True), cycle=0)
        ref.iq_insert(iq, dyn(2, thread=0, ace_pred=True), cycle=0)
        ref.iq_squash(iq, 0, after_tag=1)
        assert iq.pred_ace_bits == 96
        assert iq.ready_pred_ace == 1
        assert iq.ready_ace_tags == [1]

    def test_squashed_consumer_not_woken(self):
        iq = make_iq()
        d = dyn(2, thread=0, src_tags=[1])
        ref.iq_insert(iq, d, cycle=0)
        iq.squash_thread(0, after_tag=1)
        d.state = DynState.SQUASHED
        ref.iq_wakeup(iq, 1, cycle=5)  # must not resurrect
        assert len(iq.ready) == 0

    def test_drop_consumers(self):
        iq = make_iq()
        d = dyn(2, src_tags=[1])
        ref.iq_insert(iq, d, cycle=0)
        iq.drop_consumers(1)
        ref.iq_wakeup(iq, 1, cycle=1)
        assert len(iq.waiting) == 1  # never woken


class TestReadyOrdering:
    def test_ready_ages_sorted_by_tag(self):
        iq = make_iq()
        a = dyn(5, src_tags=[99])
        ref.iq_insert(iq, a, cycle=0)
        ref.iq_insert(iq, dyn(7), cycle=0)
        ref.iq_wakeup(iq, 99, cycle=1)  # tag 5 becomes ready after tag 7
        ages = [d.tag for d in ref.ready_ages(iq)]
        assert ages == [5, 7]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_property_counter_consistency(ops):
    """pred_ace_bits always equals the sum over resident instructions."""
    iq = IssueQueue(64, 1)
    resident = {}
    tag = 0
    for make_ready, ace in ops:
        tag += 1
        d = dyn(tag, src_tags=[] if make_ready else [tag + 1000], ace_pred=ace)
        ref.iq_insert(iq, d, cycle=0)
        resident[tag] = d
    expected = sum(ref.pred_bits(ref.IQ_PRED_BITS, d) for d in resident.values())
    assert iq.pred_ace_bits == expected
    assert len(iq) == len(resident)
    assert iq.ready_pred_ace == sum(
        1 for d in iq.ready.values() if d.ace_pred
    )
