"""Property-style IQ counter-invariant tests.

Random interleavings of insert / wakeup / issue (the per-call
reference steps of ``tests/stage_reference.py``) and
``IssueQueue.squash_thread`` must keep the three running counters —
``pred_ace_bits``, ``ready_pred_ace``, ``per_thread`` — reconciled with
the actual entry sets after every single operation.  These counters
feed the online AVF estimate DVM steers by (Section 5.1), so a drift
is a silent reliability-measurement bug, not a crash.  Squashes go
through ``iq_squash``, which takes the removed entries' predicted bits
off the counter as the pipeline's squash does.

Also covers the descriptive invariant errors that replaced bare
``KeyError``/silent underflow in the deallocation paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.issue_queue import IQInvariantError, IssueQueue
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from tests import stage_reference as ref

NUM_THREADS = 3
CAPACITY = 12


def make_inst(tag, thread, src_tags, ace_pred):
    st_inst = StaticInst(pc=0x1000 + tag * 4, opclass=OpClass.IALU, dest=1, srcs=(2,))
    d = DynInst(tag=tag, thread=thread, static=st_inst, stream_pos=tag)
    d.src_tags = list(src_tags)
    d.ace_pred = ace_pred
    return d


def reconcile(iq):
    """Assert every counter matches the ground truth of the entry sets."""
    resident = list(iq.waiting.values()) + list(iq.ready.values())
    assert iq.pred_ace_bits == sum(ref.pred_bits(ref.IQ_PRED_BITS, i) for i in resident)
    assert iq.ready_pred_ace == sum(1 for i in iq.ready.values() if i.ace_pred)
    for tid in range(NUM_THREADS):
        expect = sum(1 for i in resident if i.thread == tid)
        assert iq.per_thread[tid] == expect
        assert iq.per_thread[tid] >= 0
    assert len(iq) == len(resident)
    assert 0 <= len(iq) <= iq.capacity


#: One scripted operation: (kind, payload...) chosen by hypothesis.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, NUM_THREADS - 1),  # thread
            st.booleans(),  # ace_pred
            st.integers(0, 2),  # number of pending producers
        ),
        st.tuples(st.just("wakeup"), st.integers(0, 200)),
        st.tuples(st.just("issue"), st.integers(0, 200)),
        st.tuples(
            st.just("squash"),
            st.integers(0, NUM_THREADS - 1),
            st.integers(0, 200),
        ),
    ),
    min_size=1,
    max_size=60,
)


def interleave(iq, ops):
    """Apply the scripted ``ops`` to ``iq`` one at a time, yielding the
    cycle and the producer tags still to wake after each."""
    next_tag = 1
    pending = []  # tags inserted as dependencies, not yet woken
    for cycle, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "insert":
            _, thread, ace_pred, n_srcs = op
            if len(iq) < iq.capacity:
                srcs = [1000 + next_tag] * n_srcs  # producer outside the IQ
                ref.iq_insert(iq, make_inst(next_tag, thread, srcs, ace_pred), cycle)
                pending += srcs
                next_tag += 1
        elif kind == "wakeup":
            if pending:
                ref.iq_wakeup(iq, pending.pop(op[1] % len(pending)), cycle)
        elif kind == "issue":
            ready = ref.ready_ages(iq)
            if ready:
                inst = ready[op[1] % len(ready)]
                ref.iq_remove_issued(iq, inst)
                inst.state = DynState.ISSUED
        else:
            _, thread, pick = op
            resident = sorted(list(iq.waiting) + list(iq.ready))
            after_tag = resident[pick % len(resident)] if resident else 0
            for inst in ref.iq_squash(iq, thread, after_tag):
                inst.state = DynState.SQUASHED
        yield cycle, pending


class TestCounterInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_counters_reconcile_under_random_interleavings(self, ops):
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        for cycle, pending in interleave(iq, ops):
            reconcile(iq)
        # Drain: issue everything that can still be woken and issued.
        for tag in list(pending):
            ref.iq_wakeup(iq, tag, cycle)
        for inst in ref.ready_ages(iq):
            ref.iq_remove_issued(iq, inst)
        reconcile(iq)

    @settings(max_examples=50, deadline=None)
    @given(ops=_ops)
    def test_full_squash_always_zeroes_counters(self, ops):
        """After squashing every thread from tag 0, all counters are 0."""
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        next_tag = 1
        for op in ops:
            if op[0] == "insert" and len(iq) < iq.capacity:
                _, thread, ace_pred, n_srcs = op
                srcs = [2000 + next_tag] * (n_srcs > 0)
                ref.iq_insert(iq, make_inst(next_tag, thread, srcs, ace_pred), 0)
                next_tag += 1
        for tid in range(NUM_THREADS):
            ref.iq_squash(iq, tid, after_tag=0)
        assert len(iq) == 0
        assert iq.pred_ace_bits == 0
        assert iq.ready_pred_ace == 0
        assert iq.per_thread == [0] * NUM_THREADS


class TestInvariantErrors:
    def test_remove_issued_of_absent_instruction_is_descriptive(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        ghost = make_inst(7, 1, [], True)
        with pytest.raises(IQInvariantError, match=r"tag=7.*thread=1.*absent"):
            ref.iq_remove_issued(iq, ghost)

    def test_remove_issued_of_waiting_instruction_names_waiting(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        waiting = make_inst(3, 0, [99], True)
        ref.iq_insert(iq, waiting, cycle=0)
        with pytest.raises(IQInvariantError, match="waiting"):
            ref.iq_remove_issued(iq, waiting)

    def test_double_remove_raises_not_keyerror(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        d = make_inst(1, 0, [], True)
        ref.iq_insert(iq, d, cycle=0)
        ref.iq_remove_issued(iq, d)
        with pytest.raises(IQInvariantError):
            ref.iq_remove_issued(iq, d)

    def test_error_is_a_runtime_error(self):
        assert issubclass(IQInvariantError, RuntimeError)

    def test_counters_untouched_on_failed_remove(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        d = make_inst(1, 0, [], True)
        ref.iq_insert(iq, d, cycle=0)
        ghost = make_inst(9, 0, [], True)
        with pytest.raises(IQInvariantError):
            ref.iq_remove_issued(iq, ghost)
        reconcile(iq)


class TestConsumerListHygiene:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    def test_consumers_only_reference_waiting_entries(self, ops):
        """Every instruction on any ``consumers`` list is a *waiting*
        resident of the queue.  ``squash_thread`` must prune squashed
        waiting entries out of their surviving producers' consumer
        lists; before it did, dead references accumulated there until
        the producer completed (or forever, if it never did)."""
        iq = IssueQueue(CAPACITY, NUM_THREADS)
        for _ in interleave(iq, ops):
            for producer_tag, consumers in iq.consumers.items():
                assert consumers, f"empty consumer list kept for {producer_tag}"
                for c in consumers:
                    assert c.tag in iq.waiting and iq.waiting[c.tag] is c, (
                        f"consumer list of producer {producer_tag} references "
                        f"tag={c.tag} state={c.state.name}, which is not a "
                        "waiting IQ resident"
                    )
