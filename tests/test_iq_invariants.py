"""Property-style IQ counter-invariant tests.

Random interleavings of ``insert`` / ``wakeup`` / ``remove_issued`` /
``squash_thread`` must keep the three running counters —
``pred_ace_bits``, ``ready_pred_ace``, ``per_thread`` — reconciled with
the actual entry sets after every single operation.  These counters
feed the online AVF estimate DVM steers by (Section 5.1), so a drift
is a silent reliability-measurement bug, not a crash.

Also covers the descriptive invariant errors that replaced bare
``KeyError``/silent underflow in the deallocation paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.issue_queue import IQInvariantError, IssueQueue
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst

NUM_THREADS = 3
CAPACITY = 12

ACE_BITS = 96
UNACE_BITS = 12


def bits_of(inst):
    return ACE_BITS if inst.ace_pred else UNACE_BITS


def make_inst(tag, thread, src_tags, ace_pred):
    st_inst = StaticInst(pc=0x1000 + tag * 4, opclass=OpClass.IALU, dest=1, srcs=(2,))
    d = DynInst(tag=tag, thread=thread, static=st_inst, stream_pos=tag)
    d.src_tags = list(src_tags)
    d.ace_pred = ace_pred
    return d


def reconcile(iq):
    """Assert every counter matches the ground truth of the entry sets."""
    resident = list(iq.waiting.values()) + list(iq.ready.values())
    assert iq.pred_ace_bits == sum(bits_of(i) for i in resident)
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


class TestCounterInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_counters_reconcile_under_random_interleavings(self, ops):
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        next_tag = 1
        cycle = 0
        pending_producers = []  # tags inserted as dependencies, not yet woken
        for op in ops:
            cycle += 1
            kind = op[0]
            if kind == "insert":
                _, thread, ace_pred, n_srcs = op
                if iq.free_entries <= 0:
                    continue
                srcs = []
                for _ in range(n_srcs):
                    src = 1000 + next_tag  # producer outside the IQ
                    srcs.append(src)
                    pending_producers.append(src)
                iq.insert(make_inst(next_tag, thread, srcs, ace_pred), cycle)
                next_tag += 1
            elif kind == "wakeup":
                if not pending_producers:
                    continue
                tag = pending_producers.pop(op[1] % len(pending_producers))
                iq.wakeup(tag, cycle)
            elif kind == "issue":
                ready = iq.ready_ages()
                if not ready:
                    continue
                inst = ready[op[1] % len(ready)]
                iq.remove_issued(inst)
                inst.state = DynState.ISSUED
            elif kind == "squash":
                _, thread, pick = op
                resident = sorted(
                    list(iq.waiting) + list(iq.ready)
                )
                after_tag = resident[pick % len(resident)] if resident else 0
                for inst in iq.squash_thread(thread, after_tag):
                    inst.state = DynState.SQUASHED
            reconcile(iq)
        # Drain: issue everything that can still be woken and issued.
        for tag in list(pending_producers):
            iq.wakeup(tag, cycle)
        for inst in iq.ready_ages():
            iq.remove_issued(inst)
        reconcile(iq)

    @settings(max_examples=50, deadline=None)
    @given(ops=_ops)
    def test_full_squash_always_zeroes_counters(self, ops):
        """After squashing every thread from tag 0, all counters are 0."""
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        next_tag = 1
        for op in ops:
            if op[0] == "insert" and iq.free_entries > 0:
                _, thread, ace_pred, n_srcs = op
                iq.insert(make_inst(next_tag, thread, [2000 + next_tag] * (n_srcs > 0), ace_pred), 0)
                next_tag += 1
        for tid in range(NUM_THREADS):
            iq.squash_thread(tid, after_tag=0)
        assert len(iq) == 0
        assert iq.pred_ace_bits == 0
        assert iq.ready_pred_ace == 0
        assert iq.per_thread == [0] * NUM_THREADS


class TestInvariantErrors:
    def test_remove_issued_of_absent_instruction_is_descriptive(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        ghost = make_inst(7, 1, [], True)
        with pytest.raises(IQInvariantError, match=r"tag=7.*thread=1.*absent"):
            iq.remove_issued(ghost)

    def test_remove_issued_of_waiting_instruction_names_waiting(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        waiting = make_inst(3, 0, [99], True)
        iq.insert(waiting, cycle=0)
        with pytest.raises(IQInvariantError, match="waiting"):
            iq.remove_issued(waiting)

    def test_double_remove_raises_not_keyerror(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        d = make_inst(1, 0, [], True)
        iq.insert(d, cycle=0)
        iq.remove_issued(d)
        with pytest.raises(IQInvariantError):
            iq.remove_issued(d)

    def test_error_is_a_runtime_error(self):
        assert issubclass(IQInvariantError, RuntimeError)

    def test_counters_untouched_on_failed_remove(self):
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        d = make_inst(1, 0, [], True)
        iq.insert(d, cycle=0)
        ghost = make_inst(9, 0, [], True)
        with pytest.raises(IQInvariantError):
            iq.remove_issued(ghost)
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
        iq = IssueQueue(CAPACITY, NUM_THREADS, bits_of=bits_of)
        next_tag = 1
        cycle = 0
        pending_producers = []
        for op in ops:
            cycle += 1
            kind = op[0]
            if kind == "insert":
                _, thread, ace_pred, n_srcs = op
                if iq.free_entries <= 0:
                    continue
                srcs = []
                for _ in range(n_srcs):
                    src = 1000 + next_tag
                    srcs.append(src)
                    pending_producers.append(src)
                iq.insert(make_inst(next_tag, thread, srcs, ace_pred), cycle)
                next_tag += 1
            elif kind == "wakeup":
                if not pending_producers:
                    continue
                tag = pending_producers.pop(op[1] % len(pending_producers))
                iq.wakeup(tag, cycle)
            elif kind == "issue":
                ready = iq.ready_ages()
                if not ready:
                    continue
                inst = ready[op[1] % len(ready)]
                iq.remove_issued(inst)
                inst.state = DynState.ISSUED
            elif kind == "squash":
                _, thread, pick = op
                resident = sorted(list(iq.waiting) + list(iq.ready))
                after_tag = resident[pick % len(resident)] if resident else 0
                for inst in iq.squash_thread(thread, after_tag):
                    inst.state = DynState.SQUASHED
            for producer_tag, consumers in iq.consumers.items():
                assert consumers, f"empty consumer list kept for {producer_tag}"
                for c in consumers:
                    assert c.tag in iq.waiting and iq.waiting[c.tag] is c, (
                        f"consumer list of producer {producer_tag} references "
                        f"tag={c.tag} state={c.state.name}, which is not a "
                        "waiting IQ resident"
                    )
