"""Per-thread ROB, LSQ and rename table."""

import pytest

from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameTable
from repro.core.rob import ReorderBuffer
from repro.isa.instruction import (
    DynInst,
    DynState,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)
from tests import stage_reference as ref


def alu_dyn(tag, dest=1, srcs=(2,), thread=0):
    st = StaticInst(pc=0x1000 + 4 * tag, opclass=OpClass.IALU, dest=dest, srcs=srcs)
    return DynInst(tag=tag, thread=thread, static=st, stream_pos=tag)


def mem_dyn(tag, op=OpClass.LOAD, thread=0):
    st = StaticInst(
        pc=0x1000 + 4 * tag, opclass=op,
        dest=1 if op == OpClass.LOAD else -1,
        srcs=(2,) if op == OpClass.LOAD else (2, 3),
        mem=MemBehavior(MemPattern.HOT, base=0, footprint=4096),
    )
    return DynInst(tag=tag, thread=thread, static=st, stream_pos=tag)


class TestROB:
    def test_in_order_commit(self):
        rob = ReorderBuffer(4, thread=0)
        a, b = alu_dyn(1), alu_dyn(2)
        ref.rob_push(rob, a)
        ref.rob_push(rob, b)
        assert ref.rob_head(rob) is a
        committed = ref.rob_commit_head(rob)
        assert committed is a and committed.state == DynState.COMMITTED
        assert ref.rob_head(rob) is b

    def test_overflow(self):
        rob = ReorderBuffer(1, thread=0)
        ref.rob_push(rob, alu_dyn(1))
        assert len(rob) == rob.capacity
        with pytest.raises(RuntimeError):
            ref.rob_push(rob, alu_dyn(2))

    def test_squash_after_removes_young_first(self):
        rob = ReorderBuffer(8, thread=0)
        for t in range(1, 6):
            ref.rob_push(rob, alu_dyn(t))
        removed = rob.squash_after(after_tag=2)
        assert [d.tag for d in removed] == [5, 4, 3]
        assert len(rob) == 2

    def test_squash_nothing(self):
        rob = ReorderBuffer(8, thread=0)
        ref.rob_push(rob, alu_dyn(1))
        assert rob.squash_after(after_tag=10) == []

    def test_free_entries(self):
        rob = ReorderBuffer(4, thread=0)
        ref.rob_push(rob, alu_dyn(1))
        assert rob.capacity - len(rob) == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0, thread=0)


class TestLSQ:
    def test_capacity(self):
        lsq = LoadStoreQueue(2, thread=0)
        ref.lsq_push(lsq, mem_dyn(1))
        ref.lsq_push(lsq, mem_dyn(2))
        assert len(lsq) == lsq.capacity
        with pytest.raises(RuntimeError):
            ref.lsq_push(lsq, mem_dyn(3))

    def test_forwarding_after_store_address(self):
        lsq = LoadStoreQueue(8, thread=0)
        store = mem_dyn(1, op=OpClass.STORE)
        store.mem_addr = 0x100
        ref.lsq_push(lsq, store)
        assert not lsq.can_forward(0x100)
        lsq.note_store_address(store)
        assert lsq.can_forward(0x100)
        assert lsq.can_forward(0x104)  # same 8-byte word
        assert not lsq.can_forward(0x108)

    def test_forwarding_cleared_at_remove(self):
        lsq = LoadStoreQueue(8, thread=0)
        store = mem_dyn(1, op=OpClass.STORE)
        store.mem_addr = 0x100
        ref.lsq_push(lsq, store)
        lsq.note_store_address(store)
        lsq.remove(store)
        assert not lsq.can_forward(0x100)
        assert len(lsq) == 0

    def test_two_stores_same_word(self):
        lsq = LoadStoreQueue(8, thread=0)
        s1, s2 = mem_dyn(1, OpClass.STORE), mem_dyn(2, OpClass.STORE)
        s1.mem_addr = s2.mem_addr = 0x200
        for s in (s1, s2):
            ref.lsq_push(lsq, s)
            lsq.note_store_address(s)
        lsq.remove(s1)
        assert lsq.can_forward(0x200)  # s2 still pending
        lsq.remove(s2)
        assert not lsq.can_forward(0x200)

    def test_squash_after(self):
        lsq = LoadStoreQueue(8, thread=0)
        for t in (1, 2, 3):
            ref.lsq_push(lsq, mem_dyn(t))
        removed = lsq.squash_after(after_tag=1)
        assert sorted(d.tag for d in removed) == [2, 3]
        assert len(lsq) == 1

    def test_remove_unknown_is_noop(self):
        lsq = LoadStoreQueue(8, thread=0)
        lsq.remove(mem_dyn(9))  # no error


class TestRename:
    def test_resolve_unknown_sources_ready(self):
        rt = RenameTable(0)
        d = alu_dyn(1, srcs=(5, 6))
        ref.resolve_sources(rt, d)
        assert d.src_tags == []

    def test_pending_producer_tracked(self):
        rt = RenameTable(0)
        producer = alu_dyn(1, dest=5)
        producer.state = DynState.DISPATCHED
        ref.set_dest(rt, producer)
        consumer = alu_dyn(2, srcs=(5,))
        ref.resolve_sources(rt, consumer)
        assert consumer.src_tags == [1]

    def test_completed_producer_is_available(self):
        rt = RenameTable(0)
        producer = alu_dyn(1, dest=5)
        producer.state = DynState.COMPLETED
        ref.set_dest(rt, producer)
        consumer = alu_dyn(2, srcs=(5,))
        ref.resolve_sources(rt, consumer)
        assert consumer.src_tags == []

    def test_duplicate_source_tag_once(self):
        rt = RenameTable(0)
        producer = alu_dyn(1, dest=5)
        producer.state = DynState.DISPATCHED
        ref.set_dest(rt, producer)
        consumer = alu_dyn(2, srcs=(5, 5))
        ref.resolve_sources(rt, consumer)
        assert consumer.src_tags == [1]

    def test_unwind_restores_previous_producer(self):
        rt = RenameTable(0)
        p1 = alu_dyn(1, dest=5)
        p1.state = DynState.DISPATCHED
        ref.set_dest(rt, p1)
        p2 = alu_dyn(2, dest=5)
        p2.state = DynState.DISPATCHED
        ref.set_dest(rt, p2)
        assert rt.producers.get(5) is p2
        rt.unwind(p2)
        assert rt.producers.get(5) is p1

    def test_unwind_chain_young_to_old(self):
        rt = RenameTable(0)
        producers = []
        for t in range(1, 4):
            p = alu_dyn(t, dest=7)
            p.state = DynState.DISPATCHED
            ref.set_dest(rt, p)
            producers.append(p)
        for p in reversed(producers[1:]):
            rt.unwind(p)
        assert rt.producers.get(7) is producers[0]

    def test_unwind_to_empty(self):
        rt = RenameTable(0)
        p = alu_dyn(1, dest=3)
        ref.set_dest(rt, p)
        rt.unwind(p)
        assert rt.producers.get(3) is None

    def test_unwind_ignores_stale(self):
        rt = RenameTable(0)
        p1 = alu_dyn(1, dest=5)
        ref.set_dest(rt, p1)
        p2 = alu_dyn(2, dest=5)
        ref.set_dest(rt, p2)
        rt.unwind(p1)  # p1 is not the current mapping: no-op
        assert rt.producers.get(5) is p2

    def test_squashed_producer_treated_available(self):
        rt = RenameTable(0)
        p = alu_dyn(1, dest=5)
        p.state = DynState.SQUASHED
        ref.set_dest(rt, p)
        c = alu_dyn(2, srcs=(5,))
        ref.resolve_sources(rt, c)
        assert c.src_tags == []
