"""Issue scheduling: oldest-first baseline and VISA (Section 2.1)."""

import pytest

from repro.core.issue_queue import IssueQueue
from repro.core.scheduler import OldestFirstScheduler, VISAScheduler, make_scheduler
from repro.isa.instruction import DynInst, OpClass, StaticInst
from tests.stage_reference import iq_insert, select


def dyn(tag, ace_pred):
    st = StaticInst(pc=0x1000 + tag * 4, opclass=OpClass.IALU, dest=1, srcs=())
    d = DynInst(tag=tag, thread=0, static=st, stream_pos=tag)
    d.ace_pred = ace_pred
    return d


def iq_with(insts):
    iq = IssueQueue(64, 1)
    for d in insts:
        iq_insert(iq, d, cycle=0)
    return iq


class TestOldestFirst:
    def test_program_order(self):
        iq = iq_with([dyn(3, False), dyn(1, True), dyn(2, False)])
        sel = select(OldestFirstScheduler(), iq, width=3)
        assert [d.tag for d in sel] == [1, 2, 3]

    def test_width_respected(self):
        iq = iq_with([dyn(i, True) for i in range(1, 9)])
        assert len(select(OldestFirstScheduler(), iq, width=4)) == 4

    def test_empty_ready(self):
        iq = IssueQueue(8, 1)
        assert select(OldestFirstScheduler(), iq, width=4) == []


class TestVISA:
    def test_ace_bypasses_unace(self):
        """Once there is a ready ACE instruction, it bypasses all ready
        un-ACE instructions (Section 2.1)."""
        iq = iq_with([dyn(1, False), dyn(2, False), dyn(3, True)])
        sel = select(VISAScheduler(), iq, width=2)
        assert sel[0].tag == 3
        assert sel[1].tag == 1

    def test_ace_in_program_order(self):
        iq = iq_with([dyn(4, True), dyn(2, True), dyn(3, True)])
        sel = select(VISAScheduler(), iq, width=3)
        assert [d.tag for d in sel] == [2, 3, 4]

    def test_unace_fill_remaining_slots(self):
        """If fewer ready ACE instructions than issue slots exist, the
        ready un-ACE instructions issue in program order."""
        iq = iq_with([dyn(1, False), dyn(2, True), dyn(3, False)])
        sel = select(VISAScheduler(), iq, width=3)
        assert [d.tag for d in sel] == [2, 1, 3]

    def test_unace_blocked_when_slots_full_of_ace(self):
        iq = iq_with([dyn(1, False)] + [dyn(i, True) for i in range(2, 6)])
        sel = select(VISAScheduler(), iq, width=4)
        assert all(d.ace_pred for d in sel)

    def test_all_unace_behaves_like_oldest(self):
        iq = iq_with([dyn(3, False), dyn(1, False)])
        sel = select(VISAScheduler(), iq, width=2)
        assert [d.tag for d in sel] == [1, 3]


class TestFactory:
    def test_names(self):
        assert isinstance(make_scheduler("oldest"), OldestFirstScheduler)
        assert isinstance(make_scheduler("visa"), VISAScheduler)
        assert isinstance(make_scheduler("VISA"), VISAScheduler)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_scheduler("lifo")
