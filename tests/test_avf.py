"""Bit-level AVF accounting."""

import pytest

from repro.config import MachineConfig
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from repro.reliability.avf import (
    AVFAccount,
    AVFBitLayout,
    Structure,
    interval_bucket,
)
from tests.stage_reference import pred_bits


def make_dyn(tag=1, opclass=OpClass.IALU, ace=True, ace_pred=True,
             dispatch=0, iq_leave=10, issue=10, commit=20, latency=1,
             state=DynState.COMMITTED):
    st = StaticInst(pc=0x1000 + 4 * tag, opclass=opclass, dest=1, srcs=())
    d = DynInst(tag=tag, thread=0, static=st, stream_pos=tag)
    d.state = state
    d.ace = ace
    d.ace_pred = ace_pred
    d.dispatch_cycle = dispatch
    d.iq_leave_cycle = iq_leave
    d.issue_cycle = issue
    d.commit_cycle = commit
    d.exec_latency = latency
    return d


@pytest.fixture()
def acct():
    return AVFAccount(MachineConfig(), interval_cycles=100)


def oracle_bits(acct, d):
    """(IQ, ROB, FU) bits ``attribute`` charges ``d`` for one cycle in
    each structure."""
    d.dispatch_cycle, d.iq_leave_cycle, d.commit_cycle = 0, 1, 1
    d.issue_cycle, d.exec_latency = 0, 1
    acct.attribute((d,))
    return tuple(acct._acc[s] for s in (Structure.IQ, Structure.ROB, Structure.FU))


class TestLayout:
    def test_default_layout_valid(self):
        AVFBitLayout().validate()

    def test_rejects_inverted_layout(self):
        with pytest.raises(ValueError):
            AVFBitLayout(iq_ace=10, iq_unace=50).validate()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AVFBitLayout(rf_reg_bits=0).validate()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            AVFAccount(MachineConfig(), interval_cycles=0)


class TestBitClassification:
    def test_ace_instruction_bits(self, acct):
        d = make_dyn(ace=True)
        assert oracle_bits(acct, d)[0] == acct.layout.iq_ace

    def test_unace_instruction_keeps_opcode_bits(self, acct):
        # "un-ACE instructions also contain ACE-bits (e.g. opcode)"
        d = make_dyn(ace=False)
        assert 0 < oracle_bits(acct, d)[0] == acct.layout.iq_unace

    def test_nop_bits(self, acct):
        d = make_dyn(opclass=OpClass.NOP, ace=False)
        assert oracle_bits(acct, d)[0] == acct.layout.iq_nop

    def test_squashed_contributes_nothing(self, acct):
        d = make_dyn(state=DynState.SQUASHED)
        assert oracle_bits(acct, d) == (0, 0, 0)

    def test_predicted_bits_ignore_oracle(self, acct):
        d = make_dyn(ace=False, ace_pred=True)
        assert pred_bits(acct.iq_pred_bits, d) == acct.layout.iq_ace


class TestAttribution:
    def test_iq_avf_arithmetic(self, acct):
        # One ACE instruction resident 10 cycles in a 100-cycle run.
        acct.attribute((make_dyn(dispatch=0, iq_leave=10, issue=-1, commit=-1),))
        acct.close(total_cycles=100)
        m = MachineConfig()
        expected = (acct.layout.iq_ace * 10) / (m.iq_size * acct.layout.iq_entry_bits * 100)
        assert acct.overall_avf(Structure.IQ) == pytest.approx(expected)

    def test_rob_residency_dispatch_to_commit(self, acct):
        acct.attribute((make_dyn(dispatch=5, iq_leave=-1, issue=-1, commit=25),))
        acct.close(100)
        m = MachineConfig()
        expected = (acct.layout.rob_ace * 20) / (
            m.num_threads * m.rob_size_per_thread * acct.layout.rob_entry_bits * 100
        )
        assert acct.overall_avf(Structure.ROB) == pytest.approx(expected)

    def test_fu_latency_attribution(self, acct):
        acct.attribute((make_dyn(dispatch=-1, iq_leave=-1, issue=3, commit=-1, latency=4),))
        acct.close(100)
        assert acct.overall_avf(Structure.FU) > 0

    def test_fu_mem_counts_single_cycle(self, acct):
        from repro.isa.instruction import MemBehavior, MemPattern
        st = StaticInst(
            pc=0x10, opclass=OpClass.LOAD, dest=1, srcs=(2,),
            mem=MemBehavior(MemPattern.HOT, base=0, footprint=4096),
        )
        d = DynInst(tag=1, thread=0, static=st, stream_pos=0)
        d.state = DynState.COMMITTED
        d.ace = True
        d.issue_cycle = 0
        d.exec_latency = 212  # L2 miss: must NOT occupy the FU that long
        d.dispatch_cycle = -1
        acct.attribute((d,))
        acct2 = AVFAccount(MachineConfig(), interval_cycles=100)
        alu = make_dyn(dispatch=-1, iq_leave=-1, issue=0, commit=-1, latency=1)
        acct2.attribute((alu,))
        acct.close(100)
        acct2.close(100)
        assert acct.overall_avf(Structure.FU) == acct2.overall_avf(Structure.FU)

    def test_rf_lifetime(self, acct):
        # (producer commit, last read, closing cycle)
        acct.attribute_rf(0, [(10, 40, 50)])
        acct.close(100)
        assert acct.overall_avf(Structure.RF) > 0

    def test_rf_never_read_contributes_nothing(self, acct):
        acct.attribute_rf(0, [(10, -1, 50)])
        acct.close(100)
        assert acct.overall_avf(Structure.RF) == 0


class TestIntervals:
    def test_bucketing_by_leave_cycle(self, acct):
        acct.attribute((make_dyn(tag=1, dispatch=0, iq_leave=50, issue=-1, commit=-1),))
        acct.attribute((make_dyn(tag=2, dispatch=100, iq_leave=150, issue=-1, commit=-1),))
        acct.close(200)
        series = acct.interval_avf(Structure.IQ)
        assert len(series) == 2
        assert series[0] > 0 and series[1] > 0

    def test_empty_intervals_are_zero(self, acct):
        acct.attribute((make_dyn(dispatch=0, iq_leave=10, issue=-1, commit=-1),))
        acct.close(300)
        series = acct.interval_avf(Structure.IQ)
        assert series[1] == 0.0 and series[2] == 0.0

    def test_no_cycles_no_avf(self, acct):
        assert acct.overall_avf(Structure.IQ) == 0.0
        assert acct.interval_avf(Structure.IQ) == []

    def test_avf_bounded_by_one(self, acct):
        # Saturate: more contributions than physically possible is a bug,
        # so a fully-occupied IQ of ACE instructions must stay <= 1.
        m = MachineConfig()
        for tag in range(m.iq_size):
            acct.attribute((make_dyn(tag=tag, dispatch=0, iq_leave=100, issue=-1, commit=-1),))
        acct.close(100)
        assert acct.overall_avf(Structure.IQ) <= 1.0


class TestCapacity:
    def test_capacity_bits(self, acct):
        m = MachineConfig()
        assert acct.capacity_bits(Structure.IQ) == m.iq_size * acct.layout.iq_entry_bits
        assert acct.capacity_bits(Structure.RF) == (
            max(acct.layout.rf_physical_regs, m.num_threads * 64) * acct.layout.rf_reg_bits
        )


class TestIntervalBoundary:
    """Regression: an instruction leaving *exactly* on an interval edge
    must be attributed to the interval it was last resident in, matching
    the cycle-by-cycle online accumulation."""

    def test_interval_bucket_edges(self):
        assert interval_bucket(99, 100) == 0
        assert interval_bucket(100, 100) == 1
        assert interval_bucket(0, 100) == 0
        # Guard against negative sentinel cycles.
        assert interval_bucket(-1, 100) == 0

    def test_leave_on_edge_lands_in_previous_interval(self, acct):
        # Resident cycles 90..99, leaves at cycle 100 (= interval edge).
        # Last resident cycle is 99 -> interval 0, not interval 1.
        acct.attribute((make_dyn(dispatch=90, iq_leave=100, issue=-1, commit=-1),))
        acct.close(200)
        series = acct.interval_avf(Structure.IQ)
        assert series[0] > 0.0
        assert series[1] == 0.0

    def test_rob_commit_on_edge_lands_in_previous_interval(self, acct):
        acct.attribute((make_dyn(dispatch=95, iq_leave=-1, issue=-1, commit=100),))
        acct.close(200)
        series = acct.interval_avf(Structure.ROB)
        assert series[0] > 0.0
        assert series[1] == 0.0

    def test_fu_completion_on_edge_lands_in_previous_interval(self, acct):
        # Issue at 96, latency 4: occupies cycles 96..99, done at 100.
        acct.attribute((
            make_dyn(dispatch=-1, iq_leave=-1, issue=96, commit=-1, latency=4),
        ))
        acct.close(200)
        series = acct.interval_avf(Structure.FU)
        assert series[0] > 0.0
        assert series[1] == 0.0

    def test_rf_last_read_on_edge_lands_in_previous_interval(self, acct):
        acct.attribute_rf(0, [(60, 100, 200)])
        acct.close(200)
        series = acct.interval_avf(Structure.RF)
        assert series[0] > 0.0
        assert series[1] == 0.0

    def test_oracle_matches_per_cycle_accumulation(self, acct):
        """Oracle interval bit-cycles must equal what a per-cycle online
        counter charging each resident cycle's interval would record,
        when every residency fits inside one interval."""
        # Three residencies, each within a single interval, including
        # one whose leave cycle is exactly the edge.
        spans = [(0, 40), (60, 100), (150, 180)]  # [dispatch, leave)
        for tag, (d, l) in enumerate(spans, start=1):
            acct.attribute((
                make_dyn(tag=tag, dispatch=d, iq_leave=l, issue=-1, commit=-1),
            ))
        acct.close(300)
        # Online reference: charge iq_ace bits for every resident cycle.
        online = {}
        for d, l in spans:
            for cycle in range(d, l):
                b = cycle // acct.interval_cycles
                online[b] = online.get(b, 0) + acct.layout.iq_ace
        denom = acct.capacity_bits(Structure.IQ) * acct.interval_cycles
        expected = [online.get(i, 0) / denom for i in range(3)]
        assert acct.interval_avf(Structure.IQ) == pytest.approx(expected)


class TestBusEmission:
    def _bus_with(self, topic):
        from repro.telemetry.bus import EventBus

        bus = EventBus()
        events = []
        bus.subscribe(topic, events.append)
        return bus, events

    def test_attribution_event_carries_bit_cycles(self, acct):
        from repro.telemetry.topics import TOPIC_RELIABILITY_ATTRIBUTION

        bus, events = self._bus_with(TOPIC_RELIABILITY_ATTRIBUTION)
        acct.bus = bus
        acct.attribute((make_dyn(dispatch=0, iq_leave=10, issue=10, commit=20),))
        assert len(events) == 1
        p = events[0].payload
        assert p["iq_bit_cycles"] == acct.layout.iq_ace * 10
        assert p["rob_bit_cycles"] == acct.layout.rob_ace * 20
        assert p["ace"] is True and p["quiet"] is False
        assert p["iq_leave_cycle"] == 10

    def test_no_subscriber_no_emission(self, acct):
        from repro.telemetry.bus import EventBus

        acct.bus = EventBus()
        # Must not raise and must still attribute normally.
        acct.attribute((make_dyn(dispatch=0, iq_leave=10, issue=-1, commit=-1),))
        acct.close(100)
        assert acct.overall_avf(Structure.IQ) > 0

    def test_rf_event(self, acct):
        from repro.telemetry.topics import TOPIC_RELIABILITY_RF

        bus, events = self._bus_with(TOPIC_RELIABILITY_RF)
        acct.bus = bus

        acct.attribute_rf(0, [(10, 40, 50)])
        assert len(events) == 1
        assert events[0].payload["bit_cycles"] == acct.layout.rf_reg_bits * 30
