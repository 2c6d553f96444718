"""SMT fetch policies against a fake core."""

import pytest

from repro.frontend.fetch_policy import (
    DGPolicy,
    FlushPolicy,
    ICountPolicy,
    PDGPolicy,
    RoundRobinPolicy,
    StallPolicy,
    make_fetch_policy,
)
from repro.isa.instruction import DynInst, MemBehavior, MemPattern, OpClass, StaticInst


class FakeCore:
    """Minimal CoreView implementation."""

    def __init__(self, n=4):
        self.num_threads = n
        self.cycle = 0
        self._in_flight = [0] * n
        self._l2 = [0] * n
        self._l1d = [0] * n
        self.flush_requests = []

    def icounts(self):
        return list(self._in_flight)

    def outstanding_l2(self, tid):
        return self._l2[tid]

    def outstanding_l1d(self, tid):
        return self._l1d[tid]

    def request_flush(self, tid, after_tag):
        self.flush_requests.append((tid, after_tag))


def make_load(tag=1, thread=0, pc=0x1000):
    st = StaticInst(
        pc=pc, opclass=OpClass.LOAD, dest=1, srcs=(2,),
        mem=MemBehavior(pattern=MemPattern.HOT, base=0, footprint=4096),
    )
    return DynInst(tag=tag, thread=thread, static=st, stream_pos=0)


class TestICount:
    def test_orders_by_in_flight(self):
        core = FakeCore()
        core._in_flight = [5, 1, 3, 2]
        assert ICountPolicy().priority(core) == [1, 3, 2, 0]

    def test_tie_breaks_by_thread_id(self):
        core = FakeCore()
        core._in_flight = [2, 2, 1, 1]
        assert ICountPolicy().priority(core) == [2, 3, 0, 1]

    def test_never_gates(self):
        core = FakeCore()
        core._l2 = [5, 5, 5, 5]
        assert len(ICountPolicy().select(core)) == 4


class TestRoundRobin:
    def test_rotates(self):
        core = FakeCore()
        rr = RoundRobinPolicy()
        first = rr.priority(core)[0]
        core.cycle += 1
        second = rr.priority(core)[0]
        assert first != second

    def test_order_repeats_every_n_cycles(self):
        rr = RoundRobinPolicy()
        core = FakeCore(n=4)
        for c in range(12):
            core.cycle = c
            order = rr.priority(core)
            assert sorted(order) == [0, 1, 2, 3]
            core.cycle = c + 4
            assert rr.priority(core) == order


class TestStall:
    def test_gates_thread_with_l2_miss(self):
        core = FakeCore()
        core._l2[1] = 1
        selected = StallPolicy().select(core)
        assert 1 not in selected
        assert len(selected) == 3

    def test_all_gated_selects_none(self):
        core = FakeCore()
        core._l2 = [1, 1, 1, 1]
        assert StallPolicy().select(core) == []


class TestFlush:
    def test_requests_flush_on_l2_miss(self):
        core = FakeCore()
        inst = make_load(tag=7, thread=2)
        FlushPolicy().on_l2_miss(core, inst)
        assert core.flush_requests == [(2, 7)]

    def test_always_fetches_at_least_one_thread(self):
        core = FakeCore()
        core._l2 = [1, 1, 1, 1]
        core._in_flight = [4, 1, 2, 3]
        selected = FlushPolicy().select(core)
        assert selected == [1]  # the ICOUNT-preferred thread

    def test_gates_like_stall_otherwise(self):
        core = FakeCore()
        core._l2[0] = 2
        selected = FlushPolicy().select(core)
        assert 0 not in selected


class TestDG:
    def test_gates_on_threshold(self):
        core = FakeCore()
        core._l1d[0] = 2
        policy = DGPolicy(threshold=2)
        assert policy.gated(core, 0) is True
        assert policy.gated(core, 1) is False

    def test_below_threshold_not_gated(self):
        core = FakeCore()
        core._l1d[0] = 1
        assert DGPolicy(threshold=2).gated(core, 0) is False

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DGPolicy(threshold=0)


class TestPDG:
    def test_untrained_predicts_no_miss(self):
        p = PDGPolicy()
        assert p.predict_miss(0x1000) is False

    def test_learns_missing_load(self):
        p = PDGPolicy()
        inst = make_load()
        for _ in range(2):
            p.on_load_resolved(FakeCore(), inst, l1_miss=True)
        assert p.predict_miss(inst.pc) is True

    def test_unlearns(self):
        p = PDGPolicy()
        inst = make_load()
        for _ in range(3):
            p.on_load_resolved(FakeCore(), inst, l1_miss=True)
        for _ in range(3):
            p.on_load_resolved(FakeCore(), inst, l1_miss=False)
        assert p.predict_miss(inst.pc) is False

    def test_gating_via_predicted_pending(self):
        core = FakeCore()
        p = PDGPolicy(threshold=1)
        inst = make_load()
        for _ in range(2):
            p.on_load_resolved(core, inst, l1_miss=True)
        p.on_load_dispatch(core, inst)
        assert p.gated(core, 0) is True
        p.on_load_left(core, inst)
        assert p.gated(core, 0) is False

    def test_pending_count_not_double_decremented(self):
        core = FakeCore()
        p = PDGPolicy(threshold=1)
        inst = make_load()
        for _ in range(2):
            p.on_load_resolved(core, inst, l1_miss=True)
        p.on_load_dispatch(core, inst)
        p.on_load_left(core, inst)
        p.on_load_left(core, inst)  # e.g. squash after completion event
        assert p._pending[0] == 0

    def test_non_predicted_load_not_counted(self):
        core = FakeCore()
        p = PDGPolicy(threshold=1)
        inst = make_load()
        p.on_load_dispatch(core, inst)  # untrained: predicted hit
        assert p.gated(core, 0) is False

    def test_rejects_bad_table_size(self):
        with pytest.raises(ValueError):
            PDGPolicy(table_size=1000)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("icount", ICountPolicy), ("rr", RoundRobinPolicy), ("stall", StallPolicy),
        ("flush", FlushPolicy), ("dg", DGPolicy), ("pdg", PDGPolicy),
    ])
    def test_creates_each(self, name, cls):
        assert isinstance(make_fetch_policy(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_fetch_policy("FLUSH"), FlushPolicy)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_fetch_policy("bogus")
