"""Gshare direction predictor, BTB and RAS."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BranchPredictorConfig
from repro.frontend.branch_predictor import BranchPredictor


def make_bp(threads=1, **kw):
    return BranchPredictor(BranchPredictorConfig(**kw), threads)


class TestDirection:
    def test_initial_prediction_weakly_taken(self):
        bp = make_bp()
        taken, _ = bp.predict_direction(0x1000, 0)
        assert taken is True

    def test_learns_not_taken(self):
        bp = make_bp()
        for _ in range(4):
            pred, idx = bp.predict_direction(0x1000, 0)
            bp.update_direction(0x1000, 0, taken=False, predicted=pred, idx=idx)
        taken, _ = bp.predict_direction(0x1000, 0)
        assert taken is False

    def test_saturating_counter_hysteresis(self):
        bp = make_bp()
        # Drive to strongly taken, a single not-taken shouldn't flip it.
        for _ in range(4):
            pred, idx = bp.predict_direction(0x1000, 0)
            bp.update_direction(0x1000, 0, True, pred, idx)
        pred, idx = bp.predict_direction(0x1000, 0)
        bp.update_direction(0x1000, 0, False, pred, idx)
        taken, _ = bp.predict_direction(0x1000, 0)
        assert taken is True

    def test_deterministic_branch_converges(self):
        bp = make_bp()
        correct = 0
        for i in range(200):
            pred, idx = bp.predict_direction(0x2000, 0)
            bp.update_direction(0x2000, 0, False, pred, idx)
            correct += pred is False
        assert correct >= 190  # only initial counters mispredict

    def test_history_separates_patterns(self):
        # Alternating pattern is perfectly predictable with history.
        bp = make_bp()
        outcomes = [bool(i % 2) for i in range(400)]
        correct = 0
        for i, t in enumerate(outcomes):
            pred, idx = bp.predict_direction(0x3000, 0)
            bp.update_direction(0x3000, 0, t, pred, idx)
            if i >= 100:
                correct += pred is t
        assert correct / 300 > 0.95

    def test_per_thread_history_isolated(self):
        bp = make_bp(threads=2)
        for _ in range(50):
            p0, i0 = bp.predict_direction(0x1000, 0)
            bp.update_direction(0x1000, 0, True, p0, i0)
        h0, h1 = bp._hist[0], bp._hist[1]
        assert h0 != 0
        assert h1 == 0

    def test_accuracy_stat(self):
        bp = make_bp()
        pred, idx = bp.predict_direction(0x1000, 0)
        bp.update_direction(0x1000, 0, pred, pred, idx)
        bp.update_direction(0x1000, 0, not pred, pred, idx)
        assert bp.stats.direction_lookups == 2
        assert bp.stats.direction_correct == 1
        assert bp.stats.direction_accuracy == 0.5


class TestBTB:
    def test_miss_returns_none(self):
        bp = make_bp()
        assert bp.btb_lookup(0x1000) is None

    def test_install_and_hit(self):
        bp = make_bp()
        bp.btb_update(0x1000, 42)
        assert bp.btb_lookup(0x1000) == 42

    def test_update_overwrites(self):
        bp = make_bp()
        bp.btb_update(0x1000, 42)
        bp.btb_update(0x1000, 43)
        assert bp.btb_lookup(0x1000) == 43

    def test_associativity_eviction(self):
        bp = make_bp(btb_entries=4, btb_assoc=4)  # one set
        for i in range(5):
            bp.btb_update(0x1000 + i * 4, i)
        assert bp.btb_lookup(0x1000) is None  # LRU evicted
        assert bp.btb_lookup(0x1000 + 4 * 4) == 4

    def test_lru_refresh_on_lookup(self):
        bp = make_bp(btb_entries=2, btb_assoc=2)
        bp.btb_update(0x1000, 1)
        bp.btb_update(0x1000 + 2 * 4 * 1, 2)  # same set (1 set only)
        bp.btb_lookup(0x1000)  # refresh
        bp.btb_update(0x1000 + 4 * 4, 3)  # evicts entry 2
        assert bp.btb_lookup(0x1000) == 1

    def test_hit_stats(self):
        bp = make_bp()
        bp.btb_lookup(0x1000)
        bp.btb_update(0x1000, 7)
        bp.btb_lookup(0x1000)
        assert bp.stats.btb_lookups == 2
        assert bp.stats.btb_hits == 1


class TestRAS:
    def test_push_pop_lifo(self):
        bp = make_bp()
        bp.ras_push(0, 10)
        bp.ras_push(0, 20)
        assert bp.ras_pop(0) == 20
        assert bp.ras_pop(0) == 10

    def test_underflow_returns_none(self):
        bp = make_bp()
        assert bp.ras_pop(0) is None

    def test_overflow_drops_oldest(self):
        bp = make_bp(ras_entries=2)
        bp.ras_push(0, 1)
        bp.ras_push(0, 2)
        bp.ras_push(0, 3)
        assert bp.ras_pop(0) == 3
        assert bp.ras_pop(0) == 2
        assert bp.ras_pop(0) is None

    def test_per_thread_stacks(self):
        bp = make_bp(threads=2)
        bp.ras_push(0, 1)
        assert bp.ras_pop(1) is None
        assert bp.ras_pop(0) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_property_stats_consistent(outcomes):
    bp = make_bp()
    for t in outcomes:
        pred, idx = bp.predict_direction(0x1000, 0)
        bp.update_direction(0x1000, 0, t, pred, idx)
    assert bp.stats.direction_lookups == len(outcomes)
    assert 0 <= bp.stats.direction_correct <= len(outcomes)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 63)), max_size=200))
def test_property_btb_lookup_returns_last_installed(pairs):
    bp = make_bp()
    last = {}
    for pc, target in pairs:
        bp.btb_update(pc, target)
        last[pc] = target
        # The just-installed entry is always MRU, hence resident.
        assert bp.btb_lookup(pc) == target
