"""Dynamic Vulnerability Management controller (Section 5, Figure 7)."""

import pytest

from repro.config import ReliabilityConfig
from repro.reliability.dvm import DVMController


def make_dvm(target=0.2, static=None, **cfg):
    return DVMController(target, config=ReliabilityConfig(**cfg), static_ratio=static)


class TestTrigger:
    def test_trigger_threshold_is_fraction_of_target(self):
        d = make_dvm(target=0.2)
        assert d.trigger_threshold == pytest.approx(0.18)  # 90% of target

    def test_sample_above_trigger_arms(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.19)
        assert d.triggered

    def test_sample_below_trigger_disarms(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.19)
        d.on_sample(0.10)
        assert not d.triggered

    def test_l2_miss_arms_immediately(self):
        d = make_dvm(target=0.2)
        assert not d.triggered
        d.on_l2_miss()
        assert d.triggered
        assert d.stats.l2_triggers == 1

    def test_fresh_controller_starts_in_initial_state(self):
        d = make_dvm(target=0.2)
        assert not d.triggered
        assert d.restore_thread is None
        assert d.wq_ratio == d.config.wq_ratio_initial
        assert d.stats.samples == 0 and d.stats.mean_ratio == 0.0

    def test_fresh_controller_has_zero_estimate_and_permissive_gate(self):
        d = make_dvm(target=0.2)
        assert d.last_estimate == 0.0
        d.on_sample(0.9)  # armed, but no ratio gate computed yet
        assert d.allow_dispatch(0)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            DVMController(0.0)
        with pytest.raises(ValueError):
            DVMController(1.5)


class TestRatioAdaptation:
    def test_rapid_decrease_on_emergency(self):
        d = make_dvm(target=0.2)
        before = d.wq_ratio
        d.on_sample(0.5)
        assert d.wq_ratio == pytest.approx(before * 0.5)

    def test_slow_increase_when_calm(self):
        d = make_dvm(target=0.2)
        before = d.wq_ratio
        d.on_sample(0.01)
        cfg = d.config
        assert d.wq_ratio == pytest.approx(
            min(cfg.wq_ratio_max, before + cfg.wq_ratio_increase_step)
        )

    def test_clamped_at_min(self):
        d = make_dvm(target=0.2)
        for _ in range(50):
            d.on_sample(0.9)
        assert d.wq_ratio == d.config.wq_ratio_min

    def test_clamped_at_max(self):
        d = make_dvm(target=0.2)
        for _ in range(200):
            d.on_sample(0.0)
        assert d.wq_ratio == d.config.wq_ratio_max

    def test_static_ratio_never_adapts(self):
        d = make_dvm(target=0.2, static=3.0)
        d.on_sample(0.9)
        d.on_sample(0.0)
        assert d.wq_ratio == 3.0
        assert d.is_static

    def test_mean_ratio_after_one_calm_sample(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.0)  # slow increase from the initial ratio
        expected = min(
            d.config.wq_ratio_max,
            d.config.wq_ratio_initial + d.config.wq_ratio_increase_step,
        )
        assert d.stats.mean_ratio == pytest.approx(expected)

    def test_ratio_history_recorded(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.1)
        d.on_sample(0.5)
        assert len(d.stats.ratio_history) == 2
        assert d.stats.mean_ratio > 0


class TestResponse:
    def test_untriggered_always_allows(self):
        d = make_dvm(target=0.2)
        d.recompute_ratio_gate(waiting=1_000, ready=1)
        assert d.allow_dispatch(0)

    def test_triggered_with_good_ratio_allows(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.9)
        d.recompute_ratio_gate(waiting=1, ready=10)
        assert d.allow_dispatch(0)

    def test_triggered_with_bad_ratio_blocks(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.9)
        d.recompute_ratio_gate(waiting=10_000, ready=1)
        assert not d.allow_dispatch(0)
        assert d.stats.throttled_dispatch_checks == 1

    def test_restore_thread_passes(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.9)
        d.recompute_ratio_gate(waiting=10_000, ready=1)
        d.set_restore_thread(2)
        assert d.allow_dispatch(2)
        assert not d.allow_dispatch(0)
        assert d.stats.restore_grants == 1

    def test_zero_ready_uses_floor(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.9)
        d.recompute_ratio_gate(waiting=0, ready=0)
        assert d.allow_dispatch(0)  # 0 <= ratio * max(0,1)

    def test_restore_eligibility_tracks_estimate(self):
        d = make_dvm(target=0.2)
        d.on_sample(0.9)
        assert not d.restore_eligible
        d.on_sample(0.01)
        assert d.restore_eligible
