"""Dynamic IQ resource allocation — Figures 3 and 4."""

import pytest

from repro.reliability.resource_alloc import (
    DynamicIQAllocation,
    IntervalSnapshot,
    L2MissSensitiveAllocation,
    UnlimitedDispatch,
)


def snap(ipc, rql=10.0, l2=0, cycles=10_000):
    return IntervalSnapshot(
        cycle=10_000,
        committed=int(ipc * cycles),
        cycles=cycles,
        avg_ready_queue_len=rql,
        l2_misses=l2,
    )


class TestFigure3Formula:
    """The four-region formula must match Figure 3 exactly for a
    96-entry IQ and 8-wide commit."""

    def setup_method(self):
        self.d = DynamicIQAllocation(96, commit_width=8, num_regions=4, min_limit=1)

    @pytest.mark.parametrize("ipc,region", [
        (0.5, 0), (2.0, 0), (2.1, 1), (4.0, 1), (4.5, 2), (6.0, 2), (6.1, 3), (8.0, 3),
    ])
    def test_region_boundaries(self, ipc, region):
        # Paper: 0<IPC<=2, 2<IPC<=4, 4<IPC<=6, 6<IPC<=8.  Our region_of
        # uses half-open [lo, hi) intervals; boundary values land in the
        # adjacent region but the caps differ by one step only.
        assert self.d.region_of(ipc) in (region, max(region - 1, 0))

    @pytest.mark.parametrize("ipc,add,cap", [
        (1.0, 16, 32),   # min(RQL + 96/6, 96/3)
        (3.0, 32, 48),   # min(RQL + 96/3, 96/2)
        (5.0, 48, 64),   # min(RQL + 96/2, 2*96/3)
        (7.0, 64, 96),   # min(RQL + 2*96/3, 96)
    ])
    def test_figure3_values(self, ipc, add, cap):
        # With a tiny RQL the additive term dominates…
        assert self.d.limit_for(ipc, rql=0.0) == add
        # …with a huge RQL the cap dominates.
        assert self.d.limit_for(ipc, rql=1_000.0) == cap

    def test_limit_updates_on_interval(self):
        self.d.on_interval(snap(ipc=1.0, rql=4.0))
        assert self.d.iq_limit == 20  # 4 + 16

    def test_limit_clamped_to_iq_size(self):
        d = DynamicIQAllocation(96)
        d.on_interval(snap(ipc=7.5, rql=100.0))
        assert d.iq_limit <= 96

    def test_min_limit(self):
        d = DynamicIQAllocation(96, min_limit=24)
        d.on_interval(snap(ipc=0.1, rql=0.0))
        assert d.iq_limit >= 24

    def test_history_recorded(self):
        self.d.on_interval(snap(ipc=1.0))
        self.d.on_interval(snap(ipc=7.0))
        assert len(self.d.limit_history) == 2

    def test_general_region_count(self):
        d2 = DynamicIQAllocation(96, num_regions=2)
        d8 = DynamicIQAllocation(96, num_regions=8)
        assert d2.region_of(3.9) == 0 and d2.region_of(4.1) == 1
        assert d8.region_of(7.9) == 7

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DynamicIQAllocation(96, num_regions=0)
        with pytest.raises(ValueError):
            DynamicIQAllocation(96, min_limit=0)
        with pytest.raises(ValueError):
            DynamicIQAllocation(0)


class TestOptimization2:
    """Figure 4: FLUSH when L2 misses exceed Tcache_miss."""

    def setup_method(self):
        self.d = L2MissSensitiveAllocation(96, t_cache_miss=16)

    def test_below_threshold_behaves_like_opt1(self):
        self.d.on_interval(snap(ipc=1.0, rql=0.0, l2=16))
        assert not self.d.flush_mode
        assert self.d.iq_limit == 16  # Figure 3 region 0 additive term

    def test_above_threshold_enables_flush(self):
        self.d.on_interval(snap(ipc=1.0, rql=0.0, l2=17))
        assert self.d.flush_mode
        assert self.d.iq_limit == 96  # cap lifted; FLUSH manages instead

    def test_mode_toggles_back(self):
        self.d.on_interval(snap(ipc=1.0, l2=100))
        self.d.on_interval(snap(ipc=1.0, l2=0))
        assert not self.d.flush_mode

    def test_flush_interval_counter(self):
        self.d.on_interval(snap(ipc=1.0, l2=100))
        self.d.on_interval(snap(ipc=1.0, l2=100))
        assert self.d.flush_intervals == 2

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            L2MissSensitiveAllocation(96, t_cache_miss=-1)


class TestUnlimited:
    def test_never_restricts(self):
        d = UnlimitedDispatch(96)
        d.on_interval(snap(ipc=0.0, rql=0.0, l2=10_000))
        assert d.iq_limit == 96
        assert not d.flush_mode


class TestIntervalSnapshot:
    def test_ipc(self):
        s = snap(ipc=2.0)
        assert s.ipc == pytest.approx(2.0)

    def test_zero_cycles(self):
        s = IntervalSnapshot(cycle=0, committed=5, cycles=0, avg_ready_queue_len=0, l2_misses=0)
        assert s.ipc == 0.0


class TestLinearRatioMode:
    """The paper's alternative 'linear model' ratio setup."""

    def setup_method(self):
        self.d = DynamicIQAllocation(96, ratio_mode="linear", min_limit=1)

    def test_endpoints_match_static_extremes(self):
        # IPC 0 -> additive 1/6 of IQ; IPC 8 -> 4/6 of IQ.
        assert self.d.limit_for(0.0, rql=0.0) == 16
        assert self.d.limit_for(8.0, rql=0.0) == 64

    def test_midpoint_interpolates(self):
        assert self.d.limit_for(4.0, rql=0.0) == 40  # (1+1.5)/6*96

    def test_cap_one_step_above_add(self):
        assert self.d.limit_for(0.0, rql=1_000.0) == 32

    def test_cap_clamped_to_iq(self):
        assert self.d.limit_for(8.0, rql=1_000.0) <= 96

    def test_ipc_clamped(self):
        assert self.d.limit_for(100.0, rql=0.0) == self.d.limit_for(8.0, rql=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DynamicIQAllocation(96, ratio_mode="quadratic")

    def test_similar_efficiency_hook(self):
        """Static and linear produce comparable caps in mid regions —
        the paper's reported observation."""
        static = DynamicIQAllocation(96, ratio_mode="static", min_limit=1)
        for ipc in (1.0, 3.0, 5.0, 7.0):
            lin = self.d.limit_for(ipc, rql=10.0)
            sta = static.limit_for(ipc, rql=10.0)
            assert abs(lin - sta) <= 16
