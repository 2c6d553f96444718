"""The paper's derived metrics where the experiments compute them:
harmonic IPC (``runner.harmonic_ipc``) and PVE
(``SimulationResult.pve`` / ``pve_rob``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import SimulationResult
from repro.harness.runner import harmonic_ipc


class TestHarmonicIPC:
    def test_equal_shares(self):
        # Each thread at half its solo speed: hmean of relative IPCs = N / sum(2) = 0.5
        assert harmonic_ipc([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_fairness_penalized(self):
        balanced = harmonic_ipc([1.0, 1.0], [2.0, 2.0])
        skewed = harmonic_ipc([1.9, 0.1], [2.0, 2.0])
        assert skewed < balanced

    def test_starved_thread_zeroes(self):
        assert harmonic_ipc([1.0, 0.0], [2.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            harmonic_ipc([1.0], [1.0, 2.0])

    def test_zero_single_rejected(self):
        with pytest.raises(ValueError):
            harmonic_ipc([1.0], [0.0])

    def test_empty(self):
        assert harmonic_ipc([], []) == 0.0


def result(iq_avf, rob_avf=(), warm_intervals=0, interval=100):
    """A result holding only the interval AVF traces ``pve`` reads."""
    return SimulationResult(
        cycles=interval * max(len(iq_avf), len(rob_avf)),
        warmup_cycles=warm_intervals * interval,
        interval_cycles=interval,
        committed=0, per_thread_committed=(0,), warm_committed=0,
        warm_per_thread_committed=(0,), intervals=[],
        iq_interval_avf=list(iq_avf), rob_interval_avf=list(rob_avf),
        overall_avf={}, squashed=0, flushes=0, bp_accuracy=0.0,
        l1d_miss_rate=0.0, l2_miss_rate=0.0, l2_misses=0, ace_fraction=0.0,
    )


class TestPVE:
    def test_fraction_exceeding(self):
        res = result([0.1, 0.3, 0.5, 0.7], rob_avf=[0.5, 0.5, 0.5, 0.1])
        assert res.pve(0.4) == 0.5
        assert res.pve_rob(0.4) == 0.75

    def test_boundary_not_emergency(self):
        res = result([0.4], rob_avf=[0.4])
        assert res.pve(0.4) == 0.0
        assert res.pve_rob(0.4) == 0.0

    def test_empty(self):
        assert result([]).pve(0.5) == 0.0
        assert result([]).pve_rob(0.5) == 0.0
        # Every interval inside the warm-up: no measured interval.
        assert result([0.9, 0.9], rob_avf=[0.9, 0.9], warm_intervals=2).pve(0.5) == 0.0

    def test_warmup_intervals_excluded(self):
        res = result([0.9, 0.9, 0.1, 0.5], rob_avf=[0.9, 0.1, 0.1, 0.1], warm_intervals=2)
        assert res.pve(0.4) == 0.5
        assert res.pve_rob(0.4) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
)
def test_property_harmonic_leq_min_relative(smt):
    single = [10.0] * len(smt)
    h = harmonic_ipc(smt, single)
    rel = [s / 10.0 for s in smt]
    assert h <= max(rel) + 1e-9
    assert h >= min(rel) - 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=5))
def test_property_pve_bounded(vals, target, warm_intervals):
    res = result(vals, rob_avf=vals, warm_intervals=warm_intervals)
    warm = vals[warm_intervals:]
    expected = sum(a > target for a in warm) / len(warm) if warm else 0.0
    assert res.pve(target) == res.pve_rob(target) == pytest.approx(expected)
    assert 0.0 <= res.pve(target) <= 1.0
