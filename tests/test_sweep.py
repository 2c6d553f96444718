"""Parameter-sweep utility."""

import pytest

from repro.harness.parallel import parallel_sweep
from repro.harness.runner import BenchScale, clear_caches
from repro.harness.sweep import sweep

TINY = BenchScale(
    max_cycles=2_000, warmup_cycles=400, interval_cycles=400,
    ace_window=800, profile_instructions=6_000, profile_window=1_500,
)


@pytest.fixture(autouse=True, scope="module")
def _caches():
    clear_caches()
    yield
    clear_caches()


class TestSweep:
    def test_grid_size(self):
        rows = sweep(
            "CPU-A", TINY,
            axes={"scheduler": ["oldest", "visa"], "dispatch": [None, "opt2"]},
        )
        assert len(rows) == 4
        assert {(r["scheduler"], r["dispatch"]) for r in rows} == {
            ("oldest", None), ("oldest", "opt2"), ("visa", None), ("visa", "opt2"),
        }

    def test_default_metrics_present(self):
        rows = sweep("CPU-A", TINY, axes={"scheduler": ["oldest"]})
        assert {"ipc", "iq_avf", "max_iq_avf"} <= set(rows[0])

    def test_normalized(self):
        rows = sweep(
            "CPU-A", TINY,
            axes={"scheduler": ["oldest", "visa"]},
            normalize_to={"scheduler": "oldest"},
        )
        base = next(r for r in rows if r["scheduler"] == "oldest")
        assert base["ipc"] == pytest.approx(1.0)
        assert base["iq_avf"] == pytest.approx(1.0)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep("CPU-A", TINY, axes={})

    @pytest.mark.parametrize(
        "call",
        [
            {"axes": {"bogus": [1, 2]}},
            {"axes": {"scheduler": ["oldest"]}, "backend": "fast"},
            {"axes": {"scheduler": ["oldest"]}, "normalize_to": {"bogus": 1}},
        ],
        ids=["axis", "fixed", "normalize_to"],
    )
    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
    def test_unknown_kwarg_rejected_before_running(self, monkeypatch, parallel, call):
        import repro.harness.parallel as parallel_mod
        import repro.harness.sweep as sweep_mod

        def no_run(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sweep_mod, "run_sim", no_run)
        monkeypatch.setattr(parallel_mod, "run_sim", no_run)
        with pytest.raises(ValueError, match="valid keys: .*scheduler"):
            if parallel:
                parallel_sweep("CPU-A", TINY, checkpoint=None, **call)
            else:
                sweep("CPU-A", TINY, **call)

    def test_zero_baseline_metric_is_nan_not_zero(self):
        # Regression: a 0.0 baseline metric used to normalize to 0.0,
        # indistinguishable from a perfect reduction.
        import math

        with pytest.warns(RuntimeWarning, match="baseline metric 'dead'"):
            rows = sweep(
                "CPU-A", TINY,
                axes={"scheduler": ["oldest", "visa"]},
                metrics={"dead": lambda r: 0.0, "ipc": lambda r: r.ipc},
                normalize_to={"scheduler": "oldest"},
            )
        assert all(math.isnan(r["dead"]) for r in rows)
        # Metrics with a healthy baseline still normalize normally.
        base = next(r for r in rows if r["scheduler"] == "oldest")
        assert base["ipc"] == pytest.approx(1.0)
