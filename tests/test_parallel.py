"""Parallel execution engine: determinism, checkpoint/resume, degradation."""

import json
import math
import os

import pytest

from repro.harness import parallel as parallel_mod
from repro.harness.experiments import SUITES
from repro.harness.parallel import (
    CheckpointShard,
    Task,
    config_key,
    execute_tasks,
    parallel_figures,
    parallel_sweep,
)
from repro.harness.runner import BenchScale, clear_caches
from repro.harness.sweep import sweep
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_HARNESS_POINT

TINY = BenchScale(
    max_cycles=2_000, warmup_cycles=400, interval_cycles=400,
    ace_window=800, profile_instructions=6_000, profile_window=1_500,
)

AXES = {"scheduler": ["oldest", "visa"], "dispatch": [None, "opt2"]}
BASELINE = {"scheduler": "oldest", "dispatch": None}


@pytest.fixture(autouse=True, scope="module")
def _caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module")
def serial_rows():
    return sweep("CPU-A", TINY, AXES)


@pytest.fixture(scope="module")
def serial_rows_normalized():
    return sweep("CPU-A", TINY, AXES, normalize_to=BASELINE)


def _ck(tmp_path) -> str:
    return str(tmp_path / "checkpoint.jsonl")


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_inline_matches_serial(self, serial_rows, tmp_path):
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=_ck(tmp_path))
        assert run.rows == serial_rows
        assert run.executed == 4 and run.cached == 0 and not run.skipped

    def test_inline_matches_serial_normalized(
        self, serial_rows_normalized, tmp_path
    ):
        run = parallel_sweep(
            "CPU-A", TINY, AXES, normalize_to=BASELINE, checkpoint=_ck(tmp_path)
        )
        assert run.rows == serial_rows_normalized

    def test_pool_matches_serial(self, serial_rows_normalized, tmp_path):
        # Workers fork with the module's warm run_sim caches, so the
        # pool path exercises submission/merge without re-simulating.
        run = parallel_sweep(
            "CPU-A", TINY, AXES, normalize_to=BASELINE,
            jobs=2, checkpoint=_ck(tmp_path),
        )
        assert run.rows == serial_rows_normalized

    def test_row_order_is_grid_order(self, serial_rows, tmp_path):
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=_ck(tmp_path))
        order = [(r["scheduler"], r["dispatch"]) for r in run.rows]
        assert order == [(r["scheduler"], r["dispatch"]) for r in serial_rows]

    def test_no_checkpoint_mode(self, serial_rows):
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=None)
        assert run.rows == serial_rows
        assert run.checkpoint_path is None


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_full_resume_executes_nothing(self, serial_rows, tmp_path):
        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck, resume=True)
        assert run.rows == serial_rows
        assert run.executed == 0 and run.cached == 4
        assert all(r.status == "cached" for r in run.reports)

    def test_partial_resume_executes_only_missing(self, serial_rows, tmp_path):
        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        # Simulate a kill after two completed points: keep the header
        # and the first two records, plus a torn half-written line.
        with open(ck) as fh:
            lines = fh.readlines()
        with open(ck, "w") as fh:
            fh.writelines(lines[:3])
            fh.write('{"key": "torn-partial-reco')
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck, resume=True)
        assert run.executed == 2 and run.cached == 2
        assert run.rows == serial_rows
        # The shard is now complete again: a further resume is all-cached.
        again = parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck, resume=True)
        assert again.executed == 0 and again.cached == 4

    def test_without_resume_flag_restarts(self, tmp_path):
        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        run = parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        assert run.executed == 4 and run.cached == 0

    def test_signature_mismatch_rejected(self, tmp_path):
        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        with pytest.raises(ValueError, match="different sweep configuration"):
            parallel_sweep(
                "CPU-A", TINY, {"scheduler": ["oldest"]},
                checkpoint=ck, resume=True,
            )

    def test_headerless_shard_rejected(self, tmp_path):
        ck = _ck(tmp_path)
        with open(ck, "w") as fh:
            fh.write('{"key": "x", "status": "done", "value": {}}\n')
        with pytest.raises(ValueError, match="no readable header"):
            parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck, resume=True)

    def test_version_mismatch_rejected(self, tmp_path):
        ck = _ck(tmp_path)
        with open(ck, "w") as fh:
            fh.write(json.dumps({"_checkpoint": {"version": 99, "signature": "x"}}) + "\n")
        with pytest.raises(ValueError, match="format version"):
            parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck, resume=True)

    def test_shard_records_are_json_rows(self, tmp_path):
        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        header, records = CheckpointShard.load(ck)
        assert header["version"] == parallel_mod.CHECKPOINT_VERSION
        assert header["kind"] == "sweep"
        assert len(records) == 4
        for rec in records.values():
            assert {"ipc", "iq_avf", "max_iq_avf"} <= set(rec["value"])


# ----------------------------------------------------------------------
# Degraded runs: retry, skip, strict
# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_retry_then_skip_on_poisoned_point(self, monkeypatch, tmp_path):
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "raise:dispatch=opt2")
        bus = EventBus()
        statuses = []
        bus.subscribe(
            TOPIC_HARNESS_POINT, lambda e: statuses.append(e.payload["status"])
        )
        run = parallel_sweep(
            "CPU-A", TINY, AXES,
            checkpoint=_ck(tmp_path), retries=1, bus=bus,
        )
        assert len(run.rows) == 2  # both dispatch=opt2 points skipped
        assert len(run.skipped) == 2
        assert all("injected fault" in r.error for r in run.skipped)
        assert all(r.attempts == 2 for r in run.skipped)
        assert statuses.count("retry") == 2 and statuses.count("skipped") == 2

    def test_strict_raises_on_skip(self, monkeypatch, tmp_path):
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "raise:scheduler=visa")
        with pytest.raises(RuntimeError, match="failed after"):
            parallel_sweep(
                "CPU-A", TINY, AXES,
                checkpoint=_ck(tmp_path), retries=0, strict=True,
            )

    def test_transient_failure_recovers(self, monkeypatch, serial_rows, tmp_path):
        real = parallel_mod.run_sim
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_sim", flaky)
        run = parallel_sweep(
            "CPU-A", TINY, AXES, checkpoint=_ck(tmp_path),
            retries=2,
        )
        assert run.rows == serial_rows
        assert not run.skipped
        assert run.reports[0].attempts == 2

    def test_pool_worker_death_is_skipped(self, monkeypatch, tmp_path):
        # os._exit in the worker kills the process outright: the pool
        # breaks, the engine rebuilds it, and after the retry budget the
        # point is reported skipped instead of crashing the sweep.
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "exit:scheduler=visa")
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["visa"]},
            jobs=2, checkpoint=_ck(tmp_path), retries=1,
        )
        assert run.rows == []
        assert len(run.skipped) == 1
        assert "worker process died" in run.skipped[0].error

    def test_skipped_points_rerun_on_resume(self, monkeypatch, serial_rows, tmp_path):
        ck = _ck(tmp_path)
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "raise:dispatch=opt2")
        first = parallel_sweep(
            "CPU-A", TINY, AXES, checkpoint=ck, retries=0
        )
        assert len(first.skipped) == 2
        monkeypatch.delenv(parallel_mod.FAULT_ENV)
        second = parallel_sweep(
            "CPU-A", TINY, AXES, checkpoint=ck, resume=True
        )
        assert second.executed == 2 and second.cached == 2
        assert second.rows == serial_rows

    def test_skipped_baseline_yields_nan_rows(self, monkeypatch, tmp_path):
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "raise:baseline")
        with pytest.warns(RuntimeWarning, match="baseline point was skipped"):
            run = parallel_sweep(
                "CPU-A", TINY, {"scheduler": ["visa"]},
                normalize_to={"scheduler": "oldest", "dispatch": "opt1"},
                checkpoint=_ck(tmp_path), retries=0,
            )
        assert len(run.rows) == 1
        assert all(math.isnan(run.rows[0][m]) for m in ("ipc", "iq_avf"))


# ----------------------------------------------------------------------
# Argument validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            parallel_sweep("CPU-A", TINY, {})

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            parallel_sweep("CPU-A", TINY, AXES, jobs=-1, checkpoint=None)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            parallel_sweep("CPU-A", TINY, AXES, timeout=0.0, checkpoint=None)

    def test_duplicate_task_keys_rejected(self):
        task = Task(0, "same-key", "a", "sim", ("CPU-A", TINY, ()))
        dup = Task(1, "same-key", "b", "sim", ("CPU-A", TINY, ()))
        with pytest.raises(ValueError, match="unique"):
            execute_tasks([task, dup], reduce=lambda t, v: v)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="unknown figure suite"):
            parallel_figures(["fig99"], TINY)

    def test_config_key_is_canonical(self):
        a = config_key("CPU-A", TINY, {"x": 1, "y": None})
        b = config_key("CPU-A", TINY, {"y": None, "x": 1})
        assert a == b
        assert a != config_key("CPU-A", TINY, {"x": 1, "y": 2})


# ----------------------------------------------------------------------
# Telemetry + figures
# ----------------------------------------------------------------------
class TestTelemetryAndFigures:
    def test_bus_events_and_chrome_trace(self, tmp_path):
        from repro.perf.chrome_trace import (
            TID_WORKER_BASE,
            build_trace,
            validate_trace,
        )
        from repro.telemetry.timeline import TimelineRecorder

        ck = _ck(tmp_path)
        parallel_sweep("CPU-A", TINY, AXES, checkpoint=ck)
        bus = EventBus()
        recorder = TimelineRecorder(bus, topics=(TOPIC_HARNESS_POINT,))
        with recorder:
            rerun = parallel_sweep(
                "CPU-A", TINY, AXES, checkpoint=ck, resume=True, bus=bus
            )
        assert rerun.cached == 4
        assert [e.payload["status"] for e in recorder.events] == ["cached"] * 4
        # A live run produces per-worker slices that nest cleanly.
        bus2 = EventBus()
        recorder2 = TimelineRecorder(bus2, topics=(TOPIC_HARNESS_POINT,))
        with recorder2:
            parallel_sweep("CPU-A", TINY, AXES, checkpoint=None, bus=bus2)
        doc = build_trace(recorded=recorder2.events)
        counts = validate_trace(doc)
        assert counts["X"] == 4
        worker_tids = {
            e["tid"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert worker_tids and all(t >= TID_WORKER_BASE for t in worker_tids)

    def test_timeline_detail_line(self):
        from repro.telemetry.timeline import _fmt_payload

        detail = _fmt_payload(
            "harness.point",
            {
                "index": 3, "label": "scheduler=visa", "status": "done",
                "start_ms": 1.0, "elapsed_ms": 42.0, "attempt": 1, "worker": 0,
            },
        )
        assert "scheduler=visa" in detail and "done" in detail and "w0" in detail

    def test_figures_matches_direct_driver(self, tmp_path):
        direct = SUITES["table1"][0](TINY)
        run = parallel_figures(["table1"], TINY, checkpoint=_ck(tmp_path))
        assert run.results["table1"] == direct
        resumed = parallel_figures(
            ["table1"], TINY, checkpoint=run.checkpoint_path, resume=True
        )
        assert resumed.cached == 1 and resumed.results["table1"] == direct


# ----------------------------------------------------------------------
# CLI integration (inline engine)
# ----------------------------------------------------------------------
class TestCLI:
    def test_sweep_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--axis", "scheduler=oldest,visa", "--jobs", "4",
             "--resume", "--timeout", "30"]
        )
        assert dict(args.axis) == {"scheduler": ["oldest", "visa"]}
        assert args.jobs == 4 and args.resume and args.timeout == 30.0

    def test_axis_value_parsing(self):
        from repro.cli import _parse_axis, _parse_kwargs

        name, values = _parse_axis("dispatch=none,opt1,opt2")
        assert name == "dispatch" and values == [None, "opt1", "opt2"]
        assert _parse_kwargs("dvm_target=0.5,profiled=true") == {
            "dvm_target": 0.5, "profiled": True,
        }

    def test_sweep_command_roundtrip(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        ck = str(tmp_path / "cli.jsonl")
        out = str(tmp_path / "rows.json")
        argv = [
            "sweep", "--mix", "CPU-A",
            "--axis", "scheduler=oldest,visa",
            "--cycles", "2000", "--checkpoint", ck, "--out", out, "--quiet",
        ]
        assert main(argv) == 0
        rows = json.load(open(out))
        assert len(rows) == 2
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "2 resumed from checkpoint" in err
        assert json.load(open(out)) == rows

    def test_figures_command(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "table1", "--cycles", "2000", "--quiet"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert main(["figures", "nope"]) == 2

    def test_serve_flag_builds_monitor_config(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(
            ["sweep", "--axis", "scheduler=oldest", "--jobs", "2",
             "--serve", ":9099"]
        )
        assert _engine_kwargs(args)["monitor"].serve == ("127.0.0.1", 9099)
        args = build_parser().parse_args(["monitor", "ck.jsonl", "--once"])
        assert args.checkpoint == "ck.jsonl" and args.once
        assert args.interval == 2.0

    def test_monitor_command_attaches_to_dead_run(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        ck = str(tmp_path / "mon.jsonl")
        argv = [
            "sweep", "--mix", "CPU-A",
            "--axis", "scheduler=oldest,visa",
            "--cycles", "2000", "--jobs", "2", "--checkpoint", ck, "--quiet",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["monitor", ck, "--once"]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out and "2/2 points" in out
        assert "dropped=0" in out

    def test_monitor_command_missing_status(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["monitor", str(tmp_path / "nope.jsonl"), "--once"]) == 1
        err = capsys.readouterr().err
        assert "no status document" in err
