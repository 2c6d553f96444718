"""Performance observability: lap-keeping stage profiler, Chrome trace
export, benchmark history, and the regression comparator."""

import json
import math

import pytest

from repro.harness.runner import BenchScale
from repro.perf.bench import (
    BENCH_CASES,
    BENCH_NAMES,
    PERF_SCALE,
    BenchResult,
    format_results,
    get_cases,
    run_benchmarks,
)
from repro.perf.chrome_trace import (
    TID_COUNTERS,
    TID_DVM,
    TID_INTERVALS,
    TID_SPANS,
    TRACE_PID,
    TracingProfiler,
    build_trace,
    counter_events,
    lap_events,
    read_trace,
    recorded_events,
    validate_trace,
    write_chrome_trace,
)
from repro.perf.compare import (
    STATUS_IMPROVEMENT,
    STATUS_INVALID,
    STATUS_NEW,
    STATUS_OK,
    STATUS_REGRESSION,
    baseline_seconds,
    compare_results,
)
from repro.perf.history import (
    KIND_PERF_SUITE,
    KIND_TELEMETRY_OVERHEAD,
    append_entry,
    empty_history,
    entries_of_kind,
    load_history,
    make_entry,
)
from repro.telemetry.timeline import RecordedEvent


# ----------------------------------------------------------------------
# TracingProfiler
# ----------------------------------------------------------------------
class TestTracingProfiler:
    def _drive(self, profiler, cycles, stages=("fetch", "issue")):
        profiler.start_run()
        for _ in range(cycles):
            profiler.cycle_start()
            for stage in stages:
                profiler.lap(stage)
        profiler.end_run()

    def test_records_cycle_and_stage_spans(self):
        profiler = TracingProfiler(max_traced_cycles=3)
        self._drive(profiler, cycles=5)
        assert profiler.cycles == 5
        assert profiler.traced_cycles == 3
        assert [(c, stage) for c, stage, _, _ in profiler.laps] == [
            (c, stage) for c in range(3) for stage in ("fetch", "issue")
        ]
        events = lap_events(profiler.laps)
        cycle_spans = [e for e in events if e["cat"] == "cycle"]
        stage_spans = [e for e in events if e["cat"] == "stage"]
        assert len(cycle_spans) == 3
        assert len(stage_spans) == 6  # 2 stages per traced cycle
        assert [e["args"]["index"] for e in cycle_spans] == [0, 1, 2]
        # Each cycle slice spans exactly its own stage slices.
        for i, cyc in enumerate(cycle_spans):
            first, last = stage_spans[2 * i], stage_spans[2 * i + 1]
            assert cyc["ts"] == first["ts"]
            assert cyc["ts"] + cyc["dur"] == pytest.approx(last["ts"] + last["dur"])

    def test_trace_exports_as_valid_nesting(self):
        profiler = TracingProfiler(max_traced_cycles=4)
        self._drive(profiler, cycles=4)
        doc = build_trace(profiler.laps)
        counts = validate_trace(doc)
        assert counts["X"] == 4 + 8

    def test_zero_traced_cycles_still_profiles(self):
        profiler = TracingProfiler(max_traced_cycles=0)
        self._drive(profiler, cycles=3)
        assert profiler.laps == [] and profiler.traced_cycles == 0
        assert profiler.report().cycles == 3

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            TracingProfiler(max_traced_cycles=-1)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def _laps(*cycles):
    """Laps in seconds from ``(start_us, [stage durations in µs])`` cycles."""
    laps = []
    for index, (start_us, durations) in enumerate(cycles):
        t = start_us
        for n, dur in enumerate(durations):
            laps.append((index, f"s{n}", t * 1e-6, (t + dur) * 1e-6))
            t += dur
    return laps


class TestChromeTrace:
    def test_span_events_schema(self):
        cycle, stage = lap_events(_laps((0.0, [2.0])))
        assert cycle["ph"] == "X" and cycle["ts"] == 0.0
        assert cycle["dur"] == pytest.approx(2.0)
        assert cycle["name"] == "cycle" and cycle["args"] == {"index": 0}
        assert stage["name"] == "s0" and stage["cat"] == "stage"
        assert stage["args"] == {}
        for ev in (cycle, stage):
            assert ev["pid"] == TRACE_PID and ev["tid"] == TID_SPANS

    def test_recorded_interval_becomes_slice(self):
        ev = RecordedEvent(
            cycle=2000,
            stage="tick",
            topic="interval.close",
            payload={"index": 1, "end_cycle": 2000},
        )
        (out,) = recorded_events([ev], cycle_us=2.0)
        assert out["ph"] == "X" and out["tid"] == TID_INTERVALS
        assert out["dur"] == 1000 * 2.0  # interval length recovered
        assert out["ts"] == (2000 - 1000) * 2.0

    def test_recorded_decision_becomes_instant(self):
        ev = RecordedEvent(
            cycle=42, stage="tick", topic="dvm.trigger", payload={"thread": 0}
        )
        (out,) = recorded_events([ev], cycle_us=1.0)
        assert out["ph"] == "i" and out["s"] == "t"
        assert out["ts"] == 42 and out["tid"] == TID_DVM
        assert out["args"]["stage"] == "tick"

    def test_bad_cycle_us_rejected(self):
        with pytest.raises(ValueError):
            recorded_events([], cycle_us=0.0)

    def test_build_trace_has_metadata_and_other_data(self):
        doc = build_trace(_laps((0.0, [1.0])), extra={"note": "x"})
        phs = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phs and "X" in phs
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        assert doc["otherData"]["note"] == "x"
        assert doc["displayTimeUnit"] == "ms"

    def test_write_read_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), laps=_laps((0.0, [10.0])))
        assert n == 2
        counts = validate_trace(read_trace(str(path)))
        assert counts == {"M": 2, "X": 2}

    def test_validate_rejects_missing_key(self):
        doc = {"traceEvents": [{"ph": "X", "name": "a", "ts": 0, "pid": 1, "tid": 0}]}
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_trace(doc)

    def test_validate_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Q", "name": "a"}]}
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_trace(doc)

    def test_validate_rejects_ill_formed_nesting(self):
        # Two cycle slices on one track that overlap without containment.
        doc = build_trace(_laps((0.0, [10.0]), (5.0, [10.0])))
        with pytest.raises(ValueError, match="ill-formed nesting"):
            validate_trace(doc)

    def test_validate_accepts_siblings_and_children(self):
        # Two stages nested in their cycle, then a sibling cycle.
        doc = build_trace(_laps((0.0, [3.0, 4.0]), (11.0, [2.0])))
        assert validate_trace(doc)["X"] == 5

    def test_non_json_safe_args_coerced(self):
        ev = RecordedEvent(
            cycle=1, stage="tick", topic="dvm.trigger", payload={"obj": {1, 2}}
        )
        (out,) = recorded_events([ev])
        json.dumps(out)  # must not raise
        assert out["args"]["obj"] == repr({1, 2})


def _interval_event(index=0, end_cycle=1000, **extra):
    payload = {
        "index": index,
        "end_cycle": end_cycle,
        "online_avf_estimate": 0.25,
        "online_rob_estimate": 0.1,
        "avg_ready_queue_len": 4.0,
        "avg_waiting_queue_len": 9.0,
        "iq_limit": 32,
        "ipc": 1.5,
        "l2_misses": 3,
        **extra,
    }
    return RecordedEvent(cycle=end_cycle, stage="tick",
                         topic="interval.close", payload=payload)


class TestCounterEvents:
    def test_interval_close_produces_counter_tracks(self):
        out = counter_events([_interval_event()], cycle_us=2.0)
        names = [e["name"] for e in out]
        assert names == ["online avf", "iq occupancy", "iq limit"]
        for ev in out:
            assert ev["ph"] == "C" and ev["tid"] == TID_COUNTERS
            assert ev["ts"] == 1000 * 2.0
        avf = out[0]["args"]
        assert avf == {"iq": 0.25, "rob": 0.1}

    def test_dvm_sample_counter(self):
        ev = RecordedEvent(
            cycle=500, stage="tick", topic="dvm.sample",
            payload={"estimate": 0.3, "wq_ratio": 2.0},
        )
        (out,) = counter_events([ev])
        assert out["name"] == "dvm" and out["ph"] == "C"
        assert out["args"] == {"estimate": 0.3, "wq_ratio": 2.0}

    def test_divergence_counter_named_by_structure(self):
        ev = RecordedEvent(
            cycle=9999, stage="", topic="reliability.divergence",
            payload={"structure": "rob", "index": 1, "end_cycle": 2000,
                     "oracle_avf": 0.2, "online_estimate": 0.18,
                     "divergence": 0.02},
        )
        (out,) = counter_events([ev])
        assert out["name"] == "rob avf"
        # Timestamped at the interval's end, not the emission cycle.
        assert out["ts"] == 2000.0
        assert out["args"] == {"oracle": 0.2, "online": 0.18}

    def test_validate_accepts_counters(self):
        doc = build_trace(recorded=[_interval_event()])
        counts = validate_trace(doc)
        assert counts["C"] == 3

    def test_validate_rejects_counter_without_args(self):
        doc = {"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 6, "args": {}},
        ]}
        with pytest.raises(ValueError, match="non-empty"):
            validate_trace(doc)

    def test_validate_rejects_counter_missing_args_key(self):
        doc = {"traceEvents": [{"name": "c", "ph": "C", "ts": 0, "pid": 1}]}
        with pytest.raises(ValueError, match="missing 'args'"):
            validate_trace(doc)

    def test_validate_rejects_non_numeric_series(self):
        doc = {"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 6,
             "args": {"iq": "high"}},
        ]}
        with pytest.raises(ValueError, match="non-numeric"):
            validate_trace(doc)

    def test_validate_rejects_bool_series(self):
        # bool is an int subclass; a counter series of True/False is a
        # schema bug, not a numeric sample.
        doc = {"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 6,
             "args": {"armed": True}},
        ]}
        with pytest.raises(ValueError, match="non-numeric"):
            validate_trace(doc)

    def test_counters_exempt_from_nesting(self):
        # Counter samples overlap interval slices on the time axis; the
        # nesting check must only look at "X" slices.
        doc = build_trace(
            recorded=[_interval_event(0, 1000), _interval_event(1, 2000)]
        )
        counts = validate_trace(doc)
        assert counts["X"] == 2 and counts["C"] == 6

    def test_counter_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), recorded=[_interval_event()])
        counts = validate_trace(read_trace(str(path)))
        assert counts.get("C", 0) > 0


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
class TestHistory:
    def test_missing_file_is_empty_history(self, tmp_path):
        doc = load_history(str(tmp_path / "nope.json"))
        assert doc == empty_history()

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_history(str(path))

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": 7}')
        with pytest.raises(ValueError, match="not a BENCH_perf history"):
            load_history(str(path))

    def test_append_creates_stamps_and_trims(self, tmp_path):
        path = str(tmp_path / "BENCH_perf.json")
        for i in range(4):
            append_entry(
                path,
                {"case": BenchResult("case", 0.1 + i, 1)},
                context={"i": i},
                max_entries=3,
            )
        doc = load_history(path)
        assert len(doc["entries"]) == 3
        assert [e["context"]["i"] for e in doc["entries"]] == [1, 2, 3]
        entry = doc["entries"][-1]
        assert entry["kind"] == KIND_PERF_SUITE
        assert entry["results"]["case"] == {"best_s": pytest.approx(3.1), "repeats": 1}
        # Provenance stamp: the manifest identifies the producing tree.
        assert "python" in entry["manifest"]
        assert entry["created_utc"]

    def test_entries_of_kind_filters(self, tmp_path):
        path = str(tmp_path / "BENCH_perf.json")
        append_entry(path, {"a": 0.1}, kind=KIND_PERF_SUITE)
        append_entry(path, {"b": 0.2}, kind=KIND_TELEMETRY_OVERHEAD)
        doc = load_history(path)
        assert len(entries_of_kind(doc, KIND_PERF_SUITE)) == 1
        assert len(entries_of_kind(doc, KIND_TELEMETRY_OVERHEAD)) == 1

    def test_make_entry_accepts_bare_seconds(self):
        entry = make_entry({"x": 0.5})
        assert entry["results"]["x"] == {"best_s": 0.5}


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
def _history_with(values, name="case"):
    """A history whose suite entries carry ``values`` for one case."""
    doc = empty_history()
    for v in values:
        doc["entries"].append(
            {"kind": KIND_PERF_SUITE, "results": {name: {"best_s": v}}}
        )
    return doc


class TestComparator:
    def test_empty_history_is_new_and_passes(self):
        report = compare_results(empty_history(), {"case": 0.1})
        (c,) = report.cases
        assert c.status == STATUS_NEW and c.baseline_s is None
        assert report.ok

    def test_single_entry_baseline(self):
        report = compare_results(_history_with([0.1]), {"case": 0.105})
        (c,) = report.cases
        assert c.status == STATUS_OK and c.baseline_s == pytest.approx(0.1)

    def test_injected_slowdown_fails(self):
        report = compare_results(
            _history_with([0.1, 0.11]), {"case": 0.2}, tolerance=0.25
        )
        (c,) = report.cases
        assert c.status == STATUS_REGRESSION
        assert not report.ok
        assert "FAIL" in report.format()

    def test_improvement_direction(self):
        report = compare_results(_history_with([0.1]), {"case": 0.05}, tolerance=0.25)
        assert report.cases[0].status == STATUS_IMPROVEMENT
        assert report.ok  # improvements never fail the gate

    def test_window_limits_baseline(self):
        # The fast old entry falls outside the window, so the recent
        # slower values set the bar.
        history = _history_with([0.01] + [0.1] * 5)
        assert baseline_seconds(history, "case", window=5) == pytest.approx(0.1)
        report = compare_results(history, {"case": 0.11}, window=5)
        assert report.cases[0].status == STATUS_OK

    def test_nan_and_zero_baselines_skipped(self):
        history = _history_with([math.nan, 0.0, -1.0])
        assert baseline_seconds(history, "case") is None
        report = compare_results(history, {"case": 0.1})
        assert report.cases[0].status == STATUS_NEW

    def test_nan_current_is_invalid_and_fails(self):
        report = compare_results(_history_with([0.1]), {"case": math.nan})
        (c,) = report.cases
        assert c.status == STATUS_INVALID
        assert not report.ok

    @pytest.mark.parametrize("current", ["abc", {"best_s": "abc"}, {"best_s": None}])
    def test_non_numeric_current_is_invalid(self, current):
        # Regression: a mapping with a non-numeric best_s raised ValueError.
        (c,) = compare_results(_history_with([0.1]), {"case": current}).cases
        assert c.status == STATUS_INVALID

    def test_missing_case_in_history_is_new(self):
        report = compare_results(_history_with([0.1], name="other"), {"case": 0.1})
        assert report.cases[0].status == STATUS_NEW

    def test_overhead_entries_do_not_pollute_suite_baseline(self):
        doc = empty_history()
        doc["entries"].append(
            {"kind": KIND_TELEMETRY_OVERHEAD, "results": {"case": {"best_s": 0.001}}}
        )
        assert baseline_seconds(doc, "case") is None

    def test_accepts_bench_result_objects(self):
        report = compare_results(
            _history_with([0.1]), {"case": BenchResult("case", 0.1, 3)}
        )
        assert report.cases[0].status == STATUS_OK

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            compare_results(empty_history(), {}, tolerance=-0.1)
        with pytest.raises(ValueError):
            baseline_seconds(empty_history(), "case", window=0)


# ----------------------------------------------------------------------
# Benchmark suite
# ----------------------------------------------------------------------
class TestBenchSuite:
    def test_registry_names_match_issue_spec(self):
        assert BENCH_NAMES == tuple(c.name for c in BENCH_CASES)
        assert set(BENCH_NAMES) == {
            "pipeline_cycle_loop",
            "mem_cycle_loop",
            "issue_ready_tags",
            "dvm_interval",
            "resource_alloc",
            "offline_profile",
            "relay_roundtrip",
        }
        assert all(c.description for c in BENCH_CASES)

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError):
            get_cases(["no_such_bench"])

    def test_pinned_scale(self):
        # Changing PERF_SCALE resets history comparability; the tests
        # pin it so that is a deliberate, visible decision.
        assert PERF_SCALE.max_cycles == 2_500
        assert PERF_SCALE.warmup_cycles == 500

    def test_run_fast_cases(self):
        scale = BenchScale(max_cycles=400, warmup_cycles=100)
        results = run_benchmarks(
            ["dvm_interval", "resource_alloc", "offline_profile"], scale=scale, repeats=1
        )
        assert sorted(results) == ["dvm_interval", "offline_profile", "resource_alloc"]
        assert all(r.best_s > 0 and r.repeats == 1 for r in results.values())
        text = format_results(results)
        assert "dvm_interval" in text

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(["dvm_interval"], scale=PERF_SCALE, repeats=0)
