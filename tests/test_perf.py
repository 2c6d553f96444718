"""Performance observability: span tracer, Chrome trace export,
benchmark history, and the regression comparator."""

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
    build_trace,
    counter_events,
    read_trace,
    recorded_events,
    span_events,
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
from repro.perf.spans import SpanRecord, SpanTracer, TracingProfiler
from repro.telemetry import EventBus
from repro.telemetry.timeline import RecordedEvent
from repro.telemetry.topics import TOPIC_PERF_SPAN


# ----------------------------------------------------------------------
# SpanTracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_nested_spans_record_depth(self):
        tracer = SpanTracer()
        with tracer.span("outer", cat="test"):
            with tracer.span("inner", cat="test", detail=1):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.depth == 1 and outer.depth == 0
        assert inner.args == {"detail": 1}
        # The child lies inside the parent's window.
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-6

    def test_begin_end_imperative_form(self):
        tracer = SpanTracer()
        tracer.begin("phase")
        assert tracer.open_depth == 1
        record = tracer.end(items=3)
        assert record is not None and record.name == "phase"
        assert record.args == {"items": 3}
        assert tracer.open_depth == 0

    def test_end_without_open_span_raises(self):
        with pytest.raises(RuntimeError):
            SpanTracer().end()

    def test_limit_drops_and_counts(self):
        tracer = SpanTracer(limit=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        tracer.clear()
        assert tracer.spans == [] and tracer.dropped == 0

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(limit=0)

    def test_rides_bus_when_subscribed(self):
        bus = EventBus()
        tracer = SpanTracer(bus)
        seen = []
        with tracer.span("unobserved"):
            pass
        with bus.subscribe(TOPIC_PERF_SPAN, lambda ev: seen.append(ev)):
            with tracer.span("observed"):
                pass
        with tracer.span("after-detach"):
            pass
        # Only the span closed while subscribed reached the bus...
        assert [ev.payload["name"] for ev in seen] == ["observed"]
        # ...but all three were recorded locally.
        assert [s.name for s in tracer.spans] == [
            "unobserved",
            "observed",
            "after-detach",
        ]

    def test_no_bus_no_emission(self):
        tracer = SpanTracer()
        with tracer.span("quiet"):
            pass
        assert tracer.bus is None and len(tracer.spans) == 1


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
        cycle_spans = [s for s in profiler.tracer.spans if s.cat == "cycle"]
        stage_spans = [s for s in profiler.tracer.spans if s.cat == "stage"]
        assert len(cycle_spans) == 3
        assert len(stage_spans) == 6  # 2 stages per traced cycle
        assert [s.args["index"] for s in cycle_spans] == [0, 1, 2]
        assert all(s.depth == 0 for s in cycle_spans)
        assert all(s.depth == 1 for s in stage_spans)

    def test_trace_exports_as_valid_nesting(self):
        profiler = TracingProfiler(max_traced_cycles=4)
        self._drive(profiler, cycles=4)
        doc = build_trace(profiler.tracer.spans)
        counts = validate_trace(doc)
        assert counts["X"] == 4 + 8

    def test_zero_traced_cycles_still_profiles(self):
        profiler = TracingProfiler(max_traced_cycles=0)
        self._drive(profiler, cycles=3)
        assert profiler.tracer.spans == []
        assert profiler.report().cycles == 3

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            TracingProfiler(max_traced_cycles=-1)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def _span(name, ts, dur, depth=0, tid=0, **args):
    return SpanRecord(
        name=name, cat="t", ts_us=ts, dur_us=dur, depth=depth, tid=tid, args=args
    )


class TestChromeTrace:
    def test_span_events_schema(self):
        (ev,) = span_events([_span("a", 1.0, 2.0, k="v")])
        assert ev["ph"] == "X" and ev["ts"] == 1.0 and ev["dur"] == 2.0
        assert ev["pid"] == TRACE_PID and ev["tid"] == TID_SPANS
        assert ev["args"] == {"k": "v"}

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
        doc = build_trace([_span("a", 0.0, 1.0)], extra={"note": "x"})
        phs = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phs and "X" in phs
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        assert doc["otherData"]["note"] == "x"
        assert doc["displayTimeUnit"] == "ms"

    def test_write_read_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(
            str(path),
            spans=[_span("parent", 0.0, 10.0), _span("child", 2.0, 3.0, depth=1)],
        )
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
        # Two slices on one track that overlap without containment.
        doc = build_trace([_span("a", 0.0, 10.0), _span("b", 5.0, 10.0)])
        with pytest.raises(ValueError, match="ill-formed nesting"):
            validate_trace(doc)

    def test_validate_accepts_siblings_and_children(self):
        doc = build_trace(
            [
                _span("parent", 0.0, 10.0),
                _span("c1", 1.0, 3.0, depth=1),
                _span("c2", 5.0, 4.0, depth=1),
                _span("sibling", 11.0, 2.0),
            ]
        )
        assert validate_trace(doc)["X"] == 4

    def test_non_json_safe_args_coerced(self):
        (ev,) = span_events([_span("a", 0.0, 1.0, obj={1, 2})])
        json.dumps(ev)  # must not raise


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

    def test_counters_toggle_off(self):
        doc = build_trace(recorded=[_interval_event()], counters=False)
        assert not any(e["ph"] == "C" for e in doc["traceEvents"])

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
            "issue_select",
            "dvm_interval",
            "resource_alloc",
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

    def test_run_fast_cases_with_tracer(self):
        tracer = SpanTracer()
        scale = BenchScale(max_cycles=400, warmup_cycles=100)
        results = run_benchmarks(
            ["dvm_interval", "resource_alloc"], scale=scale, repeats=1, tracer=tracer
        )
        assert sorted(results) == ["dvm_interval", "resource_alloc"]
        assert all(r.best_s > 0 and r.repeats == 1 for r in results.values())
        bench_spans = [s for s in tracer.spans if s.cat == "bench"]
        assert len(bench_spans) >= 2
        text = format_results(results)
        assert "dvm_interval" in text

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(["dvm_interval"], scale=PERF_SCALE, repeats=0)
