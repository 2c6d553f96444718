"""Telemetry layer: event bus, metrics registry, provenance, profiler,
timeline recording, and the pipeline wiring (stage-order property)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.reliability.dvm import DVMController
from repro.reliability.resource_alloc import L2MissSensitiveAllocation
from repro.telemetry import (
    DECISION_TOPICS,
    STAGE_ORDER,
    TOPICS,
    EventBus,
    MetricsRegistry,
    RunManifest,
    StageProfiler,
    TimelineRecorder,
    collect_manifest,
    config_digest,
    get_topic,
    read_jsonl,
    render_timeline,
    timeline_json,
)
from repro.telemetry.topics import (
    TOPIC_DVM_RATIO,
    TOPIC_DVM_SAMPLE,
    TOPIC_DVM_TRIGGER,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_IQL_CAP,
    TOPIC_WARMUP_PROGRESS,
)
from repro.workloads import get_mix


def make_pipe(cycles=1_200, mix="MEM-A", *, dvm_target=None, dispatch=None,
              seed=3, telemetry=True):
    rel = ReliabilityConfig(interval_cycles=400, ace_window=800)
    sim = SimulationConfig(
        max_cycles=cycles, warmup_cycles=0, seed=seed,
        bp_warmup_instructions=2_000, reliability=rel,
    )
    dvm = DVMController(dvm_target, config=rel) if dvm_target is not None else None
    return SMTPipeline(
        get_mix(mix).programs(seed=seed), sim=sim, dvm=dvm,
        dispatch_policy=dispatch, telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# EventBus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus()
        # No validation on the fast path: even a wrong payload returns.
        bus.emit(TOPIC_DVM_SAMPLE, nonsense=1)  # lint: disable=event-schema
        assert not bus.wants(TOPIC_DVM_SAMPLE)

    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TOPIC_DVM_SAMPLE, seen.append)
        bus.cycle, bus.stage = 42, "tick"
        bus.emit(TOPIC_DVM_SAMPLE, estimate=0.3, triggered=True, wq_ratio=4.0)
        assert len(seen) == 1
        ev = seen[0]
        assert ev.topic == "dvm.sample"
        assert ev.cycle == 42 and ev.stage == "tick"
        assert ev["estimate"] == 0.3 and ev["triggered"] is True

    def test_schema_validated_on_delivery(self):
        bus = EventBus()
        bus.subscribe(TOPIC_DVM_SAMPLE, lambda e: None)
        with pytest.raises(ValueError, match="does not match schema"):
            bus.emit(TOPIC_DVM_SAMPLE, estimate=0.3)  # missing fields  # lint: disable=event-schema
        with pytest.raises(ValueError, match="unexpected"):
            bus.emit(  # lint: disable=event-schema
                TOPIC_DVM_SAMPLE,
                estimate=0.3, triggered=False, wq_ratio=1.0, bogus=1,
            )

    def test_unsubscribe_restores_fast_path(self):
        bus = EventBus()
        sub = bus.subscribe(TOPIC_DVM_SAMPLE, lambda e: None)
        assert bus.wants(TOPIC_DVM_SAMPLE)
        v = bus.version
        sub.close()
        assert not bus.wants(TOPIC_DVM_SAMPLE)
        assert bus.version > v  # cached wants() flags must refresh
        sub.close()  # idempotent

    def test_wildcard_subscription_sees_everything(self):
        bus = EventBus()
        seen = []
        with bus.subscribe_all(lambda e: seen.append(e.topic)):
            bus.emit(TOPIC_DVM_TRIGGER, reason="sample", estimate=0.5)
            bus.emit(TOPIC_IQL_CAP, old_limit=96, new_limit=48, ipc=1.0,
                     avg_ready_queue_len=2.0)
        bus.emit(TOPIC_DVM_TRIGGER, reason="sample", estimate=0.5)  # detached
        assert seen == ["dvm.trigger", "iql.cap"]

    def test_predicate_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            TOPIC_DVM_SAMPLE, seen.append, predicate=lambda e: e["triggered"]
        )
        bus.emit(TOPIC_DVM_SAMPLE, estimate=0.1, triggered=False, wq_ratio=1.0)
        bus.emit(TOPIC_DVM_SAMPLE, estimate=0.9, triggered=True, wq_ratio=1.0)
        assert len(seen) == 1 and seen[0]["triggered"]

    def test_multi_topic_subscription(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(DECISION_TOPICS, lambda e: seen.append(e.topic))
        bus.emit(TOPIC_DVM_TRIGGER, reason="l2_miss", estimate=0.0)
        bus.emit(TOPIC_DVM_RATIO, old_ratio=4.0, new_ratio=2.0, direction="decrease")
        assert seen == ["dvm.trigger", "dvm.ratio"]
        assert bus.wants(TOPIC_DVM_TRIGGER)
        sub.close()
        assert not any(bus.wants(t) for t in DECISION_TOPICS)

    def test_topic_catalog_consistency(self):
        for name, topic in TOPICS.items():
            assert topic.name == name
            assert get_topic(name) is topic
            # auto-stamped fields never appear in a schema
            assert "cycle" not in topic.fields and "stage" not in topic.fields
        with pytest.raises(KeyError):
            get_topic("no.such.topic")


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("pipeline.commit.total")
        c.inc()
        c.inc(5)
        assert c.get() == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_child_scoping(self):
        reg = MetricsRegistry()
        dvm = reg.child("dvm")
        dvm.counter("samples").inc(3)
        dvm.child("ratio").gauge("current").set(4.0)
        assert reg.names("dvm") == ["dvm.ratio.current", "dvm.samples"]
        assert dvm.snapshot() == {"dvm.ratio.current": 4.0, "dvm.samples": 3}

    def test_histogram_buckets_and_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("avf", buckets=(0.5, 1.0))
        for v in (0.2, 0.4, 0.8, 2.0):
            h.observe(v)
        out = h.get()
        assert out["count"] == 4 and out["le_0.5"] == 2
        assert out["le_1"] == 1 and out["le_inf"] == 1
        assert out["min"] == 0.2 and out["max"] == 2.0
        assert out["mean"] == pytest.approx(0.85)
        assert math.isnan(reg.histogram("empty").mean)

    def test_snapshot_diff(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(10)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        before = reg.snapshot()
        reg.counter("n").inc(7)
        reg.histogram("h").observe(0.25)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["n"] == 7
        assert delta["h"]["count"] == 1.0
        assert delta["h"]["sum"] == pytest.approx(0.25)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", ".x", "x."):
            with pytest.raises(ValueError):
                reg.counter(bad)
        with pytest.raises(ValueError):
            reg.child(".bad")

    def test_streaming_histogram_power_of_two_buckets(self):
        from repro.telemetry.metrics import StreamingHistogram

        h = StreamingHistogram()
        for v in (0, 1, 2, 3, 1000):
            h.observe(v)
        out = h.get()
        assert out["count"] == 5 and out["min"] == 0 and out["max"] == 1000
        assert out["le_0"] == 1  # bucket 0 holds exactly 0
        assert out["le_1"] == 1  # [1, 1]
        assert out["le_3"] == 2  # [2, 3]
        assert out["le_1023"] == 1
        assert h.mean == pytest.approx(1006 / 5)

    def test_streaming_histogram_quantiles_approximate(self):
        from repro.telemetry.metrics import StreamingHistogram

        h = StreamingHistogram()
        for v in range(1, 101):
            h.observe(v)
        # p50 of 1..100 is ~50; the geometric bucket midpoint must land
        # within the holding bucket's [32, 63] range.
        assert 32 <= h.quantile(0.5) <= 63
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_streaming_histogram_edge_cases(self):
        from repro.telemetry.metrics import StreamingHistogram

        h = StreamingHistogram()
        assert math.isnan(h.mean) and math.isnan(h.quantile(0.5))
        with pytest.raises(ValueError):
            h.observe(-1)
        h.observe(0)
        assert h.quantile(0.5) == 0.0

    def test_help_metadata_registration_and_upgrade(self):
        reg = MetricsRegistry()
        c = reg.counter("relay.dropped", help="Events dropped.")
        assert c.help == "Events dropped."
        # Re-registration keeps the existing metric and its help.
        assert reg.counter("relay.dropped") is c
        assert c.help == "Events dropped."
        # A later registration may supply help the first one lacked.
        g = reg.gauge("fleet.workers")
        assert g.help == ""
        reg.gauge("fleet.workers", help="Distinct workers.")
        assert g.help == "Distinct workers."
        assert reg.histogram("lat", help="Latency.").help == "Latency."

    def test_histogram_merge_requires_identical_buckets(self):
        from repro.telemetry.metrics import Histogram

        a = Histogram(buckets=(0.5, 1.0))
        b = Histogram(buckets=(0.25, 1.0))
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(b)

    def test_histogram_merge_equals_single_stream(self):
        from repro.telemetry.metrics import Histogram

        shard_a, shard_b, whole = (Histogram(buckets=(0.5, 1.0)) for _ in range(3))
        for v in (0.2, 0.8):
            shard_a.observe(v)
            whole.observe(v)
        for v in (0.4, 2.0):
            shard_b.observe(v)
            whole.observe(v)
        shard_a.merge(shard_b)
        assert shard_a.get() == whole.get()

    @settings(max_examples=60, deadline=None)
    @given(
        shards=st.lists(
            st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    def test_streaming_merge_of_shards_equals_single_stream(self, shards):
        # Workers each observe a shard of the stream; merging their
        # histograms must be indistinguishable from one observer that
        # saw the concatenated stream.
        from repro.telemetry.metrics import StreamingHistogram

        merged = StreamingHistogram()
        whole = StreamingHistogram()
        for shard in shards:
            part = StreamingHistogram()
            for v in shard:
                part.observe(v)
                whole.observe(v)
            merged.merge(part)
        if whole.count:
            assert merged.get() == whole.get()
            assert merged.quantile(0.5) == whole.quantile(0.5)
        else:
            assert merged.count == 0 and math.isnan(merged.mean)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False), max_size=40
        ),
        split=st.integers(min_value=0, max_value=40),
    )
    def test_fixed_bucket_merge_of_shards_equals_single_stream(self, values, split):
        from repro.telemetry.metrics import Histogram

        buckets = (0.1, 0.5, 1.0)
        shard_a, shard_b, whole = (Histogram(buckets=buckets) for _ in range(3))
        for v in values[:split]:
            shard_a.observe(v)
        for v in values[split:]:
            shard_b.observe(v)
        for v in values:
            whole.observe(v)
        shard_a.merge(shard_b)
        assert shard_a.counts == whole.counts
        assert shard_a.count == whole.count
        assert shard_a.total == pytest.approx(whole.total)
        if whole.count:
            assert shard_a.minimum == whole.minimum
            assert shard_a.maximum == whole.maximum


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_config_digest_is_stable_and_order_free(self):
        a = config_digest({"b": 1, "a": {"y": 2, "x": 3}})
        b = config_digest({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b and len(a) == 16
        assert config_digest({"b": 2}) != a

    def test_manifest_round_trip(self):
        m = collect_manifest(seed=7, extra={"note": "test"})
        assert m.schema == 1 and m.seed == 7
        assert m.extra == {"note": "test"}
        assert "python" in m.packages
        back = RunManifest.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m

    def test_pipeline_result_carries_manifest_and_metrics(self):
        pipe = make_pipe(cycles=600)
        res = pipe.run()
        assert res.manifest is not None
        assert res.manifest.config_hash == config_digest(res.manifest.config)
        assert res.manifest.seed == 3
        assert res.metrics is not None
        assert res.metrics["pipeline.commit.total"] == res.committed
        assert res.metrics["pipeline.cycles"] == res.cycles

    def test_telemetry_off_means_no_manifest(self):
        res = make_pipe(cycles=600, telemetry=False).run()
        assert res.manifest is None


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_shares_sum_to_100(self):
        profiler = StageProfiler()
        pipe = make_pipe(cycles=600)
        pipe.profiler = profiler
        pipe.run()
        prof = profiler.report()
        assert prof.cycles == 600
        assert sum(prof.shares().values()) == pytest.approx(100.0)
        assert set(prof.seconds) == set(STAGE_ORDER)
        assert prof.cycles_per_sec > 0
        assert "cycles/s" in prof.format()

    def test_empty_profile_is_all_zero(self):
        prof = StageProfiler().report()
        assert prof.cycles == 0 and prof.cycles_per_sec == 0.0
        assert all(v == 0.0 for v in prof.shares().values())

    def test_mid_run_report_keeps_wall_window_open(self):
        # Regression: report() used to end_run() without reopening the
        # wall window, so cycles after a mid-run report were profiled
        # against a frozen wall clock (cycles_per_sec inflated, later
        # end_run() a no-op).
        profiler = StageProfiler()
        profiler.start_run()
        profiler.cycle_start()
        profiler.lap("fetch")
        mid = profiler.report()
        assert mid.cycles == 1 and mid.wall_s > 0
        # The run must still be live: more cycles accumulate.
        profiler.cycle_start()
        profiler.lap("fetch")
        profiler.end_run()
        final = profiler.report()
        assert final.cycles == 2
        assert final.wall_s >= mid.wall_s
        assert final.seconds["fetch"] >= mid.seconds["fetch"]

    def test_report_after_end_run_does_not_reopen(self):
        profiler = StageProfiler()
        profiler.start_run()
        profiler.cycle_start()
        profiler.lap("fetch")
        profiler.end_run()
        wall = profiler.report().wall_s
        # A closed run stays closed across repeated reports.
        assert profiler.report().wall_s == wall


# ----------------------------------------------------------------------
# Overhead measurement → BENCH_perf.json persistence (satellite)
# ----------------------------------------------------------------------
class TestOverheadHistory:
    def _fake_report(self):
        from repro.telemetry.overhead import OverheadReport

        return OverheadReport(
            mix="MIX-A", cycles=100, repeats=1, bare_s=0.010, stamped_s=0.0102
        )

    def test_main_appends_history_entry(self, tmp_path, monkeypatch):
        from repro.telemetry import overhead

        monkeypatch.setattr(
            overhead, "measure_overhead", lambda *a, **kw: self._fake_report()
        )
        hist = tmp_path / "BENCH_perf.json"
        rc = overhead.main(["--history", str(hist)])
        assert rc == 0
        doc = json.loads(hist.read_text())
        (entry,) = doc["entries"]
        assert entry["kind"] == "telemetry-overhead"
        assert set(entry["results"]) == {
            "telemetry_bare_loop",
            "telemetry_stamped_loop",
        }
        assert entry["results"]["telemetry_bare_loop"]["best_s"] == pytest.approx(0.010)
        assert entry["context"]["overhead"] == pytest.approx(0.02)
        assert "manifest" in entry

    def test_no_history_flag_skips_write(self, tmp_path, monkeypatch):
        from repro.telemetry import overhead

        monkeypatch.setattr(
            overhead, "measure_overhead", lambda *a, **kw: self._fake_report()
        )
        hist = tmp_path / "BENCH_perf.json"
        rc = overhead.main(["--history", str(hist), "--no-history"])
        assert rc == 0
        assert not hist.exists()

    def test_failure_exit_still_persists(self, tmp_path, monkeypatch):
        from repro.telemetry import overhead

        monkeypatch.setattr(
            overhead, "measure_overhead", lambda *a, **kw: self._fake_report()
        )
        hist = tmp_path / "BENCH_perf.json"
        rc = overhead.main(["--history", str(hist), "--max-overhead", "0.001"])
        assert rc == 1
        assert json.loads(hist.read_text())["entries"]


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
class TestTimeline:
    @pytest.fixture(scope="class")
    def recorded(self):
        pipe = make_pipe(
            cycles=2_000, dvm_target=0.05,
            dispatch=L2MissSensitiveAllocation(96, t_cache_miss=10, min_limit=8),
        )
        recorder = TimelineRecorder(pipe.bus)
        with recorder:
            result = pipe.run()
        return recorder, result

    def test_decision_kinds_present(self, recorded):
        recorder, _ = recorded
        kinds = recorder.decision_kinds()
        # A two-plus-thread DVM run on a MEM mix must show at least
        # three distinct decision kinds (acceptance criterion).
        assert len(kinds) >= 3
        assert "dvm.trigger" in kinds

    def test_events_carry_stamps(self, recorded):
        recorder, _ = recorded
        assert recorder.events
        for ev in recorder.events:
            assert ev.stage in STAGE_ORDER
            assert ev.cycle >= 0

    def test_render_text(self, recorded):
        recorder, _ = recorded
        text = render_timeline(recorder.events, max_rows=20, chart=True)
        assert "decision timeline" in text
        assert "intervals" in text

    def test_jsonl_round_trip(self, recorded, tmp_path):
        recorder, result = recorded
        path = tmp_path / "timeline.jsonl"
        n = recorder.to_jsonl(str(path), manifest=result.manifest)
        assert n == len(recorder.events)
        manifest, events = read_jsonl(str(path))
        assert manifest == result.manifest
        assert len(events) == n
        assert events[0] == recorder.events[0]

    def test_timeline_json_counts(self, recorded):
        recorder, result = recorded
        doc = timeline_json(recorder.events, result.manifest)
        assert doc["manifest"]["seed"] == 3
        assert sum(doc["topic_counts"].values()) == len(recorder.events)

    def test_limit_drops_and_counts(self):
        pipe = make_pipe(cycles=1_200, dvm_target=0.05)
        recorder = TimelineRecorder(pipe.bus, limit=5)
        with recorder:
            pipe.run()
        assert len(recorder.events) == 5
        assert recorder.dropped > 0


# ----------------------------------------------------------------------
# Pipeline wiring property: within one cycle events arrive in stage
# order, and interval indices increase monotonically.
# ----------------------------------------------------------------------
_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGE_ORDER)}


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=50),
    cycles=st.sampled_from([500, 900, 1_300]),
)
def test_property_stage_order_and_interval_monotonicity(seed, cycles):
    pipe = make_pipe(cycles=cycles, dvm_target=0.05, seed=seed)
    seen = []
    sub = pipe.bus.subscribe_all(
        lambda e: seen.append((e.cycle, e.stage, e.topic, e.payload))
    )
    try:
        pipe.run()
    finally:
        sub.close()
    assert seen, "a DVM run must emit events"
    last_cycle = -1
    last_stage_idx = -1
    interval_indices = []
    for cycle, stage, topic, payload in seen:
        if stage == "":
            if topic == TOPIC_WARMUP_PROGRESS.name:
                # The functional warm-up runs before the cycle loop.
                assert last_cycle == -1, "warm-up progress inside the loop"
                continue
            # Emitted outside the cycle loop (end-of-run resolution /
            # divergence events); exempt from within-cycle stage order.
            assert topic.startswith("reliability.") or topic == "interval.close"
            continue
        assert stage in _STAGE_INDEX
        if cycle != last_cycle:
            assert cycle > last_cycle, "event cycles must not go backwards"
            last_cycle, last_stage_idx = cycle, -1
        idx = _STAGE_INDEX[stage]
        assert idx >= last_stage_idx, (
            f"stage {stage!r} out of order at cycle {cycle}"
        )
        last_stage_idx = idx
        if topic == TOPIC_INTERVAL_CLOSE.name:
            interval_indices.append(payload["index"])
    assert interval_indices == sorted(set(interval_indices)), (
        "interval indices must be strictly increasing"
    )
