"""Cross-process telemetry relay, worker health, and fleet monitoring."""

import queue as queue_mod
import time

import pytest

from repro.core.pipeline import SMTPipeline
from repro.harness import parallel as parallel_mod
from repro.harness.health import (
    STATE_IDLE,
    STATE_LOST,
    STATE_RUNNING,
    HealthMonitor,
    HeartbeatEmitter,
    MonitorConfig,
)
from repro.harness.parallel import parallel_sweep
from repro.harness.runner import BenchScale, clear_caches
from repro.telemetry.bus import EventBus, EventOrigin
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.relay import MSG_HEALTH, RelayDrain, WorkerRelay
from repro.telemetry.topics import (
    TOPIC_HARNESS_POINT,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_PROFILE_PROGRESS,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_WARMUP_PROGRESS,
    TOPIC_WORKER_HEALTH,
)

TINY = BenchScale(
    max_cycles=2_000, warmup_cycles=400, interval_cycles=400,
    ace_window=800, profile_instructions=6_000, profile_window=1_500,
)


@pytest.fixture(autouse=True, scope="module")
def _caches():
    clear_caches()
    yield
    clear_caches()


def _interval_payload(index: int) -> dict:
    return {
        "index": index, "end_cycle": (index + 1) * 400, "ipc": 2.0,
        "committed": 800, "avg_ready_queue_len": 4.0,
        "avg_waiting_queue_len": 8.0, "l2_misses": 0,
        "online_avf_estimate": 0.25, "online_rob_estimate": 0.33,
        "iq_limit": 64,
    }


def _emit_intervals(bus: EventBus, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        bus.emit(
            TOPIC_INTERVAL_CLOSE,
            index=i, end_cycle=(i + 1) * 400, ipc=2.0, committed=800,
            avg_ready_queue_len=4.0, avg_waiting_queue_len=8.0, l2_misses=0,
            online_avf_estimate=0.25, online_rob_estimate=0.33, iq_limit=64,
        )


class _NonBlockingOnlyQueue(queue_mod.Queue):
    """A queue whose blocking ``put`` raises: a full queue under a
    blocking put would hang the worker's cycle loop forever."""

    def put(self, item, block=True, timeout=None):
        if block:
            raise AssertionError("relay used a blocking put")
        super().put(item, block=False)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class TestWorkerRelay:
    def test_batches_ship_at_batch_size(self):
        q = queue_mod.Queue()
        bus = EventBus()
        relay = WorkerRelay(q, batch_size=3)
        relay.attach(bus)
        _emit_intervals(bus, 2)
        assert q.empty()  # below batch size: nothing shipped yet
        _emit_intervals(bus, 1, start=2)
        kind, _pid, _seq, dropped, batch = q.get_nowait()
        assert kind == "events" and dropped == 0 and len(batch) == 3
        topic, _cycle, _stage, payload = batch[0]
        assert topic == TOPIC_INTERVAL_CLOSE.name
        assert payload["online_avf_estimate"] == 0.25

    def test_full_queue_drops_and_counts_without_blocking(self):
        q = _NonBlockingOnlyQueue(maxsize=1)
        bus = EventBus()
        relay = WorkerRelay(q, batch_size=1)
        relay.attach(bus)
        _emit_intervals(bus, 5)  # capacity 1: four batches must drop
        assert relay.sent == 1
        assert relay.dropped == 4

    def test_heartbeats_bypass_batching(self):
        q = queue_mod.Queue()
        relay = WorkerRelay(q, batch_size=32)
        relay.send_health({"kind": "beat"})
        kind, _pid, _seq, _dropped, body = q.get_nowait()
        assert kind == MSG_HEALTH and body == {"kind": "beat"}

    def test_drop_count_rides_every_message(self):
        # Dropped batches never arrive, so the *next* delivered message
        # must carry the cumulative count for the parent to see it.
        q = queue_mod.Queue(maxsize=1)
        relay = WorkerRelay(q, batch_size=1)
        relay.send_health({"kind": "a"})      # fills the queue
        relay.send_health({"kind": "lost"})   # dropped
        q.get_nowait()
        relay.send_health({"kind": "b"})
        _kind, _pid, _seq, dropped, _body = q.get_nowait()
        assert dropped == 1

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            WorkerRelay(queue_mod.Queue(), batch_size=0)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class TestRelayDrain:
    def _pair(self, maxsize=0, batch_size=1, on_health=None):
        q = queue_mod.Queue(maxsize=maxsize)
        worker_bus = EventBus()
        relay = WorkerRelay(q, batch_size=batch_size)
        relay.attach(worker_bus)
        parent_bus = EventBus()
        drain = RelayDrain(
            q, parent_bus, worker_slot=lambda pid: 0, t0=0.0,
            on_health=on_health,
        )
        return worker_bus, relay, parent_bus, drain

    def test_republishes_with_origin_preserving_order(self):
        worker_bus, relay, parent_bus, drain = self._pair()
        seen = []
        parent_bus.subscribe(
            TOPIC_INTERVAL_CLOSE, lambda e: seen.append((e.payload["index"], e.origin))
        )
        _emit_intervals(worker_bus, 5)
        assert drain.pump() == 5
        assert [i for i, _ in seen] == [0, 1, 2, 3, 4]
        origin = seen[0][1]
        assert isinstance(origin, EventOrigin)
        assert origin.worker == 0 and origin.pid == relay._pid
        assert origin.ms >= 0.0

    def test_dropped_counter_reflects_worker_losses(self):
        worker_bus, relay, _parent_bus, drain = self._pair(maxsize=2)
        _emit_intervals(worker_bus, 6)  # 2 delivered, 4 dropped
        drain.pump()
        assert relay.dropped == 4
        # Dropped batches never arrive; the cumulative count rides the
        # *next* delivered message instead.
        assert drain.dropped == 0
        _emit_intervals(worker_bus, 1, start=6)
        drain.pump()
        assert drain.dropped == 4
        assert drain.metrics.snapshot()["relay.dropped"] == 4

    def test_health_routed_to_sink_not_bus(self):
        sink = []
        _, relay, parent_bus, drain = self._pair(
            on_health=lambda slot, pid, body, ms: sink.append((slot, pid, body))
        )
        republished = []
        parent_bus.subscribe(TOPIC_WORKER_HEALTH, lambda e: republished.append(e))
        relay.send_health({"kind": "beat", "cycles": 7})
        drain.pump()
        assert sink == [(0, relay._pid, {"kind": "beat", "cycles": 7})]
        assert republished == []  # the monitor republishes, not the drain

    def test_pump_bounded_by_max_messages(self):
        worker_bus, _relay, _parent_bus, drain = self._pair()
        _emit_intervals(worker_bus, 8)
        assert drain.pump(max_messages=3) == 3
        assert drain.pump() == 5

    def test_unknown_topic_skipped(self):
        q = queue_mod.Queue()
        q.put_nowait(("events", 1234, 1, 0, [("no.such.topic", 0, "", {})]))
        drain = RelayDrain(q, EventBus(), worker_slot=lambda pid: 0, t0=0.0)
        assert drain.pump() == 1
        assert drain.metrics.snapshot()["relay.events"] == 0


# ----------------------------------------------------------------------
# Heartbeats and the health monitor
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_start_tick_end_sequence(self):
        q = queue_mod.Queue()
        relay = WorkerRelay(q, batch_size=64)
        clock = [100.0]
        hb = HeartbeatEmitter(relay, interval_s=0.25, clock=lambda: clock[0])
        bus = EventBus()
        hb.attach(bus)
        hb.point_started("point-key")
        clock[0] += 0.1
        _emit_intervals(bus, 1)  # throttled
        clock[0] += 0.3
        _emit_intervals(bus, 1, start=1)  # beats
        hb.point_finished()
        kinds = []
        while not q.empty():
            kind, _pid, _seq, _dropped, body = q.get_nowait()
            if kind == MSG_HEALTH:
                kinds.append(body["kind"])
                if body["kind"] == "beat":
                    assert body["point"] == "point-key"
                    assert body["cycles"] == 800
                    assert body["cycles_per_sec"] == pytest.approx(800 / 0.4)
        assert kinds == ["start", "beat", "end"]

    def test_cycle_reset_within_point(self):
        # Figure tasks run several sims per point; end_cycle restarting
        # from zero must not produce a negative rate.
        q = queue_mod.Queue()
        relay = WorkerRelay(q, batch_size=64)
        clock = [0.0]
        hb = HeartbeatEmitter(relay, interval_s=0.0, clock=lambda: clock[0])
        bus = EventBus()
        hb.attach(bus)
        hb.point_started("p")
        clock[0] += 1.0
        _emit_intervals(bus, 1, start=4)
        clock[0] += 1.0
        _emit_intervals(bus, 1)  # new sim: end_cycle restarts below 2000
        rates = []
        while not q.empty():
            kind, _pid, _seq, _dropped, body = q.get_nowait()
            if kind == MSG_HEALTH and body["kind"] == "beat":
                rates.append(body["cycles_per_sec"])
        assert all(rate >= 0.0 for rate in rates)


    def test_warmup_progress_beats_before_the_first_interval(self):
        # The functional warm-up runs for seconds before any interval
        # closes; its per-thread progress must beat, and the first
        # interval's rate must not count warm-up time.
        q = queue_mod.Queue()
        relay = WorkerRelay(q, batch_size=64)
        clock = [0.0]
        hb = HeartbeatEmitter(relay, interval_s=0.25, clock=lambda: clock[0])
        bus = EventBus()
        hb.attach(bus)
        hb.point_started("p")
        clock[0] += 1.0
        bus.emit(TOPIC_WARMUP_PROGRESS, thread=0, threads=1, instructions=100)
        clock[0] += 0.5
        _emit_intervals(bus, 1)  # end_cycle 400, 0.5 s after the warm-up
        hb.point_finished()
        beats = []
        while not q.empty():
            kind, _pid, _seq, _dropped, body = q.get_nowait()
            if kind == MSG_HEALTH:
                beats.append(body)
        assert [b["kind"] for b in beats] == ["start", "beat", "beat", "end"]
        assert beats[1]["cycles"] == 0 and beats[1]["cycles_per_sec"] == 0.0
        assert beats[2]["cycles_per_sec"] == pytest.approx(400 / 0.5)


class _SeenEmitter(HeartbeatEmitter):
    """A heartbeat emitter that also keeps every event it was fed."""

    def __init__(self):
        super().__init__(WorkerRelay(queue_mod.Queue()), interval_s=0.0)
        self.seen = []

    def _on_event(self, event):
        self.seen.append(event)
        super()._on_event(event)


class TestAmbientHeartbeats:
    """Every long phase of a figure suite feeds a pool worker's
    heartbeat: single-thread baselines run on the ambient bus, and
    offline profiling announces each program it finishes."""

    @pytest.fixture
    def emitter(self):
        from repro.harness.runner import set_ambient_bus

        clear_caches()
        emitter = _SeenEmitter()
        bus = EventBus()
        emitter.attach(bus)
        set_ambient_bus(bus)
        emitter.point_started("p")
        yield emitter
        set_ambient_bus(None)
        clear_caches()

    def test_single_thread_baselines_beat(self, emitter):
        from repro.harness.runner import single_thread_ipc

        for bench in ("gcc", "mcf"):
            before = len(emitter.seen)
            single_thread_ipc(bench, TINY)
            closes = [e for e in emitter.seen[before:]
                      if e.topic == TOPIC_INTERVAL_CLOSE.name]
            assert len(closes) == TINY.max_cycles // TINY.interval_cycles

    def test_profiling_beats_per_program(self, emitter):
        from repro.harness.experiments import table1_pc_accuracy
        from repro.harness.runner import get_programs
        from repro.isa.personalities import PERSONALITIES

        def profiled():
            return [e["program"] for e in emitter.seen
                    if e.topic == TOPIC_PROFILE_PROGRESS.name]

        get_programs("MEM-A", TINY)
        assert profiled() == [p.name for p in get_programs("MEM-A", TINY)]
        del emitter.seen[:]
        rows = table1_pc_accuracy(TINY)
        assert len(profiled()) == len(PERSONALITIES) == len(rows) - 1


class TestHealthMonitor:
    def _monitor(self, bus=None, stall_after_s=1.0):
        return HealthMonitor(
            metrics=MetricsRegistry(), bus=bus, stall_after_s=stall_after_s
        )

    def _beat(self, mon, slot=0, pid=41, kind="beat", point="k", ms=0.0, **over):
        payload = {
            "kind": kind, "point": point, "cycles": 1200,
            "cycles_per_sec": 5000.0, "rss_kb": 2048.0, "point_wall_s": 0.4,
        }
        payload.update(over)
        mon.on_health(slot, pid, payload, ms)

    def test_folds_heartbeat_into_gauges(self):
        mon = self._monitor()
        self._beat(mon, slot=1, pid=77)
        snap = mon.metrics.snapshot()
        assert snap["worker.w1.cycles"] == 1200
        assert snap["worker.w1.cycles_per_sec"] == 5000.0
        assert snap["worker.w1.rss_kb"] == 2048.0
        assert snap["fleet.workers"] == 1
        (row,) = mon.to_doc(now_ms=100.0)
        assert row["state"] == STATE_RUNNING and row["point"] == "k"

    def test_republishes_health_with_origin(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TOPIC_WORKER_HEALTH, lambda e: seen.append(e))
        mon = self._monitor(bus=bus)
        self._beat(mon, slot=2, pid=99, ms=12.5)
        (event,) = seen
        assert event.payload["worker"] == 2 and event.payload["pid"] == 99
        assert event.origin == EventOrigin(worker=2, pid=99, ms=12.5)

    def test_end_beat_marks_idle(self):
        mon = self._monitor()
        self._beat(mon, kind="start")
        self._beat(mon, kind="end", point=None)
        (row,) = mon.to_doc(now_ms=10.0)
        assert row["state"] == STATE_IDLE and row["point"] is None

    def test_stall_detection_and_display_promotion(self):
        mon = self._monitor(stall_after_s=1.0)
        self._beat(mon, kind="start", ms=0.0)
        assert mon.stalled_worker("k", now_ms=500.0) is None  # still fresh
        record, age_s = mon.stalled_worker("k", now_ms=2500.0)
        assert record.worker == 0 and age_s == pytest.approx(2.5)
        assert mon.stalled_worker("other-point", now_ms=2500.0) is None
        (row,) = mon.to_doc(now_ms=2500.0)
        assert row["state"] == "stalled"  # displayed, though never beat again

    def test_begin_round_resets_attribution(self):
        # A stale running record from a torn-down pool must not stall
        # the retried point; the worker renders as lost instead.
        mon = self._monitor(stall_after_s=0.1)
        self._beat(mon, kind="start", ms=0.0)
        assert mon.started("k")
        mon.begin_round()
        assert not mon.started("k")
        assert mon.stalled_worker("k", now_ms=10_000.0) is None
        (row,) = mon.to_doc(now_ms=10_000.0)
        assert row["state"] == STATE_LOST

    def test_relayed_avf_samples_fold_into_worker_gauges(self):
        bus = EventBus()
        mon = self._monitor(bus=bus)
        mon.attach(bus)
        origin = EventOrigin(worker=3, pid=11, ms=5.0)
        bus.republish(
            TOPIC_INTERVAL_CLOSE, _interval_payload(0), cycle=400, stage="",
            origin=origin,
        )
        bus.republish(
            TOPIC_RELIABILITY_ESTIMATE,
            {"structure": "iq", "estimate": 0.4, "threshold": 0.3,
             "triggered": True},
            cycle=400, stage="", origin=origin,
        )
        # The parent's own (origin-less) events must not touch gauges.
        _emit_intervals(bus, 1, start=1)
        snap = mon.metrics.snapshot()
        assert snap["worker.w3.online_iq_avf"] == 0.25
        assert snap["worker.w3.online_rob_avf"] == 0.33
        assert snap["worker.w3.est_iq"] == 0.4


# ----------------------------------------------------------------------
# Live fleet integration (jobs=2)
# ----------------------------------------------------------------------
class TestLiveFleet:
    def test_mid_point_telemetry_and_worker_gauges(self, tmp_path):
        bus = EventBus()
        done_seen = [0]
        relayed_before_done = [0]
        health_kinds = set()

        def on_point(event):
            if event.payload["status"] == "done":
                done_seen[0] += 1

        def on_relayed(event):
            if done_seen[0] == 0:
                relayed_before_done[0] += 1

        bus.subscribe(TOPIC_HARNESS_POINT, on_point)
        bus.subscribe(
            TOPIC_INTERVAL_CLOSE, on_relayed,
            predicate=lambda e: e.origin is not None,
        )
        bus.subscribe(
            TOPIC_WORKER_HEALTH, lambda e: health_kinds.add(e.payload["kind"])
        )
        ck = str(tmp_path / "fleet.jsonl")
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["oldest", "visa"]},
            jobs=2, checkpoint=ck, bus=bus,
            monitor=MonitorConfig(heartbeat_s=0.05),
        )
        assert len(run.rows) == 2 and not run.skipped
        # Reliability samples reached the parent bus before any point
        # completed — the sweep is observable in flight, not post hoc.
        assert relayed_before_done[0] > 0
        assert "start" in health_kinds and "end" in health_kinds

    def test_engine_telemetry_snapshot_and_status_doc(self, tmp_path):
        import json

        from repro.telemetry.export import read_status

        ck = str(tmp_path / "fleet2.jsonl")
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["oldest", "visa"]},
            jobs=2, checkpoint=ck,
            monitor=MonitorConfig(heartbeat_s=0.05),
        )
        # Default batch/queue sizes must not drop anything at this scale.
        assert run.telemetry["relay.dropped"] == 0
        assert run.telemetry["relay.events"] > 0
        assert run.telemetry["relay.heartbeats"] >= 4  # start+end per point
        assert any(k.startswith("worker.w0.") for k in run.telemetry)
        assert run.status_path == str(tmp_path / "fleet2.status.json")
        doc = read_status(ck)  # accepts the checkpoint path
        assert doc["state"] == "finished"
        assert doc["points"]["total"] == 2 and doc["points"]["done"] == 2
        assert doc["config_hash"] and doc["run_id"] == doc["config_hash"][:12]
        assert {w["state"] for w in doc["workers"]} == {"idle"}
        raw = json.load(open(run.status_path))
        assert raw == doc


# ----------------------------------------------------------------------
# Degraded fleets: hangs and deaths classified as stalls
# ----------------------------------------------------------------------
class TestStallDisposition:
    def test_hung_worker_is_stalled_not_timed_out(self, monkeypatch, tmp_path):
        # The worker sleeps mid-point with NO timeout set: only the
        # heartbeat-silence detector can hand the point back.
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "sleep:2.0:scheduler=visa")
        bus = EventBus()
        statuses = []
        bus.subscribe(
            TOPIC_HARNESS_POINT, lambda e: statuses.append(e.payload["status"])
        )
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["visa"]},
            jobs=2, checkpoint=str(tmp_path / "hang.jsonl"), bus=bus,
            retries=0, timeout=None,
            monitor=MonitorConfig(heartbeat_s=0.05, stall_after_s=0.5),
        )
        assert len(run.skipped) == 1
        assert "stalled: no heartbeat for" in run.skipped[0].error
        assert "timed out" not in run.skipped[0].error
        assert "stalled" in statuses and "skipped" in statuses

    def test_killed_worker_is_stalled_then_retried(self, monkeypatch, tmp_path):
        # die: sleeps past a heartbeat before os._exit, so the start
        # beat reliably reaches the parent and the death is attributed
        # to the point (mp.Queue's feeder thread can lose the beat on
        # an instant exit, which is the anonymous "worker process died"
        # path instead).
        monkeypatch.setenv(parallel_mod.FAULT_ENV, "die:0.4:scheduler=visa")
        bus = EventBus()
        statuses = []
        bus.subscribe(
            TOPIC_HARNESS_POINT, lambda e: statuses.append(e.payload["status"])
        )
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["visa"]},
            jobs=2, checkpoint=str(tmp_path / "die.jsonl"), bus=bus,
            retries=1,
            monitor=MonitorConfig(heartbeat_s=0.05, stall_after_s=5.0),
        )
        assert len(run.skipped) == 1
        assert "stalled: worker process died mid-point" in run.skipped[0].error
        # Round 1: stalled then retried; round 2: stalled then skipped.
        assert statuses.count("stalled") == 2
        assert statuses.count("retry") == 1
        assert statuses.count("skipped") == 1

    def test_slow_warmup_is_not_stalled(self, monkeypatch, tmp_path):
        # A functional warm-up that outlasts stall_after_s: every thread
        # takes 0.5 s longer, so the whole warm-up runs past 2 s before
        # the first interval closes.  Its per-thread progress events
        # must keep the worker's heartbeat alive.
        warm_thread = SMTPipeline._warm_thread

        def slow_warm_thread(self, t, n_insts):
            time.sleep(0.5)
            warm_thread(self, t, n_insts)

        monkeypatch.setattr(SMTPipeline, "_warm_thread", slow_warm_thread)
        clear_caches()  # forked workers must not inherit a warm state
        bus = EventBus()
        statuses = []
        bus.subscribe(
            TOPIC_HARNESS_POINT, lambda e: statuses.append(e.payload["status"])
        )
        run = parallel_sweep(
            "CPU-A", TINY, {"scheduler": ["oldest"]},
            jobs=2, checkpoint=str(tmp_path / "slow-warmup.jsonl"), bus=bus,
            retries=0, timeout=None,
            monitor=MonitorConfig(heartbeat_s=0.05, stall_after_s=2.0),
        )
        assert run.skipped == []
        assert statuses == ["done"]
