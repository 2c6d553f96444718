"""Worker heartbeats and parent-side fleet health.

Complements :mod:`repro.telemetry.relay`: the relay moves *simulation*
telemetry across the process boundary, this module moves *liveness*.

* **Worker side** — :class:`HeartbeatEmitter` hooks the worker's
  ambient bus and ships a heartbeat through the relay queue at most
  every ``interval_s`` seconds of wall time, driven by
  ``interval.close`` events (intervals close every couple thousand
  cycles, so the cadence costs nothing extra).  Each heartbeat carries
  cycles simulated in the current point, the instantaneous cycles/s,
  resident set size from ``/proc/self/statm``, the current point key,
  and wall time spent in the point.  Point start/end send immediate
  unthrottled beats so the parent learns about hand-offs promptly.
* **Parent side** — :class:`HealthMonitor` folds heartbeats into
  per-worker gauges (``worker.w<slot>.*``), re-publishes them as
  ``harness.health`` events, and answers the engine's stall question:
  a worker that *started* a point but has been silent for longer than
  ``stall_after_s`` is **stalled** — a disposition distinct from a
  timeout (the point's wall budget ran out) and surfaced as such by
  the retry machinery.

Wall-clock reads here are observability-only and never feed simulated
results, so the determinism rule is suppressed.
"""
# lint: disable-file=determinism

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry.bus import EventBus, EventOrigin, Subscription
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.relay import WorkerRelay
from repro.telemetry.topics import (
    TOPIC_INTERVAL_CLOSE,
    TOPIC_PROFILE_PROGRESS,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_WARMUP_PROGRESS,
    TOPIC_WORKER_HEALTH,
)

#: Heartbeat kinds on the wire.
BEAT_START = "start"
BEAT_TICK = "beat"
BEAT_END = "end"

#: Worker states the monitor reports.
STATE_RUNNING = "running"
STATE_IDLE = "idle"
STATE_STALLED = "stalled"
STATE_LOST = "lost"  # its pool round ended while it was still running


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs for the fleet-observability plumbing of one pool run.

    ``stall_after_s`` is the heartbeat-silence threshold: a worker that
    started a point and then went quiet for longer is declared stalled.
    It defaults to 20× the heartbeat interval — generous enough for GC
    pauses and loaded CI runners, tight enough to beat any practical
    point timeout.
    """

    heartbeat_s: float = 0.25
    stall_after_s: float = 5.0
    serve: tuple[str, int] | None = None


def rss_kb() -> float:
    """Resident set size of this process in KiB (0.0 if unreadable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return float(pages * (os.sysconf("SC_PAGE_SIZE") // 1024))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


class HeartbeatEmitter:
    """Worker-side liveness: throttled beats through the relay queue."""

    def __init__(
        self,
        relay: WorkerRelay,
        *,
        interval_s: float = 0.25,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._relay = relay
        self._interval_s = interval_s
        self._clock = clock
        self._point: str | None = None
        self._point_start = 0.0
        self._last_beat = 0.0
        self._last_cycle = 0
        self._last_cycle_t = 0.0
        self._cycles = 0

    def attach(self, bus: EventBus) -> Subscription:
        """Drive throttled beats from the pipeline's interval closes, and
        from the phases before the first one closes: functional warm-up
        and offline profiling, each of which can run for seconds."""
        return bus.subscribe(
            (TOPIC_INTERVAL_CLOSE, TOPIC_WARMUP_PROGRESS, TOPIC_PROFILE_PROGRESS),
            self._on_event,
        )

    def _on_event(self, event: Any) -> None:
        if event.topic == TOPIC_INTERVAL_CLOSE.name:
            self.on_interval(event)
        else:
            self.on_progress(event)

    # ------------------------------------------------------------------
    def point_started(self, point: str) -> None:
        now = self._clock()
        self._point = point
        self._point_start = now
        self._last_beat = now
        self._last_cycle = 0
        self._last_cycle_t = now
        self._cycles = 0
        self._send(BEAT_START, now, 0.0)

    def point_finished(self) -> None:
        now = self._clock()
        self._send(BEAT_END, now, 0.0)
        self._point = None
        self._relay.flush()

    def on_interval(self, event: Any) -> None:
        end_cycle = int(event["end_cycle"])
        now = self._clock()
        if end_cycle < self._last_cycle:
            # A new simulation started within the same point (figure
            # suites run several sims per task); restart the rate base.
            self._last_cycle = 0
            self._last_cycle_t = now
        self._cycles = end_cycle
        if now - self._last_beat < self._interval_s:
            return
        dt = now - self._last_cycle_t
        rate = (end_cycle - self._last_cycle) / dt if dt > 0 else 0.0
        self._last_cycle = end_cycle
        self._last_cycle_t = now
        self._last_beat = now
        self._send(BEAT_TICK, now, rate)

    def on_progress(self, event: Any) -> None:
        """A liveness-only beat from warm-up or profiling: no cycle of
        the next simulation has run yet, so the cycle-rate base restarts
        here and the first interval's rate excludes this phase."""
        now = self._clock()
        self._cycles = 0
        self._last_cycle = 0
        self._last_cycle_t = now
        if now - self._last_beat < self._interval_s:
            return
        self._last_beat = now
        self._send(BEAT_TICK, now, 0.0)

    # ------------------------------------------------------------------
    def _send(self, kind: str, now: float, rate: float) -> None:
        # Flush buffered telemetry first so every beat also bounds event
        # batch latency: a slow point's interval samples reach the
        # parent mid-point at heartbeat cadence even when the batch
        # never fills.
        self._relay.flush()
        self._relay.send_health(
            {
                "kind": kind,
                "point": self._point,
                "cycles": self._cycles,
                "cycles_per_sec": rate,
                "rss_kb": rss_kb(),
                "point_wall_s": now - self._point_start if self._point else 0.0,
            }
        )


@dataclass
class WorkerHealth:
    """Last known state of one pool worker, as seen by the parent."""

    worker: int
    pid: int
    point: str | None = None
    cycles: int = 0
    cycles_per_sec: float = 0.0
    rss_kb: float = 0.0
    point_wall_s: float = 0.0
    last_seen_ms: float = 0.0
    state: str = STATE_IDLE
    beats: int = field(default=0)

    def to_dict(self, now_ms: float, stall_after_s: float) -> dict[str, Any]:
        age_s = max(0.0, (now_ms - self.last_seen_ms) / 1000.0)
        state = self.state
        if state == STATE_RUNNING and age_s > stall_after_s:
            state = STATE_STALLED
        return {
            "worker": self.worker,
            "pid": self.pid,
            "state": state,
            "point": self.point,
            "cycles": self.cycles,
            "cycles_per_sec": round(self.cycles_per_sec, 1),
            "rss_kb": self.rss_kb,
            "point_wall_s": round(self.point_wall_s, 3),
            "heartbeat_age_s": round(age_s, 3),
            "beats": self.beats,
        }


class HealthMonitor:
    """Parent-side fold of worker heartbeats into gauges and stalls."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry,
        bus: EventBus | None = None,
        stall_after_s: float = 5.0,
    ) -> None:
        self.metrics = metrics
        self._bus = bus
        self.stall_after_s = stall_after_s
        self.workers: dict[int, WorkerHealth] = {}
        self._started_points: set[str] = set()

    # ------------------------------------------------------------------
    def on_health(
        self, slot: int, pid: int, payload: dict[str, Any], arrival_ms: float
    ) -> None:
        """RelayDrain health sink: fold one heartbeat (see HealthSink)."""
        record = self.workers.get(slot)
        if record is None:
            record = self.workers.setdefault(slot, WorkerHealth(slot, pid))
        record.pid = pid
        kind = str(payload.get("kind", BEAT_TICK))
        point = payload.get("point")
        record.point = str(point) if point is not None else None
        record.cycles = int(payload.get("cycles", 0))
        record.cycles_per_sec = float(payload.get("cycles_per_sec", 0.0))
        record.rss_kb = float(payload.get("rss_kb", 0.0))
        record.point_wall_s = float(payload.get("point_wall_s", 0.0))
        record.last_seen_ms = arrival_ms
        record.beats += 1
        if kind == BEAT_END:
            record.state = STATE_IDLE
            record.point = None
        else:
            record.state = STATE_RUNNING
            if record.point is not None:
                self._started_points.add(record.point)
        self._set_gauges(record)
        if self._bus is not None:
            self._bus.republish(
                TOPIC_WORKER_HEALTH,
                {
                    "worker": slot,
                    "pid": pid,
                    "kind": kind,
                    "point": record.point,
                    "cycles": record.cycles,
                    "cycles_per_sec": record.cycles_per_sec,
                    "rss_kb": record.rss_kb,
                    "point_wall_s": record.point_wall_s,
                },
                cycle=record.cycles,
                stage="",
                origin=EventOrigin(worker=slot, pid=pid, ms=arrival_ms),
            )

    def attach(self, bus: EventBus) -> Subscription:
        """Fold relayed AVF samples into per-worker gauges.

        Subscribes to the parent bus and reacts only to events carrying
        an origin (i.e. relayed from a worker), so the parent's own
        in-process events are untouched.
        """
        return bus.subscribe(
            (TOPIC_INTERVAL_CLOSE, TOPIC_RELIABILITY_ESTIMATE),
            self._on_relayed,
            predicate=lambda event: event.origin is not None,
        )

    # ------------------------------------------------------------------
    def _on_relayed(self, event: Any) -> None:
        assert event.origin is not None
        scope = self.metrics.child(f"worker.w{event.origin.worker}")
        if event.topic == TOPIC_INTERVAL_CLOSE.name:
            scope.gauge(
                "online_iq_avf", help="Latest relayed online IQ AVF estimate."
            ).set(float(event["online_avf_estimate"]))
            scope.gauge(
                "online_rob_avf", help="Latest relayed online ROB AVF estimate."
            ).set(float(event["online_rob_estimate"]))
        else:
            scope.gauge(
                f"est_{event['structure']}",
                help="Latest relayed DVM online AVF estimate for one structure.",
            ).set(float(event["estimate"]))

    def _set_gauges(self, record: WorkerHealth) -> None:
        scope = self.metrics.child(f"worker.w{record.worker}")
        scope.gauge("cycles", help="Cycles simulated in the current point.").set(
            record.cycles
        )
        scope.gauge("cycles_per_sec", help="Instantaneous simulation rate.").set(
            record.cycles_per_sec
        )
        scope.gauge("rss_kb", help="Worker resident set size (KiB).").set(
            record.rss_kb
        )
        scope.gauge("point_wall_s", help="Wall seconds in the current point.").set(
            record.point_wall_s
        )
        self.metrics.gauge(
            "fleet.workers", help="Distinct pool workers seen this run."
        ).set(len(self.workers))

    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Reset point attribution at the start of a retry round.

        A fresh pool round retries points whose previous attempt died or
        stalled; without this reset, a stale RUNNING record (from the
        worker that died holding the point) would match the retried
        point's key and trip an immediate false stall.  Workers still
        marked running belong to the torn-down pool, so they become
        :data:`STATE_LOST` until (if ever) they beat again.
        """
        self._started_points.clear()
        for record in self.workers.values():
            if record.state == STATE_RUNNING:
                record.state = STATE_LOST
                record.point = None

    def started(self, point: str) -> bool:
        """True when any worker ever sent a start beat for ``point``."""
        return point in self._started_points

    def stalled_worker(
        self, point: str, now_ms: float
    ) -> tuple[WorkerHealth, float] | None:
        """The worker stalled on ``point``, with its silence in seconds.

        Returns None while the point is unstarted, running healthily,
        or already handed back.
        """
        for record in self.workers.values():
            if record.state != STATE_RUNNING or record.point != point:
                continue
            age_s = (now_ms - record.last_seen_ms) / 1000.0
            if age_s > self.stall_after_s:
                return record, age_s
        return None

    def to_doc(self, now_ms: float) -> list[dict[str, Any]]:
        """JSON-safe per-worker rows for the status document."""
        return [
            self.workers[slot].to_dict(now_ms, self.stall_after_s)
            for slot in sorted(self.workers)
        ]
