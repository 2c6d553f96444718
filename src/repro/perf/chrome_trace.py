"""Chrome trace-event JSON export (Perfetto / about:tracing).

Converts the two observability streams into one trace document:

* :class:`TracingProfiler` laps become complete events (``"ph": "X"``)
  on track 0 — one slice per traced cycle with its stage slices nested
  inside;
* recorded bus events (:class:`~repro.telemetry.timeline.RecordedEvent`)
  become instant events (``"ph": "i"``) for controller decisions and
  complete events for ``interval.close``, laid out on per-family tracks
  (intervals / DVM / allocation / fetch) in the *cycle* time domain.

The exporter emits the JSON-object form ``{"traceEvents": [...]}`` with
the run manifest under ``otherData``, which both Perfetto and
``chrome://tracing`` load directly.  ``validate_trace()`` checks the
schema and the nesting well-formedness the tests (and CI artifact
consumers) rely on.

Timestamps (``ts``/``dur``) are microseconds per the trace-event spec;
for cycle-domain tracks one simulated cycle maps to ``cycle_us``
microseconds (1.0 by default, i.e. "1 µs = 1 cycle").
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.profiler import StageProfiler
from repro.telemetry.provenance import RunManifest
from repro.telemetry.timeline import RecordedEvent

#: One timed stage of one cycle: ``(cycle, stage, start_s, end_s)`` with
#: ``time.perf_counter()`` readings.
Lap = tuple[int, str, float, float]

#: The simulator is one process in the trace.
TRACE_PID = 1

#: Track (tid) layout.  tid 0 carries the wall-time cycle and stage
#: slices; the cycle-domain event tracks sit above it.
TID_SPANS = 0
TID_INTERVALS = 1
TID_DVM = 2
TID_ALLOC = 3
TID_FETCH = 4
TID_SWEEP = 5
#: Counter tracks (``"ph": "C"``) for AVF / occupancy / DVM state.
TID_COUNTERS = 6
#: Per-worker point tracks of the parallel harness sit above the fixed
#: tracks: worker *n* renders on tid ``TID_WORKER_BASE + n``.
TID_WORKER_BASE = 7

#: Topic-family → track for recorded decision events.
_TOPIC_TIDS: dict[str, int] = {
    "interval.close": TID_INTERVALS,
    "dvm.sample": TID_DVM,
    "dvm.trigger": TID_DVM,
    "dvm.ratio": TID_DVM,
    "dvm.throttle": TID_DVM,
    "dvm.restore": TID_DVM,
    "iql.cap": TID_ALLOC,
    "flush.switch": TID_ALLOC,
    "fetch.flush": TID_FETCH,
    "harness.point": TID_SWEEP,
    "reliability.attribution": TID_COUNTERS,
    "reliability.rf": TID_COUNTERS,
    "reliability.late_ace": TID_COUNTERS,
    "reliability.estimate": TID_COUNTERS,
    "reliability.divergence": TID_COUNTERS,
}

_TRACK_NAMES: dict[int, str] = {
    TID_SPANS: "spans (wall time)",
    TID_INTERVALS: "intervals",
    TID_DVM: "dvm decisions",
    TID_ALLOC: "iq allocation",
    TID_FETCH: "fetch policy",
    TID_SWEEP: "sweep points",
    TID_COUNTERS: "reliability counters",
}


def _track_name(tid: int) -> str:
    if tid >= TID_WORKER_BASE:
        return f"sweep worker {tid - TID_WORKER_BASE}"
    return _TRACK_NAMES.get(tid, f"track {tid}")


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class TracingProfiler(StageProfiler):
    """A :class:`StageProfiler` that also keeps the first cycles' laps.

    Drop-in for the pipeline's ``profiler=`` hook: ``lap()`` timing is
    inherited unchanged, and for the first ``max_traced_cycles`` cycles
    each lap is also kept as a :data:`Lap`, which :func:`lap_events`
    lays out as nested cycle and stage slices.  The bound keeps trace
    memory proportional to the traced prefix, not the run length (the
    aggregate profile still covers every cycle).
    """

    def __init__(self, *, max_traced_cycles: int = 2_000):
        super().__init__()
        if max_traced_cycles < 0:
            raise ValueError("max_traced_cycles must be >= 0")
        self.max_traced_cycles = max_traced_cycles
        self.laps: list[Lap] = []

    @property
    def traced_cycles(self) -> int:
        return min(self.cycles, self.max_traced_cycles)

    def lap(self, stage: str) -> None:
        start = self._mark
        super().lap(stage)
        if self.cycles <= self.max_traced_cycles:
            self.laps.append((self.cycles - 1, stage, start, self._mark))


def lap_events(laps: Sequence[Lap]) -> list[dict[str, Any]]:
    """Complete (``"X"``) events on track 0 for a list of laps.

    Each cycle becomes a ``cycle`` slice from its first lap's start to
    its last lap's end, followed by one ``stage`` slice per lap.  Times
    are microseconds since the first lap started.
    """
    if not laps:
        return []
    t0 = laps[0][2]

    def slice_(
        name: str, cat: str, start: float, end: float, args: dict[str, Any]
    ) -> dict[str, Any]:
        ts, end_us = (start - t0) * 1e6, (end - t0) * 1e6
        return {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": max(end_us - ts, 0.0),
            "pid": TRACE_PID,
            "tid": TID_SPANS,
            "args": args,
        }

    out: list[dict[str, Any]] = []
    for cycle, group in itertools.groupby(laps, key=lambda lap: lap[0]):
        cycle_laps = list(group)
        start, end = cycle_laps[0][2], cycle_laps[-1][3]
        out.append(slice_("cycle", "cycle", start, end, {"index": cycle}))
        for _, stage, start, end in cycle_laps:
            out.append(slice_(stage, "stage", start, end, {}))
    return out


def recorded_events(
    events: Iterable[RecordedEvent], *, cycle_us: float = 1.0
) -> list[dict[str, Any]]:
    """Cycle-domain trace events for a recorded decision timeline."""
    if cycle_us <= 0:
        raise ValueError("cycle_us must be positive")
    out: list[dict[str, Any]] = []
    for ev in events:
        tid = _TOPIC_TIDS.get(ev.topic, TID_FETCH)
        args = _json_safe(dict(ev.payload))
        if not isinstance(args, dict):  # pragma: no cover - dict in, dict out
            args = {"payload": args}
        args["stage"] = ev.stage
        if "_worker" in ev.payload:
            # Relayed from a pool worker (see TimelineRecorder): the
            # event belongs on that worker's *wall-time* track, next to
            # its point slices, at its parent-arrival ms — mixing each
            # worker's private cycle domain onto the shared cycle
            # tracks would interleave unrelated runs.
            out.append(
                {
                    "name": ev.topic,
                    "cat": "relay",
                    "ph": "i",
                    "s": "t",
                    "ts": float(ev.payload.get("_ms", 0.0)) * 1000.0,
                    "pid": TRACE_PID,
                    "tid": TID_WORKER_BASE + int(ev.payload["_worker"]),
                    "args": args,
                }
            )
        elif ev.topic == "interval.close":
            # Intervals close at (index+1)*L cycles; recover L from the
            # payload so each interval renders as a slice, not a point.
            index = int(ev.payload.get("index", 0))
            end_cycle = int(ev.payload.get("end_cycle", ev.cycle + 1))
            length = max(1, end_cycle // (index + 1))
            out.append(
                {
                    "name": f"interval {index}",
                    "cat": "interval",
                    "ph": "X",
                    "ts": (end_cycle - length) * cycle_us,
                    "dur": length * cycle_us,
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )
        elif ev.topic == "harness.point":
            # Parallel-harness points live in the *wall-time* domain
            # (payload ms since sweep start), not the cycle domain: a
            # completed point is a slice on its worker's track, every
            # other status (cached/retry/skipped) an instant on the
            # sweep summary track.
            status = str(ev.payload.get("status", ""))
            worker = int(ev.payload.get("worker", -1))
            ts_us = float(ev.payload.get("start_ms", 0.0)) * 1000.0
            if status == "done" and worker >= 0:
                out.append(
                    {
                        "name": str(ev.payload.get("label", "point")),
                        "cat": "harness",
                        "ph": "X",
                        "ts": ts_us,
                        "dur": float(ev.payload.get("elapsed_ms", 0.0)) * 1000.0,
                        "pid": TRACE_PID,
                        "tid": TID_WORKER_BASE + worker,
                        "args": args,
                    }
                )
            else:
                out.append(
                    {
                        "name": f"{ev.payload.get('label', 'point')} [{status}]",
                        "cat": "harness",
                        "ph": "i",
                        "s": "t",
                        "ts": ts_us,
                        "pid": TRACE_PID,
                        "tid": TID_SWEEP,
                        "args": args,
                    }
                )
        else:
            out.append(
                {
                    "name": ev.topic,
                    "cat": "decision",
                    "ph": "i",
                    "s": "t",
                    "ts": ev.cycle * cycle_us,
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )
    return out


def counter_events(
    events: Iterable[RecordedEvent], *, cycle_us: float = 1.0
) -> list[dict[str, Any]]:
    """Counter (``"C"``) events: AVF, IQ occupancy and DVM state tracks.

    Rendered by Perfetto/about:tracing as stacked area charts alongside
    the slice tracks.  Sources, all in the cycle time domain:

    * ``interval.close`` → "online avf" (iq/rob series), "iq occupancy"
      (ready/waiting series) and "iq limit", sampled at each interval's
      end cycle;
    * ``dvm.sample`` → "dvm" (estimate and wq_ratio);
    * ``reliability.divergence`` → "<structure> avf" (oracle vs online),
      emitted at end of run but timestamped at each interval's end.
    """
    if cycle_us <= 0:
        raise ValueError("cycle_us must be positive")

    def counter(name: str, ts_cycles: float, series: dict[str, float]) -> dict[str, Any]:
        return {
            "name": name,
            "cat": "reliability",
            "ph": "C",
            "ts": ts_cycles * cycle_us,
            "pid": TRACE_PID,
            "tid": TID_COUNTERS,
            "args": {k: float(v) for k, v in series.items()},
        }

    out: list[dict[str, Any]] = []
    for ev in events:
        p = ev.payload
        if "_worker" in p:
            # Relayed events live in their worker's private cycle
            # domain; folding them into the shared counter tracks would
            # interleave unrelated runs' x-axes.
            continue
        if ev.topic == "interval.close":
            end = float(p.get("end_cycle", ev.cycle))
            out.append(
                counter(
                    "online avf",
                    end,
                    {
                        "iq": p.get("online_avf_estimate", 0.0),
                        "rob": p.get("online_rob_estimate", 0.0),
                    },
                )
            )
            out.append(
                counter(
                    "iq occupancy",
                    end,
                    {
                        "ready": p.get("avg_ready_queue_len", 0.0),
                        "waiting": p.get("avg_waiting_queue_len", 0.0),
                    },
                )
            )
            out.append(counter("iq limit", end, {"limit": p.get("iq_limit", 0)}))
        elif ev.topic == "dvm.sample":
            out.append(
                counter(
                    "dvm",
                    float(ev.cycle),
                    {
                        "estimate": p.get("estimate", 0.0),
                        "wq_ratio": p.get("wq_ratio", 0.0),
                    },
                )
            )
        elif ev.topic == "reliability.divergence":
            out.append(
                counter(
                    f"{p.get('structure', 'iq')} avf",
                    float(p.get("end_cycle", ev.cycle)),
                    {
                        "oracle": p.get("oracle_avf", 0.0),
                        "online": p.get("online_estimate", 0.0),
                    },
                )
            )
    return out


def metadata_events(tids: Iterable[int]) -> list[dict[str, Any]]:
    """``"M"`` events naming the process and each used track."""
    out: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for tid in sorted(set(tids)):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": _track_name(tid)},
            }
        )
    return out


def build_trace(
    laps: Sequence[Lap] | None = None,
    recorded: Sequence[RecordedEvent] | None = None,
    *,
    cycle_us: float = 1.0,
    manifest: RunManifest | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the Chrome trace JSON-object document.

    Recorded interval/DVM/divergence events are laid out both as slices
    or instants and as ``"C"`` counter tracks.
    """
    events: list[dict[str, Any]] = []
    if laps:
        events.extend(lap_events(laps))
    if recorded:
        events.extend(recorded_events(recorded, cycle_us=cycle_us))
        events.extend(counter_events(recorded, cycle_us=cycle_us))
    used_tids = {int(e["tid"]) for e in events} or {TID_SPANS}
    events = metadata_events(used_tids) + events
    other: dict[str, Any] = {"cycle_us": cycle_us, **dict(extra or {})}
    if manifest is not None:
        other["manifest"] = manifest.to_dict()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _json_safe(other),
    }


def write_chrome_trace(
    path: str,
    *,
    laps: Sequence[Lap] | None = None,
    recorded: Sequence[RecordedEvent] | None = None,
    cycle_us: float = 1.0,
    manifest: RunManifest | None = None,
    extra: Mapping[str, Any] | None = None,
) -> int:
    """Write a trace file; returns the number of non-metadata events."""
    doc = build_trace(
        laps, recorded, cycle_us=cycle_us, manifest=manifest, extra=extra
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return sum(1 for e in doc["traceEvents"] if e.get("ph") != "M")


# ----------------------------------------------------------------------
# Validation (used by the tests and the CI artifact step)
# ----------------------------------------------------------------------
_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid", "s"),
    "M": ("name", "pid", "tid", "args"),
    "C": ("name", "ts", "pid", "args"),
}


def validate_trace(doc: Mapping[str, Any]) -> dict[str, int]:
    """Check a trace document's schema and span nesting.

    Raises :class:`ValueError` on the first malformed event: unknown or
    missing phase, missing required keys, negative duration, a counter
    (``"C"``) whose ``args`` is not a mapping of numeric series values,
    or two complete events on one track that overlap without one
    containing the other (ill-formed nesting; counters are value
    samples, not slices, so they are exempt).  Returns per-phase event
    counts.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no traceEvents list")
    counts: dict[str, int] = {}
    tracks: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _REQUIRED_KEYS:
            raise ValueError(f"traceEvents[{i}]: unsupported phase {ph!r}")
        for key in _REQUIRED_KEYS[ph]:
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] ({ph!r}): missing {key!r}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, Mapping) or not args:
                raise ValueError(
                    f"traceEvents[{i}] (counter): args must be a non-empty "
                    f"mapping of series values, got {args!r}"
                )
            for series, value in args.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(
                        f"traceEvents[{i}] (counter {ev.get('name')!r}): "
                        f"series {series!r} has non-numeric value {value!r}"
                    )
        if ph == "X":
            ts, dur = float(ev["ts"]), float(ev["dur"])
            if dur < 0:
                raise ValueError(f"traceEvents[{i}]: negative duration {dur}")
            tracks.setdefault((int(ev["pid"]), int(ev["tid"])), []).append((ts, dur))
    eps = 1e-6
    for (pid, tid), slices in tracks.items():
        # Longer slice first at equal start so parents precede children.
        slices.sort(key=lambda s: (s[0], -s[1]))
        stack: list[float] = []  # open-slice end times
        for ts, dur in slices:
            while stack and stack[-1] <= ts + eps:
                stack.pop()
            end = ts + dur
            if stack and end > stack[-1] + eps:
                raise ValueError(
                    f"ill-formed nesting on pid={pid} tid={tid}: slice "
                    f"[{ts}, {end}] overlaps its enclosing slice ending "
                    f"at {stack[-1]}"
                )
            stack.append(end)
    return counts


def read_trace(path: str) -> dict[str, Any]:
    """Load a trace document written by :func:`write_chrome_trace`."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a Chrome trace JSON object")
    return doc
