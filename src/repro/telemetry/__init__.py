"""repro.telemetry — structured observability for the simulator.

Layers (see ``docs/observability.md``):

* :mod:`repro.telemetry.topics` — the typed event-topic catalog;
* :mod:`repro.telemetry.bus` — the :class:`EventBus` pub/sub spine
  with a no-op fast path when nothing subscribes;
* :mod:`repro.telemetry.metrics` — hierarchical counters / gauges /
  histograms with ``snapshot()``/``diff()``;
* :mod:`repro.telemetry.provenance` — run manifests (config hash,
  seed, git SHA, package versions, host, wall-clock);
* :mod:`repro.telemetry.profiler` — per-stage wall-time self-profiler;
* :mod:`repro.telemetry.timeline` — decision/interval recording and
  the ``repro timeline`` rendering;
* :mod:`repro.telemetry.overhead` — the CI smoke check asserting the
  zero-subscriber path stays within budget;
* :mod:`repro.telemetry.relay` — the worker→parent cross-process
  event forwarder (bounded queue, batch+drop backpressure);
* :mod:`repro.telemetry.export` — Prometheus text exposition, JSON
  status documents and the ``--serve`` HTTP thread.
"""

from repro.telemetry.bus import Event, EventBus, EventOrigin, Subscription
from repro.telemetry.export import (
    MetricsServer,
    prometheus_text,
    read_status,
    status_path_for,
    write_status,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    StreamingHistogram,
)
from repro.telemetry.relay import RelayDrain, WorkerRelay
from repro.telemetry.profiler import StageProfile, StageProfiler
from repro.telemetry.provenance import RunManifest, collect_manifest, config_digest
from repro.telemetry.timeline import (
    RecordedEvent,
    TimelineRecorder,
    read_jsonl,
    render_timeline,
    timeline_json,
)
from repro.telemetry.topics import DECISION_TOPICS, STAGE_ORDER, TOPICS, Topic, get_topic

__all__ = [
    "Event",
    "EventBus",
    "EventOrigin",
    "Subscription",
    "Counter",
    "Gauge",
    "Histogram",
    "StreamingHistogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "MetricsServer",
    "prometheus_text",
    "read_status",
    "status_path_for",
    "write_status",
    "RelayDrain",
    "WorkerRelay",
    "StageProfile",
    "StageProfiler",
    "RunManifest",
    "collect_manifest",
    "config_digest",
    "RecordedEvent",
    "TimelineRecorder",
    "read_jsonl",
    "render_timeline",
    "timeline_json",
    "DECISION_TOPICS",
    "STAGE_ORDER",
    "TOPICS",
    "Topic",
    "get_topic",
]
