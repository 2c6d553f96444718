"""Metrics exposition: Prometheus text format, status documents, HTTP.

Three thin, dependency-free layers over :class:`MetricsRegistry`:

* :func:`prometheus_text` renders the registry in the Prometheus text
  exposition format (version 0.0.4): dotted names mangle to
  underscores, ``help=`` metadata becomes ``# HELP``/``# TYPE`` lines,
  histograms expand to cumulative ``_bucket{le="..."}`` series plus
  ``_sum``/``_count``.
* **Status documents** — a JSON dict assembled by the engine (run id,
  config hash, per-worker health, point progress, live AVF gauges),
  written atomically next to the checkpoint shard on every append so
  ``repro monitor <checkpoint>`` can attach to a live *or dead* run.
* :class:`MetricsServer` — a stdlib ``http.server`` daemon thread
  serving ``GET /metrics`` (Prometheus) and ``GET /status`` (JSON).
  Handlers only *read* the registry; values are scalars mutated under
  the GIL, so a scrape racing the engine sees a consistent-enough
  point-in-time view without locks.

Serving wall-clock-adjacent observability is this module's purpose;
nothing here feeds simulated results.
"""
# lint: disable-file=determinism

from __future__ import annotations

import json
import os
import re
import threading
import time
from typing import Any, Callable, TextIO

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Content type Prometheus scrapers expect for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_MANGLE = re.compile(r"[^a-zA-Z0-9_:]")


def mangle_metric_name(name: str) -> str:
    """Dotted registry name → valid Prometheus metric name."""
    mangled = _NAME_MANGLE.sub("_", name)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, metric in registry:
        mangled = mangle_metric_name(name)
        if metric.help:
            lines.append(f"# HELP {mangled} {_escape_help(metric.help)}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {mangled} counter")
            lines.append(f"{mangled} {_fmt(metric.get())}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {mangled} gauge")
            lines.append(f"{mangled} {_fmt(metric.get())}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {mangled} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                lines.append(
                    f'{mangled}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}'
                )
            lines.append(f'{mangled}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{mangled}_sum {_fmt(metric.total)}")
            lines.append(f"{mangled}_count {metric.count}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Status documents
# ----------------------------------------------------------------------
def status_path_for(checkpoint: str) -> str:
    """Status-document path derived from a checkpoint shard path.

    ``reports/sweep-ab12.jsonl`` → ``reports/sweep-ab12.status.json``;
    a path that already names a status document passes through, so
    ``repro monitor`` accepts either.
    """
    if checkpoint.endswith(".status.json"):
        return checkpoint
    stem, ext = os.path.splitext(checkpoint)
    return (stem if ext in (".jsonl", ".json") else checkpoint) + ".status.json"


def write_status(path: str, doc: dict[str, Any]) -> None:
    """Atomically write ``doc`` as JSON (tmp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_status(path: str) -> dict[str, Any]:
    """Load a status document (accepts a checkpoint path too)."""
    with open(status_path_for(path)) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: status document is not a JSON object")
    return doc


def render_status(doc: dict[str, Any], *, now: float | None = None) -> str:
    """Human fleet view of one status document (``repro monitor``)."""
    if now is None:
        now = time.time()
    lines: list[str] = []
    points = doc.get("points", {})
    total = int(points.get("total", 0))
    settled = sum(
        int(points.get(s, 0)) for s in ("done", "cached", "skipped")
    )
    age = max(0.0, now - float(doc.get("updated", now)))
    lines.append(
        f"{doc.get('kind', 'run')} {doc.get('run_id', '?')} "
        f"[{doc.get('state', '?')}]  {settled}/{total} points  "
        f"jobs={doc.get('jobs', '?')}  updated {age:.1f}s ago"
    )
    tallies = "  ".join(
        f"{name}={points[name]}"
        for name in ("done", "cached", "retry", "stalled", "skipped")
        if points.get(name)
    )
    if tallies:
        lines.append(f"  points: {tallies}")
    for w in doc.get("workers", []):
        point = w.get("point") or "-"
        extras = ""
        if w.get("state") == "running":
            extras = (
                f"  {w.get('cycles', 0)} cyc"
                f" @ {w.get('cycles_per_sec', 0.0):.0f}/s"
                f"  {w.get('point_wall_s', 0.0):.1f}s in point"
            )
        lines.append(
            f"  w{w.get('worker')}  pid {w.get('pid')}  "
            f"[{w.get('state', '?'):>7}]  {point}{extras}"
            f"  rss {w.get('rss_kb', 0.0) / 1024.0:.0f}M"
            f"  beat {w.get('heartbeat_age_s', 0.0):.1f}s ago"
        )
    metrics = doc.get("metrics", {})
    avf_gauges = sorted(
        (name, value)
        for name, value in metrics.items()
        if name.startswith("worker.") and ".online_" in name
        and isinstance(value, (int, float))
    )
    if avf_gauges:
        lines.append(
            "  online AVF: "
            + "  ".join(
                f"{name.split('.', 1)[1]}={value:.3f}" for name, value in avf_gauges
            )
        )
    lines.append(
        f"  relay: events={metrics.get('relay.events', 0)}"
        f"  heartbeats={metrics.get('relay.heartbeats', 0)}"
        f"  dropped={metrics.get('relay.dropped', 0)}"
    )
    if doc.get("checkpoint"):
        lines.append(f"  checkpoint: {doc['checkpoint']}")
    return "\n".join(lines)


def watch_status(
    path: str,
    *,
    interval_s: float = 2.0,
    once: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Poll and render a status document until the run finishes.

    ``path`` may be the status document or its checkpoint shard.  A
    dead run renders once (its final snapshot says ``finished``); a
    live one re-renders every ``interval_s`` until it finishes.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    while True:
        doc = read_status(path)
        print(render_status(doc), file=out, flush=True)
        if once or doc.get("state") == "finished":
            return 0
        time.sleep(interval_s)
        print("", file=out)


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------
def parse_serve_spec(spec: str) -> tuple[str, int]:
    """``[HOST]:PORT`` → (host, port); bare ``:9099`` binds loopback."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid --serve spec {spec!r}: port must be an integer")
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid --serve spec {spec!r}: port out of range")
    return host or "127.0.0.1", port


class MetricsServer:
    """Background HTTP thread: ``/metrics`` (Prometheus), ``/status`` (JSON)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        status_provider: Callable[[], dict[str, Any]],
        *,
        host: str = "127.0.0.1",
        port: int = 9099,
    ) -> None:
        # Imported here, its only use: ``http.server`` pulls in ``email``,
        # ``html`` and ``socketserver``, and every ``import repro`` would
        # pay for them.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = prometheus_text(registry).encode()
                        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                    elif path == "/status":
                        body = json.dumps(
                            status_provider(), indent=1, sort_keys=True
                        ).encode()
                        self._reply(200, "application/json", body)
                    else:
                        self._reply(404, "text/plain", b"not found\n")
                except Exception:  # noqa: BLE001 - a scrape racing the
                    # engine mid-mutation must not kill the serve thread;
                    # the scraper simply retries.
                    self._reply(503, "text/plain", b"busy, retry\n")

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                del args  # scrapes should not spam the progress line

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
