"""Prometheus exposition, status documents, and the metrics HTTP server."""

import io
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    mangle_metric_name,
    parse_serve_spec,
    prometheus_text,
    read_status,
    render_status,
    status_path_for,
    watch_status,
    write_status,
)
from repro.telemetry.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Name mangling and text rendering
# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_name_mangling(self):
        assert mangle_metric_name("relay.dropped") == "relay_dropped"
        assert mangle_metric_name("worker.w0.rss-kb") == "worker_w0_rss_kb"
        assert mangle_metric_name("ns:sub.total") == "ns:sub_total"
        # A leading digit is invalid in Prometheus names.
        assert mangle_metric_name("2nd.pass") == "_2nd_pass"

    def test_counter_and_gauge_with_help_and_type(self):
        reg = MetricsRegistry()
        reg.counter("relay.events", help="Events relayed.").inc(3)
        reg.gauge("fleet.workers").set(2)
        text = prometheus_text(reg)
        assert "# HELP relay_events Events relayed.\n" in text
        assert "# TYPE relay_events counter\n" in text
        assert "relay_events 3\n" in text
        # No help= registered: no HELP line, but always a TYPE line.
        assert "# HELP fleet_workers" not in text
        assert "# TYPE fleet_workers gauge\nfleet_workers 2" in text

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("odd", help="line one\nback\\slash")
        assert "# HELP odd line one\\nback\\\\slash\n" in prometheus_text(reg)

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(0.1, 0.5, 1.0), help="Latency.")
        for v in (0.05, 0.3, 0.4, 2.0):
            hist.observe(v)
        text = prometheus_text(reg)
        assert "# TYPE lat histogram\n" in text
        assert 'lat_bucket{le="0.1"} 1\n' in text
        assert 'lat_bucket{le="0.5"} 3\n' in text  # cumulative, not per-bucket
        assert 'lat_bucket{le="1"} 3\n' in text
        assert 'lat_bucket{le="+Inf"} 4\n' in text
        assert "lat_sum 2.75\n" in text
        assert "lat_count 4" in text


# ----------------------------------------------------------------------
# Status documents
# ----------------------------------------------------------------------
def _doc(**over):
    doc = {
        "schema": 1,
        "state": "running",
        "kind": "sweep",
        "run_id": "ab12cd34ef56",
        "config_hash": "ab12cd34ef56" + "0" * 52,
        "jobs": 2,
        "started": 100.0,
        "updated": 109.0,
        "points": {"total": 4, "done": 2, "retry": 1},
        "workers": [
            {
                "worker": 0, "pid": 41, "state": "running",
                "point": "scheduler=visa", "cycles": 120_000,
                "cycles_per_sec": 52_000.0, "rss_kb": 81_920.0,
                "point_wall_s": 2.31, "heartbeat_age_s": 0.12, "beats": 9,
            },
            {
                "worker": 1, "pid": 42, "state": "idle", "point": None,
                "cycles": 0, "cycles_per_sec": 0.0, "rss_kb": 40_960.0,
                "point_wall_s": 0.0, "heartbeat_age_s": 1.02, "beats": 4,
            },
        ],
        "metrics": {
            "relay.events": 64, "relay.heartbeats": 13, "relay.dropped": 0,
            "worker.w0.online_iq_avf": 0.312, "worker.w0.online_rob_avf": 0.207,
        },
        "checkpoint": "reports/sweep-ab12cd34ef56.jsonl",
    }
    doc.update(over)
    return doc


class TestStatusDocuments:
    def test_status_path_for(self):
        assert status_path_for("a/sweep-x.jsonl") == "a/sweep-x.status.json"
        assert status_path_for("a/rows.json") == "a/rows.status.json"
        assert status_path_for("a/raw") == "a/raw.status.json"
        # Already a status doc: passes through (monitor accepts either).
        assert status_path_for("a/sweep-x.status.json") == "a/sweep-x.status.json"

    def test_write_read_roundtrip_accepts_checkpoint_path(self, tmp_path):
        ck = str(tmp_path / "sweep-x.jsonl")
        write_status(status_path_for(ck), _doc())
        assert read_status(ck) == _doc()
        assert read_status(status_path_for(ck)) == _doc()

    def test_write_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "x.status.json")
        write_status(path, _doc(state="running"))
        write_status(path, _doc(state="finished"))
        assert read_status(path)["state"] == "finished"
        assert not (tmp_path / "x.status.json.tmp").exists()

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.status.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_status(str(path))

    def test_render_status_fleet_view(self):
        text = render_status(_doc(), now=110.0)
        head = text.splitlines()[0]
        assert "sweep ab12cd34ef56 [running]" in head
        assert "2/4 points" in head and "jobs=2" in head
        assert "updated 1.0s ago" in head
        assert "done=2" in text and "retry=1" in text
        assert "w0  pid 41  [running]  scheduler=visa" in text
        assert "120000 cyc @ 52000/s" in text
        assert "w1  pid 42  [   idle]  -" in text
        assert "w0.online_iq_avf=0.312" in text
        assert "events=64  heartbeats=13  dropped=0" in text
        assert "checkpoint: reports/sweep-ab12cd34ef56.jsonl" in text

    def test_watch_status_once_and_until_finished(self, tmp_path):
        path = str(tmp_path / "w.status.json")
        write_status(path, _doc(state="running"))
        out = io.StringIO()
        assert watch_status(path, once=True, stream=out) == 0
        assert "[running]" in out.getvalue()
        # state=finished exits the watch loop without --once.
        write_status(path, _doc(state="finished"))
        out = io.StringIO()
        assert watch_status(path, interval_s=0.01, stream=out) == 0
        assert "[finished]" in out.getvalue()


# ----------------------------------------------------------------------
# --serve parsing and the HTTP server
# ----------------------------------------------------------------------
class TestServe:
    def test_parse_serve_spec(self):
        assert parse_serve_spec(":9099") == ("127.0.0.1", 9099)
        assert parse_serve_spec("9099") == ("127.0.0.1", 9099)
        assert parse_serve_spec("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(ValueError, match="port must be an integer"):
            parse_serve_spec("localhost:http")
        with pytest.raises(ValueError, match="port out of range"):
            parse_serve_spec(":70000")

    def test_import_does_not_load_http_server(self):
        # http.server (with email, html and socketserver) is imported by
        # MetricsServer alone, not by every `import repro`.
        probe = "import sys, repro.harness; print('http.server' in sys.modules)"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=env,
        ).stdout
        assert out.strip() == "False"

    def test_server_serves_metrics_and_status(self):
        reg = MetricsRegistry()
        reg.counter("relay.events", help="Events relayed.").inc(7)
        server = MetricsServer(
            reg, lambda: _doc(), host="127.0.0.1", port=0
        ).start()
        try:
            base = f"http://{server.host}:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                body = resp.read().decode()
            assert "relay_events 7" in body
            with urllib.request.urlopen(f"{base}/status") as resp:
                assert json.load(resp) == _doc()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
        finally:
            server.close()

    def test_broken_status_provider_returns_503_not_crash(self):
        def boom():
            raise RuntimeError("registry mid-mutation")

        reg = MetricsRegistry()
        server = MetricsServer(reg, boom, host="127.0.0.1", port=0).start()
        try:
            base = f"http://{server.host}:{server.port}"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/status")
            assert err.value.code == 503
            # The serve thread survives: /metrics still answers.
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.status == 200
        finally:
            server.close()
