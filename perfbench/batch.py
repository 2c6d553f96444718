"""One benchmark batch of one workload, in a fresh interpreter.

``run.py`` starts this script once per batch, in an empty working
directory of its own, and reads the JSON it writes to ``--out``.  The
``PERFBENCH_LAUNCH`` environment variable carries the parent's
``time.monotonic()`` just before the launch, so every time below runs
from process start (interpreter start-up and imports included).

Modes:

* ``batch``  run the workload untraced and report end-to-end numbers;
* ``trace``  the same, with :mod:`layertrace` spans at every layer
  boundary, and the per-layer numbers;
* ``setup``  only the workload's set-up (for the ``setup_s`` median).

The simulator's own seed stays at the paper-scale default (1): the
shape checks are stated for it and every simulated statistic must
repeat exactly from run to run.  ``--seed`` only permutes the order in
which independent work is submitted where the order cannot change the
amount of work (the pool workload keeps its grid order, because the
pool's load balance depends on it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import time

from repro.harness import experiments, parallel, runner
from repro.harness.runner import BenchScale
from repro.harness.sweep import grid_points
from repro.reliability.avf import Structure
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_HARNESS_POINT

LAUNCH = float(os.environ.get("PERFBENCH_LAUNCH", time.monotonic()))

MIXES = ("CPU-A", "MIX-A", "MEM-A")
#: Fixed DVM targets for the pool sweep: 0.7..0.3 of MEM-A's maximum
#: online IQ AVF estimate at ``dvm_scale`` (0.504), rounded.
DVM_TARGETS = (0.35, 0.30, 0.25, 0.20, 0.15)
POOL_JOBS = 2


def since_launch() -> float:
    return time.monotonic() - LAUNCH


def cpu_seconds(children: bool = True) -> float:
    """User+system CPU of this process (and of its reaped children)."""
    who = [resource.RUSAGE_SELF] + ([resource.RUSAGE_CHILDREN] if children else [])
    return sum(
        u.ru_utime + u.ru_stime for u in map(resource.getrusage, who)
    )


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _canon(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, dict):
        return {str(getattr(k, "name", k)): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def digest(result) -> str:
    """Hash of every compared ``SimulationResult`` field (not provenance)."""
    text = json.dumps(_canon(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scaled(scale: BenchScale, cycles: int | None) -> BenchScale:
    """``scale`` shrunk to ``cycles`` (the smoke test's tiny budget)."""
    if cycles is None:
        return scale
    warmup = max(cycles * scale.warmup_cycles // scale.max_cycles, 1)
    return dataclasses.replace(scale, max_cycles=cycles, warmup_cycles=warmup)


class PointLog:
    """``harness.point`` subscriber: point starts, retries, receipt times."""

    def __init__(self, bus: EventBus) -> None:
        self.events: list[dict] = []
        self.last_done = 0.0
        bus.subscribe(TOPIC_HARNESS_POINT, self._on_point)

    def _on_point(self, event) -> None:
        self.events.append(dict(event.payload))
        if event["status"] == "done":
            self.last_done = time.monotonic()

    def first_start_s(self) -> float:
        starts = [e["start_ms"] for e in self.events if e["status"] == "done"]
        return min(starts) / 1000.0 if starts else 0.0


class Batch:
    """Shared bookkeeping of one batch: timing marks, points, checks."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.cpu_setup_s = 0.0
        self.points = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: dict[str, object] = {}
        self.harness = {
            "busy_s": 0.0, "first_point_s": 0.0, "drain_s": 0.0,
            "engine_s": 0.0, "jobs": 1, "retries": 0, "relay_events": 0.0,
            "checkpoint_kb": 0.0,
        }

    def mark_setup(self) -> None:
        self.setup_s = since_launch()
        self.cpu_setup_s = cpu_seconds(children=False)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def fail(self, points: int, message: str) -> None:
        self.failed += points
        self.problems.append(message)

    def engine(self, name: str, call, jobs: int, points_per_task: int = 1):
        """Run one engine call, folding its public outputs into ``harness``."""
        bus = EventBus()
        log = PointLog(bus)
        start = time.monotonic()
        with self.span(f"harness.{name}"):
            run = call(bus)
        end = time.monotonic()
        h = self.harness
        h["busy_s"] += sum(r.elapsed_ms for r in run.reports) / 1000.0
        if h["engine_s"] == 0.0:
            h["first_point_s"] = log.first_start_s()
        h["engine_s"] += end - start
        h["drain_s"] += end - log.last_done if log.last_done else 0.0
        h["jobs"] = max(h["jobs"], jobs)
        h["retries"] += sum(1 for e in log.events if e["status"] == "retry")
        h["relay_events"] += float(getattr(run, "telemetry", {}).get("relay.events", 0.0))
        if run.checkpoint_path:
            h["checkpoint_kb"] += os.path.getsize(run.checkpoint_path) / 1024.0
        self.points += points_per_task * len(run.reports)
        for r in run.reports:
            if r.status != "done" or r.attempts > 1:
                self.fail(points_per_task,
                          f"{r.label}: {r.status} after {r.attempts} attempt(s) {r.error or ''}")
        return run, log


# ----------------------------------------------------------------------
# Paper-shape checks: each returns (failed points, reason) pairs.
# ----------------------------------------------------------------------
def check_fig5(rows: list[dict], per_category: int) -> list[tuple[int, str]]:
    """VISA+opt2 cuts IQ AVF (< 0.95x) at >= 0.9x IPC on every category."""
    by = {(r["category"], r["config"]): r for r in rows}
    out = []
    for cat in ("CPU", "MIX", "MEM"):
        r = by.get((cat, "VISA+opt2"))
        if r is None or not (r["norm_iq_avf"] < 0.95 and r["norm_ipc"] >= 0.9):
            out.append((per_category, f"fig5 {cat} VISA+opt2 outside paper shape: {r}"))
    return out


def check_long_window(avf: dict[str, dict]) -> list[tuple[int, str]]:
    """IQ is the AVF hot-spot on MIX-A and MEM-A; CPU-A's IQ AVF < MEM-A's."""
    out = []
    for mix in ("MIX-A", "MEM-A"):
        if max(avf[mix], key=avf[mix].get) is not Structure.IQ:
            out.append((1, f"{mix}: IQ is not the structure with the highest AVF {avf[mix]}"))
    if not avf["CPU-A"][Structure.IQ] < avf["MEM-A"][Structure.IQ]:
        out.append((2, "CPU-A IQ AVF is not below MEM-A's"))
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def capturing(into: list) -> dict:
    """Sweep metrics whose extractor also keeps each full result.

    ``parallel_sweep`` runs its metric extractors in this process, on
    the results the workers sent back, in task submission order.
    """

    def iq_avf(result):
        into.append(result)
        return result.iq_avf

    return {"ipc": lambda r: r.ipc, "iq_avf": iq_avf}


def _pregenerate(batch: Batch, scale: BenchScale, seed: int) -> None:
    order = list(MIXES)
    random.Random(seed).shuffle(order)
    for mix in order:
        runner.get_programs(mix, scale)
    batch.mark_setup()


def fig5_serial(batch: Batch, seed: int, cycles: int | None, setup_only: bool) -> None:
    """Figure 5 through ``parallel_figures`` inline (``repro figures fig5``)."""
    scale = scaled(BenchScale(), cycles)
    _pregenerate(batch, scale, seed)
    if setup_only:
        return
    per_category = len(experiments.VISA_CONFIGS) * len(scale.mixes("CPU"))
    run, _ = batch.engine(
        "figures",
        lambda bus: parallel.parallel_figures(
            ["fig5"], scale, jobs=0, checkpoint=True, bus=bus
        ),
        jobs=1,
        points_per_task=3 * per_category,
    )
    if batch.tracer is not None:
        batch.tracer.uninstall()
    for points, message in check_fig5(run.results.get("fig5", []), per_category):
        batch.fail(points, message)
    if run.skipped:
        return
    # Every point is in the run_sim memo now, so these are lookups.
    for cat in ("CPU", "MIX", "MEM"):
        for mix in scale.mixes(cat):
            for config, kw in experiments.VISA_CONFIGS.items():
                batch.results[f"{mix.name}/{config}"] = runner.run_sim(mix.name, scale, **kw)


def long_window(batch: Batch, seed: int, cycles: int | None, setup_only: bool) -> None:
    """One baseline point per mix at 3x the default window (``repro sweep``)."""
    scale = scaled(BenchScale(max_cycles=42_000), cycles)
    _pregenerate(batch, scale, seed)
    if setup_only:
        return
    order = list(MIXES)
    random.Random(seed).shuffle(order)
    for mix in order:
        captured: list = []
        batch.engine(
            "sweep",
            lambda bus, mix=mix: parallel.parallel_sweep(
                mix, scale, {"scheduler": ["oldest"]}, capturing(captured),
                jobs=0, checkpoint=True, bus=bus,
            ),
            jobs=1,
        )
        for r in captured:
            batch.results[f"{mix}/baseline"] = r
    avf = {
        label.split("/")[0]: r.overall_avf for label, r in batch.results.items()
    }
    if len(avf) == len(MIXES):  # a skipped point already counts as failed
        for points, message in check_long_window(avf):
            batch.fail(points, message)


def dvm_pool(batch: Batch, seed: int, cycles: int | None, setup_only: bool) -> None:
    """DVM target x fetch-policy sweep on MEM-A over a 2-worker pool."""
    scale = scaled(experiments.dvm_scale(BenchScale()), cycles)
    axes: dict = {"fetch_policy": ["icount", "flush"], "dvm_target": list(DVM_TARGETS)}
    baseline: dict | None = {"fetch_policy": "icount", "dvm_target": None}
    if setup_only:
        # Two tiny points: enough to start both workers, whose initializer
        # generates and profiles the programs exactly as in the full sweep.
        scale = scaled(scale, 200)
        axes, baseline = {"fetch_policy": ["icount", "flush"]}, None
    captured: list = []
    call_s = since_launch()
    cpu_call = cpu_seconds(children=False)
    run, log = batch.engine(
        "sweep",
        lambda bus: parallel.parallel_sweep(
            "MEM-A", scale, axes, capturing(captured),
            normalize_to=baseline,
            jobs=POOL_JOBS, checkpoint=True, bus=bus,
        ),
        jobs=POOL_JOBS,
    )
    batch.setup_s = call_s + log.first_start_s()
    # Worker initialisation (program generation and profiling in each
    # worker) cannot be split from the workers' CPU time, so only the
    # parent's set-up CPU is taken out of sim_kcycles_per_cpu_s.
    batch.cpu_setup_s = cpu_call
    if setup_only:
        return
    if batch.failed:
        # A retried or skipped point: completion order no longer tells
        # which result belongs to which point.
        return
    labels = ["baseline"] + [parallel.point_label(kw) for kw in grid_points(axes)]
    for label, r in zip(labels, captured):
        batch.results[f"MEM-A/{label}"] = r


WORKLOADS = {
    "fig5-serial": fig5_serial,
    "long-window": long_window,
    "dvm-pool": dvm_pool,
}


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mode", choices=("batch", "trace", "setup"), default="batch")
    ap.add_argument("--cycles", type=int, default=None,
                    help="shrink every window to this many cycles (smoke test)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    tracer = None
    if args.mode == "trace":
        from layertrace import LayerTracer

        tracer = LayerTracer(out_dir).install()
    batch = Batch(tracer)
    WORKLOADS[args.workload](batch, args.seed, args.cycles, args.mode == "setup")
    if tracer is not None:
        tracer.uninstall()

    digests = {label: digest(r) for label, r in sorted(batch.results.items())}
    kcycles = sum(r.cycles for r in batch.results.values()) / 1000.0
    wall_s = since_launch()
    cpu_s = cpu_seconds()
    doc = {
        "workload": args.workload,
        "mode": args.mode,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": batch.setup_s,
        "cpu_after_setup_s": cpu_s - batch.cpu_setup_s,
        "kcycles": kcycles,
        "peak_rss_mb": peak_rss_mb(),
        "points": batch.points,
        "failed": batch.failed,
        "problems": batch.problems,
        "digests": digests,
        "harness": batch.harness,
    }
    if tracer is not None:
        tracer.merge_workers()
        doc["layers"] = tracer.layer_metrics()
        doc["self_s"] = tracer.self_seconds()
        tracer.write(os.path.join(out_dir, "trace.json"))
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
