"""End-to-end benchmark of the paper's evaluation workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 10 --trace 0

Each batch runs in a fresh interpreter (``batch.py``) inside an empty
directory under ``.perfbench/`` with ``HOME``, ``XDG_CACHE_HOME``,
``TMPDIR`` and the bytecode cache pointed into it, and the directory is
deleted afterwards, so nothing one batch writes reaches the next.
Batches repeat until ``--seconds`` have passed (at least one).  With
``--trace 0`` the run also starts ``SETUP_PROBES`` set-up-only
processes, and reports the median of each end-to-end metric; with
``--trace 1`` every batch is a pair (untraced, then traced) and the run
reports the per-layer metrics of the traced batches.

Host times are reported in reference seconds (see ``hostspeed.py``);
the measured seconds and the speed factor of every batch go to standard
error.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the result digest of every simulated point, so two commits can be
compared for identical simulated statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import SpeedSampler, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload -> CPUs its batches run on (the pool workload has 2 workers).
WORKLOAD_CPUS = {"fig5-serial": 1, "long-window": 1, "dvm-pool": 2}
SETUP_PROBES = 2
#: Every batch of a run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0
#: Environment variables that change what the simulator runs.
_SCRUB = ("REPRO_CYCLES", "REPRO_FULL", "REPRO_PARALLEL_FAULT", "PYTHONPATH")
#: Batch-report fields that hold host seconds.
_TIMES = ("wall_s", "cpu_s", "setup_s", "cpu_after_setup_s")


def launch(workload: str, seed: int, mode: str, deadline: float, cpus: list[int],
           cycles: int | None = None) -> dict:
    """Run one ``batch.py`` process in a fresh directory; return its report
    with every host time in reference seconds."""
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=work_root)
    env = {k: v for k, v in os.environ.items() if k not in _SCRUB}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        HOME=tmp,
        XDG_CACHE_HOME=os.path.join(tmp, ".cache"),
        TMPDIR=tmp,
        PYTHONPYCACHEPREFIX=os.path.join(tmp, ".pycache"),
        PYTHONHASHSEED="0",
    )
    out = os.path.join(tmp, "result.json")
    cmd = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", out]
    if cycles is not None:
        cmd += ["--cycles", str(cycles)]
    samplers = [SpeedSampler(cpu) for cpu in cpus]
    try:
        env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        for sampler in samplers:
            sampler.start()
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            # The batch's pool workers are in its process group; make sure
            # none outlives it, whatever happened.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            samples = [s for sampler in samplers for s in sampler.stop()]
        if code != 0:
            raise RuntimeError(f"{workload} {mode} batch exited with code {code}")
        with open(out) as fh:
            report = json.load(fh)
        trace = os.path.join(tmp, "trace.json")
        if os.path.exists(trace):
            shutil.copy(trace, work_root / f"trace-{workload}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    factor = speed_factor(samples)
    print(f"{mode}: " + " ".join(f"{k}={report[k]:.3f}" for k in _TIMES)
          + f" speed_factor={factor:.4f} samples={len(samples)}", file=sys.stderr)
    report["speed_factor"] = factor
    for key in _TIMES:
        report[key] *= factor
    return report


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(batches: list[dict], probes: list[dict]) -> dict:
    return {
        "wall_s": (median(b["wall_s"] for b in batches), "s"),
        "cpu_s": (median(b["cpu_s"] for b in batches), "s"),
        "setup_s": (median(b["setup_s"] for b in batches + probes), "s"),
        "sim_kcycles_per_cpu_s": (
            median(b["kcycles"] / b["cpu_after_setup_s"] for b in batches), "kcycles/s"
        ),
        "peak_rss_mb": (median(b["peak_rss_mb"] for b in batches), "MB"),
    }


#: Units of the per-layer metrics, by name suffix (first match wins).
_SUFFIX_UNITS = (
    ("kcycles_per_s", "kcycles/s"), ("kcycles", "kcycles"), ("kinst", "kinst"),
    ("_s", "s"), ("avf_mean", "ratio"), ("per_state", "ratio"),
)


def _unit(name: str) -> str:
    return next((u for suffix, u in _SUFFIX_UNITS if name.endswith(suffix)), "count")


def _layer_values(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    layers = traced["layers"]
    h = traced["harness"]
    engine_s = h["engine_s"]
    out = {name: (float(value), _unit(name)) for name, value in layers.items()}
    out.update({
        "harness.point_busy_s": (h["busy_s"], "s"),
        "harness.first_point_s": (h["first_point_s"], "s"),
        "harness.drain_s": (h["drain_s"], "s"),
        "harness.parallel_efficiency": (
            h["busy_s"] / (h["jobs"] * engine_s) if engine_s > 0 else 0.0, "ratio"
        ),
        "harness.checkpoint_kb": (h["checkpoint_kb"], "KiB"),
        "harness.retries": (float(h["retries"]), "count"),
        "telemetry.relay_events": (h["relay_events"], "count"),
    })
    # Layer times were measured inside the traced batch: scale them to
    # reference seconds like the batch's own times.
    factor = traced["speed_factor"]
    for name, (value, unit) in out.items():
        if unit == "s":
            out[name] = (value * factor, unit)
        elif unit == "kcycles/s":
            out[name] = (value / factor, unit)
    accounted = sum(
        out[name][0] for name in ("core.warmup_s", "core.loop_s", "core.epilogue_s")
    ) + traced["setup_s"]
    out.update({
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.setup_s": (traced["setup_s"], "s"),
        "trace.accounted_share": (accounted / traced["wall_s"], "ratio"),
        "trace.overhead": (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
        "trace.speed_factor": (factor, "ratio"),
    })
    return out


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    rows = [_layer_values(traced, untraced) for untraced, traced in pairs]
    return {
        name: (median(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_CPUS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycles", type=int, default=None,
                    help="shrink every window to this many cycles (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn a termination request into SystemExit, so that the running
    # batch's process group is killed and its directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Batches inherit this affinity; the speed samplers time the same CPUs.
    cpus = sorted(os.sched_getaffinity(0))[:WORKLOAD_CPUS[args.workload]]
    os.sched_setaffinity(0, cpus)

    def one(mode: str) -> dict:
        return launch(args.workload, args.seed, mode, deadline, cpus, args.cycles)

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    batches: list[dict] = []
    probes: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    try:
        if not args.trace:
            probes = [one("setup") for _ in range(SETUP_PROBES)]
        while True:
            began = time.monotonic()
            if args.trace:
                pairs.append((one("batch"), one("trace")))
                batches += pairs[-1]
            else:
                batches.append(one("batch"))
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - began) > deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(b["failed"] for b in batches)
    problems = [p for b in batches for p in b["problems"]]
    digests = batches[0]["digests"]
    for b in batches[1:]:
        if b["digests"] != digests:
            failed += 1
            problems.append("simulated results differ between batches of one run")
    for label, value in sorted(digests.items()):
        print(f"digest {args.workload} {label} {value}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = per_layer(pairs) if args.trace else end_to_end(batches, probes)
    print(json.dumps({
        "correct": failed == 0 and bool(digests),
        "attempted": sum(b["points"] for b in batches),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
