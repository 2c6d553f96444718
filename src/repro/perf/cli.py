"""``repro perf`` — run / compare / trace.

``run``      execute the hot-path suite, append a provenance-stamped
             entry to ``BENCH_perf.json``
``compare``  execute (or load) current results and gate them against
             the committed history; exit 1 on regression
``trace``    simulate one mix with the lap-keeping stage profiler and
             export a Chrome trace (cycle/stage slices + controller
             decisions)

Examples::

    python -m repro perf run --repeats 3
    python -m repro perf compare --tolerance 0.25
    python -m repro perf compare --results perf-current.json --tolerance 1.0
    python -m repro perf trace --mix MEM-A --dvm 0.5 --dispatch opt2 -o trace.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

from repro.harness.runner import BenchScale, at_least_arg, cycles_arg, positive_arg
from repro.perf import history as perf_history
from repro.perf.bench import (
    BENCH_NAMES,
    PERF_SCALE,
    format_results,
    run_benchmarks,
)
from repro.perf.chrome_trace import TracingProfiler, write_chrome_trace
from repro.perf.compare import compare_results
from repro.telemetry.provenance import collect_manifest
from repro.workloads import MIXES


def _suite_scale(args: argparse.Namespace) -> BenchScale:
    return PERF_SCALE if args.cycles is None else PERF_SCALE.with_cycles(args.cycles)


def _suite_manifest(args: argparse.Namespace, scale: BenchScale) -> Any:
    return collect_manifest(
        sim=scale.sim_config(),
        seed=scale.seed,
        extra={
            "tool": "repro perf",
            "bench_scale": dataclasses.asdict(scale),
            "repeats": args.repeats,
        },
    )


def _save_results_json(path: str, results: dict[str, Any]) -> None:
    doc = {"results": {name: r.to_dict() for name, r in results.items()}}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_perf_run(args: argparse.Namespace) -> int:
    scale = _suite_scale(args)
    results = run_benchmarks(args.bench or None, scale=scale, repeats=args.repeats)
    print(format_results(results))
    if args.out:
        _save_results_json(args.out, results)
        print(f"results saved to {args.out}")
    if not args.no_history:
        entry = perf_history.append_entry(
            args.history,
            results,
            manifest=_suite_manifest(args, scale),
            context={"repeats": args.repeats, "partial": bool(args.bench)},
        )
        print(
            f"appended {entry['kind']} entry ({len(entry['results'])} cases) "
            f"to {args.history}"
        )
    return 0


def cmd_perf_compare(args: argparse.Namespace) -> int:
    try:
        history = perf_history.load_history(args.history)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.results:
        with open(args.results) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                print(f"error: {args.results}: not valid JSON ({exc})", file=sys.stderr)
                return 2
        if not isinstance(doc, dict):
            print(f"error: {args.results}: not a results document", file=sys.stderr)
            return 2
        current: dict[str, Any] = doc.get("results", doc)
    else:
        scale = _suite_scale(args)
        current = run_benchmarks(args.bench or None, scale=scale, repeats=args.repeats)
        if args.out:
            _save_results_json(args.out, current)
            print(f"results saved to {args.out}")
    report = compare_results(
        history, current, tolerance=args.tolerance, window=args.window
    )
    print(report.format())
    return 0 if report.ok else 1


def cmd_perf_trace(args: argparse.Namespace) -> int:
    # Imported lazily: trace pulls in the full simulation stack.
    from repro.cli import pipeline_from_args
    from repro.telemetry.timeline import TimelineRecorder

    pipe = pipeline_from_args(args, BenchScale.from_env(args.cycles))
    profiler = TracingProfiler(max_traced_cycles=args.traced_cycles)
    pipe.profiler = profiler
    with TimelineRecorder(pipe.bus) as recorder:
        result = pipe.run()
    profile = profiler.report()
    # Map the cycle-domain decision tracks onto the wall-time slice track
    # using the run's mean cycle duration, so both land on one timeline.
    cycle_us = (
        profile.wall_s / profile.cycles * 1e6 if profile.cycles > 0 else 1.0
    )
    n = write_chrome_trace(
        args.out,
        laps=profiler.laps,
        recorded=recorder.events,
        cycle_us=cycle_us,
        manifest=result.manifest,
        extra={
            "mix": args.mix,
            "traced_cycles": profiler.traced_cycles,
            "cycles": result.cycles,
        },
    )
    print(
        f"wrote {n} trace events ({len(profiler.laps)} stage laps over "
        f"{profiler.traced_cycles} cycles, {len(recorder.events)} recorded "
        f"events) to {args.out}"
    )
    print(profile.format())
    return 0


def register_perf_cli(sub: argparse._SubParsersAction) -> None:
    """Attach the ``perf`` command tree to the top-level subparsers."""
    p_perf = sub.add_parser(
        "perf", help="performance observability: bench suite, gate, tracing"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_run = perf_sub.add_parser(
        "run", help="run the hot-path suite and append to BENCH_perf.json"
    )
    p_cmp = perf_sub.add_parser(
        "compare", help="gate current results against the committed history"
    )
    for p in (p_run, p_cmp):
        p.add_argument(
            "--bench", action="append", choices=sorted(BENCH_NAMES), default=None,
            metavar="NAME", help="run only this case (repeatable; default: all)",
        )
        p.add_argument("--repeats", type=at_least_arg(int, 1), default=3,
                       help="timed repeats per case, min is kept (default 3)")
        p.add_argument("--cycles", type=cycles_arg, default=None,
                       help="override the pinned pipeline-case cycle budget")
        p.add_argument("--history", default=perf_history.DEFAULT_HISTORY_PATH,
                       metavar="PATH", help="history file (default BENCH_perf.json)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="also save this run's results as JSON")
    p_run.add_argument("--no-history", action="store_true",
                       help="measure and print only; do not append an entry")
    p_run.set_defaults(func=cmd_perf_run)

    p_cmp.add_argument("--tolerance", type=at_least_arg(float, 0.0), default=0.25,
                       help="allowed relative slowdown (default 0.25 = 25%%)")
    p_cmp.add_argument("--window", type=at_least_arg(int, 1), default=5,
                       help="history entries forming the baseline (default 5)")
    p_cmp.add_argument("--results", metavar="PATH", default=None,
                       help="compare a saved results JSON instead of re-running")
    p_cmp.set_defaults(func=cmd_perf_compare)

    p_tr = perf_sub.add_parser(
        "trace", help="export a Chrome trace (Perfetto) of one simulation"
    )
    p_tr.add_argument("--mix", default="MEM-A", choices=sorted(MIXES))
    p_tr.add_argument("--fetch-policy", default="icount",
                      choices=["icount", "stall", "flush", "dg", "pdg", "rr"])
    p_tr.add_argument("--scheduler", default="oldest", choices=["oldest", "visa"])
    p_tr.add_argument("--dispatch", default=None,
                      choices=["opt1", "opt1-linear", "opt2"])
    p_tr.add_argument("--dvm", type=positive_arg(float), default=None, metavar="FRAC",
                      help="enable DVM targeting FRAC * baseline MaxAVF")
    p_tr.add_argument("--cycles", type=cycles_arg, default=None)
    p_tr.add_argument("--traced-cycles", type=at_least_arg(int, 0), default=2_000,
                      help="cycles to record stage slices for (default 2000)")
    p_tr.add_argument("-o", "--out", metavar="PATH", default="repro-trace.json",
                      help="output trace file (default repro-trace.json)")
    p_tr.set_defaults(func=cmd_perf_trace)
