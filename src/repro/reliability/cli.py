"""``repro avf`` — report / run / compare.

``report``   simulate one mix with the reliability observer attached
             and print (or save) the per-run vulnerability report:
             per-interval AVF, per-thread shares, residency histograms
             and the per-entry IQ heatmaps; optionally export a Chrome
             trace with AVF counter tracks
``run``      compute the headline reliability numbers (baseline IQ AVF,
             VISA+DVM reduction) and append a provenance-stamped entry
             to ``BENCH_reliability.json``
``compare``  recompute the headline numbers and gate them against the
             committed history's tolerance band; exit 1 on drift

Examples::

    python -m repro avf report --mix MEM-A --dvm 0.5
    python -m repro avf report --json -o avf-report.json --trace-out avf.json
    python -m repro avf run
    python -m repro avf compare --tolerance 0.05
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.harness.runner import BenchScale, cycles_arg, positive_arg
from repro.perf.history import load_history
from repro.reliability import gate
from repro.telemetry.topics import (
    TOPIC_DVM_SAMPLE,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_RELIABILITY_DIVERGENCE,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_RELIABILITY_LATE_ACE,
)
from repro.workloads import MIXES

#: What ``avf report --trace-out`` records: the AVF counter tracks.
AVF_TRACE_TOPICS = (
    TOPIC_INTERVAL_CLOSE,
    TOPIC_DVM_SAMPLE,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_RELIABILITY_LATE_ACE,
    TOPIC_RELIABILITY_DIVERGENCE,
)


def cmd_avf_report(args: argparse.Namespace) -> int:
    # Imported lazily: report pulls in the full simulation stack.
    from repro.cli import pipeline_from_args
    from repro.reliability.observe import ReliabilityObserver
    from repro.telemetry.timeline import TimelineRecorder

    pipe = pipeline_from_args(args, BenchScale.from_env(args.cycles))
    recording = (
        TimelineRecorder(pipe.bus, topics=AVF_TRACE_TOPICS)
        if args.trace_out
        else contextlib.nullcontext()
    )
    with ReliabilityObserver.for_pipeline(pipe) as observer, recording as recorder:
        result = pipe.run()
    report = observer.report(result.cycles)
    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.format()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"vulnerability report saved to {args.out}")
    else:
        print(text)
    if args.trace_out:
        from repro.perf.chrome_trace import write_chrome_trace

        n = write_chrome_trace(
            args.trace_out,
            recorded=recorder.events,
            manifest=result.manifest,
            extra={"mix": args.mix, "cycles": result.cycles, "tool": "repro avf"},
        )
        print(f"wrote {n} trace events (AVF counter tracks) to {args.trace_out}")
    return 0


def cmd_avf_run(args: argparse.Namespace) -> int:
    scale = BenchScale.from_env(args.cycles)
    results = gate.headline_numbers(scale, mix=args.mix)
    for name in sorted(results):
        print(f"  {name:<18s} {results[name]:9.5f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"results": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results saved to {args.out}")
    if not args.no_history:
        entry = gate.record_reliability(
            args.history,
            results,
            context={
                "mix": args.mix,
                "max_cycles": scale.max_cycles,
                "seed": scale.seed,
            },
        )
        print(
            f"appended {entry['kind']} entry ({len(entry['results'])} numbers) "
            f"to {args.history}"
        )
    return 0


def cmd_avf_compare(args: argparse.Namespace) -> int:
    try:
        history = load_history(args.history)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.results:
        with open(args.results) as fh:
            doc = json.load(fh)
        current = {
            name: float(v["value"] if isinstance(v, dict) else v)
            for name, v in doc.get("results", doc).items()
        }
    else:
        scale = BenchScale.from_env(args.cycles)
        current = gate.headline_numbers(scale, mix=args.mix)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"results": current}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"results saved to {args.out}")
    report = gate.compare_reliability(
        history, current, tolerance=args.tolerance, window=args.window
    )
    print(report.format())
    return 0 if report.ok else 1


def register_avf_cli(sub: argparse._SubParsersAction) -> None:
    """Attach the ``avf`` command tree to the top-level subparsers."""
    p_avf = sub.add_parser(
        "avf", help="reliability observability: vulnerability report, drift gate"
    )
    avf_sub = p_avf.add_subparsers(dest="avf_command", required=True)

    p_rep = avf_sub.add_parser(
        "report", help="per-run vulnerability report (heatmaps, AVF series)"
    )
    p_rep.add_argument("--mix", default=gate.HEADLINE_MIX, choices=sorted(MIXES))
    p_rep.add_argument("--fetch-policy", default="icount",
                       choices=["icount", "stall", "flush", "dg", "pdg", "rr"])
    p_rep.add_argument("--scheduler", default="oldest", choices=["oldest", "visa"])
    p_rep.add_argument("--dispatch", default=None,
                       choices=["opt1", "opt1-linear", "opt2"])
    p_rep.add_argument("--dvm", type=positive_arg(float), default=None, metavar="FRAC",
                       help="enable DVM targeting FRAC * baseline MaxAVF")
    p_rep.add_argument("--cycles", type=cycles_arg, default=None,
                       help="override the cycle budget")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of the text rendering")
    p_rep.add_argument("-o", "--out", metavar="PATH", default=None,
                       help="write the report to a file instead of stdout")
    p_rep.add_argument("--trace-out", metavar="PATH", default=None,
                       help="also export a Chrome trace with AVF counter tracks")
    p_rep.set_defaults(func=cmd_avf_report)

    p_run = avf_sub.add_parser(
        "run", help="append headline numbers to BENCH_reliability.json"
    )
    p_cmp = avf_sub.add_parser(
        "compare", help="gate headline numbers against the committed history"
    )
    for p in (p_run, p_cmp):
        p.add_argument("--mix", default=gate.HEADLINE_MIX, choices=sorted(MIXES))
        p.add_argument("--cycles", type=cycles_arg, default=None,
                       help="override the cycle budget")
        p.add_argument("--history", default=gate.DEFAULT_RELIABILITY_HISTORY,
                       metavar="PATH",
                       help="history file (default BENCH_reliability.json)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="also save this run's numbers as JSON")
    p_run.add_argument("--no-history", action="store_true",
                       help="compute and print only; do not append an entry")
    p_run.set_defaults(func=cmd_avf_run)

    p_cmp.add_argument("--tolerance", type=float, default=0.05,
                       help="allowed two-sided relative drift (default 0.05)")
    p_cmp.add_argument("--window", type=int, default=5,
                       help="history entries forming the baseline (default 5)")
    p_cmp.add_argument("--results", metavar="PATH", default=None,
                       help="compare a saved results JSON instead of re-running")
    p_cmp.set_defaults(func=cmd_avf_compare)
