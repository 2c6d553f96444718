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

from repro.harness.runner import BenchScale, at_least_arg, cycles_arg
from repro.perf.history import load_history, load_results_document
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


def _saved_numbers(path: str) -> dict[str, float]:
    """The headline numbers of a saved results JSON (bare or
    ``{"value": v}``); ``ValueError`` names the first that is not a
    number."""
    current: dict[str, float] = {}
    for name, v in load_results_document(path).items():
        value = v.get("value") if isinstance(v, dict) else v
        try:
            current[name] = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: result {name!r} is not a number: {value!r}") from None
    return current


def cmd_avf_compare(args: argparse.Namespace) -> int:
    current: dict[str, float] | None = None
    try:
        history = load_history(args.history)
        if args.results:
            current = _saved_numbers(args.results)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if current is None:
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
    from repro.cli import add_single_run_options  # repro.cli imports this module

    p_avf = sub.add_parser(
        "avf", help="reliability observability: vulnerability report, drift gate"
    )
    avf_sub = p_avf.add_subparsers(dest="avf_command", required=True)

    p_rep = avf_sub.add_parser(
        "report", help="per-run vulnerability report (heatmaps, AVF series)"
    )
    add_single_run_options(p_rep, mix=gate.HEADLINE_MIX)
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

    p_cmp.add_argument("--tolerance", type=at_least_arg(float, 0.0), default=0.05,
                       help="allowed two-sided relative drift (default 0.05)")
    p_cmp.add_argument("--window", type=at_least_arg(int, 1), default=5,
                       help="history entries forming the baseline (default 5)")
    p_cmp.add_argument("--results", metavar="PATH", default=None,
                       help="compare a saved results JSON instead of re-running")
    p_cmp.set_defaults(func=cmd_avf_compare)
