"""``repro avf report`` — the per-run vulnerability report.

Simulates one mix with the reliability observer attached and prints
(or saves) per-interval AVF, per-thread shares, residency histograms
and the per-entry IQ heatmaps; optionally exports a Chrome trace with
AVF counter tracks.

Examples::

    python -m repro avf report --mix MEM-A --dvm 0.5
    python -m repro avf report --json -o avf-report.json --trace-out avf.json
"""

from __future__ import annotations

import argparse
import contextlib
import json

from repro.harness.runner import BenchScale
from repro.telemetry.topics import (
    TOPIC_DVM_SAMPLE,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_RELIABILITY_DIVERGENCE,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_RELIABILITY_LATE_ACE,
)

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


def register_avf_cli(sub: argparse._SubParsersAction) -> None:
    """Attach the ``avf`` command tree to the top-level subparsers."""
    from repro.cli import add_single_run_options  # repro.cli imports this module

    p_avf = sub.add_parser(
        "avf", help="reliability observability: per-run vulnerability report"
    )
    avf_sub = p_avf.add_subparsers(dest="avf_command", required=True)

    p_rep = avf_sub.add_parser(
        "report", help="per-run vulnerability report (heatmaps, AVF series)"
    )
    add_single_run_options(p_rep, mix="MEM-A")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of the text rendering")
    p_rep.add_argument("-o", "--out", metavar="PATH", default=None,
                       help="write the report to a file instead of stdout")
    p_rep.add_argument("--trace-out", metavar="PATH", default=None,
                       help="also export a Chrome trace with AVF counter tracks")
    p_rep.set_defaults(func=cmd_avf_report)
