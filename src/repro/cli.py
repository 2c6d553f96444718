"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``         simulate one workload mix under a chosen configuration
``timeline``    render the merged interval/decision timeline of one run
``sweep``       run a parameter grid (optionally parallel, checkpointed)
``figures``     regenerate the paper's tables/figures (optionally parallel)
``monitor``     attach to a live (or finished) sweep's status document
``perf``        performance observability: bench suite, regression gate,
                Chrome-trace export (see ``repro.perf.cli``)
``profile``     offline per-PC vulnerability profiling of one benchmark
``list``        enumerate benchmarks, mixes, policies and experiments
``lint``        simulator-aware static analysis (alias of
                ``python -m repro.lint``)

Examples::

    python -m repro run --mix MEM-A --scheduler visa --dispatch opt2
    python -m repro run --mix CPU-A --dvm 0.5 --cycles 24000
    python -m repro timeline --mix MEM-A --dvm 0.5 --dispatch opt2 --chart
    python -m repro timeline --input timeline.jsonl --trace-out timeline-trace.json
    python -m repro sweep --mix MEM-A --axis scheduler=oldest,visa \\
        --axis dispatch=none,opt1,opt2 --jobs 4 --resume --serve :9099
    python -m repro monitor reports/sweep-ab12cd34ef56.jsonl
    python -m repro figures fig5 fig8 --jobs 2 --resume --save
    python -m repro perf run --repeats 3
    python -m repro perf compare --tolerance 0.25
    python -m repro perf trace --mix MEM-A --dvm 0.5 -o trace.json
    python -m repro profile mesa --instructions 50000
    python -m repro list
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.harness import experiments
from repro.harness import parallel as parallel_mod
from repro.harness.report import format_table, save_report
from repro.harness.runner import (
    BenchScale,
    UsageError,
    at_least_arg,
    build_pipeline,
    cycles_arg,
    dvm_target,
    get_programs,
    mix_harmonic_ipc,
    positive_arg,
    run_sim,
)
from repro.harness.sweep import NAMED_METRICS, check_sweep_kwargs
from repro.perf.cli import register_perf_cli
from repro.reliability.cli import register_avf_cli
from repro.telemetry.bus import EventBus
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.timeline import (
    TimelineRecorder,
    read_jsonl,
    render_timeline,
    timeline_json,
)
from repro.telemetry.topics import (
    TOPIC_HARNESS_POINT,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPIC_WORKER_HEALTH,
)
from repro.isa.generator import generate_program
from repro.isa.personalities import PERSONALITIES
from repro.reliability.avf import Structure
from repro.reliability.profiling import profile_program
from repro.workloads import MIXES

#: The choices of the single-run policy options.
FETCH_POLICIES = ("icount", "stall", "flush", "dg", "pdg", "rr")
SCHEDULERS = ("oldest", "visa")
DISPATCH_MODES = ("opt1", "opt1-linear", "opt2")

#: Exit code of ``sweep``/``figures`` when the run finished but skipped
#: at least one point or suite after its retries (``--strict`` exits 1).
EXIT_PARTIAL = 3


def _scale_from_args(args) -> BenchScale:
    scale = BenchScale.from_env(args.cycles)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "full", False):
        overrides["groups"] = ("A", "B", "C")
    return dataclasses.replace(scale, **overrides)


def add_single_run_options(parser: argparse.ArgumentParser, mix: str) -> None:
    """The configuration options of a single-run command (``run``,
    ``timeline``, ``perf trace``, ``avf report``); ``mix`` is the
    command's default ``--mix``."""
    parser.add_argument("--mix", default=mix, choices=sorted(MIXES))
    parser.add_argument("--fetch-policy", default="icount", choices=FETCH_POLICIES)
    parser.add_argument("--scheduler", default="oldest", choices=SCHEDULERS)
    parser.add_argument("--dispatch", default=None, choices=DISPATCH_MODES)
    parser.add_argument("--dvm", type=positive_arg(float), default=None, metavar="FRAC",
                        help="enable DVM targeting FRAC * baseline MaxAVF")
    parser.add_argument("--cycles", type=cycles_arg, default=None,
                        help="override the cycle budget")


def pipeline_from_args(args, scale: BenchScale):
    """The pipeline a single-run command (``timeline``, ``perf trace``,
    ``avf report``) simulates."""
    target = dvm_target(args.mix, scale, args.dvm, args.fetch_policy)
    return build_pipeline(
        get_programs(args.mix, scale),
        scale,
        fetch_policy=args.fetch_policy,
        scheduler=args.scheduler,
        dispatch=args.dispatch,
        dvm_target=target,
    )


def cmd_run(args) -> int:
    scale = _scale_from_args(args)
    res = run_sim(
        args.mix,
        scale,
        fetch_policy=args.fetch_policy,
        scheduler=args.scheduler,
        dispatch=args.dispatch,
        dvm_target=dvm_target(args.mix, scale, args.dvm, args.fetch_policy),
        profiled=not args.no_profile,
    )
    mix = MIXES[args.mix]
    print(f"mix {args.mix} ({', '.join(mix.benchmarks)})")
    print(f"  cycles                {res.cycles}  (warm-up {res.warmup_cycles})")
    print(f"  committed             {res.committed}")
    print(f"  throughput IPC        {res.ipc:.3f}")
    print(
        "  per-thread IPC        "
        + ", ".join(f"{b}={x:.2f}" for b, x in zip(mix.benchmarks, res.per_thread_ipc))
    )
    print(f"  harmonic IPC          {mix_harmonic_ipc(args.mix, scale, res, args.fetch_policy):.3f}")
    print(f"  IQ AVF                {res.iq_avf:.3f}  (max interval {res.max_iq_avf:.3f})")
    for s in Structure:
        print(f"    {s.name:3s} AVF           {res.overall_avf[s]:.3f}")
    print(f"  branch accuracy       {res.bp_accuracy:.1%}")
    print(f"  L1D miss rate         {res.l1d_miss_rate:.1%}")
    print(f"  L2 misses             {res.l2_misses}")
    print(f"  squashed (wrong path) {res.squashed}")
    print(f"  ACE fraction          {res.ace_fraction:.1%}")
    if args.dvm is not None:
        base = run_sim(args.mix, scale, fetch_policy=args.fetch_policy)
        target = args.dvm * base.max_iq_avf
        print(f"  PVE @ {args.dvm}*MaxAVF     {res.pve(target):.1%} (baseline {base.pve(target):.1%})")
    return 0


def cmd_timeline(args) -> int:
    if args.input:
        manifest, events = read_jsonl(args.input)
        title = f"decision timeline ({args.input})"
        profile = None
    else:
        scale = _scale_from_args(args)
        pipe = pipeline_from_args(args, scale)
        if not args.no_self_profile:
            pipe.profiler = StageProfiler()
        with TimelineRecorder(pipe.bus) as recorder:
            res = pipe.run()
        profile = pipe.profiler.report() if pipe.profiler is not None else None
        manifest, events = res.manifest, recorder.events
        dvm_part = "" if args.dvm is None else f", dvm={args.dvm}"
        title = (
            f"decision timeline [{args.mix}, fetch={args.fetch_policy}, "
            f"dispatch={args.dispatch or 'none'}{dvm_part}]"
        )
        if args.save:
            n = recorder.to_jsonl(args.save, manifest=manifest)
            print(f"recorded {n} events to {args.save}", file=sys.stderr)
    if args.trace_out:
        from repro.perf.chrome_trace import write_chrome_trace

        n = write_chrome_trace(args.trace_out, recorded=events, manifest=manifest)
        print(f"wrote {n} trace events to {args.trace_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(timeline_json(events, manifest), indent=2, sort_keys=True))
    else:
        print(
            render_timeline(
                events, title=title, chart=args.chart, max_rows=args.max_rows
            ),
            end="",
        )
        if profile is not None:
            print(profile.format())
    return 0


def _parse_value(text: str):
    """CLI literal -> python value (none/true/false/int/float/str)."""
    t = text.strip()
    low = t.lower()
    if low in ("none", "null"):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def _parse_axis(spec: str) -> tuple[str, list]:
    name, sep, rest = spec.partition("=")
    if not sep or not name.strip() or not rest.strip():
        raise argparse.ArgumentTypeError(
            f"axis must look like NAME=V1,V2,... (got {spec!r})"
        )
    return name.strip(), [_parse_value(v) for v in rest.split(",")]


def _parse_kwargs(spec: str) -> dict:
    out = {}
    for pair in spec.split(","):
        name, sep, value = pair.partition("=")
        if not sep or not name.strip():
            raise argparse.ArgumentTypeError(
                f"expected comma-separated NAME=VALUE pairs (got {spec!r})"
            )
        out[name.strip()] = _parse_value(value)
    return out


def _progress_printer(event) -> None:
    p = event.payload
    worker = f" w{p['worker']}" if p["worker"] >= 0 else ""
    timing = f" {p['elapsed_ms']:.0f}ms" if p["status"] == "done" else ""
    vuln = ""
    avf = p.get("avf")
    if avf is not None:
        vuln += f" avf={avf:.3f}"
    rob_avf = p.get("rob_avf")
    if rob_avf is not None:
        vuln += f" rob={rob_avf:.3f}"
    print(
        f"  [{p['status']:>7}] {p['label']}{worker}{timing}{vuln}",
        file=sys.stderr,
        flush=True,
    )


def _engine_kwargs(args) -> dict:
    """The engine options of ``sweep``/``figures``.  Monitoring and the
    per-point timeout act only on a worker pool, so asking for them at
    ``--jobs`` 0 or 1 is a usage error rather than a silent no-op."""
    if args.jobs < 2:
        for flag, value in (("--serve", args.serve), ("--timeout", args.timeout)):
            if value is not None:
                raise UsageError(f"{flag} needs --jobs 2 or more, got --jobs {args.jobs}")
    checkpoint: str | bool | None = True
    if args.no_checkpoint:
        checkpoint = None
    elif args.checkpoint:
        checkpoint = args.checkpoint
    monitor: parallel_mod.MonitorConfig | None = None
    if args.serve:
        from repro.telemetry.export import parse_serve_spec

        monitor = parallel_mod.MonitorConfig(serve=parse_serve_spec(args.serve))
    return dict(
        jobs=args.jobs,
        checkpoint=checkpoint,
        resume=args.resume,
        timeout=args.timeout,
        retries=args.retries,
        monitor=monitor,
    )


def _report_engine_run(run, what: str) -> None:
    if run.checkpoint_path:
        print(
            f"{what}: {run.executed} executed, {run.cached} resumed from "
            f"checkpoint {run.checkpoint_path}",
            file=sys.stderr,
        )
    for rep in run.skipped:
        print(
            f"warning: skipped {rep.label} after {rep.attempts} attempt(s): "
            f"{rep.error}",
            file=sys.stderr,
        )


def cmd_sweep(args) -> int:
    scale = _scale_from_args(args)
    axes = dict(args.axis)
    metric_names = args.metric or ["ipc", "iq_avf", "max_iq_avf"]
    metrics = {name: NAMED_METRICS[name] for name in metric_names}
    normalize_to = _parse_kwargs(args.normalize_to) if args.normalize_to else None
    fixed: dict = {}
    for spec in args.fixed or []:
        fixed.update(_parse_kwargs(spec))
    try:
        check_sweep_kwargs(axes, fixed, normalize_to)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    engine_kwargs = _engine_kwargs(args)
    bus = EventBus()
    # Besides the engine's own harness.point stream, record whatever
    # pool workers relay onto the parent bus (interval samples, online
    # AVF estimates, heartbeats) so --record/--trace-out show per-worker
    # in-flight telemetry, not just point boundaries.
    recorder = TimelineRecorder(
        bus,
        topics=(
            TOPIC_HARNESS_POINT,
            TOPIC_INTERVAL_CLOSE,
            TOPIC_RELIABILITY_ESTIMATE,
            TOPIC_WORKER_HEALTH,
        ),
    )
    if not args.quiet:
        bus.subscribe(TOPIC_HARNESS_POINT, _progress_printer)
    try:
        with recorder:
            run = parallel_mod.parallel_sweep(
                args.mix,
                scale,
                axes,
                metrics,
                normalize_to,
                strict=args.strict,
                bus=bus,
                **engine_kwargs,
                **fixed,
            )
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    title = f"sweep [{args.mix}] " + " x ".join(
        f"{k}({len(v)})" for k, v in axes.items()
    )
    print(format_table(run.rows, title))
    _report_engine_run(run, "sweep")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(run.rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(run.rows)} rows to {args.out}", file=sys.stderr)
    if args.record:
        n = recorder.to_jsonl(args.record)
        print(f"recorded {n} harness events to {args.record}", file=sys.stderr)
    if args.trace_out:
        from repro.perf.chrome_trace import write_chrome_trace

        n = write_chrome_trace(args.trace_out, recorded=recorder.events)
        print(f"wrote {n} trace events to {args.trace_out}", file=sys.stderr)
    return EXIT_PARTIAL if run.skipped else 0


def cmd_figures(args) -> int:
    scale = _scale_from_args(args)
    suites = experiments.SUITES
    names = args.experiments or sorted(suites)
    unknown = sorted(set(names) - set(suites))
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; one of {sorted(suites)}",
            file=sys.stderr,
        )
        return 2
    engine_kwargs = _engine_kwargs(args)
    bus = EventBus()
    if not args.quiet:
        bus.subscribe(TOPIC_HARNESS_POINT, _progress_printer)
    try:
        run = parallel_mod.parallel_figures(
            names, scale, strict=args.strict, bus=bus, **engine_kwargs
        )
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in names:
        if name not in run.results:
            continue
        text = format_table(run.results[name], suites[name][1])
        print(text)
        if args.save:
            path = save_report(name, text)
            print(f"saved to {path}", file=sys.stderr)
    _report_engine_run(run, "figures")
    return EXIT_PARTIAL if run.skipped else 0


def cmd_monitor(args) -> int:
    from repro.telemetry.export import watch_status

    try:
        return watch_status(
            args.checkpoint, interval_s=args.interval, once=args.once
        )
    except FileNotFoundError:
        print(
            f"error: no status document for {args.checkpoint!r} — run the "
            f"sweep with --jobs 2+ (monitoring writes <checkpoint>.status.json)",
            file=sys.stderr,
        )
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def cmd_profile(args) -> int:
    if args.benchmark not in PERSONALITIES:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    program = generate_program(args.benchmark, seed=args.seed)
    prof = profile_program(
        program, n_instructions=args.instructions, window=args.window
    )
    ref = PERSONALITIES[args.benchmark].ref_pc_accuracy
    print(f"benchmark {args.benchmark}")
    print(f"  static instructions   {program.num_static_insts}")
    print(f"  profiled instances    {args.instructions}")
    print(f"  PC-classification acc {prof.accuracy:.1%}  (paper: {ref:.1%})")
    print(f"  ACE instance fraction {prof.ace_fraction:.1%}")
    print(f"  static PCs tagged ACE {prof.static_ace_fraction:.1%}")
    return 0


def cmd_list(_args) -> int:
    print("benchmarks (Table 1 personalities):")
    for name, p in sorted(PERSONALITIES.items()):
        print(f"  {name:9s} [{p.category}]  paper Table-1 accuracy {p.ref_pc_accuracy:.1%}")
    print("\nmixes (Table 3):")
    for name, mix in sorted(MIXES.items()):
        print(f"  {name:6s} {', '.join(mix.benchmarks)}")
    print("\nfetch policies:  " + ", ".join(FETCH_POLICIES))
    print("schedulers:      " + ", ".join(SCHEDULERS))
    print("dispatch:        " + ", ".join(("none", *DISPATCH_MODES)))
    print("experiments:     " + ", ".join(sorted(experiments.SUITES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMT issue-queue soft-error reliability reproduction (ICPP 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload mix")
    add_single_run_options(p_run, mix="CPU-A")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--no-profile", action="store_true",
                       help="skip offline ACE profiling (all hints = ACE)")
    p_run.set_defaults(func=cmd_run)

    p_tl = sub.add_parser(
        "timeline", help="merged interval/decision timeline of one run"
    )
    add_single_run_options(p_tl, mix="MEM-A")
    p_tl.add_argument("--seed", type=int, default=None)
    p_tl.add_argument("--input", metavar="PATH", default=None,
                      help="render a previously recorded JSONL instead of simulating")
    p_tl.add_argument("--json", action="store_true",
                      help="emit the timeline as a JSON document")
    p_tl.add_argument("--chart", action="store_true",
                      help="append an online-AVF sparkline")
    p_tl.add_argument("--max-rows", type=int, default=None,
                      help="truncate the text timeline after N rows")
    p_tl.add_argument("--save", metavar="PATH", default=None,
                      help="also save the recording as JSONL")
    p_tl.add_argument("--trace-out", metavar="PATH", default=None,
                      help="export the timeline as Chrome trace-event JSON "
                           "(loadable in Perfetto/about:tracing)")
    p_tl.add_argument("--no-self-profile", action="store_true",
                      help="skip the per-stage wall-time self-profile")
    p_tl.set_defaults(func=cmd_timeline)

    p_sw = sub.add_parser(
        "sweep", help="parameter grid sweep (parallel, checkpointed)"
    )
    p_sw.add_argument("--mix", default="CPU-A", choices=sorted(MIXES))
    p_sw.add_argument("--axis", action="append", type=_parse_axis, required=True,
                      metavar="NAME=V1,V2,...",
                      help="one run_sim kwarg axis (repeatable)")
    p_sw.add_argument("--metric", action="append", choices=sorted(NAMED_METRICS),
                      help="metric to extract (repeatable; default: "
                           "ipc, iq_avf, max_iq_avf)")
    p_sw.add_argument("--normalize-to", metavar="KWARGS", default=None,
                      help="baseline kwargs every metric is divided by, "
                           "e.g. scheduler=oldest,dispatch=none")
    p_sw.add_argument("--fixed", action="append", metavar="KWARGS",
                      help="fixed run_sim kwargs applied to every point")
    p_sw.add_argument("--jobs", type=at_least_arg(int, 0), default=0,
                      help="worker processes (0/1 = run in-process)")
    p_sw.add_argument("--resume", action="store_true",
                      help="reuse completed points from the checkpoint shard")
    p_sw.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="checkpoint shard path (default: auto under reports/)")
    p_sw.add_argument("--no-checkpoint", action="store_true",
                      help="disable the on-disk checkpoint shard")
    p_sw.add_argument("--timeout", type=positive_arg(float), default=None,
                      help="per-point wait timeout in seconds (pool mode only)")
    p_sw.add_argument("--retries", type=at_least_arg(int, 0), default=2,
                      help="retry rounds before a failing point is skipped")
    p_sw.add_argument("--strict", action="store_true",
                      help="fail instead of skipping exhausted points")
    p_sw.add_argument("--cycles", type=cycles_arg, default=None)
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress per-point progress lines")
    p_sw.add_argument("--out", metavar="PATH", default=None,
                      help="write the result rows as JSON")
    p_sw.add_argument("--record", metavar="PATH", default=None,
                      help="save the harness.point event stream as JSONL")
    p_sw.add_argument("--trace-out", metavar="PATH", default=None,
                      help="export per-worker point tracks as Chrome trace JSON")
    p_sw.add_argument("--serve", metavar="[HOST]:PORT", default=None,
                      help="serve live /metrics (Prometheus) and /status "
                           "(JSON) while the sweep runs, e.g. --serve :9099 "
                           "(pool mode only)")
    p_sw.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser(
        "figures", help="regenerate paper tables/figures (optionally parallel)"
    )
    p_fig.add_argument("experiments", nargs="*",
                       help="suites to run (default: all registered)")
    p_fig.add_argument("--jobs", type=at_least_arg(int, 0), default=0)
    p_fig.add_argument("--resume", action="store_true")
    p_fig.add_argument("--checkpoint", metavar="PATH", default=None)
    p_fig.add_argument("--no-checkpoint", action="store_true")
    p_fig.add_argument("--timeout", type=positive_arg(float), default=None)
    p_fig.add_argument("--retries", type=at_least_arg(int, 0), default=1)
    p_fig.add_argument("--strict", action="store_true")
    p_fig.add_argument("--cycles", type=cycles_arg, default=None)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--full", action="store_true",
                       help="all Table 3 groups (paper averaging)")
    p_fig.add_argument("--save", action="store_true",
                       help="write reports/<name>.txt per suite")
    p_fig.add_argument("--quiet", action="store_true")
    p_fig.add_argument("--serve", metavar="[HOST]:PORT", default=None,
                       help="serve live /metrics and /status while running")
    p_fig.set_defaults(func=cmd_figures)

    p_mon = sub.add_parser(
        "monitor", help="attach to a sweep's live/final status document"
    )
    p_mon.add_argument("checkpoint",
                       help="checkpoint shard or .status.json path")
    p_mon.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default 2)")
    p_mon.add_argument("--once", action="store_true",
                       help="render one snapshot and exit")
    p_mon.set_defaults(func=cmd_monitor)

    register_perf_cli(sub)
    register_avf_cli(sub)

    p_prof = sub.add_parser("profile", help="offline vulnerability profiling")
    p_prof.add_argument("benchmark")
    p_prof.add_argument("--instructions", type=at_least_arg(int, 1), default=40_000)
    p_prof.add_argument("--window", type=at_least_arg(int, 1), default=8_000)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.set_defaults(func=cmd_profile)

    p_list = sub.add_parser("list", help="enumerate benchmarks/mixes/experiments")
    p_list.set_defaults(func=cmd_list)

    sub.add_parser(
        "lint",
        help="simulator-aware static analysis (alias of python -m repro.lint)",
        add_help=False,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `lint` forwards verbatim (argparse.REMAINDER refuses a leading
    # option, so the dispatch happens before the top-level parser).
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
