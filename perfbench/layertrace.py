"""Layer-boundary spans for the traced benchmark batch.

Every span is recorded from outside the simulator: :func:`install`
replaces the public functions at each layer boundary with timing
wrappers (and ``runner.SMTPipeline`` with a subclass that attaches a
stage profiler), and :meth:`LayerTracer.uninstall` puts the originals
back.  Spans stay in memory (name, start, end, parent) and are written
out once, when the batch ends.  Forked pool workers inherit the
wrappers; each worker appends its spans to ``spans-<pid>.jsonl`` in the
batch directory after every top-level call, and the parent merges them.

Layers, by span-name prefix:

* ``isa``        ``ProgramGenerator.generate``
* ``profiling``  ``profile_and_apply``
* ``runner``     ``get_programs`` / ``run_sim`` (memo hits are the
  ``run_sim`` spans with no ``core.run`` inside)
* ``core``       ``SMTPipeline.run``, split by the profiler's
  ``start_run``/``end_run`` stamps into ``core.warmup`` (functional
  warm-up), ``core.loop`` (cycle loop; per-stage laps are kept as
  totals) and ``core.epilogue`` (ACE flush, AVF close, result build)
* ``harness``    the ``parallel_figures`` / ``parallel_sweep`` call
* ``telemetry``  ``RelayDrain.pump`` on pool runs
"""

from __future__ import annotations

import collections
import contextlib
import functools
import glob
import json
import os
import time

from repro.harness import experiments, parallel, runner, sweep
from repro.isa.generator import ProgramGenerator
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.relay import RelayDrain

LAYERS = ("isa", "profiling", "runner", "core", "harness", "telemetry")


class _LoopStamps(StageProfiler):
    """Stage profiler that also remembers when the cycle loop ran."""

    def __init__(self) -> None:
        super().__init__()
        self.loop_start = 0.0
        self.loop_end = 0.0

    def start_run(self) -> None:
        super().start_run()
        self.loop_start = time.perf_counter()

    def end_run(self) -> None:
        self.loop_end = time.perf_counter()
        super().end_run()


class LayerTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[dict] = []
        #: One record per pipeline run (cycles, committed, warm state...).
        self.runs: list[dict] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[dict] = []
        self._next = 0
        self._pid = os.getpid()
        self._root_pid = self._pid
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "id": f"{self._pid}:{self._next}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pid": self._pid,
            "start": time.perf_counter(),
            "end": None,
        }
        self._next += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict, at: float | None = None) -> None:
        span["end"] = time.perf_counter() if at is None else at
        self._stack.pop()
        if not self._stack and self._pid != self._root_pid:
            self._flush_worker()

    def closed(self, name: str, start: float, end: float) -> None:
        """Record an already finished child of the innermost open span."""
        self.spans.append({
            "name": name,
            "id": f"{self._pid}:{self._next}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pid": self._pid,
            "start": start,
            "end": end,
        })
        self._next += 1

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- fork handling -------------------------------------------------
    def _after_fork(self) -> None:
        self.spans, self.runs, self._stack = [], [], []
        self.counters = collections.Counter()
        self._pid = os.getpid()

    def _flush_worker(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "spans": self.spans, "runs": self.runs, "counters": self.counters,
            }) + "\n")
        self.spans, self.runs = [], []
        self.counters = collections.Counter()

    def merge_workers(self) -> None:
        """Fold the span files pool workers wrote into this tracer."""
        for path in sorted(glob.glob(os.path.join(self.out_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    chunk = json.loads(line)
                    self.spans.extend(chunk["spans"])
                    self.runs.extend(chunk["runs"])
                    self.counters.update(chunk["counters"])

    # -- patches -------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "LayerTracer":
        tracer = self
        self._patch(
            ProgramGenerator, "generate",
            self._wrap("isa.generate", ProgramGenerator.generate),
        )

        profile = runner.profile_and_apply

        @functools.wraps(profile)
        def traced_profile(program, n_instructions=100_000, *args, **kwargs):
            tracer.counters["profiling.instructions"] += n_instructions
            with tracer.span("profiling.profile"):
                return profile(program, n_instructions, *args, **kwargs)

        self._patch(runner, "profile_and_apply", traced_profile)

        traced_get = self._wrap("runner.get_programs", runner.get_programs)
        traced_run = self._wrap("runner.run_sim", runner.run_sim)
        for module in (runner, experiments, parallel):
            self._patch(module, "get_programs", traced_get)
        for module in (runner, experiments, parallel, sweep):
            self._patch(module, "run_sim", traced_run)
        self._patch(RelayDrain, "pump", self._wrap("telemetry.pump", RelayDrain.pump))

        class TracedPipeline(runner.SMTPipeline):
            def __init__(self, programs, *args, **kwargs):
                self._stamps = _LoopStamps()
                kwargs["profiler"] = self._stamps
                super().__init__(programs, *args, **kwargs)

            def run(self):
                span = tracer.begin("core.run")
                result = super().run()
                done = time.perf_counter()
                stamps = self._stamps
                tracer.closed("core.warmup", span["start"], stamps.loop_start)
                tracer.closed("core.loop", stamps.loop_start, stamps.loop_end)
                tracer.closed("core.epilogue", stamps.loop_end, done)
                tracer.runs.append({
                    # Functional warm-up depends only on the programs,
                    # the thread seeds, the warm-up length and the machine.
                    "warm_state": repr((
                        [(p.name, p.seed) for p in self.programs],
                        self.sim.seed, self.sim.bp_warmup_instructions, self.machine,
                    )),
                    "cycles": result.cycles,
                    "committed": result.committed,
                    "iq_avf": result.iq_avf,
                    "stages": stamps.report().seconds,
                })
                tracer.end(span, at=done)
                return result

        self._patch(runner, "SMTPipeline", TracedPipeline)
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        child_time: collections.Counter = collections.Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def memo_hits(self) -> int:
        """``run_sim`` calls that returned without running a pipeline."""
        ran = {s["parent"] for s in self.spans if s["name"] == "core.run"}
        return sum(
            1 for s in self.spans if s["name"] == "runner.run_sim" and s["id"] not in ran
        )

    def layer_metrics(self) -> dict[str, float]:
        runs = self.runs
        loop_s = self.total("core.loop")
        kcycles = sum(r["cycles"] for r in runs) / 1000.0
        stages: collections.Counter = collections.Counter()
        for r in runs:
            stages.update(r["stages"])
        states = {r["warm_state"] for r in runs}
        out = {
            "isa.generate_s": self.total("isa.generate"),
            "profiling.profile_s": self.total("profiling.profile"),
            "profiling.kinst": self.counters["profiling.instructions"] / 1000.0,
            "runner.points": self.count("runner.run_sim"),
            "runner.memo_hits": self.memo_hits(),
            "runner.self_s": self.self_seconds()["runner"],
            "core.runs": len(runs),
            "core.warmup_s": self.total("core.warmup"),
            "core.warmups_per_state": len(runs) / len(states) if states else 0.0,
            "core.loop_s": loop_s,
            "core.loop_kcycles": kcycles,
            "core.loop_kcycles_per_s": kcycles / loop_s if loop_s > 0 else 0.0,
            "core.epilogue_s": self.total("core.epilogue"),
            "core.committed_kinst": sum(r["committed"] for r in runs) / 1000.0,
            "reliability.iq_avf_mean": (
                sum(r["iq_avf"] for r in runs) / len(runs) if runs else 0.0
            ),
            "trace.spans": len(self.spans),
        }
        for stage in ("commit", "writeback", "issue", "dispatch", "fetch", "tick"):
            out[f"core.stage.{stage}_s"] = stages[stage]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "self_s": self.self_seconds(),
                "metrics": self.layer_metrics(),
            }, fh)
