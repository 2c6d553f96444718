"""Instruction-level pipeline tracing.

``PipelineTracer`` attaches to an :class:`~repro.core.pipeline.SMTPipeline`
and records one event row per retired (or squashed) instruction:
per-stage timestamps, ACE-ness, memory/branch outcomes. A retired
instruction's ACE-ness is the oracle's final value, filled in when the
ACE analyzer classifies it (a block of commits later, or at the end of
the run); a squashed one's is ``None``. Traces can be filtered,
summarized (stage-latency breakdowns), and exported as JSONL for
external analysis.

This is a debugging/teaching aid, not part of the measured
experiments: tracing costs memory proportional to the number of
instructions and a small constant per commit.

Example::

    pipe = SMTPipeline(programs, sim=sim)
    with PipelineTracer(pipe, limit=50_000) as tracer:
        pipe.run()
    print(tracer.summary())
    tracer.to_jsonl("trace.jsonl")
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from repro.core.pipeline import SMTPipeline
from repro.isa.instruction import DynInst, DynState
from repro.telemetry.bus import Event, Subscription
from repro.telemetry.provenance import collect_manifest
from repro.telemetry.topics import (
    TOPIC_COMMIT,
    TOPIC_RELIABILITY_ATTRIBUTION,
    TOPIC_SQUASH,
)


@dataclass(frozen=True)
class TraceEvent:
    """One retired or squashed dynamic instruction."""

    tag: int
    thread: int
    pc: int
    opclass: str
    fetch: int
    dispatch: int
    ready: int
    issue: int
    complete: int
    commit: int
    squashed: bool
    ace: bool | None
    ace_pred: bool
    mispredicted: bool
    l1_miss: bool
    l2_miss: bool

    @property
    def iq_residency(self) -> int:
        if self.dispatch < 0:
            return 0
        end = self.issue if self.issue >= 0 else self.complete
        return max(end - self.dispatch, 0) if end >= 0 else 0

    @property
    def total_latency(self) -> int:
        if self.fetch < 0 or self.commit < 0:
            return 0
        return self.commit - self.fetch


def _event_of(dyn: DynInst) -> TraceEvent:
    return TraceEvent(
        tag=dyn.tag,
        thread=dyn.thread,
        pc=dyn.pc,
        opclass=dyn.opclass.name,
        fetch=dyn.fetch_cycle,
        dispatch=dyn.dispatch_cycle,
        ready=dyn.ready_cycle,
        issue=dyn.issue_cycle,
        complete=dyn.complete_cycle,
        commit=dyn.commit_cycle,
        squashed=dyn.state == DynState.SQUASHED,
        ace=dyn.ace,
        ace_pred=dyn.ace_pred,
        mispredicted=dyn.mispredicted,
        l1_miss=dyn.l1_miss,
        l2_miss=dyn.l2_miss,
    )


class PipelineTracer:
    """Records TraceEvents from the pipeline's telemetry bus.

    The tracer subscribes to the ``pipeline.commit`` and
    ``pipeline.squash`` topics (it used to monkey-patch the pipeline's
    commit/squash methods; the bus gives the same per-instruction
    stream without touching pipeline internals), and to
    ``reliability.attribution`` for the final ACE-ness of each recorded
    commit.  The traced pipeline must have telemetry enabled (the
    default).
    """

    def __init__(self, pipeline: SMTPipeline, limit: int = 100_000,
                 include_squashed: bool = True):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.pipeline = pipeline
        self.limit = limit
        self.include_squashed = include_squashed
        self.events: list[TraceEvent] = []
        # Tag -> index of a recorded commit still waiting for its ACE-ness.
        self._unclassified: dict[int, int] = {}
        self._subs: list[Subscription] = []

    # ------------------------------------------------------------------
    def _on_commit(self, event: Event) -> None:
        if len(self.events) < self.limit:
            dyn = event["inst"]
            self._unclassified[dyn.tag] = len(self.events)
            self.events.append(_event_of(dyn))

    def _on_attribution(self, event: Event) -> None:
        index = self._unclassified.pop(event["tag"], None)
        if index is not None:
            self.events[index] = replace(self.events[index], ace=event["ace"])

    def _on_squash(self, event: Event) -> None:
        for dyn in event["insts"]:
            if len(self.events) >= self.limit:
                break
            self.events.append(_event_of(dyn))

    def __enter__(self) -> "PipelineTracer":
        if not self._subs:
            bus = self.pipeline.bus
            self._subs = [
                bus.subscribe(TOPIC_COMMIT, self._on_commit),
                bus.subscribe(TOPIC_RELIABILITY_ATTRIBUTION, self._on_attribution),
            ]
            if self.include_squashed:
                self._subs.append(bus.subscribe(TOPIC_SQUASH, self._on_squash))
        return self

    def __exit__(self, *exc) -> None:
        for sub in self._subs:
            sub.close()
        self._subs = []

    # ------------------------------------------------------------------
    def committed(self) -> list[TraceEvent]:
        return [e for e in self.events if not e.squashed]

    def of_thread(self, tid: int) -> list[TraceEvent]:
        return [e for e in self.events if e.thread == tid]

    def summary(self) -> dict:
        """Aggregate stage-latency statistics over committed events."""
        done = [e for e in self.committed() if e.commit >= 0 and e.fetch >= 0]
        if not done:
            return {"events": len(self.events), "committed": 0}
        n = len(done)

        def mean(f):
            return sum(f(e) for e in done) / n

        return {
            "events": len(self.events),
            "committed": n,
            "squashed": sum(1 for e in self.events if e.squashed),
            "mean_total_latency": mean(lambda e: e.total_latency),
            "mean_iq_residency": mean(lambda e: e.iq_residency),
            "mean_fetch_to_dispatch": mean(
                lambda e: max(e.dispatch - e.fetch, 0) if e.dispatch >= 0 else 0
            ),
            "ace_fraction": sum(1 for e in done if e.ace) / n,
            "l2_miss_loads": sum(1 for e in done if e.l2_miss),
        }

    def to_jsonl(self, path: str) -> int:
        """Write one JSON object per event; returns the event count."""
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(asdict(event)) + "\n")
        return len(self.events)

    @staticmethod
    def read_jsonl(path: str) -> list[TraceEvent]:
        events = []
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    events.append(TraceEvent(**json.loads(line)))
        return events
