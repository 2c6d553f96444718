"""Typed event-topic catalog.

Every event the simulator emits flows through a :class:`Topic`
registered in this module: the topic's ``fields`` set is the event's
schema.  ``EventBus.emit`` validates the keyword set against the schema
whenever an event is actually delivered, and the ``event-schema`` lint
rule (``repro.analysis.checkers.event_schema``) verifies every
``bus.emit(...)`` call site statically, so the catalog below is the
single source of truth for what observers may rely on.

Two fields are stamped automatically by the bus and therefore never
appear in ``fields``:

* ``cycle`` — the simulator cycle the event was emitted in;
* ``stage`` — the pipeline stage active at emission time
  (``commit``/``writeback``/``issue``/``dispatch``/``fetch``/``tick``,
  or ``""`` outside the cycle loop).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topic:
    """One event type: a dotted name plus its declared payload fields."""

    name: str
    fields: frozenset[str]
    description: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")


def _topic(name: str, fields: tuple[str, ...], description: str) -> Topic:
    return Topic(name=name, fields=frozenset(fields), description=description)


#: Pipeline stage order within one simulated cycle (reverse-pipeline).
STAGE_ORDER: tuple[str, ...] = (
    "commit",
    "writeback",
    "issue",
    "dispatch",
    "fetch",
    "tick",
)

# ----------------------------------------------------------------------
# Functional warm-up
# ----------------------------------------------------------------------
TOPIC_WARMUP_PROGRESS = _topic(
    "warmup.progress",
    ("thread", "threads", "instructions"),
    "the functional warm-up finished one thread (thread of threads, "
    "instructions replayed per thread); lets heartbeats cover the "
    "multi-second warm-up that precedes the first interval close",
)

TOPIC_PROFILE_PROGRESS = _topic(
    "profile.progress",
    ("program", "instructions"),
    "offline profiling finished one program (its name, instructions "
    "profiled); lets heartbeats cover profiling, which runs outside any "
    "pipeline",
)

# ----------------------------------------------------------------------
# Interval bookkeeping
# ----------------------------------------------------------------------
TOPIC_INTERVAL_CLOSE = _topic(
    "interval.close",
    (
        "index",
        "end_cycle",
        "committed",
        "ipc",
        "avg_ready_queue_len",
        "avg_waiting_queue_len",
        "l2_misses",
        "online_avf_estimate",
        "online_rob_estimate",
        "iq_limit",
    ),
    "one adaptation interval closed (per-interval sample record)",
)

# ----------------------------------------------------------------------
# Dynamic IQ resource allocation (Optimizations 1 and 2)
# ----------------------------------------------------------------------
TOPIC_IQL_CAP = _topic(
    "iql.cap",
    ("old_limit", "new_limit", "ipc", "avg_ready_queue_len"),
    "the dispatch-side IQ allocation cap changed at an interval boundary",
)

TOPIC_FLUSH_SWITCH = _topic(
    "flush.switch",
    ("enabled", "l2_misses", "threshold"),
    "Optimization 2 toggled the Tcache_miss-triggered FLUSH fetch policy",
)

# ----------------------------------------------------------------------
# Dynamic Vulnerability Management (Section 5)
# ----------------------------------------------------------------------
TOPIC_DVM_SAMPLE = _topic(
    "dvm.sample",
    ("estimate", "triggered", "wq_ratio"),
    "fine-grained online-AVF sample reached the DVM controller",
)

TOPIC_DVM_TRIGGER = _topic(
    "dvm.trigger",
    ("reason", "estimate"),
    "the DVM response mechanism armed (reason: 'sample' or 'l2_miss')",
)

TOPIC_DVM_RATIO = _topic(
    "dvm.ratio",
    ("old_ratio", "new_ratio", "direction"),
    "slow-up/rapid-down adaptation changed wq_ratio",
)

TOPIC_DVM_THROTTLE = _topic(
    "dvm.throttle",
    ("thread", "outstanding_l2"),
    "dispatch of a thread was gated because it has outstanding L2 misses "
    "while the response mechanism is armed",
)

TOPIC_DVM_RESTORE = _topic(
    "dvm.restore",
    ("thread", "ace_count"),
    "all threads L2-stalled below the trigger threshold: dispatch restored "
    "for the thread with the fewest predicted-ACE fetch-queue instructions",
)

# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------
TOPIC_FETCH_FLUSH = _topic(
    "fetch.flush",
    ("thread", "after_tag"),
    "the FLUSH fetch policy requested a post-miss flush of one thread",
)

TOPIC_PDG_GATE = _topic(
    "pdg.gate",
    ("thread", "pending", "gated"),
    "the PDG predictor's pending-miss count crossed its gating threshold "
    "(gated=True) or dropped back below it (gated=False)",
)

# ----------------------------------------------------------------------
# Experiment harness (repro.harness.parallel)
# ----------------------------------------------------------------------
TOPIC_HARNESS_POINT = _topic(
    "harness.point",
    (
        "index",
        "label",
        "status",
        "start_ms",
        "elapsed_ms",
        "attempt",
        "worker",
        "avf",
        "rob_avf",
    ),
    "one sweep point changed state in the parallel execution engine "
    "(status: done/cached/retry/stalled/skipped; times are ms since sweep "
    "start; avf/rob_avf are the point's IQ/ROB AVF when its metrics carry "
    "them, else None)",
)

TOPIC_WORKER_HEALTH = _topic(
    "harness.health",
    (
        "worker",
        "pid",
        "kind",
        "point",
        "cycles",
        "cycles_per_sec",
        "rss_kb",
        "point_wall_s",
    ),
    "one relayed worker heartbeat reached the parent (kind: "
    "start/beat/end; cycles/cycles_per_sec cover the current point, "
    "rss_kb is the worker's resident set from /proc/self/statm, "
    "point_wall_s is wall time spent in the current point so far)",
)

# ----------------------------------------------------------------------
# Instruction-granularity topics (hot; guarded by cached wants() flags)
# ----------------------------------------------------------------------
TOPIC_COMMIT = _topic(
    "pipeline.commit",
    ("inst",),
    "one dynamic instruction committed (payload carries the DynInst)",
)

TOPIC_SQUASH = _topic(
    "pipeline.squash",
    ("thread", "after_tag", "insts"),
    "one squash swept a thread's instructions younger than after_tag",
)

# ----------------------------------------------------------------------
# Reliability observability (repro.reliability.observe)
# ----------------------------------------------------------------------
TOPIC_RELIABILITY_ATTRIBUTION = _topic(
    "reliability.attribution",
    (
        "thread",
        "tag",
        "ace",
        "quiet",
        "iq_slot",
        "iq_bit_cycles",
        "rob_bit_cycles",
        "fu_bit_cycles",
        "dispatch_cycle",
        "issue_cycle",
        "iq_leave_cycle",
        "commit_cycle",
    ),
    "the oracle ACE-ness of one committed instruction (its tag) became "
    "final: the AVF accountant attributed its IQ/ROB/FU ACE-bit-cycles "
    "(once per instruction, delivered a sweep's worth at a time; guarded "
    "by a cached wants() flag in the accountant)",
)

TOPIC_RELIABILITY_RF = _topic(
    "reliability.rf",
    ("thread", "commit_cycle", "last_read_cycle", "bit_cycles"),
    "one architectural register lifetime closed (register-file ACE-bit "
    "attribution, producer commit to last read; delivered per sweep)",
)

TOPIC_RELIABILITY_LATE_ACE = _topic(
    "reliability.late_ace",
    ("thread", "total"),
    "an instruction's result was needed by an ACE reader only after its "
    "post-graduation window, so it stays un-ACE — the window was too "
    "small (total is the running count; delivered per sweep)",
)

TOPIC_RELIABILITY_ESTIMATE = _topic(
    "reliability.estimate",
    ("structure", "estimate", "threshold", "triggered"),
    "DVM's structure-tagged online AVF estimate at one sample point, "
    "with the trigger threshold it was compared against",
)

TOPIC_RELIABILITY_DIVERGENCE = _topic(
    "reliability.divergence",
    ("structure", "index", "end_cycle", "oracle_avf", "online_estimate", "divergence"),
    "end-of-run online-vs-oracle comparison: one event per interval per "
    "DVM-governable structure once the oracle interval AVF is final",
)


def _catalog() -> dict[str, Topic]:
    found: dict[str, Topic] = {}
    for value in globals().values():
        if isinstance(value, Topic):
            if value.name in found:
                raise ValueError(f"duplicate topic name {value.name!r}")
            found[value.name] = value
    return found


#: name -> Topic for every registered topic.
TOPICS: dict[str, Topic] = _catalog()

#: Controller-decision topics (what the timeline calls "decisions").
DECISION_TOPICS: tuple[Topic, ...] = (
    TOPIC_IQL_CAP,
    TOPIC_FLUSH_SWITCH,
    TOPIC_DVM_TRIGGER,
    TOPIC_DVM_RATIO,
    TOPIC_DVM_THROTTLE,
    TOPIC_DVM_RESTORE,
    TOPIC_FETCH_FLUSH,
    TOPIC_PDG_GATE,
)


def get_topic(name: str) -> Topic:
    """Look up a registered topic by dotted name."""
    try:
        return TOPICS[name]
    except KeyError:
        raise KeyError(
            f"unknown topic {name!r}; registered: {sorted(TOPICS)}"
        ) from None
