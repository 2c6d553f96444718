"""Post-retirement ACE analysis (ground truth for AVF).

Implements the methodology of Mukherjee et al. (MICRO 2003) that the
paper builds on (Section 2.1): an instruction's result is ACE iff it
transitively reaches an *ACE root* — a store, a control instruction or
an explicit program output — through the dynamic def-use graph.
Dynamically dead results (overwritten unread, or read only by dead
instructions) are un-ACE, as are NOPs and prefetches.

Because a retired instruction "cannot be classified ... until a large
amount of its following instructions have graduated", records wait in a
post-graduation window (paper/Mukherjee: 40,000 instructions); an
instruction not marked ACE by the time it exits the window is declared
un-ACE.

The analyzer consumes each thread's committed stream in program order
and calls a resolution callback once an instruction's ACE-ness is
final — the hook the AVF accountant uses for retroactive bit-residency
attribution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.isa.instruction import DynInst, OpClass
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_RELIABILITY_LATE_ACE

#: Opclasses whose committed instances are ACE roots.
ACE_ROOTS = frozenset(
    {OpClass.STORE, OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}
)
#: Opclasses that are never ACE and whose register reads do not
#: propagate liveness (a corrupted prefetch address cannot corrupt
#: program output).
NEVER_ACE = frozenset({OpClass.NOP, OpClass.PREFETCH})


class _Record:
    """Analysis record of one committed instruction."""

    __slots__ = ("dyn", "producers", "ace", "resolved", "commit_cycle", "last_read_cycle")

    def __init__(self, dyn: DynInst, commit_cycle: int):
        self.dyn = dyn
        self.producers: list[_Record] = []
        self.ace = False
        self.resolved = False
        self.commit_cycle = commit_cycle
        self.last_read_cycle = -1


@dataclass
class ACEStats:
    """Aggregate oracle classification counts."""

    committed: int = 0
    ace: int = 0
    unace: int = 0
    late_ace: int = 0  # marked ACE after already resolved un-ACE (window too small)

    @property
    def ace_fraction(self) -> float:
        done = self.ace + self.unace
        return self.ace / done if done else 0.0


#: Called once per committed instruction when its oracle ACE-ness is final.
ResolveCallback = Callable[[DynInst], None]
#: Called when an architectural register lifetime closes, with the
#: producer's analysis record and the closing cycle.
RegisterLifetimeCallback = Callable[["_Record", int], None]


class _ThreadAnalyzer:
    """Per-thread dynamic def-use liveness analysis."""

    __slots__ = (
        "window_size", "window", "last_writer", "stats",
        "_resolve_cb", "_rf_cb", "_owner",
    )

    def __init__(
        self,
        window_size: int,
        resolve_cb: ResolveCallback | None,
        rf_cb: RegisterLifetimeCallback | None,
        stats: ACEStats,
        owner: "ACEAnalyzer | None" = None,
    ):
        self.window_size = window_size
        self.window: deque[_Record] = deque()
        self.last_writer: dict[int, _Record] = {}
        self.stats = stats
        self._resolve_cb = resolve_cb
        self._rf_cb = rf_cb
        self._owner = owner

    def commit(self, dyn: DynInst, cycle: int) -> None:
        stats = self.stats
        stats.committed += 1
        rec = _Record(dyn, cycle)
        st = dyn.static
        op = st.opclass
        never_ace = op in NEVER_ACE
        last_writer = self.last_writer

        # Link to producers (reads precede the write below in program
        # order, so self-reads link the previous instance).
        if not never_ace:
            producers = rec.producers
            for reg in st.srcs:
                producer = last_writer.get(reg)
                if producer is not None:
                    producers.append(producer)
                    producer.last_read_cycle = cycle

        # Destination overwrite: the previous writer's register-file
        # lifetime ends here.
        dest = st.dest
        if dest >= 0:
            old = last_writer.get(dest)
            if old is not None and self._rf_cb is not None:
                self._rf_cb(old, cycle)
            last_writer[dest] = rec

        # Never-ACE ops and ACE roots resolve at commit (the fresh
        # record is unresolved, so this is _resolve without its guard);
        # everything else waits in the window.
        if never_ace:
            rec.resolved = True
            dyn.ace = False
            stats.unace += 1
            if self._resolve_cb is not None:
                self._resolve_cb(dyn)
        elif op in ACE_ROOTS or st.is_output:
            rec.ace = True
            if rec.producers:
                self._mark_ace(rec.producers)
                rec.producers = []  # already propagated; release references
            rec.resolved = True
            dyn.ace = True
            stats.ace += 1
            if self._resolve_cb is not None:
                self._resolve_cb(dyn)

        window = self.window
        window.append(rec)
        while len(window) > self.window_size:
            old = window.popleft()
            if not old.resolved:
                self._resolve(old)

    def _mark_ace(self, stack: list[_Record]) -> None:
        """Transitively mark the records on ``stack`` (consumed) and
        their producers ACE."""
        while stack:
            r = stack.pop()
            if r.ace:
                continue
            r.ace = True
            if r.resolved and r.dyn.ace is False:
                self.stats.late_ace += 1
                # Rare (a correctly-sized window never hits this), so a
                # per-occurrence wants() check is fine.
                bus = self._owner.bus if self._owner is not None else None
                if bus is not None and bus.wants(TOPIC_RELIABILITY_LATE_ACE):
                    bus.emit(
                        TOPIC_RELIABILITY_LATE_ACE,
                        thread=r.dyn.thread,
                        total=self.stats.late_ace,
                    )
            stack.extend(r.producers)
            r.producers = []  # already propagated; release references

    def _resolve(self, rec: _Record) -> None:
        if rec.resolved:
            return
        rec.resolved = True
        rec.dyn.ace = rec.ace
        if rec.ace:
            self.stats.ace += 1
        else:
            self.stats.unace += 1
        # Producers links are no longer needed for un-ACE resolution,
        # but keep them if unmarked: a future reader may still mark us.
        if self._resolve_cb is not None:
            self._resolve_cb(rec.dyn)

    def flush(self, final_cycle: int) -> None:
        """End of simulation: resolve everything still pending and close
        open register lifetimes."""
        while self.window:
            self._resolve(self.window.popleft())
        if self._rf_cb is not None:
            for rec in self.last_writer.values():
                self._rf_cb(rec, final_cycle)
        self.last_writer.clear()


class ACEAnalyzer:
    """Multi-thread ACE ground-truth analyzer.

    Parameters
    ----------
    num_threads:
        Number of committed streams.
    window_size:
        Post-graduation analysis window, in instructions per thread.
    resolve_cb:
        Called as ``resolve_cb(dyn)`` exactly once per committed
        instruction, when its oracle ACE-ness (``dyn.ace``) is final.
    rf_cb:
        Called as ``rf_cb(record, end_cycle)`` when an architectural
        register lifetime closes (used for register-file AVF).
    """

    def __init__(
        self,
        num_threads: int,
        window_size: int = 40_000,
        resolve_cb: ResolveCallback | None = None,
        rf_cb: RegisterLifetimeCallback | None = None,
    ):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.stats = ACEStats()
        # Attached by the pipeline when telemetry is on; late-ACE
        # occurrences are then published as ``reliability.late_ace``.
        self.bus: EventBus | None = None
        self._threads = [
            _ThreadAnalyzer(window_size, resolve_cb, rf_cb, self.stats, owner=self)
            for _ in range(num_threads)
        ]

    def commit(self, dyn: DynInst, cycle: int) -> None:
        """Feed one committed instruction (program order per thread)."""
        self._threads[dyn.thread].commit(dyn, cycle)

    def flush(self, final_cycle: int) -> None:
        """Resolve all pending records (end of run)."""
        for t in self._threads:
            t.flush(final_cycle)
