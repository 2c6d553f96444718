"""Streaming reference for the ACE analysis: one record per committed
instruction, linked to its producers through the dynamic def-use graph.

A root marks its producers ACE transitively at its commit.  A record
resolves when it leaves a ``window``-instruction post-graduation window
(or at the final flush) with whatever mark it has by then; a mark that
arrives after that is counted as late ACE and does not change the
resolution.  Register lifetimes close when the register is overwritten
and at the flush.

This is the direct, object-per-instruction form of the classification
that :func:`repro.reliability.ace.sweep` computes backwards; the tests
hold the block analyzer and offline profiling equal to it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.isa.instruction import DynInst
from repro.reliability.ace import ACE_ROOTS, NEVER_ACE, ACEStats


class Record:
    """Analysis record of one committed instruction."""

    __slots__ = ("dyn", "producers", "ace", "resolved", "commit_cycle", "last_read_cycle")

    def __init__(self, dyn: DynInst, commit_cycle: int):
        self.dyn = dyn
        self.producers: list[Record] = []
        self.ace = False
        self.resolved = False
        self.commit_cycle = commit_cycle
        self.last_read_cycle = -1


#: Called once per committed instruction when its ACE-ness is final.
ResolveCallback = Callable[[DynInst], None]
#: Called with the producer's record and the cycle its lifetime closed.
LifetimeCallback = Callable[[Record, int], None]


class _Thread:
    """Per-thread dynamic def-use liveness analysis."""

    def __init__(
        self,
        window_size: int,
        resolve_cb: ResolveCallback | None,
        rf_cb: LifetimeCallback | None,
        stats: ACEStats,
    ):
        self.window_size = window_size
        self.window: deque[Record] = deque()
        self.last_writer: dict[int, Record] = {}
        self.stats = stats
        self._resolve_cb = resolve_cb
        self._rf_cb = rf_cb

    def commit(self, dyn: DynInst, cycle: int) -> None:
        self.stats.committed += 1
        rec = Record(dyn, cycle)
        st = dyn.static
        never_ace = st.opclass in NEVER_ACE
        # Reads precede the write below, so self-reads link the previous
        # instance.
        if not never_ace:
            for reg in st.srcs:
                producer = self.last_writer.get(reg)
                if producer is not None:
                    rec.producers.append(producer)
                    producer.last_read_cycle = cycle
        if st.dest >= 0:
            old = self.last_writer.get(st.dest)
            if old is not None and self._rf_cb is not None:
                self._rf_cb(old, cycle)
            self.last_writer[st.dest] = rec
        if never_ace:
            self._resolve(rec)
        elif st.opclass in ACE_ROOTS or st.is_output:
            self._mark_ace([rec])
            self._resolve(rec)
        self.window.append(rec)
        while len(self.window) > self.window_size:
            self._resolve(self.window.popleft())

    def _mark_ace(self, stack: list[Record]) -> None:
        while stack:
            r = stack.pop()
            if r.ace:
                continue
            r.ace = True
            if r.resolved:
                self.stats.late_ace += 1
            stack.extend(r.producers)
            r.producers = []

    def _resolve(self, rec: Record) -> None:
        if rec.resolved:
            return
        rec.resolved = True
        rec.dyn.ace = rec.ace
        if rec.ace:
            self.stats.ace += 1
        else:
            self.stats.unace += 1
        if self._resolve_cb is not None:
            self._resolve_cb(rec.dyn)

    def flush(self, final_cycle: int) -> None:
        while self.window:
            self._resolve(self.window.popleft())
        if self._rf_cb is not None:
            for rec in self.last_writer.values():
                self._rf_cb(rec, final_cycle)
        self.last_writer.clear()


class StreamingACEAnalyzer:
    """The reference analyzer over ``num_threads`` committed streams."""

    def __init__(
        self,
        num_threads: int,
        window_size: int,
        resolve_cb: ResolveCallback | None = None,
        rf_cb: LifetimeCallback | None = None,
    ):
        self.stats = ACEStats()
        self._threads = [
            _Thread(window_size, resolve_cb, rf_cb, self.stats) for _ in range(num_threads)
        ]

    def commit(self, dyn: DynInst, cycle: int) -> None:
        self._threads[dyn.thread].commit(dyn, cycle)

    def flush(self, final_cycle: int) -> None:
        for t in self._threads:
            t.flush(final_cycle)
