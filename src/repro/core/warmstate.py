"""Warm-state snapshot memoization for the functional warm-up.

The functional warm-up (:meth:`SMTPipeline._functional_warmup`) replays
up to 100K instructions per thread through the branch predictor,
caches and TLBs before a single timed cycle runs.  It steps each
thread's correct path a basic block at a time and hands the buffered
cache and TLB references to :meth:`MemoryHierarchy.replay` in chunks.
Its outcome is a pure function of the programs, the seed, the warm-up
length and the machine parts it reads (caches, TLBs, memory latency,
branch predictor; the thread count is the number of programs): the
rest of the machine (IQ size, ROB, widths), the fetch policy,
scheduler, dispatch policy and DVM controller do not enter it.  So the
post-warm-up component state (thread contexts, memory hierarchy,
branch predictor) is deep-copied into a per-process cache the first
time a state is computed and restored on every later run that needs
it, an IQ-size sweep included.

Config objects and programs are shared (not copied) through the
deepcopy memo: a restore maps each config of the run that took the
snapshot onto the restoring run's own.  The cache keeps strong
references to the programs so its ``id()``-based key cannot alias.
The cache never crosses a process boundary: each pool worker warms
each state once and restores it afterwards.

Every run publishes what the cache did into the pipeline's metrics
registry (``warmstate.hits``/``misses`` and ``warmstate.warmup_s``/
``restore_s``).  The registry snapshot is not part of any result
comparison, so a hit and a miss yield equal simulation results; the
seconds are wall-clock reads that feed only that snapshot, hence
the file-wide determinism suppression.
"""
# lint: disable-file=determinism

from __future__ import annotations

import copy
import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SMTPipeline

#: key -> (the shared roots of the run that took it, deep-copied
#: (contexts, mem, bp)), in least- to most-recently-used order.
_SNAPSHOTS: dict[tuple[Any, ...], tuple[Any, Any]] = {}

#: Warm states kept per process.  A figure suite cycles through at most
#: nine mixes (``REPRO_FULL``) plus single-thread baselines; the bound
#: keeps every state such a loop revisits while capping memory at about
#: 16 x (0.5 MB snapshot + the programs it keeps alive).
CAPACITY = 16


def reset_warm_states() -> None:
    """Drop every memoized warm state (tests / memory pressure)."""
    _SNAPSHOTS.clear()


def _shared_roots(pipe: "SMTPipeline") -> list[Any]:
    """Objects shared (not copied) between the snapshot and every
    restored pipeline: immutable-by-convention configs and programs."""
    m = pipe.machine
    roots: list[Any] = [m, m.l1i, m.l1d, m.l2, m.itlb, m.dtlb, m.branch_predictor]
    roots.extend(pipe.programs)
    return roots


def _key(pipe: "SMTPipeline") -> tuple[Any, ...]:
    """What the warm-up reads: the programs (which fix the thread
    count), the caches, TLBs, memory latency and branch predictor, the
    seed and the warm-up length.  The rest of the machine (IQ, ROB,
    widths, ...) is timing only, so it stays out of the key."""
    m = pipe.machine
    sim = pipe.sim
    return (
        tuple(id(p) for p in pipe.programs),
        repr((m.l1i, m.l1d, m.l2, m.itlb, m.dtlb, m.memory_latency, m.branch_predictor)),
        sim.seed,
        sim.bp_warmup_instructions,
    )


def _clone_state(state: Any, src_roots: list[Any], dst_roots: list[Any]) -> Any:
    """Deep-copy ``state``, sharing each of ``src_roots`` as the
    ``dst_roots`` object at the same position."""
    memo: dict[int, Any] = {id(src): dst for src, dst in zip(src_roots, dst_roots)}
    return copy.deepcopy(state, memo)


def warm_start(pipe: "SMTPipeline") -> None:
    """Functionally warm ``pipe`` up, restoring a memoized snapshot when
    an identical warm-up has already been computed in this process."""
    scope = pipe.metrics.child("warmstate")
    hits = scope.counter("hits", help="Runs restored from a memoized warm state.")
    misses = scope.counter("misses", help="Runs that computed their warm state.")
    warmup_s = scope.gauge("warmup_s", help="Seconds in the functional warm-up.")
    restore_s = scope.gauge(
        "restore_s", help="Seconds copying the warm state (snapshot or restore)."
    )
    sim = pipe.sim
    if sim.bp_warmup_instructions <= 0:
        return
    key = _key(pipe)
    roots = _shared_roots(pipe)
    # Popped and re-inserted below, so the dict stays in LRU order.
    entry = _SNAPSHOTS.pop(key, None)
    t0 = time.perf_counter()
    if entry is None:
        pipe._functional_warmup()
        t1 = time.perf_counter()
        state = (pipe.contexts, pipe.mem, pipe.bp)
        # The roots keep the programs alive: the id()-based key stays
        # unambiguous only while the keyed objects are.
        entry = (roots, _clone_state(state, roots, roots))
        misses.inc()
        warmup_s.set(t1 - t0)
        restore_s.set(time.perf_counter() - t1)
    else:
        # The snapshot refers to the configs of the run that took it;
        # a restore swaps in this run's (equal where the key looks).
        pipe.contexts, pipe.mem, pipe.bp = _clone_state(entry[1], entry[0], roots)
        hits.inc()
        restore_s.set(time.perf_counter() - t0)
    _SNAPSHOTS[key] = entry
    if len(_SNAPSHOTS) > CAPACITY:
        del _SNAPSHOTS[next(iter(_SNAPSHOTS))]
