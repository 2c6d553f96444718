"""The shared SMT issue queue with ready/waiting partition and wakeup.

The IQ is the structure under study: Table 2 gives it 96 entries shared
by all contexts.  Entries hold dispatched instructions until they
issue; an instruction is *ready* once all source operands have been
produced (the paper's "ready queue" is the set of ready entries, the
"waiting queue" the rest — Section 2.1/5.1 use both lengths).

Wakeup is tag-based: consumers carry the sequence tags of their pending
producers; when a producer completes, :meth:`wakeup` decrements its
consumers and moves the newly-ready ones to the ready set.

The IQ also maintains the running predicted-ACE-bit counter that DVM's
online AVF estimation reads (Section 5.1), and per-thread entry counts
for resource accounting.

The ready set is kept twice: as the ``ready`` tag map and as two
ascending tag lists split by the predicted-ACE bit, from which a
scheduler builds its priority order as one list of tags
(:meth:`~repro.core.scheduler.IssueScheduler.ready_tags`).

The methods here are the queue's reference semantics.  The pipeline's
dispatch, issue and writeback stages do the same bookkeeping on these
attributes in their own loops (``tests/stage_reference.py`` holds the
two equal), so a change to an invariant changes both.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable

from repro.isa.instruction import DynInst, DynState

_DISPATCHED = DynState.DISPATCHED


class IQInvariantError(RuntimeError):
    """An IQ bookkeeping invariant was violated by the caller.

    Raised instead of a bare ``KeyError``/silent underflow so the
    failing tag, thread and state land in the message — these bugs
    otherwise surface thousands of cycles later as wrong AVF numbers.
    """


class IssueQueue:
    """Shared issue queue with wakeup/select support."""

    __slots__ = (
        "capacity",
        "waiting",
        "ready",
        "consumers",
        "per_thread",
        "pred_ace_bits",
        "ready_pred_ace",
        "ready_ace_tags",
        "ready_plain_tags",
        "_bits_of",
        "free_slots",
        "inserted",
        "squashed",
    )

    def __init__(
        self,
        capacity: int,
        num_threads: int,
        bits_of: Callable[[DynInst], int] | None = None,
    ):
        if capacity <= 0:
            raise ValueError("IQ capacity must be positive")
        self.capacity = capacity
        # tag -> DynInst maps preserve insertion (age) order in CPython.
        self.waiting: dict[int, DynInst] = {}
        self.ready: dict[int, DynInst] = {}
        self.consumers: dict[int, list[DynInst]] = {}
        self.per_thread: list[int] = [0] * num_threads
        # Predicted-ACE bits currently resident (online AVF numerator).
        self.pred_ace_bits = 0
        # Predicted-ACE instructions currently in the ready set (Fig. 2).
        self.ready_pred_ace = 0
        # Age-ordered (ascending tag) views of the ready set, split by
        # the predicted-ACE bit.  Maintained incrementally on every
        # ready-set mutation: oldest-first order is the two lists
        # concatenated and sorted (two runs), VISA order ace-then-plain.
        self.ready_ace_tags: list[int] = []
        self.ready_plain_tags: list[int] = []
        self._bits_of: Callable[[DynInst], int] = (
            bits_of if bits_of is not None else (lambda inst: 0)
        )
        # LIFO free list of physical slot numbers: insert pops, any
        # deallocation pushes back.  O(1) either way, and slot numbers
        # are stable for a residency (per-entry vulnerability heatmaps).
        self.free_slots: list[int] = list(range(capacity - 1, -1, -1))
        self.inserted = 0
        self.squashed = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.waiting) + len(self.ready)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self)

    @property
    def ready_count(self) -> int:
        return len(self.ready)

    @property
    def waiting_count(self) -> int:
        return len(self.waiting)

    def thread_count(self, tid: int) -> int:
        return self.per_thread[tid]

    # ------------------------------------------------------------------
    # Age-ordered ready views
    # ------------------------------------------------------------------
    def _ready_add(self, inst: DynInst) -> None:
        tags = self.ready_ace_tags if inst.ace_pred else self.ready_plain_tags
        if not tags or inst.tag > tags[-1]:
            tags.append(inst.tag)  # common case: youngest so far
        else:
            insort(tags, inst.tag)

    def _ready_discard(self, inst: DynInst) -> None:
        tags = self.ready_ace_tags if inst.ace_pred else self.ready_plain_tags
        tags.remove(inst.tag)

    # ------------------------------------------------------------------
    def insert(self, inst: DynInst, cycle: int) -> None:
        """Dispatch ``inst`` into the IQ.

        The caller must have resolved ``inst.src_tags`` against the
        rename table (leaving only tags of still-executing producers).
        """
        if len(self.waiting) + len(self.ready) >= self.capacity:
            raise RuntimeError("issue queue overflow")
        inst.state = _DISPATCHED
        inst.dispatch_cycle = cycle
        inst.iq_slot = self.free_slots.pop()
        if inst.src_tags:
            self.waiting[inst.tag] = inst
            consumers = self.consumers
            for t in inst.src_tags:
                lst = consumers.get(t)
                if lst is None:
                    consumers[t] = [inst]
                else:
                    lst.append(inst)
        else:
            inst.ready_cycle = cycle
            self.ready[inst.tag] = inst
            self._ready_add(inst)
            if inst.ace_pred:
                self.ready_pred_ace += 1
        self.per_thread[inst.thread] += 1
        self.pred_ace_bits += self._bits_of(inst)
        self.inserted += 1

    def wakeup(self, tag: int, cycle: int) -> None:
        """Broadcast completion of producer ``tag``."""
        consumers = self.consumers.pop(tag, None)
        if not consumers:
            return
        for inst in consumers:
            if inst.state != _DISPATCHED:
                continue  # squashed or already issued
            try:
                inst.src_tags.remove(tag)
            except ValueError:
                continue
            if not inst.src_tags and inst.tag in self.waiting:
                del self.waiting[inst.tag]
                inst.ready_cycle = cycle
                self.ready[inst.tag] = inst
                self._ready_add(inst)
                if inst.ace_pred:
                    self.ready_pred_ace += 1

    def remove_issued(self, inst: DynInst) -> None:
        """Deallocate the entry of an instruction selected for issue."""
        if self.ready.pop(inst.tag, None) is None:
            where = "waiting" if inst.tag in self.waiting else "absent"
            raise IQInvariantError(
                f"remove_issued: instruction tag={inst.tag} thread={inst.thread} "
                f"state={inst.state.name} is not in the ready set ({where}); "
                "only scheduler-selected ready instructions may issue"
            )
        self._ready_discard(inst)
        self.per_thread[inst.thread] -= 1
        self.pred_ace_bits -= self._bits_of(inst)
        self.free_slots.append(inst.iq_slot)
        if inst.ace_pred:
            self.ready_pred_ace -= 1

    def squash_thread(self, tid: int, after_tag: int) -> list[DynInst]:
        """Remove all entries of ``tid`` with tag > ``after_tag``.

        Returns the removed instructions (the pipeline marks them
        squashed and accounts their residency).
        """
        removed: list[DynInst] = []
        for pool in (self.waiting, self.ready):
            is_ready_pool = pool is self.ready
            victims = [i for i in pool.values() if i.thread == tid and i.tag > after_tag]
            for inst in victims:
                del pool[inst.tag]
                self.per_thread[tid] -= 1
                if self.per_thread[tid] < 0:
                    raise IQInvariantError(
                        f"squash_thread: per_thread[{tid}] underflow removing "
                        f"tag={inst.tag} state={inst.state.name}; entry count "
                        "no longer reconciles with the resident set"
                    )
                self.pred_ace_bits -= self._bits_of(inst)
                self.free_slots.append(inst.iq_slot)
                if is_ready_pool:
                    self._ready_discard(inst)
                    if inst.ace_pred:
                        self.ready_pred_ace -= 1
                removed.append(inst)
        consumers = self.consumers
        for inst in removed:
            # Squashed producers will never broadcast; drop their
            # consumer lists (the consumers are younger in the same
            # thread, so they are being squashed too).
            consumers.pop(inst.tag, None)
            # Squashed *waiting* entries must also leave the consumer
            # lists of their surviving producers, or dead references
            # accumulate there until the producer completes.
            for src in inst.src_tags:
                lst = consumers.get(src)
                if lst is None:
                    continue
                for k, c in enumerate(lst):
                    if c is inst:
                        del lst[k]
                        break
                if not lst:
                    del consumers[src]
        self.squashed += len(removed)
        return removed

    def drop_consumers(self, tag: int) -> None:
        """Forget the consumer list of a producer that will never
        broadcast (squashed after it had already issued)."""
        self.consumers.pop(tag, None)

    def ready_ages(self) -> list[DynInst]:
        """Ready instructions in age (tag) order, from the two sorted
        tag lists (wakeups reorder the ready dict, so its insertion
        order cannot be used directly)."""
        tags = self.ready_ace_tags + self.ready_plain_tags
        tags.sort()
        ready = self.ready
        return [ready[tag] for tag in tags]
