"""The shared SMT issue queue with ready/waiting partition and wakeup.

The IQ is the structure under study: Table 2 gives it 96 entries shared
by all contexts.  Entries hold dispatched instructions until they
issue; an instruction is *ready* once all source operands have been
produced (the paper's "ready queue" is the set of ready entries, the
"waiting queue" the rest — Section 2.1/5.1 use both lengths).

Wakeup is tag-based: consumers carry the sequence tags of their pending
producers; when a producer completes, the writeback stage decrements
its consumers and moves the newly-ready ones to the ready set.

The IQ also holds the running predicted-ACE-bit counter that DVM's
online AVF estimation reads (Section 5.1), and per-thread entry counts
for resource accounting.

The ready set is kept twice: as the ``ready`` tag map and as two
ascending tag lists split by the predicted-ACE bit, from which a
scheduler builds its priority order as one list of tags
(:meth:`~repro.core.scheduler.IssueScheduler.ready_tags`).

This class holds the queue's state and its squash.  The pipeline's
dispatch, issue and writeback stages insert, issue and wake entries on
these attributes in their own loops, and they keep ``pred_ace_bits``
from :attr:`~repro.reliability.avf.AVFAccount.iq_pred_bits`;
``tests/stage_reference.py`` has the same steps as one call each.
"""

from __future__ import annotations

from repro.isa.instruction import DynInst


class IQInvariantError(RuntimeError):
    """An IQ bookkeeping invariant was violated by the caller.

    Raised instead of a bare ``KeyError``/silent underflow so the
    failing tag, thread and state land in the message — these bugs
    otherwise surface thousands of cycles later as wrong AVF numbers.
    """


class IssueQueue:
    """Shared issue queue: resident entries, ready views and counters."""

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
        "free_slots",
        "inserted",
        "squashed",
    )

    def __init__(self, capacity: int, num_threads: int):
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
        # LIFO free list of physical slot numbers: insert pops, any
        # deallocation pushes back.  O(1) either way, and slot numbers
        # are stable for a residency (per-entry vulnerability heatmaps).
        self.free_slots: list[int] = list(range(capacity - 1, -1, -1))
        self.inserted = 0
        self.squashed = 0

    def __len__(self) -> int:
        return len(self.waiting) + len(self.ready)

    def squash_thread(self, tid: int, after_tag: int) -> list[DynInst]:
        """Remove all entries of ``tid`` with tag > ``after_tag``.

        Returns the removed instructions (the pipeline marks them
        squashed, accounts their residency and takes their bits off
        ``pred_ace_bits``).
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
                self.free_slots.append(inst.iq_slot)
                if is_ready_pool:
                    if inst.ace_pred:
                        self.ready_ace_tags.remove(inst.tag)
                        self.ready_pred_ace -= 1
                    else:
                        self.ready_plain_tags.remove(inst.tag)
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
