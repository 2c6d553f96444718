"""Per-thread reorder buffers.

Table 2: 96 entries per thread.  The ROB preserves program order for
in-order commit and is the unit of wrong-path recovery: a squash
removes every entry of the thread younger than the faulting
instruction.  The pipeline's dispatch and commit stages append and
retire entries on ``entries`` directly.
"""

from __future__ import annotations

from collections import deque

from repro.isa.instruction import DynInst


class ReorderBuffer:
    """In-order retirement buffer of one hardware thread."""

    __slots__ = ("capacity", "entries", "thread")

    def __init__(self, capacity: int, thread: int):
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self.thread = thread
        self.entries: deque[DynInst] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    def squash_after(self, after_tag: int) -> list[DynInst]:
        """Remove (young-first) every entry with tag > ``after_tag``."""
        removed: list[DynInst] = []
        while self.entries and self.entries[-1].tag > after_tag:
            removed.append(self.entries.pop())
        return removed
