"""Per-thread reorder buffers.

Table 2: 96 entries per thread.  The ROB preserves program order for
in-order commit and is the unit of wrong-path recovery: a squash
removes every entry of the thread younger than the faulting
instruction.
"""

from __future__ import annotations

from collections import deque

from repro.isa.instruction import DynInst, DynState

_COMMITTED = DynState.COMMITTED


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

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def push(self, inst: DynInst) -> None:
        if len(self.entries) >= self.capacity:
            raise RuntimeError(f"ROB of thread {self.thread} overflow")
        self.entries.append(inst)

    def head(self) -> DynInst | None:
        return self.entries[0] if self.entries else None

    def commit_head(self) -> DynInst:
        """Retire the completed head entry."""
        inst = self.entries.popleft()
        inst.state = _COMMITTED
        return inst

    def squash_after(self, after_tag: int) -> list[DynInst]:
        """Remove (young-first) every entry with tag > ``after_tag``."""
        removed: list[DynInst] = []
        while self.entries and self.entries[-1].tag > after_tag:
            removed.append(self.entries.pop())
        return removed
