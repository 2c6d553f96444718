"""Per-thread load/store queues.

Table 2: 48 entries per thread.  The model is a capacity + forwarding
structure: loads whose address matches an older in-flight store of the
same thread are satisfied by forwarding (1-cycle latency, no cache
access); stores write the data cache when they commit.
"""

from __future__ import annotations

from repro.isa.instruction import DynInst, OpClass

_STORE = OpClass.STORE


class LoadStoreQueue:
    """LSQ of one hardware thread (unified loads + stores)."""

    __slots__ = ("capacity", "thread", "entries", "_store_addrs")

    def __init__(self, capacity: int, thread: int):
        if capacity <= 0:
            raise ValueError("LSQ capacity must be positive")
        self.capacity = capacity
        self.thread = thread
        # tag -> inst, insertion = age order (dispatch adds entries directly).
        self.entries: dict[int, DynInst] = {}
        self._store_addrs: dict[int, int] = {}  # line addr -> count of pending stores

    def __len__(self) -> int:
        return len(self.entries)

    def note_store_address(self, inst: DynInst) -> None:
        """Record a store's resolved address for forwarding checks."""
        line = inst.mem_addr >> 3
        self._store_addrs[line] = self._store_addrs.get(line, 0) + 1

    def can_forward(self, addr: int) -> bool:
        """True if an in-flight store to the same 8-byte word exists."""
        return self._store_addrs.get(addr >> 3, 0) > 0

    def remove(self, inst: DynInst) -> None:
        """Remove at commit (or squash)."""
        if self.entries.pop(inst.tag, None) is None:
            return
        if inst.static.opclass == _STORE and inst.mem_addr >= 0:
            line = inst.mem_addr >> 3
            cnt = self._store_addrs.get(line, 0)
            if cnt <= 1:
                self._store_addrs.pop(line, None)
            else:
                self._store_addrs[line] = cnt - 1

    def squash_after(self, after_tag: int) -> list[DynInst]:
        removed = [i for i in self.entries.values() if i.tag > after_tag]
        for inst in removed:
            self.remove(inst)
        return removed
