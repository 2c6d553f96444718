"""Tag-based register renaming.

Each dynamic instruction carries a globally unique sequence tag; the
rename table maps each architectural register of a thread to the
youngest in-flight producer of that register.  The pipeline's dispatch
stage reads and updates the map: consumers whose producers have
already completed are born ready; otherwise they carry the producers'
tags and wait for wakeup in the IQ.

Wrong-path recovery unwinds the squashed instructions' map updates,
young to old, back to the faulting instruction (:meth:`RenameTable.unwind`).
"""

from __future__ import annotations

from repro.isa.instruction import DynInst


class RenameTable:
    """Architectural-register → producer map of one thread."""

    __slots__ = ("thread", "producers")

    def __init__(self, thread: int):
        self.thread = thread
        #: Architectural register -> youngest in-flight producer (the
        #: pipeline's dispatch stage reads and updates it directly).
        self.producers: dict[int, DynInst] = {}

    def unwind(self, inst: DynInst) -> None:
        """Undo dispatch's map update for a squashed instruction.

        Must be called young-to-old over the squashed instructions so
        each restore re-exposes the correct earlier producer.
        """
        dest = inst.static.dest
        if dest >= 0 and self.producers.get(dest) is inst:
            if inst.prev_producer is None:
                del self.producers[dest]
            else:
                self.producers[dest] = inst.prev_producer
