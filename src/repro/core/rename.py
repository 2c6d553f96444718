"""Tag-based register renaming.

Each dynamic instruction carries a globally unique sequence tag; the
rename table maps each architectural register of a thread to the
youngest in-flight producer of that register.  Consumers whose
producers have already completed are born ready; otherwise they carry
the producers' tags and wait for wakeup in the IQ.

Wrong-path recovery restores the map from the snapshot taken when the
mispredicted branch was renamed (checkpoint-based recovery, as in
MIPS R10000-style cores).
"""

from __future__ import annotations

from repro.isa.instruction import DynInst, DynState

#: Producer states whose results are already available to consumers.
_DONE = (DynState.COMPLETED, DynState.COMMITTED)
_SQUASHED = DynState.SQUASHED


class RenameTable:
    """Architectural-register → producer map of one thread."""

    __slots__ = ("thread", "producers")

    def __init__(self, thread: int):
        self.thread = thread
        #: Architectural register -> youngest in-flight producer (the
        #: pipeline's dispatch stage reads and updates it directly).
        self.producers: dict[int, DynInst] = {}

    def resolve_sources(self, inst: DynInst) -> None:
        """Fill ``inst.src_tags`` with the tags of still-pending
        producers of its architectural sources."""
        pending: list[int] = []
        rmap = self.producers
        for reg in inst.static.srcs:
            producer = rmap.get(reg)
            if producer is not None and producer.state not in _DONE:
                if producer.state == _SQUASHED:
                    continue  # stale mapping; treat as available
                tag = producer.tag
                if tag not in pending:
                    pending.append(tag)
        inst.src_tags = pending

    def set_dest(self, inst: DynInst) -> None:
        """Record ``inst`` as the youngest producer of its destination,
        remembering the previous producer for squash repair."""
        dest = inst.static.dest
        if dest >= 0:
            rmap = self.producers
            inst.prev_producer = rmap.get(dest)
            rmap[dest] = inst

    def unwind(self, inst: DynInst) -> None:
        """Undo ``set_dest`` for a squashed instruction.

        Must be called young-to-old over the squashed instructions so
        each restore re-exposes the correct earlier producer.
        """
        dest = inst.static.dest
        if dest >= 0 and self.producers.get(dest) is inst:
            if inst.prev_producer is None:
                del self.producers[dest]
            else:
                self.producers[dest] = inst.prev_producer

    def get(self, reg: int) -> DynInst | None:
        return self.producers.get(reg)
