"""Post-retirement ACE analysis (ground truth for AVF).

Implements the methodology of Mukherjee et al. (MICRO 2003) that the
paper builds on (Section 2.1): an instruction's result is ACE iff it
transitively reaches an *ACE root* — a store, a control instruction or
an explicit program output — through the dynamic def-use graph.
Dynamically dead results (overwritten unread, or read only by dead
instructions) are un-ACE, as are NOPs and prefetches.

Because a retired instruction "cannot be classified ... until a large
amount of its following instructions have graduated", classification
uses a post-graduation window (paper/Mukherjee: 40,000 instructions):
an instruction is ACE iff its result is first needed by an ACE
instruction at most ``window`` commits after its own.  A result needed
later still counts as un-ACE, and is counted as *late ACE*.

One backward sweep over a known committed stream classifies it
(:func:`sweep`): ``need[r]`` is the earliest commit index at which a
later reader of the current writer of register ``r`` becomes ACE.
Offline profiling sweeps a whole trace as one block.  The pipeline's
:class:`ACEAnalyzer` sweeps each thread's committed stream in blocks of
:data:`BLOCK` commits; what a block's right edge leaves open (results
that flow only into registers still live there) waits in pending groups
until a later block, or the end of the run, settles it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.isa.generator import NUM_FP_REGS, NUM_INT_REGS
from repro.isa.instruction import N_OPCLASSES, DynInst, OpClass, StaticInst
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

_OP_ROOT: tuple[bool, ...] = tuple(i in ACE_ROOTS for i in range(N_OPCLASSES))
_OP_NEVER: tuple[bool, ...] = tuple(i in NEVER_ACE for i in range(N_OPCLASSES))

#: Architectural registers per thread; a ``reach`` mask has one bit each.
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS
#: Committed instructions per thread between two sweeps of the pipeline's
#: analyzer.  Larger blocks keep more committed ``DynInst`` objects alive
#: and do not sweep faster.
BLOCK = 512
#: ``need`` of a register no ACE reader needs (beyond every index).
_NEVER = 1 << 62
_LIVE_EDGE = tuple(1 << r for r in range(NUM_REGS))


@dataclass
class ACEStats:
    """Aggregate oracle classification counts."""

    committed: int = 0
    ace: int = 0
    unace: int = 0
    late_ace: int = 0  # needed by an ACE reader only after its window

    @property
    def ace_fraction(self) -> float:
        done = self.ace + self.unace
        return self.ace / done if done else 0.0


class Sweep(NamedTuple):
    """One backward sweep over a block of committed instructions."""

    #: Per instruction, in commit order: ACE, un-ACE, or ``None`` while
    #: its result flows only into registers live at the right edge.
    flags: list[bool | None]
    #: ``need`` of each register at the block's left edge.
    need: list[int]
    #: Right-edge registers each register's left-edge value flows into.
    reach: list[int]
    #: Block positions of the open instructions, by ``reach`` mask.
    pending: dict[int, list[int]]
    #: Per mask, instructions already un-ACE that turn late ACE if the
    #: mask's value is needed (their window ends before the right edge).
    candidates: dict[int, int]
    #: Instructions the block itself found late ACE.
    late: int


def sweep(
    insts: Sequence[StaticInst], start: int, window: int, live: bool = True
) -> Sweep:
    """Classify ``insts``, the committed instructions ``start`` ..
    ``start + len(insts) - 1`` of one thread, in one backward pass.

    ``live`` says whether the stream goes on past the block: then a
    register's value at the right edge may still be needed, and an
    instruction whose result flows only into such values stays open.
    Without it (a whole trace, or the end of a run) every instruction
    is classified.  Each instruction takes its write first, then
    propagates to its sources, so a self-read reaches the previous
    writer.
    """
    n = len(insts)
    end = start + n
    expire = end - window  # i < expire: i's window ends before the edge
    need = [_NEVER] * NUM_REGS
    reach = list(_LIVE_EDGE) if live else [0] * NUM_REGS
    flags: list[bool | None] = [None] * n
    pending: dict[int, list[int]] = {}
    candidates: dict[int, int] = {}
    late = 0
    op_root = _OP_ROOT
    op_never = _OP_NEVER
    for k in range(n - 1, -1, -1):
        st = insts[k]
        i = start + k
        dest = st.dest
        if dest >= 0:
            m = need[dest]
            need[dest] = _NEVER
            mask = reach[dest]
            reach[dest] = 0
        else:
            m = _NEVER
            mask = 0
        op = st.opclass
        if op_never[op]:
            flags[k] = False
            if m != _NEVER:
                late += 1
            elif mask:
                candidates[mask] = candidates.get(mask, 0) + 1
            continue
        if op_root[op] or st.is_output:
            flags[k] = True
            m = i
        elif m != _NEVER:
            if m - i <= window:
                flags[k] = True
            else:
                flags[k] = False
                late += 1
        elif mask:
            if i < expire:
                flags[k] = False
                candidates[mask] = candidates.get(mask, 0) + 1
            else:
                group = pending.get(mask)
                if group is None:
                    pending[mask] = [k]
                else:
                    group.append(k)
            for r in st.srcs:
                reach[r] |= mask
            continue
        else:
            flags[k] = False
            continue
        for r in st.srcs:
            if m < need[r]:
                need[r] = m
    return Sweep(flags, need, reach, pending, candidates, late)


#: Called once per sweep with the instructions whose ``dyn.ace`` became
#: final there.
ResolveCallback = Callable[[list[DynInst]], None]
#: Called once per sweep with a thread and the register lifetimes that
#: closed there, as (producer commit cycle, last read cycle or -1,
#: closing cycle).
RegisterLifetimeCallback = Callable[[int, list[tuple[int, int, int]]], None]


class _Group:
    """Open instructions whose ACE-ness waits on the same right-edge
    registers."""

    __slots__ = ("index", "insts", "candidates")

    def __init__(self) -> None:
        self.index: list[int] = []
        self.insts: list[DynInst] = []
        self.candidates = 0


class _Stream:
    """One thread's committed stream: the current block, the open
    groups left by earlier blocks and the open register lifetimes."""

    __slots__ = ("block", "start", "groups", "rf_commit", "rf_read")

    def __init__(self) -> None:
        # Cleared in place when swept, so a caller may hold on to it.
        self.block: list[DynInst] = []
        self.start = 0
        self.groups: dict[int, _Group] = {}
        # Commit and last read cycle of each register's current writer
        # (-1: no writer yet / not read).
        self.rf_commit = [-1] * NUM_REGS
        self.rf_read = [-1] * NUM_REGS


class ACEAnalyzer:
    """Multi-thread ACE ground-truth analyzer.

    Parameters
    ----------
    num_threads:
        Number of committed streams.
    window_size:
        Post-graduation analysis window, in instructions per thread.
    resolve_cb:
        Called as ``resolve_cb(insts)`` once per sweep, with every
        committed instruction whose oracle ACE-ness (``dyn.ace``)
        became final in it; each instruction appears exactly once per
        run.
    rf_cb:
        Called as ``rf_cb(thread, lifetimes)`` once per sweep with the
        architectural register lifetimes that closed in it (used for
        register-file AVF).
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
        self.window_size = window_size
        #: Commits per thread between two sweeps.
        self.block_size = BLOCK
        self._resolve_cb = resolve_cb
        self._rf_cb = rf_cb
        self._streams = [_Stream() for _ in range(num_threads)]
        #: Each thread's open block, one list per thread for the whole
        #: run.  The pipeline's commit stage appends each committed
        #: instruction (program order per thread, ``commit_cycle`` set)
        #: and calls :meth:`close_block` at ``block_size`` entries.
        self.blocks: list[list[DynInst]] = [s.block for s in self._streams]

    def close_block(self, thread: int) -> None:
        """Sweep ``thread``'s full block (the stream goes on past it)."""
        self._close_block(thread, self._streams[thread], live=True)

    def flush(self, final_cycle: int) -> None:
        """End of run: classify everything still open and close the open
        register lifetimes at ``final_cycle``."""
        for t, stream in enumerate(self._streams):
            self._close_block(t, stream, live=False)
            rf_commit, rf_read = stream.rf_commit, stream.rf_read
            lifetimes = [
                (rf_commit[r], rf_read[r], final_cycle)
                for r in range(NUM_REGS)
                if rf_commit[r] >= 0
            ]
            stream.rf_commit = [-1] * NUM_REGS
            if lifetimes and self._rf_cb is not None:
                self._rf_cb(t, lifetimes)

    def _close_block(self, thread: int, stream: _Stream, live: bool) -> None:
        """Classify ``stream``'s block, settle the groups earlier blocks
        left open, and pass on what became final."""
        block = stream.block
        start = stream.start
        end = start + len(block)
        window = self.window_size
        sw = sweep([d.static for d in block], start, window, live)
        resolved: list[DynInst] = []
        append = resolved.append
        n_ace = 0
        track_rf = self._rf_cb is not None
        lifetimes: list[tuple[int, int, int]] = []
        rf_commit, rf_read = stream.rf_commit, stream.rf_read
        op_never = _OP_NEVER
        # Forward: final flags onto the instructions, register lifetimes.
        for dyn, flag in zip(block, sw.flags):
            if flag is not None:
                dyn.ace = flag
                append(dyn)
                if flag:
                    n_ace += 1
            if track_rf:
                st = dyn.static
                cycle = dyn.commit_cycle
                if not op_never[st.opclass]:
                    for r in st.srcs:
                        if rf_commit[r] >= 0:
                            rf_read[r] = cycle
                dest = st.dest
                if dest >= 0:
                    if rf_commit[dest] >= 0:
                        lifetimes.append((rf_commit[dest], rf_read[dest], cycle))
                    rf_commit[dest] = cycle
                    rf_read[dest] = -1

        # This block's open instructions, keyed by right-edge registers.
        groups: dict[int, _Group] = {}
        for mask, positions in sw.pending.items():
            group = groups[mask] = _Group()
            group.index = [start + k for k in positions]
            group.insts = [block[k] for k in positions]
        for mask, count in sw.candidates.items():
            groups.setdefault(mask, _Group()).candidates += count

        # Earlier blocks' groups, at this block's left edge.
        late = sw.late
        need, reach = sw.need, sw.reach
        expire = end - window
        for mask, old in stream.groups.items():
            m = _NEVER
            onward = 0
            bits = mask
            while bits:
                low = bits & -bits
                r = low.bit_length() - 1
                bits ^= low
                if need[r] < m:
                    m = need[r]
                onward |= reach[r]
            if m != _NEVER:
                late += old.candidates
                for i, dyn in zip(old.index, old.insts):
                    flag = m - i <= window
                    dyn.ace = flag
                    append(dyn)
                    if flag:
                        n_ace += 1
                    else:
                        late += 1
            elif not onward:
                for dyn in old.insts:
                    dyn.ace = False
                    append(dyn)
            else:
                group = groups.setdefault(onward, _Group())
                group.candidates += old.candidates
                for i, dyn in zip(old.index, old.insts):
                    if i < expire:
                        dyn.ace = False
                        append(dyn)
                        group.candidates += 1
                    else:
                        group.index.append(i)
                        group.insts.append(dyn)
        stream.groups = groups
        block.clear()
        stream.start = end

        stats = self.stats
        stats.committed += end - start
        stats.ace += n_ace
        stats.unace += len(resolved) - n_ace
        if late:
            self._add_late(thread, late)
        if resolved and self._resolve_cb is not None:
            self._resolve_cb(resolved)
        if lifetimes and self._rf_cb is not None:
            self._rf_cb(thread, lifetimes)

    def _add_late(self, thread: int, count: int) -> None:
        stats = self.stats
        bus = self.bus
        if bus is None or not bus.wants(TOPIC_RELIABILITY_LATE_ACE):
            stats.late_ace += count
            return
        for _ in range(count):
            stats.late_ace += 1
            bus.emit(TOPIC_RELIABILITY_LATE_ACE, thread=thread, total=stats.late_ace)
