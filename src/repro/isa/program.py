"""Synthetic program representation and per-thread execution context.

A :class:`SyntheticProgram` is a control-flow graph of
:class:`BasicBlock`.  A :class:`ThreadContext` walks that graph the way
a fetch unit does: it exposes the instruction at the current fetch
point, computes the *actual* outcome of control instructions, and can
be redirected down a (possibly wrong) predicted path and later restored
from a checkpoint when the branch resolves.

Determinism and cheap wrong-path rollback are the two design
constraints.  All dynamic behaviour — branch outcomes and memory
addresses — is a pure function of ``(pc, stream_pos, seed)`` where
``stream_pos`` is a per-thread monotonically increasing fetch counter.
A checkpoint is therefore just ``(block, index, stream_pos, call
stack)`` — four small values per in-flight control instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.isa.instruction import (
    CONTROL_OPS,
    BranchBehavior,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)

_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP
_CALL = OpClass.CALL
_RET = OpClass.RET
_SEQUENTIAL = MemPattern.SEQUENTIAL
_HOT = MemPattern.HOT

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)


def mix64(a: int, b: int, seed: int) -> int:
    """SplitMix64-style deterministic mixer of three integers.

    Used for every pseudo-random decision in the workload model so that
    a program replays identically for a given seed regardless of
    wrong-path excursions.
    """
    z = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9 + seed * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def u01(a: int, b: int, seed: int) -> float:
    """Uniform float in [0, 1) derived from :func:`mix64`."""
    return (mix64(a, b, seed) >> 11) * _INV_2_53


@dataclass
class BasicBlock:
    """A straight-line run of instructions.

    If the final instruction is a control instruction its
    ``taken_block``/``fall_block`` fields give the successors; otherwise
    execution falls through to ``fall_block``.
    """

    bid: int
    insts: list[StaticInst] = field(default_factory=list)
    fall_block: int = -1

    @property
    def terminator(self) -> StaticInst | None:
        if self.insts and self.insts[-1].opclass in CONTROL_OPS:
            return self.insts[-1]
        return None

    def validate(self) -> None:
        for inst in self.insts[:-1]:
            if inst.opclass in CONTROL_OPS:
                raise ValueError(
                    f"block {self.bid}: control instruction pc={inst.pc:#x} not at block end"
                )
        if self.terminator is None and self.fall_block < 0:
            raise ValueError(f"block {self.bid} has neither terminator nor fall-through")


@dataclass
class SyntheticProgram:
    """A complete synthetic program image."""

    name: str
    blocks: list[BasicBlock]
    entry: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self._pc_map: dict[int, StaticInst] = {}
        for block in self.blocks:
            for inst in block.insts:
                if inst.pc in self._pc_map:
                    raise ValueError(f"duplicate pc {inst.pc:#x} in program {self.name}")
                self._pc_map[inst.pc] = inst

    def validate(self) -> None:
        nblocks = len(self.blocks)
        if not (0 <= self.entry < nblocks):
            raise ValueError("entry block out of range")
        for block in self.blocks:
            block.validate()
            term = block.terminator
            targets: list[int] = []
            if term is not None:
                if term.opclass == _BRANCH:
                    targets = [term.taken_block, term.fall_block]
                elif term.opclass == _JUMP or term.opclass == _CALL:
                    targets = [term.taken_block]
                # RET targets are dynamic (call stack)
            else:
                targets = [block.fall_block]
            for t in targets:
                if not (0 <= t < nblocks):
                    raise ValueError(f"block {block.bid}: successor {t} out of range")

    @property
    def num_static_insts(self) -> int:
        return sum(len(b.insts) for b in self.blocks)

    def inst_at(self, pc: int) -> StaticInst:
        return self._pc_map[pc]

    def all_insts(self) -> Iterator[StaticInst]:
        for block in self.blocks:
            yield from block.insts


class ThreadContext:
    """Fetch-point state of one hardware thread running a program.

    The fetch unit uses it as follows::

        st = ctx.peek()
        pos = ctx.stream_pos
        if OP_IS_CONTROL[st.opclass]:
            taken, target = ctx.resolve_control(st)   # oracle outcome
            ctx.advance_control(st, followed_taken, followed_target)
        else:
            ctx.advance()

    ``followed_*`` may differ from the oracle outcome when the branch
    predictor mispredicts; the pipeline restores the context with
    :meth:`restore` when the branch executes.
    """

    __slots__ = ("program", "seed", "block", "index", "stream_pos", "call_stack", "fetched")

    MAX_CALL_DEPTH = 16

    def __init__(self, program: SyntheticProgram, seed: int = 0):
        self.program = program
        self.seed = seed ^ program.seed
        self.block = program.entry
        self.index = 0
        self.stream_pos = 0
        self.call_stack: list[int] = []
        self.fetched = 0  # total instructions handed to the fetch unit

    # ------------------------------------------------------------------
    # Fetch-point inspection
    # ------------------------------------------------------------------
    def peek(self) -> StaticInst:
        return self.program.blocks[self.block].insts[self.index]

    def at_block_end(self) -> bool:
        return self.index == len(self.program.blocks[self.block].insts) - 1

    # ------------------------------------------------------------------
    # Oracle behaviour
    # ------------------------------------------------------------------
    def branch_taken(self, st: StaticInst, stream_pos: int) -> bool:
        """Actual outcome of a conditional branch instance.

        Loop back-branches exit deterministically every ``loop_trip``
        iterations (iteration index derived from the stream position —
        the loop body has constant stream length).  Data-dependent
        branches interpolate between always-bias-direction and an
        independent biased coin flip per instance.
        """
        bb: BranchBehavior = st.branch  # type: ignore[assignment]
        if bb.loop_period > 0:
            return (stream_pos // bb.loop_period) % bb.loop_trip != bb.loop_trip - 1
        deterministic = 1.0 if bb.taken_bias >= 0.5 else 0.0
        eff_bias = bb.predictability * deterministic + (1.0 - bb.predictability) * bb.taken_bias
        return u01(st.pc, stream_pos, self.seed) < eff_bias

    def resolve_control(self, st: StaticInst) -> tuple[bool, int]:
        """Oracle (taken, target block) of the control instruction at the
        current fetch point."""
        op = st.opclass
        if op == _BRANCH:
            taken = self.branch_taken(st, self.stream_pos)
            return taken, (st.taken_block if taken else st.fall_block)
        if op == _JUMP or op == _CALL:
            return True, st.taken_block
        if op == _RET:
            if self.call_stack:
                return True, self.call_stack[-1]
            return True, self.program.entry  # underflow: restart program
        raise ValueError(f"{op.name} is not a control opclass")

    def mem_address(self, st: StaticInst, stream_pos: int) -> int:
        """Actual effective address of a memory instruction instance."""
        mb: MemBehavior = st.mem  # type: ignore[assignment]
        if mb.pattern == _SEQUENTIAL:
            # Advance ~one stride per executed loop body (not per
            # instruction), so consecutive executions of this load walk
            # the array with spatial locality.
            offset = ((stream_pos >> mb.advance_shift) * mb.stride + (st.pc & 0xFF8)) % mb.footprint
        elif mb.pattern == _HOT:
            span = max(mb.hot_size // 8, 1)
            offset = (mix64(st.pc, stream_pos, self.seed) % span) * 8
        else:  # RANDOM
            # Irregular accesses still exhibit page-level locality in
            # real programs: ``page_local_16``/16 of them land in a 64KB
            # hot window (TLB- and L2-friendly); the rest range over the
            # whole footprint.  Programs also show coarse *phase*
            # behaviour ("a program's reliability domain characteristics
            # exhibit time varying behavior", Section 1): every other
            # ~16K-instruction phase has markedly poorer locality, so
            # interval AVF traces vary the way DVM expects.
            r = mix64(st.pc, stream_pos, self.seed)
            page_local = mb.page_local_16
            if (stream_pos >> 14) & 1:
                page_local = max(page_local - 6, 2)
            if (r & 15) < page_local:
                span = max(min(mb.footprint, 65536) // 8, 1)
            else:
                span = max(mb.footprint // 8, 1)
            offset = ((r >> 4) % span) * 8
        return mb.base + offset

    # ------------------------------------------------------------------
    # Advancing / rollback
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple[int, int, int, tuple[int, ...]]:
        return (self.block, self.index, self.stream_pos, tuple(self.call_stack))

    def restore(self, cp: tuple[int, int, int, tuple[int, ...]]) -> None:
        self.block, self.index, self.stream_pos = cp[0], cp[1], cp[2]
        self.call_stack = list(cp[3])

    def advance(self) -> None:
        """Advance past a non-control instruction."""
        self.stream_pos += 1
        self.fetched += 1
        block = self.program.blocks[self.block]
        if self.index + 1 < len(block.insts):
            self.index += 1
        else:
            self.block = block.fall_block
            self.index = 0

    def advance_control(self, st: StaticInst, taken: bool, target: int) -> None:
        """Advance past a control instruction down the *followed* path.

        ``target`` is the block the front-end decided to follow (the
        predicted one; it may be wrong).  For a not-taken conditional
        branch the caller passes ``st.fall_block``.
        """
        self.stream_pos += 1
        self.fetched += 1
        op = st.opclass
        if op == _CALL:
            if len(self.call_stack) >= self.MAX_CALL_DEPTH:
                self.call_stack.pop(0)
            # Return site: the CALL's own fall-through block.
            ret = st.fall_block
            if ret < 0:
                ret = self.program.blocks[self.block].fall_block
            self.call_stack.append(ret if ret >= 0 else self.program.entry)
        elif op == _RET:
            if self.call_stack:
                self.call_stack.pop()
        self.block = target
        self.index = 0
