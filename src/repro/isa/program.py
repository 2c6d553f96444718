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
stack)``: three integers and the call stack, an immutable tuple that
every checkpoint taken between two calls or returns shares.

Code that walks the correct path (the functional warm-up, offline
profiling) steps it one basic block at a time with
:meth:`ThreadContext.walk`; the fetch unit walks a block in locals and
returns to the context only at control instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.isa.instruction import (
    CONTROL_OPS,
    OP_IS_CONTROL,
    OP_IS_MEM,
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

#: ``SyntheticProgram.block_plan`` entries of one block.
BlockPlan = tuple[tuple[int, StaticInst, bool], ...]

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
        self._plans: dict[int, list[BlockPlan]] = {}

    def block_plan(self, line_shift: int) -> list[BlockPlan]:
        """Per block (indexed by ``bid``): the instructions that reach
        the memory system on the correct path, in fetch order, for
        ``2**line_shift``-byte I-cache lines.

        An entry ``(offset, inst, is_mem)`` is an instruction at
        ``offset > 0`` that starts a new I-line (``is_mem`` False) or a
        memory instruction (True); one that is both appears twice, line
        first.  Offset 0 is left out of the line entries: whether it
        starts a new line depends on where fetch came from.  Built once
        per line size.
        """
        plan = self._plans.get(line_shift)
        if plan is None:
            plan = []
            for block in self.blocks:
                steps: list[tuple[int, StaticInst, bool]] = []
                line = -1
                for offset, inst in enumerate(block.insts):
                    prev, line = line, inst.pc >> line_shift
                    if offset and line != prev:
                        steps.append((offset, inst, False))
                    if OP_IS_MEM[inst.opclass]:
                        steps.append((offset, inst, True))
                plan.append(tuple(steps))
            self._plans[line_shift] = plan
        return plan

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
    :meth:`restore` when the branch executes.  :meth:`walk` follows
    the oracle path a basic block at a time.
    """

    __slots__ = ("program", "seed", "block", "index", "stream_pos", "call_stack")

    MAX_CALL_DEPTH = 16

    def __init__(self, program: SyntheticProgram, seed: int = 0):
        self.program = program
        self.seed = seed ^ program.seed
        self.block = program.entry
        self.index = 0
        self.stream_pos = 0
        # Return blocks, innermost last.  A tuple, replaced (never
        # mutated) by calls and returns, so checkpoints share it.
        self.call_stack: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Fetch-point inspection
    # ------------------------------------------------------------------
    def peek(self) -> StaticInst:
        return self.program.blocks[self.block].insts[self.index]

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
        return (self.block, self.index, self.stream_pos, self.call_stack)

    def restore(self, cp: tuple[int, int, int, tuple[int, ...]]) -> None:
        self.block, self.index, self.stream_pos, self.call_stack = cp

    def advance(self) -> None:
        """Advance past a non-control instruction."""
        self.stream_pos += 1
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
        op = st.opclass
        if op == _CALL:
            stack = self.call_stack
            if len(stack) >= self.MAX_CALL_DEPTH:
                stack = stack[1:]
            # Return site: the CALL's own fall-through block.
            ret = st.fall_block
            if ret < 0:
                ret = self.program.blocks[self.block].fall_block
            self.call_stack = (*stack, ret if ret >= 0 else self.program.entry)
        elif op == _RET:
            if self.call_stack:
                self.call_stack = self.call_stack[:-1]
        self.block = target
        self.index = 0

    def walk(self, n: int) -> Iterator[tuple[BasicBlock, int, int, int, bool | None]]:
        """Advance ``n`` instructions down the oracle path, one block at
        a time.

        Yields ``(block, start, stop, pos, taken)`` per block visited:
        ``block.insts[start:stop]`` were stepped over, the first at
        stream position ``pos``.  ``taken`` is the resolved outcome of
        the control instruction that ends the segment, or None if it
        ends without one (a fall-through block, or the last ``n`` ran
        out inside the block).  The context has already advanced past
        the segment when it is yielded.  Equal to ``n`` single steps
        of :meth:`peek` / :meth:`resolve_control` /
        :meth:`advance_control` / :meth:`advance`.
        """
        blocks = self.program.blocks
        while n > 0:
            block = blocks[self.block]
            insts = block.insts
            start = self.index
            pos = self.stream_pos
            stop = len(insts)
            if stop - start > n:  # the tail: never reaches the terminator
                stop = start + n
                self.index = stop
                self.stream_pos = pos + n
                yield block, start, stop, pos, None
                return
            n -= stop - start
            last = insts[-1]
            if OP_IS_CONTROL[last.opclass]:
                self.stream_pos = pos + stop - start - 1
                taken, target = self.resolve_control(last)
                self.advance_control(last, taken, target)
                yield block, start, stop, pos, taken
            else:
                self.stream_pos = pos + stop - start
                self.block = block.fall_block
                self.index = 0
                yield block, start, stop, pos, None
