"""Instruction model for the synthetic RISC-like ISA.

Two layers mirror a real simulator:

* :class:`StaticInst` — one instruction in the program image, identified
  by its PC.  Carries the operand structure (destination/source
  architectural registers), the operation class, the memory/branch
  behaviour descriptors used by the workload model, and the 1-bit
  ``ace_hint`` that the paper's extended ISA encodes (Section 2.1).
* :class:`DynInst` — one dynamic instance flowing through the pipeline,
  identified by a global sequence tag.  Holds renamed producer tags,
  per-stage timestamps and the resolved ACE-ness used for AVF
  accounting.
"""

from __future__ import annotations

import enum
import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.config import MachineConfig


class OpClass(enum.IntEnum):
    """Operation classes with distinct functional-unit requirements."""

    IALU = 0
    IMULT = 1
    IDIV = 2
    FALU = 3
    FMULT = 4
    FDIV = 5
    FSQRT = 6
    LOAD = 7
    STORE = 8
    BRANCH = 9
    JUMP = 10  # unconditional direct
    CALL = 11
    RET = 12
    NOP = 13
    PREFETCH = 14

    @property
    def is_mem(self) -> bool:
        return self in MEM_OPS

    @property
    def is_control(self) -> bool:
        return self in CONTROL_OPS

    @property
    def is_fp(self) -> bool:
        return self in FP_OPS


MEM_OPS: frozenset[OpClass] = frozenset(
    {OpClass.LOAD, OpClass.STORE, OpClass.PREFETCH}
)
CONTROL_OPS: frozenset[OpClass] = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}
)
FP_OPS: frozenset[OpClass] = frozenset(
    {OpClass.FALU, OpClass.FMULT, OpClass.FDIV, OpClass.FSQRT}
)

#: Struct-of-arrays opclass predicates, indexed by the OpClass ordinal:
#: per-instruction code (the stage methods, functional warm-up)
#: replaces ``is_mem``/``is_control`` property calls with a flat tuple
#: load.
N_OPCLASSES = max(OpClass) + 1
OP_IS_MEM: tuple[bool, ...] = tuple(i in MEM_OPS for i in range(N_OPCLASSES))
OP_IS_CONTROL: tuple[bool, ...] = tuple(i in CONTROL_OPS for i in range(N_OPCLASSES))

#: The ``MachineConfig`` latency field of each opclass, indexed by the
#: OpClass ordinal (memory operations take their latency from the cache
#: hierarchy; everything else not listed is single-cycle integer work).
_OP_LATENCY_FIELD: dict[OpClass, str] = {
    OpClass.IMULT: "lat_int_mult",
    OpClass.IDIV: "lat_int_div",
    OpClass.FALU: "lat_fp_alu",
    OpClass.FMULT: "lat_fp_mult",
    OpClass.FDIV: "lat_fp_div",
    OpClass.FSQRT: "lat_fp_sqrt",
}
OP_LATENCY_FIELD: tuple[str, ...] = tuple(
    _OP_LATENCY_FIELD.get(OpClass(i), "lat_int_alu") for i in range(N_OPCLASSES)
)


def op_latency_table(machine: "MachineConfig") -> tuple[int, ...]:
    """Per-machine execution latency of every opclass, indexed by the
    OpClass ordinal."""
    return tuple(int(getattr(machine, name)) for name in OP_LATENCY_FIELD)


_BRANCH = OpClass.BRANCH


class MemPattern(enum.IntEnum):
    """Address-stream shape of a static memory instruction."""

    SEQUENTIAL = 0  # strides through the footprint as the program advances
    RANDOM = 1  # uniform over the footprint
    HOT = 2  # uniform over a small hot set (high locality)


@dataclass
class MemBehavior:
    """Address-generation descriptor attached to LOAD/STORE/PREFETCH.

    Addresses are produced as a pure function of the thread's fetch
    stream position so wrong-path rollback is a single-integer restore
    (see :class:`repro.isa.program.ThreadContext`).
    """

    pattern: MemPattern
    base: int  # region base address (bytes)
    footprint: int  # region size in bytes
    stride: int = 8  # for SEQUENTIAL
    # SEQUENTIAL advances one stride per 2**advance_shift fetched
    # instructions: integer codes re-walk buffers slowly (large shift),
    # FP streams sweep quickly (small shift).
    advance_shift: int = 5
    hot_size: int = 4096  # for HOT
    # For RANDOM: out of 16 accesses, this many stay in a 64KB hot
    # window (page/TLB locality); the rest range over the footprint.
    page_local_16: int = 12


@dataclass
class BranchBehavior:
    """Outcome model of a static conditional branch.

    Two regimes:

    * **Loop back-branch** (``loop_period > 0``): the loop body has a
      constant stream length ``loop_period``, so the iteration counter
      is ``stream_pos // loop_period`` and the branch falls through
      (exits) exactly every ``loop_trip``-th iteration — the
      quasi-constant trip counts of real loops, which history-based
      predictors learn.
    * **Data-dependent branch** (``loop_period == 0``): taken with
      probability ``taken_bias``; ``predictability`` in [0, 1] mixes in
      per-instance randomness: 1.0 always resolves in the biased
      direction, 0.0 is a pure biased coin flip of (pc, stream
      position, seed).
    """

    taken_bias: float
    predictability: float = 0.5
    loop_period: int = 0
    loop_trip: int = 0


@dataclass
class StaticInst:
    """One instruction of a synthetic program image."""

    pc: int
    opclass: OpClass
    dest: int = -1  # architectural register index, -1 = none
    srcs: tuple[int, ...] = ()
    mem: MemBehavior | None = None
    branch: BranchBehavior | None = None
    # Filled by the program builder: control-flow successors for branches.
    taken_block: int = -1
    fall_block: int = -1
    # The 1-bit ISA extension of Section 2.1, set by offline profiling.
    ace_hint: bool = True
    # True for instructions whose results are program outputs (ACE roots
    # beyond stores/branches), e.g. emulated syscalls/IO.
    is_output: bool = False

    def __post_init__(self) -> None:
        if self.opclass in MEM_OPS and self.mem is None:
            raise ValueError(f"memory instruction at pc={self.pc:#x} needs MemBehavior")
        if self.opclass == _BRANCH and self.branch is None:
            raise ValueError(f"branch at pc={self.pc:#x} needs BranchBehavior")

    @property
    def writes_reg(self) -> bool:
        return self.dest >= 0


# Pipeline state of a dynamic instruction.
class DynState(enum.IntEnum):
    FETCHED = 0
    DISPATCHED = 1  # in IQ (waiting or ready)
    ISSUED = 2
    COMPLETED = 3
    COMMITTED = 4
    SQUASHED = 5


_FETCHED = DynState.FETCHED


@dataclass(slots=True, init=False)
class DynInst:
    """A dynamic instruction instance in flight.

    ``tag`` is the globally unique sequence number used for renaming:
    consumers wait on their producers' tags.  ``ace`` is the *oracle*
    ACE-ness resolved by the post-retirement analyzer (``None`` until
    resolved); ``ace_pred`` is the per-PC predicted bit from offline
    profiling that drives VISA scheduling and DVM's online AVF counter.

    The constructor takes only what fetch knows; every other field
    starts at its default.  Fetch builds one per instruction, so it
    calls it positionally.
    """

    tag: int
    thread: int
    static: StaticInst
    stream_pos: int
    state: DynState = DynState.FETCHED
    src_tags: list[int] = field(default_factory=list)  # unresolved producer tags
    mem_addr: int = -1
    # Branch resolution.
    pred_taken: bool = False
    actual_taken: bool = False
    pred_target: int = -1
    actual_target: int = -1
    mispredicted: bool = False
    bp_index: int = -1  # PHT entry used at prediction (trained at commit)
    # Timestamps (cycle numbers, -1 = not reached).
    fetch_cycle: int = -1
    dispatch_cycle: int = -1
    ready_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1
    # Cache outcome bookkeeping for loads.
    l1_miss: bool = False
    l2_miss: bool = False
    exec_latency: int = 1
    # Reliability.
    ace: bool | None = None
    ace_pred: bool = True
    iq_leave_cycle: int = -1
    # Physical IQ slot occupied while resident (-1 before dispatch);
    # stable for the whole residency, so per-entry heatmaps can
    # attribute vulnerability to hardware slots.
    iq_slot: int = -1
    # Thread-context state before this instruction advanced the fetch
    # point; restored on misprediction recovery and FLUSH refetch
    # (the (block, index, stream_pos, call_stack) tuple of
    # ThreadContext.checkpoint).
    checkpoint: tuple[int, int, int, tuple[int, ...]] | None = None
    # The previous producer of this instruction's destination register,
    # for walk-back rename repair on squash; cleared at commit, where
    # the link goes dead.
    prev_producer: "DynInst | None" = None

    def __init__(
        self,
        tag: int,
        thread: int,
        static: StaticInst,
        stream_pos: int,
        fetch_cycle: int = -1,
        ace_pred: bool = True,
        checkpoint: tuple[int, int, int, tuple[int, ...]] | None = None,
    ) -> None:
        self.tag = tag
        self.thread = thread
        self.static = static
        self.stream_pos = stream_pos
        self.state = _FETCHED
        self.src_tags = []
        self.mem_addr = -1
        self.pred_taken = False
        self.actual_taken = False
        self.pred_target = -1
        self.actual_target = -1
        self.mispredicted = False
        self.bp_index = -1
        self.fetch_cycle = fetch_cycle
        self.dispatch_cycle = -1
        self.ready_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.commit_cycle = -1
        self.l1_miss = False
        self.l2_miss = False
        self.exec_latency = 1
        self.ace = None
        self.ace_pred = ace_pred
        self.iq_leave_cycle = -1
        self.iq_slot = -1
        self.checkpoint = checkpoint
        self.prev_producer = None

    @property
    def pc(self) -> int:
        return self.static.pc

    @property
    def opclass(self) -> OpClass:
        return self.static.opclass

    @property
    def is_ready(self) -> bool:
        return not self.src_tags

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DynInst(tag={self.tag}, t{self.thread}, pc={self.pc:#x}, "
            f"{self.opclass.name}, {self.state.name})"
        )


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector disabled.

    The run loop allocates a :class:`DynInst` per fetched instruction;
    none of them is part of a reference cycle, so
    reference counting alone frees them, and generation-0 collections
    triggered by the allocation rate only rescan live objects.  The
    collector is re-enabled on exit only if it was enabled on entry, so
    a caller that disabled it keeps it disabled, even if the block
    raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
