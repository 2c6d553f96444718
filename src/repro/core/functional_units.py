"""Functional unit pools and operation latencies.

Table 2: 8 integer ALUs, 4 integer mult/div, 4 load/store units,
8 FP ALUs, 4 FP mult/div/sqrt.  Units are fully pipelined: issuing an
operation consumes one unit slot for the issue cycle only, and the
result arrives after the operation latency (memory operations get their
latency from the cache hierarchy instead).
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.isa.instruction import N_OPCLASSES, OpClass


class FUKind:
    IALU = 0
    IMULT = 1
    LS = 2
    FALU = 3
    FMULT = 4
    _COUNT = 5


_OP_TO_FU = {
    OpClass.IALU: FUKind.IALU,
    OpClass.BRANCH: FUKind.IALU,
    OpClass.JUMP: FUKind.IALU,
    OpClass.CALL: FUKind.IALU,
    OpClass.RET: FUKind.IALU,
    OpClass.NOP: FUKind.IALU,
    OpClass.IMULT: FUKind.IMULT,
    OpClass.IDIV: FUKind.IMULT,
    OpClass.LOAD: FUKind.LS,
    OpClass.STORE: FUKind.LS,
    OpClass.PREFETCH: FUKind.LS,
    OpClass.FALU: FUKind.FALU,
    OpClass.FMULT: FUKind.FMULT,
    OpClass.FDIV: FUKind.FMULT,
    OpClass.FSQRT: FUKind.FMULT,
}
#: FU pool of each opclass, indexed by the OpClass ordinal.
OP_FU: tuple[int, ...] = tuple(_OP_TO_FU[OpClass(i)] for i in range(N_OPCLASSES))


class FunctionalUnitPool:
    """Per-cycle issue-slot accounting for the five FU pools.

    ``limits`` and ``used`` are indexed by :class:`FUKind` (an opclass's
    kind is ``OP_FU[opclass]``); the pipeline's issue stage reserves
    slots on them directly and adds its issues to ``busy_integral``.
    """

    __slots__ = ("limits", "used", "busy_integral")

    def __init__(self, machine: MachineConfig):
        self.limits = [0] * FUKind._COUNT
        self.limits[FUKind.IALU] = machine.int_alu
        self.limits[FUKind.IMULT] = machine.int_mult_div
        self.limits[FUKind.LS] = machine.load_store_units
        self.limits[FUKind.FALU] = machine.fp_alu
        self.limits[FUKind.FMULT] = machine.fp_mult_div_sqrt
        self.used = [0] * FUKind._COUNT
        self.busy_integral = 0  # unit-cycles consumed (for FU AVF)

    def new_cycle(self) -> None:
        for k in range(FUKind._COUNT):
            self.used[k] = 0

    @property
    def total_units(self) -> int:
        return sum(self.limits)

