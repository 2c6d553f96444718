"""Bit-level AVF accounting for the IQ, ROB, register file and FUs.

Per Section 3 of the paper, ACE-ness is classified at instruction level
but the AVF computation is performed at bit level: every structure
entry has a declared bit layout, and an entry's resident instruction
contributes the ACE subset of those bits for every cycle of residency.

    AVF(structure) = Σ_cycles ACE-bits-resident / (total-bits × cycles)

Two accountings coexist, exactly as in the paper:

* the **oracle** AVF used for evaluation — attributed retroactively,
  one call per ACE-analyzer sweep (a committed un-ACE
  instruction still contributes its control/opcode bits; a squashed
  wrong-path instruction contributes nothing);
* the **online estimate** used by DVM (Section 5.1) — a running counter
  of *predicted*-ACE bits updated at IQ insert/remove, readable every
  cycle with no oracle knowledge.

Interval AVFs are bucketed by the *last cycle an instruction was
resident* in the structure (leave cycle minus one), giving the
per-interval runtime AVF trace that the PVE metric and Figures 8–10
are computed from.  Bucketing by the last resident cycle — not the
leave cycle itself — keeps the oracle path aligned with the online
per-cycle accumulation at interval edges: an instruction leaving
exactly at cycle ``k*L`` was last resident in cycle ``k*L - 1``, which
the online counter charged to interval ``k-1``.

When an :class:`~repro.telemetry.bus.EventBus` is attached (the
pipeline does this when telemetry is on), every finalized attribution
is also published as a ``reliability.attribution`` /
``reliability.rf`` event, guarded by cached ``wants()`` flags so the
zero-subscriber path pays one integer compare per sweep.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.config import MachineConfig
from repro.isa.instruction import N_OPCLASSES, OP_IS_MEM, DynInst, DynState, OpClass
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_RELIABILITY_ATTRIBUTION, TOPIC_RELIABILITY_RF


def interval_bucket(last_resident_cycle: int, interval_cycles: int) -> int:
    """The interval index a residency ending at ``last_resident_cycle``
    is attributed to (shared by the accountant and its observers)."""
    return max(last_resident_cycle, 0) // interval_cycles


class Structure(enum.IntEnum):
    IQ = 0
    ROB = 1
    RF = 2
    FU = 3


@dataclass(frozen=True)
class AVFBitLayout:
    """Bit widths used by the accountant.

    ``*_ace`` is the ACE bit count of an entry holding a (true or
    predicted) ACE instruction; ``*_unace`` the residual ACE bits
    (opcode/control fields — the paper notes "un-ACE instructions also
    contain ACE-bits (e.g. opcode)"); ``*_nop`` the residual bits of a
    NOP/prefetch.
    """

    iq_entry_bits: int = 128
    iq_ace: int = 96
    iq_unace: int = 12
    iq_nop: int = 8

    # ROB entries are mostly control state: results are written to the
    # register file at writeback, so only PC/exception/status fields
    # stay architecturally critical until commit.  This is why the IQ —
    # whose entries carry full operand/tag payloads for their whole
    # residency — dominates the ROB in Figure 1 despite the ROB's
    # longer occupancy.
    rob_entry_bits: int = 64
    rob_ace: int = 20
    rob_unace: int = 6
    rob_nop: int = 4

    # The rename substrate maps architectural registers onto a physical
    # file; Table 2's class of machine carries ~512 physical registers
    # (2x32 architectural per context plus rename headroom), which is
    # the structure a particle strikes.  Our lifetime model (vulnerable
    # from producer commit to last read) is an upper bound: it cannot
    # see which reader consumptions were themselves un-ACE.
    rf_physical_regs: int = 512
    rf_reg_bits: int = 64
    # FU latches: only a small slice of an executing operation's bits is
    # simultaneously strike-critical as it moves through the unit's
    # pipeline stages, which is why Figure 1 shows the FU well below
    # the IQ.
    fu_entry_bits: int = 128
    fu_ace: int = 32
    fu_unace: int = 4

    def validate(self) -> None:
        if not (0 <= self.iq_nop <= self.iq_unace <= self.iq_ace <= self.iq_entry_bits):
            raise ValueError("IQ bit layout must satisfy nop <= unace <= ace <= entry")
        if not (0 <= self.rob_nop <= self.rob_unace <= self.rob_ace <= self.rob_entry_bits):
            raise ValueError("ROB bit layout must satisfy nop <= unace <= ace <= entry")
        if not (0 <= self.fu_unace <= self.fu_ace <= self.fu_entry_bits):
            raise ValueError("FU bit layout must satisfy unace <= ace <= entry")
        if self.rf_reg_bits <= 0:
            raise ValueError("rf_reg_bits must be positive")


_QUIET = frozenset({OpClass.NOP, OpClass.PREFETCH})
_OP_QUIET: tuple[bool, ...] = tuple(op in _QUIET for op in range(N_OPCLASSES))
_SQUASHED = DynState.SQUASHED
# Plain-int structure indices for the per-instruction accumulators.
_IQ = int(Structure.IQ)
_ROB = int(Structure.ROB)
_RF = int(Structure.RF)
_FU = int(Structure.FU)


class AVFAccount:
    """Accumulates ACE-bit-cycles per structure, overall and per interval."""

    def __init__(
        self,
        machine: MachineConfig,
        interval_cycles: int,
        layout: AVFBitLayout | None = None,
    ):
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self.layout = layout or AVFBitLayout()
        self.layout.validate()
        self.machine = machine
        self.interval_cycles = interval_cycles
        lay = self.layout
        from repro.core.functional_units import FunctionalUnitPool

        n_fu = FunctionalUnitPool(machine).total_units
        self._capacity_bits = {
            Structure.IQ: machine.iq_size * lay.iq_entry_bits,
            Structure.ROB: machine.num_threads * machine.rob_size_per_thread * lay.rob_entry_bits,
            Structure.RF: max(lay.rf_physical_regs, machine.num_threads * 64) * lay.rf_reg_bits,
            Structure.FU: n_fu * lay.fu_entry_bits,
        }
        # (IQ, ROB, FU) oracle bits of a quiet, an ACE and an un-ACE
        # committed instruction.
        self._bits_quiet = (lay.iq_nop, lay.rob_nop, 0)
        self._bits_ace = (lay.iq_ace, lay.rob_ace, lay.fu_ace)
        self._bits_unace = (lay.iq_unace, lay.rob_unace, lay.fu_unace)
        # Predicted-ACE bits of an IQ / ROB entry, indexed by
        # ``2 * opclass + ace_pred``: the one definition of the bits
        # the online counters (DVM's hardware counter, Section 5.1)
        # add at dispatch and take off at issue, commit and squash.
        iq_pred: list[int] = []
        rob_pred: list[int] = []
        for op in range(N_OPCLASSES):
            quiet = _OP_QUIET[op]
            iq_pred += [lay.iq_nop, lay.iq_nop] if quiet else [lay.iq_unace, lay.iq_ace]
            rob_pred += [lay.rob_nop, lay.rob_nop] if quiet else [lay.rob_unace, lay.rob_ace]
        self.iq_pred_bits: tuple[int, ...] = tuple(iq_pred)
        self.rob_pred_bits: tuple[int, ...] = tuple(rob_pred)
        # bit-cycles, overall and per interval index, indexed by Structure.
        self._acc: list[int] = [0] * len(Structure)
        self._interval_acc: list[dict[int, int]] = [{} for _ in Structure]
        self.total_cycles = 0
        # Optional event bus (the pipeline attaches its bus when
        # telemetry is on).  wants() is cached against bus.version so
        # the common no-subscriber case costs one compare per resolve.
        self.bus: EventBus | None = None
        self._bus_version = -1
        self._want_attr = False
        self._want_rf = False

    def _refresh_wants(self, bus: EventBus) -> None:
        """Re-read the subscription flags (callers compare
        ``bus.version`` first, so this runs once per change)."""
        self._bus_version = bus.version
        self._want_attr = bus.wants(TOPIC_RELIABILITY_ATTRIBUTION)
        self._want_rf = bus.wants(TOPIC_RELIABILITY_RF)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def attribute(self, insts: Iterable[DynInst]) -> None:
        """Attribute all residencies of each committed instruction in
        ``insts`` whose oracle ACE-ness just became final (the ACE
        analyzer's per-sweep callback).

        Each residency is bucketed by its *last resident cycle* (leave
        cycle minus one), matching the cycle the online counters charged
        — see the module docstring.  Only positive bit-cycle counts are
        added, and those imply a residency that started at cycle >= 0,
        so the bucket is :func:`interval_bucket` without its clamp.
        """
        acc = self._acc
        iq_acc, rob_acc, fu_acc = (
            self._interval_acc[_IQ], self._interval_acc[_ROB], self._interval_acc[_FU]
        )
        interval = self.interval_cycles
        op_quiet = _OP_QUIET
        bus = self.bus
        if bus is not None and bus.version != self._bus_version:
            self._refresh_wants(bus)
        if not self._want_attr:
            bus = None
        bits_quiet, bits_ace, bits_unace = self._bits_quiet, self._bits_ace, self._bits_unace
        for dyn in insts:
            # Oracle bits: a squashed or unresolved instruction
            # contributes nothing.
            ace = dyn.ace
            op = dyn.static.opclass
            if ace is None or dyn.state == _SQUASHED:
                iq_bits = rob_bits = fu_bits = 0
            elif op_quiet[op]:
                iq_bits, rob_bits, fu_bits = bits_quiet
            elif ace:
                iq_bits, rob_bits, fu_bits = bits_ace
            else:
                iq_bits, rob_bits, fu_bits = bits_unace
            iq_bc = rob_bc = fu_bc = 0
            dispatch = dyn.dispatch_cycle
            if dispatch >= 0:
                leave = dyn.iq_leave_cycle
                if leave >= 0:
                    iq_bc = iq_bits * (leave - dispatch)
                    if iq_bc > 0:
                        acc[_IQ] += iq_bc
                        bucket = (leave - 1) // interval
                        iq_acc[bucket] = iq_acc.get(bucket, 0) + iq_bc
                commit = dyn.commit_cycle
                if commit >= 0:
                    rob_bc = rob_bits * (commit - dispatch)
                    if rob_bc > 0:
                        acc[_ROB] += rob_bc
                        bucket = (commit - 1) // interval
                        rob_acc[bucket] = rob_acc.get(bucket, 0) + rob_bc
            issue = dyn.issue_cycle
            if issue >= 0:
                # Memory operations occupy their load/store unit only for
                # address generation; the (pipelined) cache fill does not
                # hold operand latches in the FU.
                res = 1 if OP_IS_MEM[op] else max(dyn.exec_latency, 1)
                fu_bc = fu_bits * res
                if fu_bc > 0:
                    acc[_FU] += fu_bc
                    bucket = (issue + res - 1) // interval
                    fu_acc[bucket] = fu_acc.get(bucket, 0) + fu_bc
            if bus is not None:
                bus.emit(
                    TOPIC_RELIABILITY_ATTRIBUTION,
                    thread=dyn.thread,
                    tag=dyn.tag,
                    ace=bool(dyn.ace),
                    quiet=op_quiet[op],
                    iq_slot=dyn.iq_slot,
                    iq_bit_cycles=iq_bc,
                    rob_bit_cycles=rob_bc,
                    fu_bit_cycles=fu_bc,
                    dispatch_cycle=dyn.dispatch_cycle,
                    issue_cycle=dyn.issue_cycle,
                    iq_leave_cycle=dyn.iq_leave_cycle,
                    commit_cycle=dyn.commit_cycle,
                )

    def attribute_rf(self, thread: int, lifetimes: Iterable[tuple[int, int, int]]) -> None:
        """Attribute ``thread``'s closed register lifetimes, each
        (producer commit cycle, last read cycle, closing cycle): the ACE
        analyzer's per-sweep register-file callback.

        A register's bits are counted ACE from the producer's commit to
        its last read (the interval in which a strike would corrupt a
        consumed value).  Never-read values contribute nothing.
        """
        reg_bits = self.layout.rf_reg_bits
        interval = self.interval_cycles
        intervals = self._interval_acc[_RF]
        total = 0
        bus = self.bus
        if bus is not None and bus.version != self._bus_version:
            self._refresh_wants(bus)
        if not self._want_rf:
            bus = None
        for commit, last_read, _ in lifetimes:
            if last_read <= commit:
                continue
            bit_cycles = reg_bits * (last_read - commit)
            total += bit_cycles
            bucket = (last_read - 1) // interval
            intervals[bucket] = intervals.get(bucket, 0) + bit_cycles
            if bus is not None:
                bus.emit(
                    TOPIC_RELIABILITY_RF,
                    thread=thread,
                    commit_cycle=commit,
                    last_read_cycle=last_read,
                    bit_cycles=bit_cycles,
                )
        self._acc[_RF] += total

    def close(self, total_cycles: int) -> None:
        self.total_cycles = total_cycles

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def overall_avf(self, structure: Structure) -> float:
        if not self.total_cycles:
            return 0.0
        denom = self._capacity_bits[structure] * self.total_cycles
        return self._acc[structure] / denom

    def interval_avf(self, structure: Structure) -> list[float]:
        """AVF per interval index, densely from interval 0 to the last
        one touched."""
        if not self.total_cycles:
            return []
        intervals = self._interval_acc[structure]
        n = self.total_cycles // self.interval_cycles
        if intervals:
            n = max(n, max(intervals) + 1)
        denom = self._capacity_bits[structure] * self.interval_cycles
        return [intervals.get(i, 0) / denom for i in range(n)]

    def capacity_bits(self, structure: Structure) -> int:
        return self._capacity_bits[structure]
