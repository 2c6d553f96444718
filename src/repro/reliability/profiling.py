"""Offline instruction vulnerability profiling (Section 2.1, Table 1).

The paper profiles each benchmark offline, classifies every *static*
instruction (PC) as ACE if **any** of its committed dynamic instances
is ACE, and encodes the result as a 1-bit ISA tag checked at decode.
The classification is deliberately conservative: it can never produce a
false negative (an ACE instance predicted un-ACE), only false positives
(un-ACE instances of a sometimes-ACE PC predicted ACE).

Profiling is *functional*: the committed stream is exactly the correct
control-flow path, so it can be produced by walking the program's
thread context directly — no pipeline timing involved (instructions on
mispredicted paths are excluded from classification, as in the paper).
The forward pass takes that path a basic block at a time
(:meth:`~repro.isa.program.ThreadContext.walk`, the walker the
functional warm-up uses), appending each block's instructions as one
slice; the backward pass classifies the whole trace at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from repro.isa.instruction import StaticInst
from repro.isa.program import SyntheticProgram, ThreadContext
from repro.reliability.ace import sweep


@dataclass
class ProfileResult:
    """Outcome of one offline profiling pass."""

    program_name: str
    instructions: int
    pc_table: dict[int, bool] = field(default_factory=dict)
    ace_instances: dict[int, int] = field(default_factory=dict)
    unace_instances: dict[int, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Committed-instance accuracy of the PC-based classification —
        the quantity reported in Table 1."""
        correct = 0
        total = 0
        for pc, is_ace in self.pc_table.items():
            a = self.ace_instances.get(pc, 0)
            u = self.unace_instances.get(pc, 0)
            total += a + u
            correct += a if is_ace else u
        return correct / total if total else 0.0

    @property
    def ace_fraction(self) -> float:
        """Fraction of committed dynamic instances that are oracle-ACE."""
        a = sum(self.ace_instances.values())
        u = sum(self.unace_instances.values())
        return a / (a + u) if (a + u) else 0.0

    @property
    def static_ace_fraction(self) -> float:
        """Fraction of profiled PCs tagged ACE."""
        if not self.pc_table:
            return 0.0
        return sum(self.pc_table.values()) / len(self.pc_table)

    def predict(self, pc: int) -> bool:
        """Predicted ACE-ness of a PC (unseen PCs default to ACE — the
        conservative, false-positive-only choice)."""
        return self.pc_table.get(pc, True)


def profile_program(
    program: SyntheticProgram,
    n_instructions: int = 100_000,
    window: int = 40_000,
    seed: int = 0,
) -> ProfileResult:
    """Run the offline vulnerability profiling pass.

    Walks the architecturally correct path for ``n_instructions`` and
    classifies every committed instance with a ``window``-instruction
    post-graduation window, then aggregates per-PC instance counts.

    The classification is the pipeline analyzer's backward sweep
    (:func:`~repro.reliability.ace.sweep`) over the whole trace as one
    final block: instance ``i`` is ACE iff the earliest commit index
    ``m`` at which a later reader of its result becomes ACE lies no
    later than ``i + window``.
    """
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    if window <= 0:
        raise ValueError("window must be positive")

    # Forward: the committed stream, one StaticInst per instance, a
    # block at a time.
    trace: list[StaticInst] = []
    for block, start, stop, _, _ in ThreadContext(program, seed=seed).walk(n_instructions):
        trace.extend(block.insts[start:stop])

    # Backward: the whole trace is one final block.  Counting from the
    # end keeps the per-PC tables in the order a backward pass meets them.
    flags = sweep(trace, 0, window, live=False).flags[::-1]
    pcs = [st.pc for st in reversed(trace)]
    ace_instances = dict(Counter(compress(pcs, flags)))
    unace_instances = dict(Counter(compress(pcs, [not flag for flag in flags])))
    pc_table = dict.fromkeys(unace_instances, False)
    pc_table.update(dict.fromkeys(ace_instances, True))
    return ProfileResult(
        program_name=program.name,
        instructions=n_instructions,
        pc_table=pc_table,
        ace_instances=ace_instances,
        unace_instances=unace_instances,
    )


def apply_profile(program: SyntheticProgram, profile: ProfileResult) -> int:
    """Write the profiled ACE bit into the program image's ``ace_hint``
    (the paper's 1-bit ISA extension).  Returns the number of static
    instructions tagged un-ACE."""
    n_unace = 0
    for st in program.all_insts():
        st.ace_hint = profile.predict(st.pc)
        if not st.ace_hint:
            n_unace += 1
    return n_unace


def profile_and_apply(
    program: SyntheticProgram,
    n_instructions: int = 100_000,
    window: int = 40_000,
    seed: int = 0,
) -> ProfileResult:
    """Convenience: profile then tag the program image."""
    result = profile_program(program, n_instructions, window, seed)
    apply_profile(program, result)
    return result
