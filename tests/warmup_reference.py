"""Per-instruction reference for the functional warm-up.

One step of the thread context per instruction: an instruction-cache
access whenever the fetch line changes, a data access per memory
instruction, and a branch-predictor update per control instruction,
each through the hierarchy's and predictor's per-access methods.

This is the direct form of what ``SMTPipeline._warm_thread`` computes
a basic block at a time with one batched memory replay; the tests hold
the two to equal post-warm-up state.
"""

from __future__ import annotations

from repro.core.pipeline import SMTPipeline
from repro.isa.instruction import OP_IS_CONTROL, OP_IS_MEM, OpClass


def warm_thread(pipe: SMTPipeline, t: int, n_insts: int) -> None:
    """Replay ``n_insts`` of thread ``t``'s correct path into ``pipe``."""
    ctx = pipe.contexts[t]
    mem = pipe.mem
    bp = pipe.bp
    iline_shift = pipe.machine.l1i.line_size.bit_length() - 1
    last_line = -1
    for _ in range(n_insts):
        st = ctx.peek()
        pc = st.pc
        line = pc >> iline_shift
        if line != last_line:
            mem.access_instr(pc, t)
            last_line = line
        op = st.opclass
        if OP_IS_MEM[op]:
            mem.access_data(ctx.mem_address(st, ctx.stream_pos), t, op == OpClass.STORE)
        if OP_IS_CONTROL[op]:
            taken, target = ctx.resolve_control(st)
            if op == OpClass.BRANCH:
                pred, idx = bp.predict_direction(pc, t)
                bp.update_direction(pc, t, taken, pred, idx)
                if taken:
                    bp.btb_update(pc, st.taken_block)
            elif op == OpClass.CALL:
                bp.ras_push(t, st.fall_block if st.fall_block >= 0 else 0)
            elif op == OpClass.RET:
                bp.ras_pop(t)
            ctx.advance_control(st, taken, target)
        else:
            ctx.advance()


def functional_warmup(pipe: SMTPipeline) -> None:
    """``SMTPipeline._functional_warmup`` over :func:`warm_thread`,
    without its progress events."""
    n_insts = pipe.sim.bp_warmup_instructions
    if n_insts <= 0:
        return
    for t in range(len(pipe.programs)):
        warm_thread(pipe, t, n_insts)
    pipe.bp.reset_stats()
    pipe.mem.reset_stats()
