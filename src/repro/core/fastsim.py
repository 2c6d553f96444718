"""The fast simulation backend: a specialized engine for the pipeline model.

Executes exactly the per-stage contract of ``SMTPipeline.run`` (the
reference interpreter; see ``backend-contract.json``) but restructured
for throughput.  It starts from the same functional warm-up as the
reference engine, including the engine-independent warm-state snapshot
reuse of :mod:`repro.core.warmstate`, so the two engines differ only
in the cycle loop.  Two mechanisms carry its speed:

1. **A monolithic specialized cycle loop.**  The reference loop pays a
   method call plus dozens of attribute loads per stage per cycle; the
   fast loop inlines the stage bodies with component state hoisted to
   locals and the per-``OpClass`` predicates/latencies precomputed
   into flat struct-of-arrays tables (``OP_IS_MEM``/``OP_IS_CONTROL``
   from :mod:`repro.isa.instruction`, plus a latency table), indexed
   by the opclass ordinal instead of property calls.
   Selection runs on the issue queue's incrementally sorted tag arrays
   (the same age-ordered structure the reference scheduler uses), so
   no per-cycle sorting happens anywhere in the loop.  Rare paths
   (branch recovery, squash, flush, interval close) call the reference
   methods — single implementation, no drift.

2. **Event-driven idle-cycle skipping.**  When the machine is provably
   inert — no writeback wheel entry due, no committable ROB head, no
   ready instruction, no dispatchable or fetchable thread — whole
   cycle ranges are accounted in closed form (the per-cycle statistics
   are linear while state is frozen) and the loop jumps to the next
   event: wheel entry, fetch-stall expiry, DVM sample, ratio-gate
   recompute, interval close, warm-up mark or run end.  The skip is
   disabled for the round-robin fetch policy (its ``select`` mutates
   per cycle) and restricted to all-fetch-queues-empty when DVM is
   active (``allow_dispatch`` mutates throttle statistics), so every
   skipped cycle is byte-equivalent to executing it.

The engine mutates the pipeline object itself (components stay shared)
and reuses its epilogue (`analyzer.flush`/`avf.close`/`_build_result`),
so results are metric-for-metric comparable with the reference — the
differential suite asserts equality of the full ``SimulationResult``
on every figure configuration.  Stage-stamped telemetry is the one
observable difference: the fast loop runs bare-loop semantics (no
per-stage ``bus.stage`` stamps, no per-commit/squash event emission).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.warmstate import warm_start
from repro.frontend.fetch_policy import RoundRobinPolicy
from repro.isa.instruction import (
    OP_IS_CONTROL,
    OP_IS_MEM,
    DynInst,
    DynState,
    OpClass,
    op_latency_table,
)
from repro.reliability.avf import Structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SimulationResult, SMTPipeline

_GET_TAG = attrgetter("tag")


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def run_fast(pipe: "SMTPipeline") -> "SimulationResult":
    """Execute ``pipe`` to completion with the fast engine."""
    warm_start(pipe)
    final_cycle = _cycle_loop(pipe)
    if pipe.sim.warmup_cycles == 0:
        pipe._warm_committed_pt = [0] * pipe.num_threads
    pipe.analyzer.flush(final_cycle)
    pipe.avf.close(final_cycle)
    pipe._emit_divergence()
    return pipe._build_result(final_cycle)


def _cycle_loop(pipe: "SMTPipeline") -> int:
    """The monolithic cycle loop.  Returns the final cycle count.

    Reads/writes the same pipeline state as the reference stage
    methods, in the same per-cycle order (commit → writeback → issue →
    dispatch → fetch → stats).  Scalars that only this loop touches are
    hoisted to locals and written back on exit; state that the shared
    rare-path helpers (``_recover_branch``/``_squash_thread``/
    ``_do_flush``/``_close_interval``) read or write stays on the
    pipeline object (or is an aliased mutable container).
    """
    machine = pipe.machine
    sim = pipe.sim
    rel = sim.reliability
    n = machine.num_threads

    # Per-opclass latency table for the non-memory else-branch of issue.
    lat_table = pipe._op_latency

    # Machine scalars.
    commit_width = machine.commit_width
    issue_width = machine.issue_width
    decode_width = machine.decode_width
    fetch_width = machine.fetch_width
    fq_cap = machine.fetch_queue_size
    iq_capacity = machine.iq_size
    rob_capacity = machine.rob_size_per_thread
    lsq_capacity = machine.lsq_size_per_thread
    l1i_latency = machine.l1i.latency
    iline_shift = pipe._iline_shift

    # Run-control scalars.
    max_cycles = sim.max_cycles
    warmup_cycles = sim.warmup_cycles
    max_insts = sim.max_instructions
    # Unreachable sentinel when no budget: commit_width bounds per-cycle
    # commits, so total_committed can never reach it.
    max_insts_chk = (
        max_insts if max_insts is not None else max_cycles * machine.commit_width + 1
    )
    interval_cycles = rel.interval_cycles
    ratio_period = rel.dvm_ratio_period
    sample_period = pipe._sample_period

    # Components (aliased: helpers mutate the same objects/lists).
    iq = pipe.iq
    iq_waiting = iq.waiting
    iq_ready = iq.ready
    iq_insert = iq.insert
    iq_wakeup = iq.wakeup
    iq_remove = iq.remove_issued
    per_thread = iq.per_thread
    robs = pipe.robs
    lsqs = pipe.lsqs
    rename = pipe.rename
    fetch_q = pipe.fetch_q
    contexts = pipe.contexts
    wheel = pipe._wheel
    pending_flushes = pipe._pending_flushes
    stall_until = pipe.fetch_stall_until
    last_fetch_line = pipe._last_fetch_line
    outstanding_l1d = pipe._outstanding_l1d
    outstanding_l2 = pipe._outstanding_l2
    committed_per_thread = pipe.committed_per_thread
    fus = pipe.fus
    fus_new_cycle = fus.new_cycle
    try_issue = fus.try_issue
    ready_order = pipe.scheduler.ready_order
    access_data = pipe.mem.access_data
    access_instr = pipe.mem.access_instr
    bp_update_direction = pipe.bp.update_direction
    bp_btb_update = pipe.bp.btb_update
    analyzer_commit = pipe.analyzer.commit
    rob_bits_pred = pipe.avf.rob_bits_pred
    dispatch_policy = pipe.dispatch_policy
    active_policy = pipe.active_fetch_policy
    dvm = pipe.dvm
    dvm_rob = pipe.dvm_structure == Structure.ROB
    cap_bits = pipe.avf.capacity_bits(pipe.dvm_structure)
    recover_branch = pipe._recover_branch
    do_flush = pipe._do_flush
    fetch_control = pipe._fetch_control
    update_dvm_restore = pipe._update_dvm_restore
    hist = pipe._hist
    hist_ace = pipe._hist_ace

    # DynState singletons.
    st_completed = DynState.COMPLETED
    st_issued = DynState.ISSUED
    st_committed = DynState.COMMITTED
    st_squashed = DynState.SQUASHED
    st_dispatched = DynState.DISPATCHED
    op_load = OpClass.LOAD
    op_store = OpClass.STORE
    op_branch = OpClass.BRANCH
    op_prefetch = OpClass.PREFETCH
    is_mem_tab = OP_IS_MEM
    is_control_tab = OP_IS_CONTROL

    # Loop-local accumulators (synced back on exit / interval close).
    total_committed = pipe.total_committed
    next_tag = pipe._next_tag
    int_committed = pipe._int_committed
    int_committed_pt = pipe._int_committed_pt
    int_rql_sum = pipe._int_rql_sum
    int_wql_sum = pipe._int_wql_sum
    int_online_bit_cycles = pipe._int_online_bit_cycles
    int_online_rob_bit_cycles = pipe._int_online_rob_bit_cycles
    sample_bit_cycles = pipe._sample_bit_cycles
    sample_cycles = pipe._sample_cycles
    skipped_cycles = 0

    # Idle skipping is exact only for fetch policies whose select() is
    # pure; round-robin rotates internal state every cycle.
    skip_ok = not isinstance(pipe.base_fetch_policy, RoundRobinPolicy)
    order_buf: list[tuple[int, int]] = []
    warm_marked = False
    inf = max_cycles + 1

    cycle = 0
    while cycle < max_cycles:
        pipe.cycle = cycle
        if not warm_marked and cycle >= warmup_cycles:
            # >= not ==: the idle skip may jump the boundary cycle, but
            # commits are frozen while skipping, so the captured counts
            # are identical to marking exactly at ``warmup_cycles``.
            pipe._warm_committed_pt = committed_per_thread[:]
            warm_marked = True

        # ---------------- commit ----------------
        budget = commit_width
        start = cycle % n
        for i in range(n):
            t = start + i
            if t >= n:
                t -= n
            rob_entries = robs[t].entries
            while budget > 0:
                if not rob_entries:
                    break
                head = rob_entries[0]
                if head.state != st_completed:
                    break
                rob_entries.popleft()
                head.state = st_committed
                head.commit_cycle = cycle
                pipe.rob_pred_ace_bits -= rob_bits_pred(head)
                hst = head.static
                op = hst.opclass
                if is_mem_tab[op]:
                    lsqs[t].remove(head)
                    if op == op_store and head.mem_addr >= 0:
                        access_data(head.mem_addr, t, is_write=True)
                elif op == op_branch:
                    bp_update_direction(
                        hst.pc, t, head.actual_taken, head.pred_taken,
                        idx=head.bp_index if head.bp_index >= 0 else None,
                    )
                    if head.actual_taken:
                        bp_btb_update(hst.pc, hst.taken_block)
                committed_per_thread[t] += 1
                total_committed += 1
                int_committed += 1
                int_committed_pt[t] += 1
                analyzer_commit(head, cycle)
                budget -= 1

        # ---------------- writeback ----------------
        events = wheel.pop(cycle, None)
        if events:
            events.sort(key=_GET_TAG)  # resolve older branches first
            policy = active_policy()
            for inst in events:
                if inst.state == st_squashed:
                    continue
                inst.state = st_completed
                inst.complete_cycle = cycle
                iq_wakeup(inst.tag, cycle)
                if inst.static.opclass == op_load:
                    t = inst.thread
                    if inst.l1_miss:
                        outstanding_l1d[t] -= 1
                    if inst.l2_miss:
                        outstanding_l2[t] -= 1
                        if outstanding_l2[t] == 0:
                            policy.on_l2_return(pipe, t)
                    policy.on_load_left(pipe, inst)
                if inst.mispredicted and inst.state != st_squashed:
                    recover_branch(inst)

        # ---------------- issue ----------------
        fus_new_cycle()
        if iq_ready:
            issued = 0
            for inst in ready_order(iq):
                if inst.state != st_dispatched:
                    continue
                ist = inst.static
                op = ist.opclass
                if not try_issue(op):
                    continue
                # _issue_one, inlined.
                iq_remove(inst)
                inst.state = st_issued
                inst.issue_cycle = cycle
                inst.iq_leave_cycle = cycle
                t = inst.thread
                policy = active_policy()
                if op == op_load:
                    addr = contexts[t].mem_address(ist, inst.stream_pos)
                    inst.mem_addr = addr
                    if lsqs[t].can_forward(addr):
                        latency = 1
                    else:
                        res = access_data(addr, t)
                        latency = res.latency
                        if res.l1_miss:
                            inst.l1_miss = True
                            outstanding_l1d[t] += 1
                        if res.l2_miss:
                            inst.l2_miss = True
                            outstanding_l2[t] += 1
                            policy.on_l2_miss(pipe, inst)
                            if dvm is not None:
                                dvm.on_l2_miss()
                        policy.on_load_resolved(pipe, inst, res.l1_miss)
                elif op == op_prefetch:
                    addr = contexts[t].mem_address(ist, inst.stream_pos)
                    inst.mem_addr = addr
                    access_data(addr, t)  # warms the caches, non-blocking
                    latency = 1
                elif op == op_store:
                    addr = contexts[t].mem_address(ist, inst.stream_pos)
                    inst.mem_addr = addr
                    lsqs[t].note_store_address(inst)
                    latency = 1  # address generation; data written at commit
                else:
                    latency = lat_table[op]
                inst.exec_latency = latency
                ev = cycle + latency
                lst = wheel.get(ev)
                if lst is None:
                    wheel[ev] = [inst]  # lint: disable=hot-loop-alloc
                else:
                    lst.append(inst)
                issued += 1
                if issued >= issue_width:
                    break
        if pending_flushes:
            for tid, after_tag in pending_flushes:
                do_flush(tid, after_tag)
            del pending_flushes[:]

        # ---------------- dispatch ----------------
        budget = decode_width
        iql = dispatch_policy.iq_limit
        if dvm is not None:
            update_dvm_restore()
        del order_buf[:]
        for t in range(n):
            order_buf.append((len(fetch_q[t]) + per_thread[t], t))
        order_buf.sort()
        for _, t in order_buf:
            fq = fetch_q[t]
            if not fq:
                continue
            if dvm is not None:
                if not dvm.allow_dispatch(t):
                    continue
                # Armed response mechanism: L2-stalled threads stop
                # dispatching (Section 5.1), bar the restore thread.
                if (
                    dvm.triggered
                    and outstanding_l2[t] > 0
                    and t != dvm.restore_thread
                ):
                    continue
            rob = robs[t]
            lsq = lsqs[t]
            ren = rename[t]
            stop = False
            while budget > 0 and fq:
                occ = len(iq_waiting) + len(iq_ready)
                if occ >= iql or occ >= iq_capacity:
                    stop = True  # the shared IQ is the limit: nobody dispatches
                    break
                inst = fq[0]
                if len(rob.entries) >= rob_capacity:
                    break
                op = inst.static.opclass
                is_mem = is_mem_tab[op]
                if is_mem and len(lsq.entries) >= lsq_capacity:
                    break
                fq.popleft()
                ren.resolve_sources(inst)
                ren.set_dest(inst)
                rob.entries.append(inst)  # capacity checked above
                pipe.rob_pred_ace_bits += rob_bits_pred(inst)
                if is_mem:
                    lsq.entries[inst.tag] = inst  # capacity checked above
                iq_insert(inst, cycle)
                if op == op_load:
                    active_policy().on_load_dispatch(pipe, inst)
                budget -= 1
            if stop:
                break

        # ---------------- fetch ----------------
        policy = active_policy()
        allowed = policy.select(pipe)
        budget = fetch_width
        threads_used = 0
        for t in allowed:
            if budget <= 0 or threads_used >= 2:  # _FETCH_THREADS_PER_CYCLE
                break
            if cycle < stall_until[t]:
                continue
            fq = fetch_q[t]
            if len(fq) >= fq_cap:
                continue
            threads_used += 1
            ctx = contexts[t]
            taken_budget = 2  # fetch through up to two taken transfers
            while budget > 0 and len(fq) < fq_cap:
                stat = ctx.peek()
                line = stat.pc >> iline_shift
                if line != last_fetch_line[t]:
                    res = access_instr(stat.pc, t)
                    last_fetch_line[t] = line
                    if res.latency > l1i_latency:
                        stall_until[t] = cycle + res.latency
                        break
                inst = DynInst(
                    tag=next_tag,
                    thread=t,
                    static=stat,
                    stream_pos=ctx.stream_pos,
                )
                next_tag += 1
                inst.fetch_cycle = cycle
                inst.ace_pred = stat.ace_hint
                inst.checkpoint = ctx.checkpoint()
                took_transfer = False
                if is_control_tab[stat.opclass]:
                    took_transfer = fetch_control(inst, ctx, t)
                else:
                    ctx.advance()
                fq.append(inst)
                budget -= 1
                if took_transfer:
                    taken_budget -= 1
                    if taken_budget <= 0:
                        break

        # ---------------- per-cycle stats ----------------
        rql = len(iq_ready)
        wql = len(iq_waiting)
        int_rql_sum += rql
        int_wql_sum += wql
        pab = iq.pred_ace_bits
        rpab = pipe.rob_pred_ace_bits
        int_online_bit_cycles += pab
        int_online_rob_bit_cycles += rpab
        sample_bit_cycles += rpab if dvm_rob else pab
        sample_cycles += 1
        if hist is not None and cycle >= warmup_cycles:
            hist[rql] += 1
            hist_ace[rql] += iq.ready_pred_ace
        if dvm is not None and cycle % ratio_period == 0:
            dvm.recompute_ratio_gate(wql, rql)
        if (cycle + 1) % sample_period == 0:
            est = sample_bit_cycles / (sample_cycles * cap_bits)
            if dvm is not None:
                dvm.on_sample(est)
            sample_bit_cycles = 0
            sample_cycles = 0
        if (cycle + 1) % interval_cycles == 0:
            pipe._int_committed = int_committed
            pipe._int_committed_pt = int_committed_pt
            pipe._int_rql_sum = int_rql_sum
            pipe._int_wql_sum = int_wql_sum
            pipe._int_online_bit_cycles = int_online_bit_cycles
            pipe._int_online_rob_bit_cycles = int_online_rob_bit_cycles
            pipe._close_interval()
            int_committed = 0
            int_committed_pt = pipe._int_committed_pt
            int_rql_sum = 0
            int_wql_sum = 0
            int_online_bit_cycles = 0
            int_online_rob_bit_cycles = 0

        if total_committed >= max_insts_chk:
            break
        cycle += 1

        # ---------------- event-driven idle skip ----------------
        # A cycle range [cycle, s) may be accounted in closed form when
        # every stage is provably a no-op for all of it: no due wheel
        # entry, no committable head, no ready instruction, no pending
        # flush, nothing dispatchable, nothing fetchable.  Per-cycle
        # statistics are linear in that regime.
        if skip_ok and cycle < max_cycles and not iq_ready and not pending_flushes and wheel:
            idle = True
            for rob in robs:
                e = rob.entries
                if e and e[0].state == st_completed:
                    idle = False
                    break
            if idle:
                all_fq_empty = True
                for fq in fetch_q:
                    if fq:
                        all_fq_empty = False
                        break
                if dvm is not None:
                    # allow_dispatch mutates throttle statistics, so the
                    # skip needs dispatch to never even consider a
                    # thread: every fetch queue must be empty.
                    idle = all_fq_empty
                else:
                    occ = len(iq_waiting) + len(iq_ready)
                    idle = all_fq_empty or occ >= dispatch_policy.iq_limit or occ >= iq_capacity
            if idle:
                # Stop points: next wheel event, sample trigger,
                # interval close, ratio-gate recompute (DVM only),
                # warm-up mark, run end.
                s = min(wheel)
                c_sample = ((cycle + sample_period) // sample_period) * sample_period - 1
                if c_sample < s:
                    s = c_sample
                c_int = ((cycle + interval_cycles) // interval_cycles) * interval_cycles - 1
                if c_int < s:
                    s = c_int
                if dvm is not None:
                    c_ratio = ((cycle + ratio_period - 1) // ratio_period) * ratio_period
                    if c_ratio < s:
                        s = c_ratio
                if cycle < warmup_cycles < s:
                    s = warmup_cycles
                if s > max_cycles:
                    s = max_cycles
                # Fetch screen: every policy-allowed thread must be
                # stalled (bounding s) or have a full fetch queue.
                if s > cycle:
                    for t in active_policy().select(pipe):
                        if len(fetch_q[t]) >= fq_cap:
                            continue
                        su = stall_until[t]
                        if su <= cycle:
                            s = cycle  # fetchable right now: no skip
                            break
                        if su < s:
                            s = su
                if s > cycle:
                    if dvm is not None:
                        # The reference calls this every cycle; with
                        # frozen inputs it converges after one call.
                        update_dvm_restore()
                    k = s - cycle
                    int_wql_sum += wql * k
                    int_online_bit_cycles += pab * k
                    int_online_rob_bit_cycles += rpab * k
                    sample_bit_cycles += (rpab if dvm_rob else pab) * k
                    sample_cycles += k
                    if hist is not None and cycle >= warmup_cycles:
                        hist[0] += k  # ready queue is empty throughout
                    skipped_cycles += k
                    cycle = s
                    pipe.cycle = s - 1

    if not warm_marked and cycle >= warmup_cycles and warmup_cycles < max_cycles:
        # The idle skip jumped from pre-warm-up straight to the end of
        # the run: commits were frozen the whole way, so the current
        # counts equal what the boundary-cycle mark would have captured.
        pipe._warm_committed_pt = committed_per_thread[:]

    # ---------------- writeback of hoisted scalars ----------------
    pipe.total_committed = total_committed
    pipe._next_tag = next_tag
    pipe._int_committed = int_committed
    pipe._int_committed_pt = int_committed_pt
    pipe._int_rql_sum = int_rql_sum
    pipe._int_wql_sum = int_wql_sum
    pipe._int_online_bit_cycles = int_online_bit_cycles
    pipe._int_online_rob_bit_cycles = int_online_rob_bit_cycles
    pipe._sample_bit_cycles = sample_bit_cycles
    pipe._sample_cycles = sample_cycles
    pipe.fast_skipped_cycles = skipped_cycles
    return pipe.cycle + 1
