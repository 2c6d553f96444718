"""Per-call reference for the pipeline's back-end stages.

The module-level functions are the per-instruction form of each step
``SMTPipeline``'s dispatch, issue, writeback and commit loops do inline
on the components' attributes: ``iq_insert``, ``iq_wakeup``,
``iq_remove_issued``, ``select``, ``resolve_sources``/``set_dest``,
``rob_push``/``rob_commit_head``, ``lsq_push``, ``fu_try_issue`` and
``ace_commit``.  Predicted-ACE bits come from
``AVFAccount.iq_pred_bits``/``rob_pred_bits`` through :func:`pred_bits`.

:class:`ReferencePipeline` runs the four stages through these
functions, one call per instruction; the tests hold it and the
pipeline to equal results, and the component unit tests use the
functions directly.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence

from repro.config import MachineConfig, ReliabilityConfig
from repro.core.functional_units import OP_FU, FunctionalUnitPool
from repro.core.issue_queue import IQInvariantError, IssueQueue
from repro.core.lsq import LoadStoreQueue
from repro.core.pipeline import SMTPipeline
from repro.core.rename import RenameTable
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import IssueScheduler
from repro.isa.instruction import OP_IS_MEM, DynInst, DynState, OpClass
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.avf import AVFAccount
from repro.telemetry.topics import TOPIC_COMMIT, TOPIC_DVM_THROTTLE

_DISPATCHED = DynState.DISPATCHED
_ISSUED = DynState.ISSUED
_COMPLETED = DynState.COMPLETED
_COMMITTED = DynState.COMMITTED
_SQUASHED = DynState.SQUASHED
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_PREFETCH = OpClass.PREFETCH
_BRANCH = OpClass.BRANCH

#: Predicted-ACE bits of an IQ entry under the default bit layout.
IQ_PRED_BITS = AVFAccount(MachineConfig(), ReliabilityConfig().interval_cycles).iq_pred_bits


def pred_bits(table: Sequence[int], inst: DynInst) -> int:
    """``inst``'s entry in a predicted-bit table (``AVFAccount.iq_pred_bits``
    or ``rob_pred_bits``)."""
    return table[2 * inst.static.opclass + inst.ace_pred]


# ----------------------------------------------------------------------
# Issue queue
# ----------------------------------------------------------------------
def _ready_add(iq: IssueQueue, inst: DynInst) -> None:
    """Add ``inst`` to the ready set and its sorted tag list."""
    iq.ready[inst.tag] = inst
    tags = iq.ready_ace_tags if inst.ace_pred else iq.ready_plain_tags
    if not tags or inst.tag > tags[-1]:
        tags.append(inst.tag)  # common case: youngest so far
    else:
        insort(tags, inst.tag)
    if inst.ace_pred:
        iq.ready_pred_ace += 1


def iq_insert(
    iq: IssueQueue, inst: DynInst, cycle: int, bits: Sequence[int] = IQ_PRED_BITS
) -> None:
    """Dispatch ``inst`` into the IQ.

    The caller must have resolved ``inst.src_tags`` against the rename
    table (leaving only tags of still-executing producers).
    """
    if len(iq) >= iq.capacity:
        raise RuntimeError("issue queue overflow")
    inst.state = _DISPATCHED
    inst.dispatch_cycle = cycle
    inst.iq_slot = iq.free_slots.pop()
    if inst.src_tags:
        iq.waiting[inst.tag] = inst
        for t in inst.src_tags:
            iq.consumers.setdefault(t, []).append(inst)
    else:
        inst.ready_cycle = cycle
        _ready_add(iq, inst)
    iq.per_thread[inst.thread] += 1
    iq.pred_ace_bits += pred_bits(bits, inst)
    iq.inserted += 1


def iq_wakeup(iq: IssueQueue, tag: int, cycle: int) -> None:
    """Broadcast completion of producer ``tag``."""
    for inst in iq.consumers.pop(tag, ()):
        if inst.state != _DISPATCHED:
            continue  # squashed or already issued
        try:
            inst.src_tags.remove(tag)
        except ValueError:
            continue
        if not inst.src_tags and inst.tag in iq.waiting:
            del iq.waiting[inst.tag]
            inst.ready_cycle = cycle
            _ready_add(iq, inst)


def iq_remove_issued(
    iq: IssueQueue, inst: DynInst, bits: Sequence[int] = IQ_PRED_BITS
) -> None:
    """Deallocate the entry of an instruction selected for issue."""
    if iq.ready.pop(inst.tag, None) is None:
        where = "waiting" if inst.tag in iq.waiting else "absent"
        raise IQInvariantError(
            f"remove_issued: instruction tag={inst.tag} thread={inst.thread} "
            f"state={inst.state.name} is not in the ready set ({where}); "
            "only scheduler-selected ready instructions may issue"
        )
    if inst.ace_pred:
        iq.ready_ace_tags.remove(inst.tag)
        iq.ready_pred_ace -= 1
    else:
        iq.ready_plain_tags.remove(inst.tag)
    iq.per_thread[inst.thread] -= 1
    iq.pred_ace_bits -= pred_bits(bits, inst)
    iq.free_slots.append(inst.iq_slot)


def iq_squash(
    iq: IssueQueue, tid: int, after_tag: int, bits: Sequence[int] = IQ_PRED_BITS
) -> list[DynInst]:
    """``IssueQueue.squash_thread`` plus the predicted bits the
    pipeline's squash takes off for the removed entries."""
    removed = iq.squash_thread(tid, after_tag)
    iq.pred_ace_bits -= sum(pred_bits(bits, inst) for inst in removed)
    return removed


def ready_ages(iq: IssueQueue) -> list[DynInst]:
    """Ready instructions in age (tag) order."""
    return [iq.ready[tag] for tag in sorted(iq.ready_ace_tags + iq.ready_plain_tags)]


def select(scheduler: IssueScheduler, iq: IssueQueue, width: int) -> list[DynInst]:
    """Up to ``width`` ready instructions in priority order."""
    ready = iq.ready
    return [ready[tag] for tag in scheduler.ready_tags(iq)[:width]]


# ----------------------------------------------------------------------
# Rename, ROB, LSQ, FUs, ACE analyzer
# ----------------------------------------------------------------------
def resolve_sources(rename: RenameTable, inst: DynInst) -> None:
    """Fill ``inst.src_tags`` with the tags of still-pending producers
    of its architectural sources."""
    pending: list[int] = []
    for reg in inst.static.srcs:
        producer = rename.producers.get(reg)
        if producer is not None and producer.state not in (_COMPLETED, _COMMITTED):
            if producer.state == _SQUASHED:
                continue  # stale mapping; treat as available
            if producer.tag not in pending:
                pending.append(producer.tag)
    inst.src_tags = pending


def set_dest(rename: RenameTable, inst: DynInst) -> None:
    """Record ``inst`` as the youngest producer of its destination,
    remembering the previous producer for squash repair."""
    dest = inst.static.dest
    if dest >= 0:
        inst.prev_producer = rename.producers.get(dest)
        rename.producers[dest] = inst


def rob_push(rob: ReorderBuffer, inst: DynInst) -> None:
    if len(rob.entries) >= rob.capacity:
        raise RuntimeError(f"ROB of thread {rob.thread} overflow")
    rob.entries.append(inst)


def rob_head(rob: ReorderBuffer) -> DynInst | None:
    return rob.entries[0] if rob.entries else None


def rob_commit_head(rob: ReorderBuffer) -> DynInst:
    """Retire the head entry."""
    inst = rob.entries.popleft()
    inst.state = _COMMITTED
    return inst


def lsq_push(lsq: LoadStoreQueue, inst: DynInst) -> None:
    if len(lsq.entries) >= lsq.capacity:
        raise RuntimeError(f"LSQ of thread {lsq.thread} overflow")
    lsq.entries[inst.tag] = inst


def fu_try_issue(fus: FunctionalUnitPool, opclass: OpClass) -> bool:
    """Reserve a unit slot for this cycle; False if the pool is dry."""
    kind = OP_FU[opclass]
    if fus.used[kind] >= fus.limits[kind]:
        return False
    fus.used[kind] += 1
    fus.busy_integral += 1
    return True


def fu_available(fus: FunctionalUnitPool, opclass: OpClass) -> int:
    kind = OP_FU[opclass]
    return fus.limits[kind] - fus.used[kind]


def ace_commit(analyzer: ACEAnalyzer, dyn: DynInst, cycle: int) -> None:
    """Feed one committed instruction (program order per thread),
    recording ``cycle`` as its commit cycle."""
    dyn.commit_cycle = cycle
    block = analyzer.blocks[dyn.thread]
    block.append(dyn)
    if len(block) >= analyzer.block_size:
        analyzer.close_block(dyn.thread)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
def _get_tag(inst: DynInst) -> int:
    return inst.tag


class ReferencePipeline(SMTPipeline):
    """``SMTPipeline`` whose back-end stages make one call per step."""

    def _commit(self) -> None:
        budget = self.machine.commit_width
        n = self.machine.num_threads
        cycle = self.cycle
        start = cycle % n
        emit_commit = self._want_commit
        bus = self.bus
        for i in range(n):
            t = (start + i) % n
            rob = self.robs[t]
            while budget > 0:
                head = rob_head(rob)
                if head is None or head.state != _COMPLETED:
                    break
                rob_commit_head(rob)
                # Only squash repair reads this link; unbroken, it would
                # chain every earlier writer of the register into memory.
                head.prev_producer = None
                head.commit_cycle = cycle
                self.rob_pred_ace_bits -= pred_bits(self.avf.rob_pred_bits, head)
                st = head.static
                op = st.opclass
                if OP_IS_MEM[op]:
                    self.lsqs[t].remove(head)
                    if op == _STORE and head.mem_addr >= 0:
                        self.mem.access_data(head.mem_addr, t, is_write=True)
                elif op == _BRANCH:
                    self.bp.update_direction(
                        st.pc, t, head.actual_taken, head.pred_taken,
                        idx=head.bp_index if head.bp_index >= 0 else None,
                    )
                    if head.actual_taken:
                        self.bp.btb_update(st.pc, st.taken_block)
                self.committed_per_thread[t] += 1
                self.total_committed += 1
                self._int_committed += 1
                self._int_committed_pt[t] += 1
                ace_commit(self.analyzer, head, cycle)
                if emit_commit:
                    bus.emit(TOPIC_COMMIT, inst=head)
                budget -= 1

    def _writeback(self) -> None:
        cycle = self.cycle
        events = self._wheel.pop(cycle, None)
        if not events:
            return
        events.sort(key=_get_tag)  # resolve older branches first
        policy = self.active_fetch_policy()
        for inst in events:
            if inst.state == _SQUASHED:
                continue
            inst.state = _COMPLETED
            inst.complete_cycle = cycle
            iq_wakeup(self.iq, inst.tag, cycle)
            if inst.static.opclass == _LOAD:
                t = inst.thread
                if inst.l1_miss:
                    self._outstanding_l1d[t] -= 1
                if inst.l2_miss:
                    self._outstanding_l2[t] -= 1
                    if self._outstanding_l2[t] == 0:
                        policy.on_l2_return(self, t)
                policy.on_load_left(self, inst)
            if inst.mispredicted and inst.state != _SQUASHED:
                self._recover_branch(inst)

    def _issue(self) -> None:
        self.fus.new_cycle()
        width = self.machine.issue_width
        iq = self.iq
        if iq.ready:
            # Walk the full ready order: instructions blocked on a dry
            # FU pool are skipped over until the issue width fills or
            # candidates exhaust.
            issued = 0
            for tag in self.scheduler.ready_tags(iq):
                inst = iq.ready[tag]
                if not fu_try_issue(self.fus, inst.static.opclass):
                    continue
                self._issue_one(inst)
                issued += 1
                if issued >= width:
                    break
        if self._pending_flushes:
            for tid, after_tag in self._pending_flushes:
                self._do_flush(tid, after_tag)
            self._pending_flushes.clear()

    def _issue_one(self, inst: DynInst) -> None:
        cycle = self.cycle
        iq_remove_issued(self.iq, inst, self.avf.iq_pred_bits)
        inst.state = _ISSUED
        inst.issue_cycle = cycle
        inst.iq_leave_cycle = cycle
        t = inst.thread
        st = inst.static
        op = st.opclass
        if OP_IS_MEM[op]:
            addr = self.contexts[t].mem_address(st, inst.stream_pos)
            inst.mem_addr = addr
        if op == _LOAD:
            policy = self.active_fetch_policy()
            if self.lsqs[t].can_forward(addr):
                latency = 1
            else:
                res = self.mem.access_data(addr, t)
                latency = res.latency
                if res.l1_miss:
                    inst.l1_miss = True
                    self._outstanding_l1d[t] += 1
                if res.l2_miss:
                    inst.l2_miss = True
                    self._outstanding_l2[t] += 1
                    policy.on_l2_miss(self, inst)
                    if self.dvm is not None:
                        self.dvm.on_l2_miss()
                policy.on_load_resolved(self, inst, res.l1_miss)
        elif op == _PREFETCH:
            self.mem.access_data(addr, t)  # warms the caches, non-blocking
            latency = 1
        elif op == _STORE:
            self.lsqs[t].note_store_address(inst)
            latency = 1  # address generation; data written at commit
        else:
            latency = self._op_latency[op]
        inst.exec_latency = latency
        wheel = self._wheel
        due = cycle + latency
        events = wheel.get(due)
        if events is None:
            wheel[due] = [inst]
        else:
            events.append(inst)

    def _dispatch(self) -> None:
        budget = self.machine.decode_width
        iql = self.dispatch_policy.iq_limit
        dvm = self.dvm
        if dvm is not None:
            self._update_dvm_restore()
        iq = self.iq
        iq_waiting = iq.waiting
        iq_ready = iq.ready
        iq_capacity = iq.capacity
        fetch_q = self.fetch_q
        per_thread = iq.per_thread
        cycle = self.cycle
        # ICOUNT-ordered dispatch (ICOUNT metric, then thread id).
        order = sorted([(len(fetch_q[t]) + per_thread[t], t) for t in range(len(fetch_q))])
        for _, t in order:
            fq = fetch_q[t]
            if not fq:
                continue
            if dvm is not None:
                if not dvm.allow_dispatch(t):
                    continue
                # While the response mechanism is armed, threads with an
                # outstanding L2 miss stop dispatching: their dependent
                # ACE bits would sit in the IQ for hundreds of cycles
                # (Section 5.1); the freed slots go to other threads.
                if dvm.triggered and self._outstanding_l2[t] > 0 and t != dvm.restore_thread:
                    if self._want_throttle:
                        self.bus.emit(
                            TOPIC_DVM_THROTTLE,
                            thread=t,
                            outstanding_l2=self._outstanding_l2[t],
                        )
                    continue
            rob = self.robs[t]
            lsq = self.lsqs[t]
            rename = self.rename[t]
            rob_entries = rob.entries
            rob_capacity = rob.capacity
            while budget > 0 and fq:
                occupancy = len(iq_waiting) + len(iq_ready)
                if occupancy >= iql or occupancy >= iq_capacity:
                    return  # the shared IQ is the limit: nobody dispatches
                inst = fq[0]
                if len(rob_entries) >= rob_capacity:
                    break
                op = inst.static.opclass
                is_mem = OP_IS_MEM[op]
                if is_mem and len(lsq.entries) >= lsq.capacity:
                    break
                fq.popleft()
                resolve_sources(rename, inst)
                set_dest(rename, inst)
                rob_push(rob, inst)
                self.rob_pred_ace_bits += pred_bits(self.avf.rob_pred_bits, inst)
                if is_mem:
                    lsq_push(lsq, inst)
                iq_insert(iq, inst, cycle, self.avf.iq_pred_bits)
                if op == _LOAD:
                    self.active_fetch_policy().on_load_dispatch(self, inst)
                budget -= 1

