"""Per-call reference for the pipeline's back-end stages.

:class:`ReferencePipeline` runs commit, writeback, issue and dispatch
through the component methods, one call per instruction:
``ReorderBuffer.head``/``commit_head``, ``ACEAnalyzer.commit``,
``IssueQueue.wakeup``/``remove_issued``/``insert``,
``FunctionalUnitPool.try_issue``, ``IssueScheduler.ready_order``,
``RenameTable.resolve_sources``/``set_dest``, ``ReorderBuffer.push``,
``LoadStoreQueue.push`` and ``AVFAccount.rob_bits_pred``.

This is the direct form of what ``SMTPipeline``'s stages do on the
components' attributes inside their own loops; the tests hold the two
to equal results.
"""

from __future__ import annotations

from repro.core.pipeline import SMTPipeline
from repro.isa.instruction import OP_IS_MEM, DynInst, DynState, OpClass
from repro.telemetry.topics import TOPIC_COMMIT, TOPIC_DVM_THROTTLE

_DISPATCHED = DynState.DISPATCHED
_ISSUED = DynState.ISSUED
_COMPLETED = DynState.COMPLETED
_SQUASHED = DynState.SQUASHED
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_PREFETCH = OpClass.PREFETCH
_BRANCH = OpClass.BRANCH


def _get_tag(inst: DynInst) -> int:
    return inst.tag


class ReferencePipeline(SMTPipeline):
    """``SMTPipeline`` whose back-end stages call the component methods."""

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
                head = rob.head()
                if head is None or head.state != _COMPLETED:
                    break
                rob.commit_head()
                # Only squash repair reads this link; unbroken, it would
                # chain every earlier writer of the register into memory.
                head.prev_producer = None
                head.commit_cycle = cycle
                self.rob_pred_ace_bits -= self.avf.rob_bits_pred(head)
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
                self.analyzer.commit(head, cycle)
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
            self.iq.wakeup(inst.tag, cycle)
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
        if self.iq.ready:
            # Walk the full ready order lazily: instructions blocked on
            # a dry FU pool are skipped over until the issue width fills
            # or candidates exhaust.  A fixed over-selection window
            # (formerly width * 2) starves eligible younger entries
            # whenever more than the window is blocked on one FU kind.
            issued = 0
            try_issue = self.fus.try_issue
            for inst in self.scheduler.ready_order(self.iq):
                if inst.state != _DISPATCHED:
                    continue
                if not try_issue(inst.static.opclass):
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
        self.iq.remove_issued(inst)
        inst.state = _ISSUED
        inst.issue_cycle = cycle
        inst.iq_leave_cycle = cycle
        t = inst.thread
        st = inst.static
        op = st.opclass
        if op == _LOAD:
            policy = self.active_fetch_policy()
            addr = self.contexts[t].mem_address(st, inst.stream_pos)
            inst.mem_addr = addr
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
            addr = self.contexts[t].mem_address(st, inst.stream_pos)
            inst.mem_addr = addr
            self.mem.access_data(addr, t)  # warms the caches, non-blocking
            latency = 1
        elif op == _STORE:
            addr = self.contexts[t].mem_address(st, inst.stream_pos)
            inst.mem_addr = addr
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
                rename.resolve_sources(inst)
                rename.set_dest(inst)
                rob.push(inst)
                self.rob_pred_ace_bits += self.avf.rob_bits_pred(inst)
                if is_mem:
                    lsq.push(inst)
                iq.insert(inst, cycle)
                if op == _LOAD:
                    self.active_fetch_policy().on_load_dispatch(self, inst)
                budget -= 1

