"""The top-level SMT out-of-order pipeline.

An execution-driven, cycle-level model of the Table 2 machine: per
cycle it commits (in order, per thread), writes back completed
operations (waking IQ consumers and resolving branches), issues from
the shared IQ through the configured scheduler, dispatches renamed
instructions under the configured resource-allocation/DVM constraints,
and fetches down (possibly wrong) predicted paths under the configured
SMT fetch policy.

Stage order within a cycle is reverse-pipeline (commit → writeback →
issue → dispatch → fetch) so instructions take at least one cycle per
stage and wakeup enables back-to-back dependent issue.

The pipeline implements the ``CoreView`` protocol consumed by fetch
policies and is the integration point of the paper's mechanisms: the
VISA scheduler (Section 2.1), dynamic IQ resource allocation
(Section 2.2, Figures 3–4) and DVM (Section 5, Figure 7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import numpy.typing as npt

from repro.config import MachineConfig, SimulationConfig
from repro.core.functional_units import FunctionalUnitPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameTable
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import IssueScheduler, make_scheduler
from repro.core.warmstate import warm_start
from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.fetch_policy import FetchPolicy, FlushPolicy, make_fetch_policy
from repro.isa.instruction import (
    OP_IS_CONTROL,
    OP_IS_MEM,
    DynInst,
    DynState,
    OpClass,
    op_latency_table,
)
from repro.isa.program import SyntheticProgram, ThreadContext
from repro.memory.hierarchy import MemoryHierarchy
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.avf import AVFAccount, AVFBitLayout, Structure
from repro.reliability.dvm import DVMController
from repro.reliability.resource_alloc import (
    DispatchPolicy,
    IntervalSnapshot,
    UnlimitedDispatch,
)
from repro.telemetry.bus import EventBus
from repro.telemetry.metrics import MetricsRegistry, SnapshotValue
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.provenance import RunManifest, collect_manifest
from repro.telemetry.topics import (
    TOPIC_COMMIT,
    TOPIC_DVM_RESTORE,
    TOPIC_DVM_THROTTLE,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_RELIABILITY_DIVERGENCE,
    TOPIC_SQUASH,
    TOPIC_WARMUP_PROGRESS,
)

#: Max threads fetched per cycle (ICOUNT.2.8-style front end).
_FETCH_THREADS_PER_CYCLE = 2

# Enum members used per instruction, bound once: a module constant
# loads in ~20 ns, an ``OpClass.X`` attribute lookup in ~200 ns.
_DISPATCHED = DynState.DISPATCHED
_ISSUED = DynState.ISSUED
_COMPLETED = DynState.COMPLETED
_SQUASHED = DynState.SQUASHED
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_PREFETCH = OpClass.PREFETCH
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP
_CALL = OpClass.CALL
_RET = OpClass.RET
_IQ = Structure.IQ
_ROB = Structure.ROB

_GET_TAG = attrgetter("tag")

#: ``SMTPipeline._inert_mark``: committed, next tag, IQ inserts, fetch
#: stalls, DVM restore pick, DVM throttle checks, DVM restore grants.
_InertMark = tuple[int, int, int, tuple[int, ...], int | None, int, int]


@dataclass
class IntervalRecord:
    """Per-interval runtime statistics (one adaptation interval)."""

    index: int
    end_cycle: int
    committed: int
    per_thread_committed: tuple[int, ...]
    avg_ready_queue_len: float
    avg_waiting_queue_len: float
    l2_misses: int
    online_avf_estimate: float
    iq_limit: int
    online_rob_estimate: float = 0.0

    @property
    def ipc(self) -> float:
        return self.committed / max(1, self.cycles)

    cycles: int = 0


@dataclass
class SimulationResult:
    """Everything a run produced; the harness layers metrics on top."""

    cycles: int
    warmup_cycles: int
    interval_cycles: int
    committed: int
    per_thread_committed: tuple[int, ...]
    warm_committed: int
    warm_per_thread_committed: tuple[int, ...]
    intervals: list[IntervalRecord]
    iq_interval_avf: list[float]
    rob_interval_avf: list[float]
    overall_avf: dict[Structure, float]
    squashed: int
    flushes: int
    bp_accuracy: float
    l1d_miss_rate: float
    l2_miss_rate: float
    l2_misses: int
    ace_fraction: float
    ready_hist: npt.NDArray[np.int64] | None = None
    ready_hist_ace: npt.NDArray[np.float64] | None = None
    dvm_mean_ratio: float | None = None
    #: Run provenance (config hash, seed, git SHA, ...); excluded from
    #: comparison so results stay value-comparable across hosts/times.
    manifest: RunManifest | None = field(default=None, compare=False, repr=False)
    #: Flattened metrics-registry snapshot of the run.
    metrics: dict[str, SnapshotValue] | None = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def warm_cycles(self) -> int:
        return self.cycles - self.warmup_cycles

    @property
    def ipc(self) -> float:
        """Throughput IPC over the post-warm-up region."""
        return self.warm_committed / max(1, self.warm_cycles)

    @property
    def per_thread_ipc(self) -> tuple[float, ...]:
        return tuple(c / max(1, self.warm_cycles) for c in self.warm_per_thread_committed)

    @property
    def _warm_interval_start(self) -> int:
        return self.warmup_cycles // self.interval_cycles

    @property
    def warm_iq_interval_avf(self) -> list[float]:
        return self.iq_interval_avf[self._warm_interval_start:]

    @property
    def iq_avf(self) -> float:
        """Oracle IQ AVF averaged over post-warm-up intervals."""
        warm = self.warm_iq_interval_avf
        return float(np.mean(warm)) if warm else 0.0

    @property
    def max_iq_avf(self) -> float:
        warm = self.warm_iq_interval_avf
        return float(np.max(warm)) if warm else 0.0

    @property
    def max_online_estimate(self) -> float:
        """Maximum per-interval *online* (predicted-ACE-bit) AVF
        estimate — the hardware-observable counterpart of
        ``max_iq_avf``, used to express DVM targets in the units the
        controller actually measures."""
        start = self._warm_interval_start
        vals = [r.online_avf_estimate for r in self.intervals[start:]]
        return float(np.max(vals)) if vals else 0.0

    def pve(self, target_avf: float) -> float:
        """Percentage of vulnerability emergencies: the fraction of
        post-warm-up intervals whose oracle IQ AVF exceeds the target
        (Section 5.2)."""
        warm = self.warm_iq_interval_avf
        if not warm:
            return 0.0
        return float(np.mean([a > target_avf for a in warm]))

    # ------------------------------------------------------------------
    # ROB-DVM extension (the paper's suggested generalization)
    # ------------------------------------------------------------------
    @property
    def warm_rob_interval_avf(self) -> list[float]:
        return self.rob_interval_avf[self._warm_interval_start:]

    @property
    def rob_avf(self) -> float:
        warm = self.warm_rob_interval_avf
        return float(np.mean(warm)) if warm else 0.0

    @property
    def max_rob_avf(self) -> float:
        warm = self.warm_rob_interval_avf
        return float(np.max(warm)) if warm else 0.0

    @property
    def max_online_rob_estimate(self) -> float:
        start = self._warm_interval_start
        vals = [r.online_rob_estimate for r in self.intervals[start:]]
        return float(np.max(vals)) if vals else 0.0

    def pve_rob(self, target_avf: float) -> float:
        """PVE measured on the ROB's oracle interval AVF."""
        warm = self.warm_rob_interval_avf
        if not warm:
            return 0.0
        return float(np.mean([a > target_avf for a in warm]))


class SMTPipeline:
    """Cycle-level SMT processor simulation of one workload mix."""

    def __init__(
        self,
        programs: list[SyntheticProgram],
        machine: MachineConfig | None = None,
        sim: SimulationConfig | None = None,
        fetch_policy: str | FetchPolicy = "icount",
        scheduler: str | IssueScheduler = "oldest",
        dispatch_policy: DispatchPolicy | None = None,
        dvm: DVMController | None = None,
        dvm_structure: Structure = Structure.IQ,
        avf_layout: AVFBitLayout | None = None,
        bus: EventBus | None = None,
        profiler: StageProfiler | None = None,
        telemetry: bool = True,
    ):
        if not programs:
            raise ValueError("at least one program (thread) is required")
        self.machine = (machine or MachineConfig()).replace(num_threads=len(programs))
        self.machine.validate()
        self.sim = sim or SimulationConfig()
        self.sim.validate()
        n = self.machine.num_threads
        rel = self.sim.reliability

        self.programs = programs
        self.contexts = [
            ThreadContext(p, seed=self.sim.seed * 7919 + t) for t, p in enumerate(programs)
        ]
        self.mem = MemoryHierarchy(self.machine)
        self.bp = BranchPredictor(self.machine.branch_predictor, n)
        self.fus = FunctionalUnitPool(self.machine)
        self._op_latency = op_latency_table(self.machine)
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.base_fetch_policy = (
            make_fetch_policy(fetch_policy) if isinstance(fetch_policy, str) else fetch_policy
        )
        self._flush_policy = (
            self.base_fetch_policy
            if isinstance(self.base_fetch_policy, FlushPolicy)
            else FlushPolicy()
        )
        self.dispatch_policy = dispatch_policy or UnlimitedDispatch(self.machine.iq_size)
        self.dvm = dvm
        if dvm_structure not in (_IQ, _ROB):
            raise ValueError("DVM can govern the IQ or the ROB")
        self.dvm_structure = dvm_structure

        self.avf = AVFAccount(self.machine, rel.interval_cycles, avf_layout)
        self.analyzer = ACEAnalyzer(
            n,
            window_size=rel.ace_window,
            resolve_cb=self.avf.on_resolved,
            rf_cb=self.avf.on_rf_lifetime,
        )
        self.iq = IssueQueue(self.machine.iq_size, n, bits_of=self.avf.iq_bits_pred)
        self.robs = [ReorderBuffer(self.machine.rob_size_per_thread, t) for t in range(n)]
        self.lsqs = [LoadStoreQueue(self.machine.lsq_size_per_thread, t) for t in range(n)]
        self.rename = [RenameTable(t) for t in range(n)]
        self.fetch_q: list[deque[DynInst]] = [deque() for _ in range(n)]

        # Per-thread dynamic state.
        self.fetch_stall_until = [0] * n
        self._last_fetch_line = [-1] * n
        self._outstanding_l2 = [0] * n
        self._outstanding_l1d = [0] * n
        self.committed_per_thread = [0] * n

        # Global dynamic state.
        self.cycle = 0
        self._next_tag = 1
        self._wheel: dict[int, list[DynInst]] = {}
        self._pending_flushes: list[tuple[int, int]] = []
        self.total_committed = 0
        self.total_squashed = 0
        self.flush_count = 0
        #: Inert cycles the loop accounted in closed form (_skip_inert).
        self.cycles_skipped = 0
        self._iline_shift = self.machine.l1i.line_size.bit_length() - 1

        # Interval accumulators.
        self._int_committed = 0
        self._int_committed_pt = [0] * n
        self._int_rql_sum = 0
        self._int_wql_sum = 0
        self._int_l2_base = 0
        self._int_online_bit_cycles = 0
        self._sample_bit_cycles = 0
        self._sample_cycles = 0
        self.intervals: list[IntervalRecord] = []
        # ROB-DVM extension: running predicted-ACE bits resident in the
        # ROBs (maintained at dispatch/commit/squash).
        self.rob_pred_ace_bits = 0
        self._int_online_rob_bit_cycles = 0

        # Warm-up bookkeeping.
        self._warm_committed_pt = [0] * n

        # Optional ready-queue histogram (Figure 2).
        self._hist: npt.NDArray[np.int64] | None = None
        self._hist_ace: npt.NDArray[np.float64] | None = None
        if self.sim.collect_ready_queue_histogram:
            self._hist = np.zeros(self.machine.iq_size + 1, dtype=np.int64)
            self._hist_ace = np.zeros(self.machine.iq_size + 1, dtype=np.float64)

        self._sample_period = max(
            1, rel.interval_cycles // rel.dvm_samples_per_interval
        )

        # Telemetry: the event bus is shared with every controller so
        # their decisions carry the pipeline's cycle/stage stamps.
        # ``telemetry=False`` runs the bare pre-instrumentation loop
        # (used by the overhead smoke check as the baseline).
        self.telemetry = telemetry
        self.bus = bus if bus is not None else EventBus()
        self.profiler = profiler
        self.metrics = MetricsRegistry()
        if telemetry:
            if self.dvm is not None:
                self.dvm.bus = self.bus
                self.dvm.structure = "rob" if dvm_structure == _ROB else "iq"
            self.dispatch_policy.bus = self.bus
            self.base_fetch_policy.bus = self.bus
            self._flush_policy.bus = self.bus
            self.avf.bus = self.bus
            self.analyzer.bus = self.bus
        # Hot-topic wants() flags, re-read only when the bus's
        # subscription version changes (zero-subscriber fast path).
        self._bus_version = -1
        self._want_commit = False
        self._want_squash = False
        self._want_throttle = False

    # ------------------------------------------------------------------
    # CoreView protocol (fetch policies observe the pipeline through it)
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return self.machine.num_threads

    def in_flight(self, tid: int) -> int:
        """ICOUNT metric: instructions in the front-end and the IQ."""
        return len(self.fetch_q[tid]) + self.iq.per_thread[tid]

    def outstanding_l2(self, tid: int) -> int:
        return self._outstanding_l2[tid]

    def outstanding_l1d(self, tid: int) -> int:
        return self._outstanding_l1d[tid]

    def request_flush(self, tid: int, after_tag: int) -> None:
        """FLUSH policy callback: flush ``tid``'s instructions younger
        than ``after_tag`` (deferred to the end of the issue stage)."""
        self._pending_flushes.append((tid, after_tag))

    # ------------------------------------------------------------------
    def active_fetch_policy(self) -> FetchPolicy:
        """Opt2 swaps in FLUSH while its miss trigger is armed."""
        if self.dispatch_policy.flush_mode:
            return self._flush_policy
        return self.base_fetch_policy

    # ==================================================================
    # Cycle stages
    # ==================================================================
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
        events.sort(key=_GET_TAG)  # resolve older branches first
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

    def _recover_branch(self, branch: DynInst) -> None:
        t = branch.thread
        self._squash_thread(t, branch.tag)
        ctx = self.contexts[t]
        assert branch.checkpoint is not None  # set at fetch for control insts
        ctx.restore(branch.checkpoint)
        ctx.advance_control(branch.static, branch.actual_taken, branch.actual_target)
        self._last_fetch_line[t] = -1
        self.fetch_stall_until[t] = max(
            self.fetch_stall_until[t],
            self.cycle + self.machine.branch_mispredict_penalty,
        )

    def _squash_thread(self, tid: int, after_tag: int) -> list[DynInst]:
        """Remove every in-flight instruction of ``tid`` younger than
        ``after_tag`` from the whole pipeline."""
        squashed: list[DynInst] = []
        policy = self.active_fetch_policy()
        fq = self.fetch_q[tid]
        while fq and fq[-1].tag > after_tag:
            inst = fq.pop()
            inst.state = _SQUASHED
            squashed.append(inst)
        for inst in self.iq.squash_thread(tid, after_tag):
            inst.state = _SQUASHED
            inst.iq_leave_cycle = self.cycle
            squashed.append(inst)
        # ROB walk (young-first) covers every dispatched instruction:
        # rename unwind, in-flight-load bookkeeping, consumer cleanup.
        for inst in self.robs[tid].squash_after(after_tag):
            state = inst.state
            if state == _ISSUED:
                if inst.static.opclass == _LOAD:
                    if inst.l1_miss:
                        self._outstanding_l1d[tid] -= 1
                    if inst.l2_miss:
                        self._outstanding_l2[tid] -= 1
                        if self._outstanding_l2[tid] == 0:
                            policy.on_l2_return(self, tid)
                    policy.on_load_left(self, inst)
                self.iq.drop_consumers(inst.tag)
            elif state == _COMPLETED:
                self.iq.drop_consumers(inst.tag)
            elif state == _DISPATCHED and inst.static.opclass == _LOAD:
                # Never issued, but PDG counted it at dispatch: release
                # its predicted-miss slot or the thread gates forever.
                policy.on_load_left(self, inst)
            # Every ROB-resident entry carried ROB counter bits.
            self.rob_pred_ace_bits -= self.avf.rob_bits_pred(inst)
            self.rename[tid].unwind(inst)
            if inst.state != _SQUASHED:
                inst.state = _SQUASHED
                squashed.append(inst)
        self.lsqs[tid].squash_after(after_tag)
        self.total_squashed += len(squashed)
        if self._want_squash:
            self.bus.emit(TOPIC_SQUASH, thread=tid, after_tag=after_tag, insts=squashed)
        return squashed

    def _do_flush(self, tid: int, after_tag: int) -> None:
        """FLUSH fetch policy: flush ``tid`` after the missing load and
        rewind the fetch point so the flushed instructions refetch."""
        squashed = self._squash_thread(tid, after_tag)
        if not squashed:
            return
        oldest = min(squashed, key=_GET_TAG)
        assert oldest.checkpoint is not None  # set at fetch for every inst
        self.contexts[tid].restore(oldest.checkpoint)
        self._last_fetch_line[tid] = -1
        self.flush_count += 1

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
        # ICOUNT-ordered dispatch (in_flight(t), then thread id).
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

    def _update_dvm_restore(self) -> None:
        """Section 5.1: when all threads are stalled on L2 misses and
        the online AVF is back under the trigger threshold, restore
        dispatch for the thread with the fewest predicted-ACE
        instructions in its fetch queue."""
        dvm = self.dvm
        if dvm is None:
            return
        all_stalled = all(self._outstanding_l2[t] > 0 for t in range(self.num_threads))
        if all_stalled and dvm.restore_eligible:
            best_t: int | None = None
            best_ace: int | None = None
            for t in range(self.num_threads):
                ace = 0
                for inst in self.fetch_q[t]:
                    if inst.ace_pred:
                        ace += 1
                if best_ace is None or ace < best_ace:
                    best_t, best_ace = t, ace
            if best_t != dvm.restore_thread and self.bus.wants(TOPIC_DVM_RESTORE):
                self.bus.emit(TOPIC_DVM_RESTORE, thread=best_t, ace_count=best_ace)
            dvm.set_restore_thread(best_t)
        else:
            dvm.set_restore_thread(None)

    def _fetch(self) -> None:
        policy = self.active_fetch_policy()
        allowed = policy.select(self)
        budget = self.machine.fetch_width
        fq_cap = self.machine.fetch_queue_size
        l1i_latency = self.machine.l1i.latency
        iline_shift = self._iline_shift
        last_fetch_line = self._last_fetch_line
        threads_used = 0
        cycle = self.cycle
        next_tag = self._next_tag
        for t in allowed:
            if budget <= 0 or threads_used >= _FETCH_THREADS_PER_CYCLE:
                break
            if cycle < self.fetch_stall_until[t]:
                continue
            fq = self.fetch_q[t]
            if len(fq) >= fq_cap:
                continue
            threads_used += 1
            ctx = self.contexts[t]
            taken_budget = 2  # fetch through up to two taken transfers
            while budget > 0 and len(fq) < fq_cap:
                st = ctx.peek()
                line = st.pc >> iline_shift
                if line != last_fetch_line[t]:
                    res = self.mem.access_instr(st.pc, t)
                    last_fetch_line[t] = line
                    if res.latency > l1i_latency:
                        self.fetch_stall_until[t] = cycle + res.latency
                        break
                inst = DynInst(
                    tag=next_tag,
                    thread=t,
                    static=st,
                    stream_pos=ctx.stream_pos,
                    fetch_cycle=cycle,
                    ace_pred=st.ace_hint,
                    checkpoint=ctx.checkpoint(),
                )
                next_tag += 1
                took_transfer = False
                if OP_IS_CONTROL[st.opclass]:
                    took_transfer = self._fetch_control(inst, ctx, t)
                else:
                    ctx.advance()
                fq.append(inst)
                budget -= 1
                if took_transfer:
                    taken_budget -= 1
                    if taken_budget <= 0:
                        break
        self._next_tag = next_tag

    def _fetch_control(self, inst: DynInst, ctx: ThreadContext, t: int) -> bool:
        """Predict and speculatively follow a control instruction.
        Returns True if fetch for this thread stops this cycle (a taken
        control transfer)."""
        st = inst.static
        op = st.opclass
        actual_taken, actual_target = ctx.resolve_control(st)
        inst.actual_taken = actual_taken
        inst.actual_target = actual_target
        if op == _BRANCH:
            pred_taken, inst.bp_index = self.bp.predict_direction(st.pc, t)
            # Direct branches: the target is available from decode, so a
            # BTB miss costs target-prediction stats but not direction
            # (Alpha-style decode repair; all synthetic branches are
            # direct).  The BTB is still exercised for its statistics.
            self.bp.btb_lookup(st.pc)
            pred_target = st.taken_block if pred_taken else st.fall_block
        elif op == _JUMP or op == _CALL:
            pred_taken, pred_target = True, st.taken_block
            if op == _CALL:
                ret_block = st.fall_block
                self.bp.ras_push(t, ret_block if ret_block >= 0 else 0)
        else:  # RET
            pred_taken = True
            popped = self.bp.ras_pop(t)
            pred_target = popped if popped is not None else ctx.program.entry
        inst.pred_taken = pred_taken
        inst.pred_target = pred_target
        inst.mispredicted = (pred_taken != actual_taken) or (
            pred_taken and pred_target != actual_target
        )
        followed_target = pred_target if pred_taken else st.fall_block
        ctx.advance_control(st, pred_taken, followed_target)
        if pred_taken:
            self._last_fetch_line[t] = -1  # redirect: new fetch line
            return True
        return False

    # ==================================================================
    # Per-cycle bookkeeping
    # ==================================================================
    def _tick_stats(self) -> None:
        cycle = self.cycle
        rel = self.sim.reliability
        iq = self.iq
        rql = len(iq.ready)
        wql = len(iq.waiting)
        self._int_rql_sum += rql
        self._int_wql_sum += wql
        self._int_online_bit_cycles += iq.pred_ace_bits
        self._int_online_rob_bit_cycles += self.rob_pred_ace_bits
        if self.dvm_structure == _ROB:
            self._sample_bit_cycles += self.rob_pred_ace_bits
        else:
            self._sample_bit_cycles += iq.pred_ace_bits
        self._sample_cycles += 1
        if self._hist is not None and cycle >= self.sim.warmup_cycles:
            self._hist[rql] += 1
            self._hist_ace[rql] += iq.ready_pred_ace

        dvm = self.dvm
        if dvm is not None and cycle % rel.dvm_ratio_period == 0:
            dvm.recompute_ratio_gate(wql, rql)
        if (cycle + 1) % self._sample_period == 0:
            est = self._sample_bit_cycles / (
                self._sample_cycles * self.avf.capacity_bits(self.dvm_structure)
            )
            if dvm is not None:
                dvm.on_sample(est)
            self._sample_bit_cycles = 0
            self._sample_cycles = 0
        if (cycle + 1) % rel.interval_cycles == 0:
            self._close_interval()

    def _close_interval(self) -> None:
        rel = self.sim.reliability
        cycles = rel.interval_cycles
        l2_now = self.mem.l2_miss_count
        snap = IntervalSnapshot(
            cycle=self.cycle + 1,
            committed=self._int_committed,
            cycles=cycles,
            avg_ready_queue_len=self._int_rql_sum / cycles,
            l2_misses=l2_now - self._int_l2_base,
        )
        self.dispatch_policy.on_interval(snap)
        capacity = self.avf.capacity_bits(_IQ)
        rec = IntervalRecord(
            index=len(self.intervals),
            end_cycle=self.cycle + 1,
            cycles=cycles,
            committed=self._int_committed,
            per_thread_committed=tuple(self._int_committed_pt),
            avg_ready_queue_len=snap.avg_ready_queue_len,
            avg_waiting_queue_len=self._int_wql_sum / cycles,
            l2_misses=snap.l2_misses,
            online_avf_estimate=self._int_online_bit_cycles / (cycles * capacity),
            iq_limit=self.dispatch_policy.iq_limit,
            online_rob_estimate=(
                self._int_online_rob_bit_cycles
                / (cycles * self.avf.capacity_bits(_ROB))
            ),
        )
        self.intervals.append(rec)
        self.metrics.histogram("interval.online_avf").observe(rec.online_avf_estimate)
        bus = self.bus
        if bus.wants(TOPIC_INTERVAL_CLOSE):
            bus.emit(
                TOPIC_INTERVAL_CLOSE,
                index=rec.index,
                end_cycle=rec.end_cycle,
                committed=rec.committed,
                ipc=rec.ipc,
                avg_ready_queue_len=rec.avg_ready_queue_len,
                avg_waiting_queue_len=rec.avg_waiting_queue_len,
                l2_misses=rec.l2_misses,
                online_avf_estimate=rec.online_avf_estimate,
                online_rob_estimate=rec.online_rob_estimate,
                iq_limit=rec.iq_limit,
            )
        self._int_committed = 0
        self._int_committed_pt = [0] * self.num_threads
        self._int_rql_sum = 0
        self._int_wql_sum = 0
        self._int_online_bit_cycles = 0
        self._int_online_rob_bit_cycles = 0
        self._int_l2_base = l2_now

    def _inert_mark(self) -> _InertMark:
        """What an inert cycle leaves unchanged (the first five fields)
        and the two DVM counters it advances by a fixed step."""
        dvm = self.dvm
        restore: int | None = None
        checks = grants = 0
        if dvm is not None:
            restore = dvm.restore_thread
            checks = dvm.stats.throttled_dispatch_checks
            grants = dvm.stats.restore_grants
        return (
            self.total_committed,
            self._next_tag,
            self.iq.inserted,
            tuple(self.fetch_stall_until),
            restore,
            checks,
            grants,
        )

    def _skip_inert(self, mark: _InertMark) -> int:
        """Account the cycles that would repeat an inert one; return how
        many.

        The cycle just simulated began with nothing due on the wheel, an
        empty ready set and no flush pending (``mark`` was taken then).
        It was inert if it also committed, fetched and dispatched
        nothing, set no fetch stall, kept the DVM restore pick and its
        tick crossed no sample, interval or DVM ratio boundary.  Every
        later cycle then starts from the same machine state and repeats
        it, up to the first cycle that can differ: the next wheel entry,
        fetch-stall expiry, ratio recompute, sample end or interval
        close, the warm-up boundary, or the end of the run.  Each
        skipped cycle would have added the same tick sums (the ready
        queue is empty, so its length and ``ready_pred_ace`` are 0) and
        the same DVM throttle-check and restore-grant deltas.

        Yields (returns 0) while anything subscribes to ``dvm.throttle``,
        the one event an inert cycle can emit.
        """
        if self._want_throttle:
            return 0
        cycle = self.cycle
        rel = self.sim.reliability
        sample = self._sample_period
        interval = rel.interval_cycles
        period = rel.dvm_ratio_period
        dvm = self.dvm
        if (
            (cycle + 1) % sample == 0
            or (cycle + 1) % interval == 0
            or (dvm is not None and cycle % period == 0)
        ):
            return 0
        now = self._inert_mark()
        if now[:5] != mark[:5]:
            return 0
        stop = min(
            self.sim.max_cycles,
            ((cycle + 1) // sample + 1) * sample - 1,
            ((cycle + 1) // interval + 1) * interval - 1,
        )
        if dvm is not None:
            stop = min(stop, (cycle // period + 1) * period)
        if self._wheel:
            stop = min(stop, min(self._wheel))
        for until in self.fetch_stall_until:
            if cycle < until < stop:
                stop = until
        warmup = self.sim.warmup_cycles
        if cycle < warmup < stop:
            stop = warmup
        skipped = stop - cycle - 1
        if skipped <= 0:
            return 0
        iq = self.iq
        self._int_wql_sum += skipped * len(iq.waiting)
        self._int_online_bit_cycles += skipped * iq.pred_ace_bits
        self._int_online_rob_bit_cycles += skipped * self.rob_pred_ace_bits
        sampled = self.rob_pred_ace_bits if self.dvm_structure == _ROB else iq.pred_ace_bits
        self._sample_bit_cycles += skipped * sampled
        self._sample_cycles += skipped
        if self._hist is not None and cycle >= warmup:
            self._hist[0] += skipped
        if dvm is not None:
            stats = dvm.stats
            stats.throttled_dispatch_checks += skipped * (now[5] - mark[5])
            stats.restore_grants += skipped * (now[6] - mark[6])
        self.cycles_skipped += skipped
        self.cycle = stop - 1
        return skipped

    # ==================================================================
    def _functional_warmup(self) -> None:
        """Functionally fast-forward each thread through the branch
        predictor, caches and TLBs before timing begins — SimPoint
        semantics: the detailed simulation *continues from* the
        fast-forwarded point (the timed region is preceded, not
        pre-touched, by the warm-up region).

        One ``warmup.progress`` event per finished thread keeps
        heartbeat subscribers fed through a warm-up that can outlast a
        stall threshold."""
        n_insts = self.sim.bp_warmup_instructions
        if n_insts <= 0:
            return
        bus = self.bus if self.telemetry else None
        n_threads = len(self.programs)
        for t in range(n_threads):
            self._warm_thread(t, n_insts)
            if bus is not None and bus.wants(TOPIC_WARMUP_PROGRESS):
                bus.cycle = 0  # before the first timed cycle
                bus.emit(
                    TOPIC_WARMUP_PROGRESS,
                    thread=t,
                    threads=n_threads,
                    instructions=n_insts,
                )
        self.bp.reset_stats()  # warm-up predictions don't count
        self.mem.reset_stats()  # warm-up accesses don't count

    def _warm_thread(self, t: int, n_insts: int) -> None:
        """Replay ``n_insts`` of thread ``t``'s correct path; the thread
        context advances in place, so timing continues from there."""
        ctx = self.contexts[t]
        peek = ctx.peek
        mem_address = ctx.mem_address
        resolve_control = ctx.resolve_control
        advance_control = ctx.advance_control
        advance = ctx.advance
        access_instr = self.mem.access_instr
        access_data = self.mem.access_data
        bp = self.bp
        predict_direction = bp.predict_direction
        update_direction = bp.update_direction
        btb_update = bp.btb_update
        ras_push = bp.ras_push
        ras_pop = bp.ras_pop
        is_mem = OP_IS_MEM
        is_control = OP_IS_CONTROL
        op_store = _STORE
        op_branch = _BRANCH
        op_call = _CALL
        op_ret = _RET
        iline_shift = self._iline_shift
        last_line = -1
        for _ in range(n_insts):
            st = peek()
            pc = st.pc
            line = pc >> iline_shift
            if line != last_line:
                access_instr(pc, t)
                last_line = line
            op = st.opclass
            if is_mem[op]:
                access_data(mem_address(st, ctx.stream_pos), t, op == op_store)
            if is_control[op]:
                taken, target = resolve_control(st)
                if op == op_branch:
                    pred, idx = predict_direction(pc, t)
                    update_direction(pc, t, taken, pred, idx)
                    if taken:
                        btb_update(pc, st.taken_block)
                elif op == op_call:
                    ras_push(t, st.fall_block if st.fall_block >= 0 else 0)
                elif op == op_ret:
                    ras_pop(t)
                advance_control(st, taken, target)
            else:
                advance()

    def _refresh_want_flags(self) -> None:
        """Re-read the hot-topic subscription flags (cached against
        ``bus.version`` so the zero-subscriber loop never rechecks)."""
        bus = self.bus
        self._bus_version = bus.version
        self._want_commit = bus.wants(TOPIC_COMMIT)
        self._want_squash = bus.wants(TOPIC_SQUASH)
        self._want_throttle = bus.wants(TOPIC_DVM_THROTTLE)

    def run(self) -> SimulationResult:
        """Simulate ``sim.max_cycles`` cycles and return the results.

        One loop body calls the six stages in order.  With a bus or a
        profiler attached, a guarded per-stage hook runs after each
        stage: it laps the profiler and stamps the next stage's name on
        the bus ("" after the last one).  The bare loop
        (``telemetry=False``, no profiler) skips it.  The hook is
        written inline, not as a method: six calls per cycle cost about
        400 ns, 1-2% of a memory-bound cycle.

        A cycle that starts with nothing due on the wheel, nothing ready
        and no flush pending may turn out *inert*; the loop then jumps
        to the next cycle that can differ (:meth:`_skip_inert`).
        """
        warm_start(self)
        max_cycles = self.sim.max_cycles
        max_insts = self.sim.max_instructions
        warm_marked = False
        profiler = self.profiler
        bus = self.bus if (self.telemetry or profiler is not None) else None
        wheel = self._wheel
        iq = self.iq
        pending_flushes = self._pending_flushes
        if profiler is not None:
            profiler.start_run()
        cycle = 0
        while cycle < max_cycles:
            self.cycle = cycle
            if not warm_marked and cycle == self.sim.warmup_cycles:
                self._warm_committed_pt = list(self.committed_per_thread)
                warm_marked = True
            if bus is not None:
                bus.cycle = cycle
                if bus.version != self._bus_version:
                    self._refresh_want_flags()
                if profiler is not None:
                    profiler.cycle_start()
                bus.stage = "commit"
            mark = (
                self._inert_mark()
                if cycle not in wheel and not iq.ready and not pending_flushes
                else None
            )
            self._commit()
            if bus is not None:
                if profiler is not None:
                    profiler.lap("commit")
                bus.stage = "writeback"
            self._writeback()
            if bus is not None:
                if profiler is not None:
                    profiler.lap("writeback")
                bus.stage = "issue"
            self._issue()
            if bus is not None:
                if profiler is not None:
                    profiler.lap("issue")
                bus.stage = "dispatch"
            self._dispatch()
            if bus is not None:
                if profiler is not None:
                    profiler.lap("dispatch")
                bus.stage = "fetch"
            self._fetch()
            if bus is not None:
                if profiler is not None:
                    profiler.lap("fetch")
                bus.stage = "tick"
            self._tick_stats()
            skipped = 0 if mark is None else self._skip_inert(mark)
            if bus is not None:
                if profiler is not None:
                    # A skipped range's time is charged to the tick lap;
                    # the profiler still counts every simulated cycle.
                    profiler.lap("tick")
                    profiler.cycles += skipped
                bus.stage = ""
            if max_insts is not None and self.total_committed >= max_insts:
                break
            cycle += 1 + skipped
        if profiler is not None:
            profiler.end_run()
        final_cycle = self.cycle + 1
        if self.sim.warmup_cycles == 0:
            self._warm_committed_pt = [0] * self.num_threads
        self.analyzer.flush(final_cycle)
        self.avf.close(final_cycle)
        self._emit_divergence()
        return self._build_result(final_cycle)

    def _emit_divergence(self) -> None:
        """Publish the end-of-run online-vs-oracle comparison.

        One ``reliability.divergence`` event per closed interval per
        DVM-governable structure, once the oracle interval AVF is final
        (the oracle attributes retroactively, so this cannot stream).
        """
        bus = self.bus if self.telemetry else None
        if bus is None or not bus.wants(TOPIC_RELIABILITY_DIVERGENCE):
            return
        for structure, name in ((_IQ, "iq"), (_ROB, "rob")):
            oracle = self.avf.interval_avf(structure)
            for i, rec in enumerate(self.intervals):
                if i >= len(oracle):
                    break
                online = (
                    rec.online_avf_estimate
                    if structure is _IQ
                    else rec.online_rob_estimate
                )
                bus.emit(
                    TOPIC_RELIABILITY_DIVERGENCE,
                    structure=name,
                    index=i,
                    end_cycle=rec.end_cycle,
                    oracle_avf=oracle[i],
                    online_estimate=online,
                    divergence=oracle[i] - online,
                )

    def _publish_metrics(self, final_cycle: int) -> None:
        """Publish every component's stats into the hierarchical
        registry — the single export surface replacing ad-hoc stat
        attribute spelunking across pipeline components."""
        m = self.metrics
        core = m.child("pipeline")
        core.counter("cycles").inc(final_cycle)
        core.counter("cycles.skipped").inc(self.cycles_skipped)
        core.counter("commit.total").inc(self.total_committed)
        for t, c in enumerate(self.committed_per_thread):
            core.counter(f"commit.thread{t}").inc(c)
        core.counter("squash.total").inc(self.total_squashed)
        core.counter("flush.count").inc(self.flush_count)
        m.gauge("frontend.bp.accuracy").set(self.bp.stats.direction_accuracy)
        m.gauge("mem.l1d.miss_rate").set(self.mem.l1d.stats.miss_rate)
        m.gauge("mem.l2.miss_rate").set(self.mem.l2.stats.miss_rate)
        m.counter("mem.l2.misses").inc(self.mem.l2_miss_count)
        m.gauge("reliability.ace_fraction").set(self.analyzer.stats.ace_fraction)
        for s in Structure:
            m.gauge(f"reliability.avf.{s.name.lower()}").set(self.avf.overall_avf(s))
        m.gauge("dispatch.iq_limit").set(self.dispatch_policy.iq_limit)
        if self.dvm is not None:
            dvm = m.child("dvm")
            stats = self.dvm.stats
            dvm.counter("samples").inc(stats.samples)
            dvm.counter("triggered_samples").inc(stats.triggered_samples)
            dvm.counter("l2_triggers").inc(stats.l2_triggers)
            dvm.counter("throttled_dispatch_checks").inc(stats.throttled_dispatch_checks)
            dvm.counter("restore_grants").inc(stats.restore_grants)
            dvm.gauge("mean_ratio").set(stats.mean_ratio)
            dvm.gauge("wq_ratio").set(self.dvm.wq_ratio)
        if self.profiler is not None:
            prof = self.profiler.report()
            m.gauge("telemetry.cycles_per_sec").set(prof.cycles_per_sec)
            for stage, share in prof.shares().items():
                m.gauge(f"telemetry.stage_share.{stage}").set(share)

    def _build_result(self, final_cycle: int) -> SimulationResult:
        warm_pt = tuple(
            c - w for c, w in zip(self.committed_per_thread, self._warm_committed_pt)
        )
        bp_acc = self.bp.stats.direction_accuracy
        hist = self._hist.copy() if self._hist is not None else None
        hist_ace = self._hist_ace.copy() if self._hist_ace is not None else None
        self._publish_metrics(final_cycle)
        manifest = (
            collect_manifest(self.machine, self.sim) if self.telemetry else None
        )
        return SimulationResult(
            cycles=final_cycle,
            warmup_cycles=min(self.sim.warmup_cycles, final_cycle),
            interval_cycles=self.sim.reliability.interval_cycles,
            committed=self.total_committed,
            per_thread_committed=tuple(self.committed_per_thread),
            warm_committed=sum(warm_pt),
            warm_per_thread_committed=warm_pt,
            intervals=self.intervals,
            iq_interval_avf=self.avf.interval_avf(_IQ),
            rob_interval_avf=self.avf.interval_avf(_ROB),
            overall_avf={s: self.avf.overall_avf(s) for s in Structure},
            squashed=self.total_squashed,
            flushes=self.flush_count,
            bp_accuracy=bp_acc,
            l1d_miss_rate=self.mem.l1d.stats.miss_rate,
            l2_miss_rate=self.mem.l2.stats.miss_rate,
            l2_misses=self.mem.l2_miss_count,
            ace_fraction=self.analyzer.stats.ace_fraction,
            ready_hist=hist,
            ready_hist_ace=hist_ace,
            dvm_mean_ratio=(
                self.dvm.stats.mean_ratio if self.dvm is not None else None
            ),
            manifest=manifest,
            metrics=self.metrics.snapshot(),
        )
