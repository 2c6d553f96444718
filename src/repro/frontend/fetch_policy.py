"""SMT fetch policies: ICOUNT, STALL, FLUSH, DG, PDG (+ round-robin).

Each policy decides, every cycle, which threads may fetch and in what
priority order.  They observe the pipeline through the small
``CoreView`` protocol so they are unit-testable without a full
pipeline.

* **ICOUNT** (Tullsen et al., ISCA'96): priority to the thread with the
  fewest in-flight instructions (front-end + IQ).
* **STALL** (Tullsen & Brown, MICRO'01): ICOUNT, but a thread with an
  outstanding L2 miss is fetch-gated until the miss returns.
* **FLUSH** (ibid.): STALL, plus the offending thread's instructions
  younger than the missing load are flushed from the pipeline,
  releasing its IQ/ROB/LSQ entries for other threads.  At least one
  thread is always allowed to fetch.
* **DG** (El-Moursy & Albonesi, HPCA'03): a thread is gated while its
  number of outstanding L1-data misses exceeds a threshold.
* **PDG** (ibid.): like DG but gates on *predicted* misses: a per-PC
  2-bit saturating miss predictor classifies loads at dispatch, so
  gating starts before the misses are discovered.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.isa.instruction import DynInst
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_FETCH_FLUSH, TOPIC_PDG_GATE


class CoreView(Protocol):
    """What a fetch policy may observe/request of the pipeline."""

    #: The cycle being simulated.
    cycle: int

    @property
    def num_threads(self) -> int: ...

    def icounts(self) -> list[int]:
        """ICOUNT metric of every thread, in thread order: its
        instructions in the front end and the IQ."""
        ...

    def outstanding_l2(self, tid: int) -> int: ...

    def outstanding_l1d(self, tid: int) -> int: ...

    def request_flush(self, tid: int, after_tag: int) -> None: ...


class FetchPolicy:
    """Base policy: ICOUNT ordering, no gating."""

    name = "base"

    def __init__(self) -> None:
        #: Telemetry spine; the pipeline swaps in its shared bus.
        self.bus = EventBus()

    def priority(self, core: CoreView) -> list[int]:
        """Thread ids, highest fetch priority first (ICOUNT order)."""
        counts = core.icounts()
        # A stable sort of ascending ids: ties go to the lower id.
        return sorted(range(len(counts)), key=counts.__getitem__)

    def gated(self, core: CoreView, tid: int) -> bool:
        return False

    def select(self, core: CoreView) -> list[int]:
        """Priority-ordered list of threads allowed to fetch this cycle."""
        order = self.priority(core)
        allowed = [t for t in order if not self.gated(core, t)]
        if not allowed and self.always_fetch_one and order:
            allowed = [order[0]]
        return allowed

    #: FLUSH "continues to fetch for at least one thread even if all
    #: other threads are stalled" (Section 4); other policies may gate all.
    always_fetch_one = False

    # ------------------------------------------------------------------
    # Pipeline event hooks (default: ignore)
    # ------------------------------------------------------------------
    def on_l2_miss(self, core: CoreView, inst: DynInst) -> None:
        """A load was discovered to miss in L2 at execute."""

    def on_l2_return(self, core: CoreView, tid: int) -> None:
        """The last outstanding L2 miss of ``tid`` completed."""

    def on_load_dispatch(self, core: CoreView, inst: DynInst) -> None:
        """A load entered the issue queue (PDG hook)."""

    def on_load_resolved(self, core: CoreView, inst: DynInst, l1_miss: bool) -> None:
        """A load's cache outcome is known (PDG predictor training)."""

    def on_load_left(self, core: CoreView, inst: DynInst) -> None:
        """A load left the pipeline (completed or squashed; PDG hook)."""


class ICountPolicy(FetchPolicy):
    name = "icount"


class RoundRobinPolicy(FetchPolicy):
    """Cycle-rotating baseline (not in the paper; useful as a control).

    Cycle ``c`` gives thread ``(c + 1) % n`` first priority; the order
    is a pure function of the cycle, so it repeats every ``n`` cycles.
    """

    name = "rr"

    def priority(self, core: CoreView) -> list[int]:
        n = core.num_threads
        turn = (core.cycle + 1) % n
        return [(turn + i) % n for i in range(n)]


class StallPolicy(FetchPolicy):
    name = "stall"

    def gated(self, core: CoreView, tid: int) -> bool:
        return core.outstanding_l2(tid) > 0


class FlushPolicy(StallPolicy):
    name = "flush"
    always_fetch_one = True

    def on_l2_miss(self, core: CoreView, inst: DynInst) -> None:
        # Flush everything in the offending thread younger than the
        # missing load; fetch stays gated via the STALL rule until the
        # miss returns.
        if self.bus.wants(TOPIC_FETCH_FLUSH):
            self.bus.emit(TOPIC_FETCH_FLUSH, thread=inst.thread, after_tag=inst.tag)
        core.request_flush(inst.thread, inst.tag)


class DGPolicy(FetchPolicy):
    """Data gating on actual outstanding L1D misses."""

    name = "dg"

    def __init__(self, threshold: int = 2):
        super().__init__()
        if threshold < 1:
            raise ValueError("DG threshold must be >= 1")
        self.threshold = threshold

    def gated(self, core: CoreView, tid: int) -> bool:
        return core.outstanding_l1d(tid) >= self.threshold


class PDGPolicy(FetchPolicy):
    """Predictive data gating using a per-PC 2-bit miss predictor."""

    name = "pdg"

    def __init__(self, threshold: int = 2, table_size: int = 1024):
        super().__init__()
        if threshold < 1:
            raise ValueError("PDG threshold must be >= 1")
        if table_size & (table_size - 1):
            raise ValueError("PDG table size must be a power of two")
        self.threshold = threshold
        self._mask = table_size - 1
        self._table = [1] * table_size  # weakly no-miss
        self._pending: list[int] = []
        self._counted: set[int] = set()

    def _idx(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict_miss(self, pc: int) -> bool:
        return self._table[self._idx(pc)] >= 2

    def gated(self, core: CoreView, tid: int) -> bool:
        if not self._pending:
            return False
        return self._pending[tid] >= self.threshold

    def on_load_dispatch(self, core: CoreView, inst: DynInst) -> None:
        if not self._pending:
            self._pending = [0] * core.num_threads
        if self.predict_miss(inst.pc):
            self._pending[inst.thread] += 1
            self._counted.add(inst.tag)
            if self._pending[inst.thread] == self.threshold and self.bus.wants(
                TOPIC_PDG_GATE
            ):
                self.bus.emit(
                    TOPIC_PDG_GATE,
                    thread=inst.thread,
                    pending=self._pending[inst.thread],
                    gated=True,
                )

    # Predictor training only: the counters feed the next predict_miss()
    # but no gating decision happens here — the gate transitions are
    # emitted where the pending counts actually cross the threshold
    # (on_load_dispatch / on_load_left).
    def on_load_resolved(  # lint: disable=emit-coverage
        self, core: CoreView, inst: DynInst, l1_miss: bool
    ) -> None:
        idx = self._idx(inst.pc)
        ctr = self._table[idx]
        if l1_miss:
            if ctr < 3:
                self._table[idx] = ctr + 1
        else:
            if ctr > 0:
                self._table[idx] = ctr - 1

    def on_load_left(self, core: CoreView, inst: DynInst) -> None:
        if inst.tag in self._counted:
            self._counted.discard(inst.tag)
            if self._pending:
                self._pending[inst.thread] -= 1
                if self._pending[
                    inst.thread
                ] == self.threshold - 1 and self.bus.wants(TOPIC_PDG_GATE):
                    self.bus.emit(
                        TOPIC_PDG_GATE,
                        thread=inst.thread,
                        pending=self._pending[inst.thread],
                        gated=False,
                    )


_POLICIES = {
    "icount": ICountPolicy,
    "rr": RoundRobinPolicy,
    "stall": StallPolicy,
    "flush": FlushPolicy,
    "dg": DGPolicy,
    "pdg": PDGPolicy,
}


def make_fetch_policy(name: str, **kwargs: Any) -> FetchPolicy:
    """Instantiate a fetch policy by its paper name (case-insensitive)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown fetch policy {name!r}; available: {sorted(_POLICIES)}") from None
    return cls(**kwargs)
