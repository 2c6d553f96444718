"""Dynamic IQ resource allocation (Optimizations 1 and 2).

Figure 3 of the paper: every interval (10K cycles), the number of
allocatable IQ entries (``IQL``) is set from the interval's IPC and
ready-queue length:

    0 < IPC <= 2 : IQL = min(RQL + 1/6·IQ, 1/3·IQ)
    2 < IPC <= 4 : IQL = min(RQL + 1/3·IQ, 1/2·IQ)
    4 < IPC <= 6 : IQL = min(RQL + 1/2·IQ, 2/3·IQ)
    6 < IPC <= 8 : IQL = min(RQL + 2/3·IQ,     IQ)

i.e. for region ``i`` of ``N`` (paper: N = 4, found optimal),
``IQL = min(RQL + (i+1)/(N+2)·IQ, (i+2)/(N+2)·IQ)`` — the general form
used here so the region-count ablation is expressible.

Figure 4 (Optimization 2): when the interval's L2 miss count exceeds
``Tcache_miss`` (paper: 16), the cap is lifted and the FLUSH fetch
policy is enabled instead, because capping a clogged IQ starves the
post-miss ramp-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ReliabilityConfig
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_FLUSH_SWITCH, TOPIC_IQL_CAP


@dataclass(frozen=True)
class IntervalSnapshot:
    """Per-interval statistics handed to adaptive controllers."""

    cycle: int
    committed: int
    cycles: int
    avg_ready_queue_len: float
    l2_misses: int

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class DispatchPolicy:
    """Base dispatch-side resource controller: no restriction."""

    name = "none"

    def __init__(self, iq_size: int):
        if iq_size <= 0:
            raise ValueError("iq_size must be positive")
        self.iq_size = iq_size
        #: Telemetry spine; the pipeline swaps in its shared bus.
        self.bus = EventBus()

    @property
    def iq_limit(self) -> int:
        """Max IQ entries the dispatch stage may currently allocate."""
        return self.iq_size

    @property
    def flush_mode(self) -> bool:
        """True when Optimization 2 has switched to the FLUSH policy."""
        return False

    def on_interval(self, snap: IntervalSnapshot) -> None:
        """Interval-boundary adaptation hook."""


class UnlimitedDispatch(DispatchPolicy):
    """Baseline: the full IQ is always allocatable."""

    name = "unlimited"


class DynamicIQAllocation(DispatchPolicy):
    """Optimization 1 — IPC/RQL-driven IQ allocation cap (Figure 3).

    ``ratio_mode="static"`` (default) uses the paper's per-region static
    fractions.  ``ratio_mode="linear"`` is the alternative the paper
    mentions trying ("dynamic ratio setup using linear models that
    correlates with IPC"): the additive fraction interpolates linearly
    from 1/6 at IPC 0 to 4/6 at full commit width, with the cap one
    step (1/6 of the IQ) above it.  The paper found both "show similar
    efficiency" and kept static for simplicity.
    """

    name = "opt1"

    def __init__(
        self,
        iq_size: int,
        commit_width: int = 8,
        num_regions: int = 4,
        min_limit: int = 8,
        ratio_mode: str = "static",
    ):
        super().__init__(iq_size)
        if num_regions <= 0:
            raise ValueError("num_regions must be positive")
        if not (0 < min_limit <= iq_size):
            raise ValueError("min_limit must be in (0, iq_size]")
        if ratio_mode not in ("static", "linear"):
            raise ValueError("ratio_mode must be 'static' or 'linear'")
        self.commit_width = commit_width
        self.num_regions = num_regions
        self.min_limit = min_limit
        self.ratio_mode = ratio_mode
        self._iql = iq_size
        self.limit_history: list[int] = []

    @property
    def iq_limit(self) -> int:
        return self._iql

    def region_of(self, ipc: float) -> int:
        """IPC region index in [0, num_regions).

        Paper intervals are left-open/right-closed (0 < IPC <= 2, ...),
        so boundary IPCs belong to the lower region.
        """
        import math

        width = self.commit_width / self.num_regions
        region = math.ceil(ipc / width) - 1
        return min(max(region, 0), self.num_regions - 1)

    def limit_for(self, ipc: float, rql: float) -> int:
        if self.ratio_mode == "linear":
            frac = min(max(ipc / self.commit_width, 0.0), 1.0)
            add = (1.0 + 3.0 * frac) / 6.0 * self.iq_size
            cap = min(add + self.iq_size / 6.0, float(self.iq_size))
        else:
            i = self.region_of(ipc)
            denom = self.num_regions + 2
            add = (i + 1) * self.iq_size / denom
            # Figure 3 caps: 1/3, 1/2, 2/3 … and the *whole* IQ for the
            # top region (the paper's last line uses IQ_SIZE, not 5/6).
            if i == self.num_regions - 1:
                cap = float(self.iq_size)
            else:
                cap = (i + 2) * self.iq_size / denom
        iql = int(min(rql + add, cap))
        return max(self.min_limit, min(iql, self.iq_size))

    def on_interval(self, snap: IntervalSnapshot) -> None:
        old = self._iql
        self._iql = self.limit_for(snap.ipc, snap.avg_ready_queue_len)
        self.limit_history.append(self._iql)
        if self._iql != old and self.bus.wants(TOPIC_IQL_CAP):
            self.bus.emit(
                TOPIC_IQL_CAP,
                old_limit=old,
                new_limit=self._iql,
                ipc=snap.ipc,
                avg_ready_queue_len=snap.avg_ready_queue_len,
            )


class L2MissSensitiveAllocation(DynamicIQAllocation):
    """Optimization 2 — Figure 4: Optimization 1 while L2 misses are
    rare; FLUSH fetch policy (and no cap) when they are frequent."""

    name = "opt2"

    def __init__(
        self,
        iq_size: int,
        commit_width: int = 8,
        num_regions: int = 4,
        t_cache_miss: int | None = None,
        min_limit: int = 8,
    ):
        super().__init__(iq_size, commit_width, num_regions, min_limit)
        if t_cache_miss is None:
            t_cache_miss = ReliabilityConfig().t_cache_miss
        if t_cache_miss < 0:
            raise ValueError("t_cache_miss must be non-negative")
        self.t_cache_miss = t_cache_miss
        self._flush_mode = False
        self.flush_intervals = 0

    @property
    def flush_mode(self) -> bool:
        return self._flush_mode

    def on_interval(self, snap: IntervalSnapshot) -> None:
        was_flush = self._flush_mode
        if snap.l2_misses > self.t_cache_miss:
            # Figure 4: when L2 misses are frequent, capping starves the
            # post-miss ramp-up, so the cap is lifted and FLUSH manages
            # vulnerability instead.
            self._flush_mode = True
            self._iql = self.iq_size
            self.flush_intervals += 1
            self.limit_history.append(self._iql)
        else:
            self._flush_mode = False
            super().on_interval(snap)
        if self._flush_mode != was_flush and self.bus.wants(TOPIC_FLUSH_SWITCH):
            self.bus.emit(
                TOPIC_FLUSH_SWITCH,
                enabled=self._flush_mode,
                l2_misses=snap.l2_misses,
                threshold=self.t_cache_miss,
            )
