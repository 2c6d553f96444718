"""Self-profiler: per-stage wall-time shares and cycles/sec.

The pipeline's cycle loop calls :meth:`StageProfiler.lap` after each
stage; the profiler accumulates wall time per stage and reports the
shares, so a hot-path regression shows up as one stage's share moving
instead of a mute end-to-end slowdown.  Profiling is opt-in (the
un-profiled loop contains no clock reads at all).

Wall-clock reads are the entire point of this module, so the
determinism rule is suppressed; profiler output must never feed back
into simulated results.
"""
# lint: disable-file=determinism

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.telemetry.topics import STAGE_ORDER


@dataclass(frozen=True)
class StageProfile:
    """One run's wall-time breakdown."""

    seconds: dict[str, float]
    cycles: int
    wall_s: float

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.wall_s if self.wall_s > 0 else 0.0

    def shares(self) -> dict[str, float]:
        """Per-stage percentage of accounted stage time (sums to ~100)."""
        total = sum(self.seconds.values())
        if total <= 0:
            return {stage: 0.0 for stage in self.seconds}
        return {stage: 100.0 * s / total for stage, s in self.seconds.items()}

    def format(self) -> str:
        shares = self.shares()
        lines = [
            f"self-profile: {self.cycles} cycles in {self.wall_s:.3f}s "
            f"({self.cycles_per_sec:,.0f} cycles/s)"
        ]
        for stage in self.seconds:
            lines.append(
                f"  {stage:<10s} {self.seconds[stage]*1e3:9.1f} ms  {shares[stage]:5.1f}%"
            )
        return "\n".join(lines)


class StageProfiler:
    """Accumulates wall time per pipeline stage across a run."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {stage: 0.0 for stage in STAGE_ORDER}
        #: Simulated cycles: one per ``cycle_start``, plus the inert
        #: cycles the pipeline skips (it adds them after the tick lap).
        self.cycles = 0
        self._mark = 0.0
        self._wall_start: float | None = None
        self._wall_s = 0.0

    # ------------------------------------------------------------------
    def start_run(self) -> None:
        self._wall_start = time.perf_counter()
        self._mark = self._wall_start

    def cycle_start(self) -> None:
        self.cycles += 1
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Charge the time since the previous mark to ``stage``."""
        now = time.perf_counter()
        self._seconds[stage] = self._seconds.get(stage, 0.0) + (now - self._mark)
        self._mark = now

    def end_run(self) -> None:
        if self._wall_start is not None:
            self._wall_s += time.perf_counter() - self._wall_start
            self._wall_start = None

    # ------------------------------------------------------------------
    def report(self) -> StageProfile:
        """Snapshot the accumulated profile.

        Safe to call mid-run: the wall window is closed to account the
        elapsed time and immediately reopened, so cycles simulated
        after a mid-run report keep counting toward ``wall_s``.
        """
        mid_run = self._wall_start is not None
        if mid_run:
            self.end_run()
        profile = StageProfile(
            seconds=dict(self._seconds), cycles=self.cycles, wall_s=self._wall_s
        )
        if mid_run:
            self.start_run()
        return profile
