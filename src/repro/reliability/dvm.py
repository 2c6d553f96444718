"""Dynamic Vulnerability Management (Section 5, Figure 7).

DVM keeps the runtime IQ AVF below a pre-set reliability target while
minimizing performance loss.  Mechanism (Section 5.1):

* An **online AVF estimate** comes from a hardware ACE-bit counter that
  accumulates the predicted-ACE bits resident in the IQ each cycle; the
  estimate is the counter divided by (cycles × total IQ bits).
* The estimate is sampled at fine granularity (5 samples per 10K-cycle
  interval) and compared against a **trigger threshold** set at 90% of
  the reliability target.
* When triggered, the **response mechanism** throttles dispatch so the
  ratio of waiting to ready instructions in the IQ stays below
  ``wq_ratio``; the ratio check is recomputed once every 50 cycles
  (integer division cost).  ``wq_ratio`` adapts slowly up / rapidly
  down ("slow increases and rapid decreases ... quick response to a
  vulnerability emergency").
* Any **L2 cache miss** enables the response mechanism immediately
  (dependent instructions would otherwise sit in the IQ for hundreds of
  cycles, inflating AVF).
* If **all threads are stalled** on L2 misses while the online AVF is
  below the trigger threshold, dispatch is restored for the thread with
  the fewest (predicted-)ACE instructions in its fetch queue — un-ACE
  instructions add ILP at little reliability cost.

``DVMController(static_ratio=...)`` gives the *DVM (static)* ablation
of Figure 10: the ratio is fixed instead of adapted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ReliabilityConfig
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import (
    TOPIC_DVM_RATIO,
    TOPIC_DVM_SAMPLE,
    TOPIC_DVM_TRIGGER,
    TOPIC_RELIABILITY_ESTIMATE,
)


@dataclass
class DVMStats:
    """Observable behaviour of the controller (for tests/experiments)."""

    samples: int = 0
    triggered_samples: int = 0
    l2_triggers: int = 0
    throttled_dispatch_checks: int = 0
    restore_grants: int = 0
    ratio_history: list[float] = field(default_factory=list)

    @property
    def mean_ratio(self) -> float:
        if not self.ratio_history:
            return 0.0
        return sum(self.ratio_history) / len(self.ratio_history)


class DVMController:
    """Runtime IQ vulnerability governor."""

    def __init__(
        self,
        reliability_target: float,
        config: ReliabilityConfig | None = None,
        static_ratio: float | None = None,
    ):
        if not (0.0 < reliability_target <= 1.0):
            raise ValueError("reliability_target must be an AVF in (0, 1]")
        self.config = config or ReliabilityConfig()
        self.config.validate()
        self.reliability_target = reliability_target
        self.trigger_threshold = reliability_target * self.config.dvm_trigger_fraction
        self.static_ratio = static_ratio
        self.wq_ratio = static_ratio if static_ratio is not None else self.config.wq_ratio_initial
        self.triggered = False
        self._dispatch_ok = True
        self.restore_thread: int | None = None
        self.stats = DVMStats()
        self.last_estimate = 0.0
        #: Telemetry spine; the pipeline replaces this with its shared
        #: bus so decisions carry cycle/stage stamps.  A private bus
        #: with no subscribers makes every emit a no-op.
        self.bus = EventBus()
        #: Which structure this controller governs ("iq", or "rob" for
        #: the ROB-DVM extension); tags ``reliability.estimate`` events.
        self.structure = "iq"

    @property
    def is_static(self) -> bool:
        return self.static_ratio is not None

    # ------------------------------------------------------------------
    # Trigger mechanism
    # ------------------------------------------------------------------
    def on_sample(self, est_avf: float) -> None:
        """Fine-grained online-AVF sample (5 per interval).

        Adapts ``wq_ratio`` (unless static) and arms/disarms the
        response mechanism.
        """
        self.stats.samples += 1
        self.last_estimate = est_avf
        cfg = self.config
        was_triggered = self.triggered
        old_ratio = self.wq_ratio
        if est_avf > self.trigger_threshold:
            self.triggered = True
            self.stats.triggered_samples += 1
            if not self.is_static:
                self.wq_ratio = max(
                    cfg.wq_ratio_min, self.wq_ratio * cfg.wq_ratio_decrease_factor
                )
        else:
            self.triggered = False
            if not self.is_static:
                self.wq_ratio = min(
                    cfg.wq_ratio_max, self.wq_ratio + cfg.wq_ratio_increase_step
                )
        self.stats.ratio_history.append(self.wq_ratio)
        bus = self.bus
        if bus.wants(TOPIC_DVM_SAMPLE):
            bus.emit(
                TOPIC_DVM_SAMPLE,
                estimate=est_avf,
                triggered=self.triggered,
                wq_ratio=self.wq_ratio,
            )
        if self.triggered and not was_triggered and bus.wants(TOPIC_DVM_TRIGGER):
            bus.emit(TOPIC_DVM_TRIGGER, reason="sample", estimate=est_avf)
        if self.wq_ratio != old_ratio and bus.wants(TOPIC_DVM_RATIO):
            bus.emit(
                TOPIC_DVM_RATIO,
                old_ratio=old_ratio,
                new_ratio=self.wq_ratio,
                direction="decrease" if self.wq_ratio < old_ratio else "increase",
            )
        if bus.wants(TOPIC_RELIABILITY_ESTIMATE):
            bus.emit(
                TOPIC_RELIABILITY_ESTIMATE,
                structure=self.structure,
                estimate=est_avf,
                threshold=self.trigger_threshold,
                triggered=self.triggered,
            )

    def on_l2_miss(self) -> None:
        """An L2 miss enables the response mechanism immediately."""
        was_triggered = self.triggered
        self.triggered = True
        self.stats.l2_triggers += 1
        if not was_triggered and self.bus.wants(TOPIC_DVM_TRIGGER):
            self.bus.emit(
                TOPIC_DVM_TRIGGER, reason="l2_miss", estimate=self.last_estimate
            )

    # ------------------------------------------------------------------
    # Response mechanism
    # ------------------------------------------------------------------
    def recompute_ratio_gate(self, waiting: int, ready: int) -> None:
        """The waiting/ready check, performed once per
        ``dvm_ratio_period`` cycles (integer-division cost, Section 5.1)."""
        self._dispatch_ok = waiting <= self.wq_ratio * max(ready, 1)

    def allow_dispatch(self, tid: int) -> bool:
        """May thread ``tid`` dispatch into the IQ this cycle?"""
        if not self.triggered:
            return True
        if self._dispatch_ok:
            return True
        self.stats.throttled_dispatch_checks += 1
        if tid == self.restore_thread:
            self.stats.restore_grants += 1
            return True
        return False

    def set_restore_thread(self, tid: int | None) -> None:
        """Pipeline-selected thread (fewest predicted-ACE instructions
        in its fetch queue) allowed to dispatch while all threads are
        L2-stalled and the online AVF is below the trigger threshold."""
        self.restore_thread = tid

    @property
    def restore_eligible(self) -> bool:
        """Restoration applies only while the estimate is back under the
        trigger threshold."""
        return self.last_estimate < self.trigger_threshold
