"""Branch prediction: gshare + BTB + per-thread return address stacks.

Table 2 configuration: a 2K-entry gshare PHT indexed by PC XOR a 10-bit
per-thread global history, a 2K-entry 4-way BTB, and a 32-entry RAS per
thread.

Design notes
------------
* The PHT holds 2-bit saturating counters shared across threads (as in
  a real SMT front-end, so destructive/constructive inter-thread
  aliasing is modelled); the global history register is per-thread.
* History and PHT are updated non-speculatively when a branch commits.
  This forgoes speculative-history repair logic at a small accuracy
  cost, which is irrelevant to the paper's mechanisms (they consume the
  resulting wrong-path population, not the predictor internals).
* The BTB caches taken-branch targets.  Because the synthetic ISA
  addresses control-flow targets as basic-block ids, the BTB maps
  ``pc -> block id``.  A predicted-taken branch that misses in the BTB
  falls back to not-taken (no target available at fetch).
* The RAS is speculatively pushed/popped at fetch.  Wrong-path
  corruption is intentionally left unrepaired (real RAS behaviour
  without checkpointing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BranchPredictorConfig


@dataclass
class BranchPredictorStats:
    """Aggregate direction/target prediction counters."""

    direction_lookups: int = 0
    direction_correct: int = 0
    btb_lookups: int = 0
    btb_hits: int = 0
    ras_pushes: int = 0
    ras_pops: int = 0

    @property
    def direction_accuracy(self) -> float:
        if not self.direction_lookups:
            return 0.0
        return self.direction_correct / self.direction_lookups


class BranchPredictor:
    """Gshare direction predictor with BTB and per-thread RAS."""

    def __init__(self, config: BranchPredictorConfig, num_threads: int):
        config.validate()
        self.config = config
        self.num_threads = num_threads
        self._pht = [2] * config.pht_entries  # weakly taken
        self._pht_mask = config.pht_entries - 1
        self._hist = [0] * num_threads
        self._hist_mask = (1 << config.history_bits) - 1
        # BTB: direct-mapped-by-set, assoc ways of (tag, target), LRU.
        self._btb_sets = config.btb_entries // config.btb_assoc
        self._btb: list[list[tuple[int, int]]] = [[] for _ in range(self._btb_sets)]
        self._ras: list[list[int]] = [[] for _ in range(num_threads)]
        self.stats = BranchPredictorStats()

    # ------------------------------------------------------------------
    # Direction
    # ------------------------------------------------------------------
    def _pht_index(self, pc: int, thread: int) -> int:
        return ((pc >> 2) ^ self._hist[thread]) & self._pht_mask

    def predict_direction(self, pc: int, thread: int) -> tuple[bool, int]:
        """Predict taken/not-taken for the conditional branch at ``pc``.

        Returns ``(taken, pht_index)``; the index must be passed back to
        :meth:`update_direction` so training hits the entry that made
        the prediction (the history register will have moved by then).
        """
        idx = self._pht_index(pc, thread)
        return self._pht[idx] >= 2, idx

    def update_direction(
        self, pc: int, thread: int, taken: bool, predicted: bool, idx: int | None = None
    ) -> None:
        """Commit-time update of PHT and the thread's global history."""
        if idx is None:
            idx = self._pht_index(pc, thread)
        ctr = self._pht[idx]
        if taken:
            if ctr < 3:
                self._pht[idx] = ctr + 1
        else:
            if ctr > 0:
                self._pht[idx] = ctr - 1
        self._hist[thread] = ((self._hist[thread] << 1) | int(taken)) & self._hist_mask
        self.stats.direction_lookups += 1
        if taken == predicted:
            self.stats.direction_correct += 1

    # ------------------------------------------------------------------
    # Targets (BTB)
    # ------------------------------------------------------------------
    def _btb_set(self, pc: int) -> int:
        return (pc >> 2) % self._btb_sets

    def btb_lookup(self, pc: int) -> int | None:
        """Return the cached taken-target (block id) or None on miss."""
        self.stats.btb_lookups += 1
        ways = self._btb[self._btb_set(pc)]
        for i, (tag, target) in enumerate(ways):
            if tag == pc:
                if i:
                    ways.insert(0, ways.pop(i))
                self.stats.btb_hits += 1
                return target
        return None

    def btb_update(self, pc: int, target: int) -> None:
        """Install/refresh the target of a taken control instruction."""
        ways = self._btb[self._btb_set(pc)]
        for i, (tag, _) in enumerate(ways):
            if tag == pc:
                ways[i] = (pc, target)
                if i:
                    ways.insert(0, ways.pop(i))
                return
        ways.insert(0, (pc, target))
        if len(ways) > self.config.btb_assoc:
            ways.pop()

    # ------------------------------------------------------------------
    # RAS
    # ------------------------------------------------------------------
    def ras_push(self, thread: int, return_block: int) -> None:
        ras = self._ras[thread]
        ras.append(return_block)
        if len(ras) > self.config.ras_entries:
            ras.pop(0)
        self.stats.ras_pushes += 1

    def ras_pop(self, thread: int) -> int | None:
        self.stats.ras_pops += 1
        ras = self._ras[thread]
        return ras.pop() if ras else None

    def reset_stats(self) -> None:
        """Zero the counters without disturbing the trained state (used
        after functional warm-up: warm-up predictions don't count)."""
        self.stats = BranchPredictorStats()
