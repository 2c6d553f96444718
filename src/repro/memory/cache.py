"""Set-associative cache with true-LRU replacement.

The model is a tag array only: the simulator never carries data values,
so a cache access returns hit/miss and updates recency state.  Sets are
small Python lists ordered most-recent-first; with the paper's
associativities (2–4-way) a list scan beats any fancier structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = self.writes = 0

    def add(self, accesses: int, misses: int, evictions: int, writes: int = 0) -> None:
        """Count a batch of accesses at once."""
        self.accesses += accesses
        self.hits += accesses - misses
        self.misses += misses
        self.evictions += evictions
        self.writes += writes


class SetAssocCache:
    """A set-associative, true-LRU, write-allocate tag array."""

    __slots__ = (
        "name", "config", "stats", "_sets", "_set_mask", "_line_shift", "_tag_shift",
        "_assoc",
    )

    def __init__(self, config: CacheConfig, name: str = "cache"):
        config.validate()
        self.name = name
        self.config = config
        self.stats = CacheStats()
        num_sets = config.num_sets
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._line_shift = config.line_size.bit_length() - 1
        self._tag_shift = self._set_mask.bit_length()
        self._assoc = config.assoc

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def lookup(self, addr: int) -> bool:
        """Probe without modifying replacement state (for tests and the
        predictive policies); returns True on hit."""
        idx, tag = self._index_tag(addr)
        return tag in self._sets[idx]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access the line containing ``addr``.

        Returns True on hit.  On a miss the line is allocated (fill is
        assumed to complete; timing is charged by the hierarchy), which
        may evict the LRU line of the set.
        """
        # _index_tag, inlined: this runs for every fetch line and
        # memory operation.
        line = addr >> self._line_shift
        way = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        self.stats.accesses += 1
        if is_write:
            self.stats.writes += 1
        if tag in way:
            self.stats.hits += 1
            if way[0] != tag:
                way.remove(tag)
                way.insert(0, tag)
            return True
        self.stats.misses += 1
        way.insert(0, tag)
        if len(way) > self._assoc:
            way.pop()
            self.stats.evictions += 1
        return False

    def geometry(self) -> tuple[list[list[int]], int, int, int, int]:
        """``(sets, set mask, line shift, tag shift, assoc)``: what a
        batched replay needs to update the tag array in place the way
        :meth:`access` does."""
        return self._sets, self._set_mask, self._line_shift, self._tag_shift, self._assoc

    def invalidate_all(self) -> None:
        """Flush every line (used when resetting between experiments)."""
        for way in self._sets:
            way.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(w) for w in self._sets)
