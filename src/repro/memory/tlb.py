"""Translation lookaside buffers.

A TLB is modelled as a set-associative tag array over virtual page
numbers; a miss charges a fixed fill latency (Table 2: 200 cycles for
both the 128-entry ITLB and 256-entry DTLB).
"""

from __future__ import annotations

from repro.config import CacheConfig, TLBConfig
from repro.memory.cache import CacheStats, SetAssocCache


class TLB:
    """Set-associative TLB built on the generic tag array."""

    __slots__ = ("config", "_array", "_page_shift")

    def __init__(self, config: TLBConfig, name: str = "tlb"):
        config.validate()
        self.config = config
        # Reuse the cache tag array: one "line" per page, sets = entries/assoc.
        self._array = SetAssocCache(
            CacheConfig(
                size=config.entries * config.page_size,
                assoc=config.assoc,
                line_size=config.page_size,
                latency=0,
            ),
            name=name,
        )
        self._page_shift = config.page_size.bit_length() - 1

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the latency penalty (0 on hit,
        ``miss_latency`` on a miss)."""
        hit = self._array.access(addr)
        return 0 if hit else self.config.miss_latency

    @property
    def stats(self) -> CacheStats:
        return self._array.stats

    @property
    def array(self) -> SetAssocCache:
        """The tag array (one line per page)."""
        return self._array

    def invalidate_all(self) -> None:
        self._array.invalidate_all()
