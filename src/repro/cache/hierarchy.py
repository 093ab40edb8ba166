"""Multi-level cache hierarchy.

Non-inclusive three-level model: an access probes L1, then L2, then LLC;
every miss fills the missing levels on the way back (the common
fill-on-miss policy). The simulator returns the level that served the
access, which the timing model converts to cycles.
"""

from __future__ import annotations

from typing import List, Optional

from .cache import AccessContext, SetAssociativeCache
from .config import HierarchyConfig
from .stats import CacheStats

__all__ = ["CacheHierarchy", "LEVEL_L1", "LEVEL_L2", "LEVEL_LLC", "LEVEL_DRAM"]

LEVEL_L1 = 1
LEVEL_L2 = 2
LEVEL_LLC = 3
LEVEL_DRAM = 4


class CacheHierarchy:
    """L1 -> L2 -> LLC -> DRAM access path for a single access stream.

    The LLC's replacement policy is the experiment variable; L1/L2 always
    run Bit-PLRU per Table I. L1/L2 are optional (LLC-only runs are faster
    and match cache-only locality studies).
    """

    def __init__(
        self,
        config: HierarchyConfig,
        llc_policy,
        l1_policy=None,
        l2_policy=None,
    ) -> None:
        from ..policies.plru import BitPLRU  # local import avoids a cycle

        self.config = config
        self.line_shift = config.line_size.bit_length() - 1
        self.l1: Optional[SetAssociativeCache] = None
        self.l2: Optional[SetAssociativeCache] = None
        if config.l1 is not None:
            self.l1 = SetAssociativeCache(
                config.l1, l1_policy if l1_policy is not None else BitPLRU()
            )
        if config.l2 is not None:
            self.l2 = SetAssociativeCache(
                config.l2, l2_policy if l2_policy is not None else BitPLRU()
            )
        self.llc = SetAssociativeCache(config.llc, llc_policy)
        self.level_counts = [0, 0, 0, 0, 0]  # index by LEVEL_* constants

    def access(self, addr: int, ctx: AccessContext) -> int:
        """Access a byte address; returns the level that supplied the data."""
        line_addr = addr >> self.line_shift
        level = self.access_line(line_addr, ctx)
        return level

    def access_line(self, line_addr: int, ctx: AccessContext) -> int:
        """Access an already line-granular address."""
        if self.l1 is not None and self.l1.access(line_addr, ctx):
            self.level_counts[LEVEL_L1] += 1
            return LEVEL_L1
        if self.l2 is not None and self.l2.access(line_addr, ctx):
            self.level_counts[LEVEL_L2] += 1
            return LEVEL_L2
        if self.llc.access(line_addr, ctx):
            self.level_counts[LEVEL_LLC] += 1
            return LEVEL_LLC
        self.level_counts[LEVEL_DRAM] += 1
        return LEVEL_DRAM

    # ------------------------------------------------------------------

    @property
    def llc_stats(self) -> CacheStats:
        return self.llc.stats

    def all_stats(self) -> List[CacheStats]:
        stats = []
        if self.l1 is not None:
            stats.append(self.l1.stats)
        if self.l2 is not None:
            stats.append(self.l2.stats)
        stats.append(self.llc.stats)
        return stats

    def stats_snapshot(self) -> List[CacheStats]:
        """Independent copies of every level's stats (result records)."""
        return [stats.copy() for stats in self.all_stats()]
