"""Single-level set-associative cache with pluggable replacement.

The hot path (``access``) is called once per memory reference per level, so
the implementation favors plain Python ints and lists (``list.index`` is a
C-level scan) over numpy element access.
"""

from __future__ import annotations

from typing import List, Optional


from ..errors import PolicyError
from .config import CacheConfig
from .stats import CacheStats

__all__ = ["AccessContext", "SetAssociativeCache"]

INVALID_TAG = -1


class AccessContext:
    """Mutable per-access context threaded through the hierarchy.

    ``pc`` is the access-site ID (stands in for the program counter),
    ``index`` the position in the replayed trace, ``vertex`` the current
    outer-loop vertex (the paper's ``currVertex`` register, set by the
    ``update_index`` instruction), and ``write`` the store flag.
    """

    __slots__ = ("pc", "index", "vertex", "write")

    def __init__(
        self, pc: int = 0, index: int = 0, vertex: int = 0, write: bool = False
    ) -> None:
        self.pc = pc
        self.index = index
        self.vertex = vertex
        self.write = write


class SetAssociativeCache:
    """One cache level.

    The cache owns tag state; the policy owns all replacement metadata and
    is consulted on hits, fills, and evictions. Invalid ways are filled
    before the policy is asked for a victim.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy,
        stats: Optional[CacheStats] = None,
    ) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.num_ways
        # set_mask of -1 signals modulo indexing (non-power-of-two sets).
        self.set_mask = (
            config.num_sets - 1 if config.sets_are_power_of_two else -1
        )
        self.tags: List[List[int]] = [
            [INVALID_TAG] * config.num_ways for _ in range(config.num_sets)
        ]
        self.dirty: List[List[bool]] = [
            [False] * config.num_ways for _ in range(config.num_sets)
        ]
        self.stats = stats if stats is not None else CacheStats(config.name)
        self.policy = policy
        policy.bind(self)

    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set index of one line address (mask fast path, else modulo)."""
        mask = self.set_mask
        return line_addr & mask if mask >= 0 else line_addr % self.num_sets

    def access(self, line_addr: int, ctx: AccessContext) -> bool:
        """Look up a line-granular address; fill on miss. Returns hit."""
        mask = self.set_mask
        set_idx = line_addr & mask if mask >= 0 else line_addr % self.num_sets
        return self.access_at(set_idx, line_addr, ctx)

    def access_at(
        self, set_idx: int, line_addr: int, ctx: AccessContext
    ) -> bool:
        """Access with a precomputed set index (banked LLCs index their
        sets by the bank-local line, so the caller owns the mapping)."""
        set_tags = self.tags[set_idx]
        try:
            way = set_tags.index(line_addr)
        except ValueError:
            way = -1
        if way >= 0:
            self.stats.record_hit()
            if ctx.write:
                self.dirty[set_idx][way] = True
            self.policy.on_hit(set_idx, way, ctx)
            return True
        self.stats.record_miss()
        self._fill(set_idx, line_addr, ctx)
        return False

    def probe(self, line_addr: int) -> bool:
        """Check residency without updating any state."""
        mask = self.set_mask
        set_idx = line_addr & mask if mask >= 0 else line_addr % self.num_sets
        return line_addr in self.tags[set_idx]

    def install(self, line_addr: int, ctx: AccessContext) -> bool:
        """Install a line without a demand access (prefetch fill).

        Returns True when the line was newly installed, False when it was
        already resident. Demand hit/miss stats are untouched; evictions
        caused by the fill are counted normally. The line always installs
        clean: a prefetch moves data, it does not write it, so it must not
        inherit a stale ``ctx.write`` flag and inflate writebacks later.
        """
        mask = self.set_mask
        set_idx = line_addr & mask if mask >= 0 else line_addr % self.num_sets
        if line_addr in self.tags[set_idx]:
            return False
        saved_write = ctx.write
        ctx.write = False
        try:
            self._fill(set_idx, line_addr, ctx)
        finally:
            ctx.write = saved_write
        return True

    def _fill(self, set_idx: int, line_addr: int, ctx: AccessContext) -> None:
        set_tags = self.tags[set_idx]
        try:
            way = set_tags.index(INVALID_TAG)
        except ValueError:
            way = self.policy.choose_victim(set_idx, ctx)
            if not 0 <= way < self.num_ways:
                raise PolicyError(
                    f"{self.policy.name} returned invalid way {way}"
                )
            self.stats.evictions += 1
            if self.dirty[set_idx][way]:
                self.stats.writebacks += 1
            self.policy.on_evict(set_idx, way, ctx)
        set_tags[way] = line_addr
        self.dirty[set_idx][way] = bool(ctx.write)
        self.policy.on_fill(set_idx, way, ctx)

    # ------------------------------------------------------------------

    def resident_lines(self) -> List[int]:
        """All valid resident line addresses (diagnostics/tests)."""
        return [
            tag
            for set_tags in self.tags
            for tag in set_tags
            if tag != INVALID_TAG
        ]

    def occupancy(self) -> float:
        """Fraction of ways holding valid lines."""
        valid = len(self.resident_lines())
        return valid / (self.num_sets * self.num_ways)

    def flush(self) -> None:
        """Invalidate everything (keeps policy metadata consistent by
        rebinding the policy)."""
        for set_tags in self.tags:
            for way in range(self.num_ways):
                set_tags[way] = INVALID_TAG
        for dirty_row in self.dirty:
            for way in range(self.num_ways):
                dirty_row[way] = False
        self.policy.bind(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.config.name}, "
            f"{self.num_sets}x{self.num_ways}, policy={self.policy.name})"
        )
