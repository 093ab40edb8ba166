"""Runtime invariant checker for sanitized replays (opt-in).

``simulate_prepared(..., sanitize=True)`` threads a
:class:`CacheSanitizer` through the replay: every ``interval`` LLC
accesses and again at end-of-replay it validates the structural
invariants that the fast engine's correctness rests on. A violation
raises :class:`~repro.errors.SanitizerError` at the access where the
corruption became visible instead of skewing a headline number silently.

Checked invariants:

- **tag-array sanity** — no duplicate tags within a set, at most
  ``num_ways`` valid ways, dirty bits only on valid ways;
- **stats conservation** — ``accesses == hits + misses``, counters
  non-negative, and on the demand-only replay paths ``evictions <=
  misses`` (each demand fill evicts at most once) and ``writebacks <=
  evictions`` (only an eviction can write back);
- **policy/geometry agreement** — per-set metadata lists on the bound
  policy are sized to the cache's ``num_sets`` (stale state from a
  previous ``bind()`` is exactly the bug class the replay engine's
  policy reuse could otherwise hide);
- **private-filter/LLC-stream consistency** — the cached
  :class:`~repro.sim.engine.PrivateFilter`'s mask, subsequence channels,
  and L1/L2 stats chain together (``l2.accesses == l1.misses`` etc.) and
  the LLC observed exactly the filtered stream;
- **Belady lower bound** — once OPT has run on a (filter, LLC-geometry)
  combination, no other policy on the same combination may report fewer
  LLC misses: Belady's MIN is provably optimal, so "beating OPT" always
  means a bookkeeping bug.

The sanitizer never mutates simulation state, so a sanitized run is
bit-identical to an unsanitized one — ``tests/cache/test_sanitizer.py``
asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SanitizerError
from .cache import INVALID_TAG, SetAssociativeCache
from .stats import CacheStats

__all__ = ["CacheSanitizer", "SanitizerReport", "DEFAULT_INTERVAL"]

#: LLC accesses between periodic mid-replay checks.
DEFAULT_INTERVAL = 8192


@dataclass
class SanitizerReport:
    """How much checking a sanitized run actually did (for details/CI)."""

    cache_checks: int = 0
    stats_checks: int = 0
    policy_checks: int = 0
    filter_checks: int = 0
    chain_checks: int = 0
    bound_checks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cache_checks": self.cache_checks,
            "stats_checks": self.stats_checks,
            "policy_checks": self.policy_checks,
            "filter_checks": self.filter_checks,
            "chain_checks": self.chain_checks,
            "bound_checks": self.bound_checks,
        }

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())


class CacheSanitizer:
    """Validates cache/stats/filter invariants during a replay."""

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise SanitizerError("sanitizer interval must be positive")
        self.interval = interval
        self.report = SanitizerReport()

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------

    def _fail(self, where: str, message: str) -> None:
        raise SanitizerError(f"sanitizer[{where}]: {message}")

    def check_cache(
        self, cache: SetAssociativeCache, where: str = "llc"
    ) -> None:
        """Tag-array sanity: unique valid tags, dirty implies valid."""
        self.report.cache_checks += 1
        num_ways = cache.num_ways
        for set_idx, set_tags in enumerate(cache.tags):
            if len(set_tags) != num_ways:
                self._fail(
                    where,
                    f"set {set_idx} has {len(set_tags)} ways, expected "
                    f"{num_ways}",
                )
            valid = [tag for tag in set_tags if tag != INVALID_TAG]
            if len(valid) != len(set(valid)):
                dupes = sorted(
                    tag for tag in set(valid) if valid.count(tag) > 1
                )
                self._fail(
                    where,
                    f"set {set_idx} holds duplicate tags {dupes}: the "
                    "same line is resident in two ways",
                )
            dirty_row = cache.dirty[set_idx]
            for way in range(num_ways):
                if dirty_row[way] and set_tags[way] == INVALID_TAG:
                    self._fail(
                        where,
                        f"set {set_idx} way {way} is dirty but invalid",
                    )

    def check_stats(
        self,
        stats: CacheStats,
        where: str = "llc",
        demand_only: bool = True,
    ) -> None:
        """Counter conservation. ``demand_only`` adds the bounds that
        hold when every fill comes from a demand miss (the replay paths;
        prefetch installs fill without missing and void them)."""
        self.report.stats_checks += 1
        for attr in ("accesses", "hits", "misses", "evictions",
                     "writebacks"):
            if getattr(stats, attr) < 0:
                self._fail(
                    where, f"{stats.name}: negative {attr} counter"
                )
        if stats.accesses != stats.hits + stats.misses:
            self._fail(
                where,
                f"{stats.name}: accesses ({stats.accesses}) != hits "
                f"({stats.hits}) + misses ({stats.misses})",
            )
        if demand_only and stats.evictions > stats.misses:
            self._fail(
                where,
                f"{stats.name}: evictions ({stats.evictions}) exceed "
                f"demand fills ({stats.misses})",
            )
        if stats.writebacks > stats.evictions:
            self._fail(
                where,
                f"{stats.name}: writebacks ({stats.writebacks}) exceed "
                f"evictions ({stats.evictions}); only evictions of dirty "
                "lines write back",
            )

    def check_policy_state(
        self, cache: SetAssociativeCache, where: str = "llc"
    ) -> None:
        """Per-set metadata on the bound policy matches the geometry.

        Any list-of-lists attribute on a policy is, by the
        ReplacementPolicy contract, per-set metadata — its outer length
        must equal ``num_sets``. Stale lengths mean state survived from a
        previous ``bind()`` (built in ``__init__`` instead of
        ``reset()``).
        """
        self.report.policy_checks += 1
        policy = cache.policy
        num_sets = cache.num_sets
        for attr, value in sorted(vars(policy).items()):
            if not isinstance(value, list) or not value:
                continue
            if not all(isinstance(entry, list) for entry in value):
                continue
            if len(value) != num_sets:
                self._fail(
                    where,
                    f"{policy.name}.{attr} holds per-set state for "
                    f"{len(value)} sets but the cache has {num_sets}: "
                    "stale metadata from a previous bind()",
                )

    # ------------------------------------------------------------------
    # Stream / filter checks
    # ------------------------------------------------------------------

    def check_filter(self, filt: object, where: str = "filter") -> None:
        """Internal consistency of a cached PrivateFilter."""
        self.report.filter_checks += 1
        import numpy as np

        mask = getattr(filt, "mask")
        num_accesses = getattr(filt, "num_accesses")
        lines = getattr(filt, "lines")
        indices = getattr(filt, "indices")
        if len(mask) != num_accesses:
            self._fail(
                where,
                f"mask covers {len(mask)} accesses, trace has "
                f"{num_accesses}",
            )
        visible = int(np.count_nonzero(mask))
        channels = {
            "lines": len(lines),
            "pcs": len(getattr(filt, "pcs")),
            "writes": len(getattr(filt, "writes")),
            "vertices": len(getattr(filt, "vertices")),
            "indices": len(indices),
        }
        for channel, length in channels.items():
            if length != visible:
                self._fail(
                    where,
                    f"{channel} has {length} entries but the mask marks "
                    f"{visible} LLC-visible accesses",
                )
        if any(b <= a for a, b in zip(indices, indices[1:])):
            self._fail(
                where,
                "filtered trace indices are not strictly increasing",
            )
        if visible and (indices[0] < 0 or indices[-1] >= num_accesses):
            self._fail(where, "filtered trace indices out of range")

        l1_stats = getattr(filt, "l1_stats")
        l2_stats = getattr(filt, "l2_stats")
        expected = num_accesses
        for level_stats in (l1_stats, l2_stats):
            if level_stats is None:
                continue
            self.check_stats(level_stats, where=f"{where}/private")
            if level_stats.accesses != expected:
                self._fail(
                    where,
                    f"{level_stats.name} observed {level_stats.accesses} "
                    f"accesses, expected {expected} (the level above "
                    "missed that many)",
                )
            expected = level_stats.misses
        if visible != expected:
            self._fail(
                where,
                f"LLC-visible stream has {visible} accesses but the "
                f"private levels miss {expected}",
            )

    def check_level_chain(
        self, levels: List[CacheStats], num_accesses: int,
        where: str = "levels",
    ) -> None:
        """Miss-in/access-out conservation across hierarchy levels."""
        self.report.chain_checks += 1
        expected = num_accesses
        for stats in levels:
            self.check_stats(stats, where=where)
            if stats.accesses != expected:
                self._fail(
                    where,
                    f"{stats.name} observed {stats.accesses} accesses; "
                    f"the level above misses {expected}",
                )
            expected = stats.misses

    # ------------------------------------------------------------------
    # Belady lower bound
    # ------------------------------------------------------------------

    def record_llc_misses(
        self,
        records: Dict[object, Dict[str, int]],
        key: object,
        policy_name: str,
        misses: int,
        oracle: str = "OPT",
    ) -> None:
        """Record a policy's LLC misses and enforce the Belady bound.

        ``records`` lives on the PreparedRun (policies replaying the same
        prepared trace share it); ``key`` captures everything that must
        match for the bound to apply — private geometry and exact LLC
        geometry.
        """
        self.report.bound_checks += 1
        bucket = records.setdefault(key, {})
        bucket[policy_name] = misses
        bound = bucket.get(oracle)
        if bound is None:
            return
        for name, observed in sorted(bucket.items()):
            if observed < bound:
                self._fail(
                    "belady",
                    f"{name} reports {observed} LLC misses, below "
                    f"{oracle}'s {bound} on the identical replay: "
                    "Belady's MIN is optimal, so this is a bookkeeping "
                    "bug",
                )

    # ------------------------------------------------------------------
    # End-of-replay bundle
    # ------------------------------------------------------------------

    def check_end_of_replay(
        self,
        llc: SetAssociativeCache,
        levels: List[CacheStats],
        num_accesses: int,
        filt: Optional[object] = None,
    ) -> None:
        """Everything, once, after the last access."""
        self.check_cache(llc)
        self.check_stats(llc.stats)
        self.check_policy_state(llc)
        if filt is not None:
            self.check_filter(filt)
        self.check_level_chain(levels, num_accesses)
