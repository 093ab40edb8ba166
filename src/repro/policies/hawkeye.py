"""Hawkeye replacement (Jain & Lin [28]).

Hawkeye retroactively applies Belady's MIN to the history of accesses: a
set-sampled *OPTgen* structure decides whether each access **would have
hit** under OPT with the cache's capacity, and a PC-indexed table of
saturating counters learns which access sites produce cache-friendly
lines. Fills predicted friendly insert at RRPV 0 and age slowly; fills
predicted averse insert at max RRPV and are evicted first.

The paper's observation (Section II-B) is that PC-based prediction is the
wrong lens for graph kernels: the single irregular load site mixes hub and
cold vertices, so Hawkeye's predictor sees contradictory training and
converges near DRRIP behaviour — which is exactly what Figs. 2/4 show.

Implementation notes: OPTgen is modeled per sampled set with an occupancy
vector over a sliding window of that set's accesses, as in the original
paper (8x associativity history per set).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from ..sim.constants import (
    HAWKEYE_COUNTER_INITIAL,
    HAWKEYE_COUNTER_MAX,
    HAWKEYE_RRPV_MAX,
)
from .base import ReplacementPolicy

__all__ = ["Hawkeye"]


class _SetHistory:
    """Sliding access history + occupancy vector for one sampled set."""

    __slots__ = ("capacity", "window", "times", "occupancy", "last_access",
                 "clock")

    def __init__(self, capacity: int, window: int) -> None:
        self.capacity = capacity
        self.window = window
        self.occupancy: List[int] = []
        self.last_access: Dict[int, int] = {}
        self.clock = 0

    def record(self, line_addr: int) -> "bool | None":
        """Record an access; returns OPT's verdict for the *previous*
        access to this line (True = would hit), or None on first touch."""
        verdict = None
        previous = self.last_access.get(line_addr)
        if previous is not None and self.clock - previous <= self.window:
            start = previous - (self.clock - len(self.occupancy))
            interval = self.occupancy[start:] if start >= 0 else None
            if interval is not None:
                if all(slot < self.capacity for slot in interval):
                    for i in range(start, len(self.occupancy)):
                        self.occupancy[i] += 1
                    verdict = True
                else:
                    verdict = False
        self.occupancy.append(0)
        if len(self.occupancy) > self.window:
            drop = len(self.occupancy) - self.window
            del self.occupancy[:drop]
        self.last_access[line_addr] = self.clock
        self.clock += 1
        if len(self.last_access) > 4 * self.window:
            horizon = self.clock - self.window
            self.last_access = {
                line: t for line, t in self.last_access.items() if t >= horizon
            }
        return verdict


class Hawkeye(ReplacementPolicy):
    """Hawkeye with 3-bit RRIP ranks and a PC-indexed predictor."""

    name = "Hawkeye"

    RRPV_MAX = HAWKEYE_RRPV_MAX        # 3-bit ranks (original design)
    COUNTER_MAX = HAWKEYE_COUNTER_MAX  # 3-bit saturating counters
    COUNTER_INITIAL = HAWKEYE_COUNTER_INITIAL

    def __init__(self, sample_every: int = 8, history_factor: int = 8) -> None:
        super().__init__()
        self.sample_every = sample_every
        self.history_factor = history_factor

    def reset(self) -> None:
        self._rrpv = [
            [self.RRPV_MAX] * self.num_ways for _ in range(self.num_sets)
        ]
        self._line_pc = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._predictor = defaultdict(lambda: self.COUNTER_INITIAL)
        window = self.history_factor * self.num_ways
        self._histories = {
            set_idx: _SetHistory(self.num_ways, window)
            for set_idx in range(0, self.num_sets, self.sample_every)
        }
        # Which PC last touched each line in a sampled set (for training).
        self._last_pc = {set_idx: {} for set_idx in self._histories}

    # ------------------------------------------------------------------

    def _train(self, set_idx: int, line_addr: int, ctx) -> None:
        history = self._histories.get(set_idx)
        if history is None:
            return
        verdict = history.record(line_addr)
        last_pc_map = self._last_pc[set_idx]
        trained_pc = last_pc_map.get(line_addr)
        if verdict is not None and trained_pc is not None:
            counter = self._predictor[trained_pc]
            if verdict and counter < self.COUNTER_MAX:
                self._predictor[trained_pc] = counter + 1
            elif not verdict and counter > 0:
                self._predictor[trained_pc] = counter - 1
        last_pc_map[line_addr] = ctx.pc

    def _is_friendly(self, pc: int) -> bool:
        return self._predictor[pc] >= self.COUNTER_INITIAL

    def _insert(self, set_idx: int, way: int, ctx) -> None:
        if self._is_friendly(ctx.pc):
            # Friendly: insert at 0 and age everyone else by one.
            rrpv = self._rrpv[set_idx]
            for other in range(self.num_ways):
                if other != way and rrpv[other] < self.RRPV_MAX - 1:
                    rrpv[other] += 1
            rrpv[way] = 0
        else:
            self._rrpv[set_idx][way] = self.RRPV_MAX

    # ------------------------------------------------------------------

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        line_addr = self.cache.tags[set_idx][way]
        self._train(set_idx, line_addr, ctx)
        self._line_pc[set_idx][way] = ctx.pc
        if self._is_friendly(ctx.pc):
            self._rrpv[set_idx][way] = 0

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        line_addr = self.cache.tags[set_idx][way]
        self._train(set_idx, line_addr, ctx)
        self._line_pc[set_idx][way] = ctx.pc
        self._insert(set_idx, way, ctx)

    def on_evict(self, set_idx: int, way: int, ctx) -> None:
        # Original Hawkeye detrains the PC of a cache-friendly line that
        # gets evicted anyway: its prediction was wrong.
        pc = self._line_pc[set_idx][way]
        if self._is_friendly(pc) and self._predictor[pc] > 0:
            self._predictor[pc] -= 1

    def choose_victim(self, set_idx: int, ctx) -> int:
        rrpv = self._rrpv[set_idx]
        try:
            return rrpv.index(self.RRPV_MAX)
        except ValueError:
            # No averse line: evict the oldest friendly line (highest rank).
            return rrpv.index(max(rrpv))
