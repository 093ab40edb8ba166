"""RRIP-family replacement: SRRIP, BRRIP, and set-dueling DRRIP.

DRRIP (Jaleel et al. [30]) is the paper's primary baseline (Table I): real
server parts ship a DRRIP variant [52]. Re-Reference Interval Prediction
keeps an M-bit RRPV per line; victims are lines with the maximum RRPV
(re-reference predicted furthest in future).

- SRRIP inserts at ``max-1`` (long interval) and promotes to 0 on hit
  (hit-priority), giving scan resistance.
- BRRIP inserts at ``max`` except for a 1/32 trickle at ``max-1``, giving
  thrash resistance.
- DRRIP set-duels the two: a few leader sets are dedicated to each, and a
  saturating PSEL counter steers all follower sets to the current winner.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.constants import (
    BRRIP_TRICKLE,
    DEFAULT_PSEL_BITS,
    DEFAULT_RRPV_BITS,
    saturating_max,
)
from .base import ReplacementPolicy

__all__ = ["SRRIP", "BRRIP", "DRRIP", "drrip_leader_roles"]


class _RRIPBase(ReplacementPolicy):
    """Shared RRPV storage and victim scan."""

    def __init__(self, rrpv_bits: int = DEFAULT_RRPV_BITS) -> None:
        super().__init__()
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = saturating_max(rrpv_bits)

    def reset(self) -> None:
        self._rrpv = [
            [self.rrpv_max] * self.num_ways for _ in range(self.num_sets)
        ]

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        # Hit priority: promote to "re-reference imminent".
        self._rrpv[set_idx][way] = 0

    def choose_victim(self, set_idx: int, ctx) -> int:
        rrpv = self._rrpv[set_idx]
        maximum = self.rrpv_max
        while True:
            try:
                return rrpv.index(maximum)
            except ValueError:
                # Age the whole set until some line reaches max.
                bump = maximum - max(rrpv)
                for way in range(self.num_ways):
                    rrpv[way] += bump

    # Insertion differs per variant.
    def insertion_rrpv(self, set_idx: int) -> int:
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        self._rrpv[set_idx][way] = self.insertion_rrpv(set_idx)


class SRRIP(_RRIPBase):
    """Static RRIP: scan-resistant long-interval insertion."""

    name = "SRRIP"

    def insertion_rrpv(self, set_idx: int) -> int:
        return self.rrpv_max - 1


class BRRIP(_RRIPBase):
    """Bimodal RRIP: thrash-resistant distant insertion with a trickle."""

    name = "BRRIP"

    #: Probability of the "long" (rather than "distant") insertion.
    TRICKLE = BRRIP_TRICKLE

    def __init__(
        self, rrpv_bits: int = DEFAULT_RRPV_BITS, seed: int = 0
    ) -> None:
        super().__init__(rrpv_bits)
        self._seed = seed

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self._seed)

    def insertion_rrpv(self, set_idx: int) -> int:
        if self._rng.random() < self.TRICKLE:
            return self.rrpv_max - 1
        return self.rrpv_max


def drrip_leader_roles(num_sets: int, period: int) -> List[int]:
    """DRRIP's set roles: 0 follower, 1 SRRIP leader, 2 BRRIP leader.

    Within each period of sets, set 0 leads SRRIP and set period // 2
    leads BRRIP (a standard static mapping; at period 1 every set leads
    SRRIP). The policy and its replay kernels read this one map.
    """
    return [
        1 if s % period == 0 else 2 if s % period == period // 2 else 0
        for s in range(num_sets)
    ]


class DRRIP(_RRIPBase):
    """Dynamic RRIP via set dueling between SRRIP and BRRIP insertion."""

    name = "DRRIP"

    def __init__(
        self,
        rrpv_bits: int = DEFAULT_RRPV_BITS,
        psel_bits: int = DEFAULT_PSEL_BITS,
        leader_period: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(rrpv_bits)
        self.psel_max = saturating_max(psel_bits)
        self.leader_period = leader_period
        self._seed = seed

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self._seed)
        self._psel = self.psel_max // 2
        self._leader = drrip_leader_roles(self.num_sets, self.leader_period)

    def _miss_feedback(self, set_idx: int) -> None:
        # A miss in a leader set votes against that leader's policy.
        role = self._leader[set_idx]
        if role == 1 and self._psel < self.psel_max:
            self._psel += 1  # SRRIP missed -> lean BRRIP
        elif role == 2 and self._psel > 0:
            self._psel -= 1  # BRRIP missed -> lean SRRIP

    def insertion_rrpv(self, set_idx: int) -> int:
        self._miss_feedback(set_idx)
        role = self._leader[set_idx]
        if role == 1:
            use_brrip = False
        elif role == 2:
            use_brrip = True
        else:
            use_brrip = self._psel > self.psel_max // 2
        if not use_brrip:
            return self.rrpv_max - 1
        if self._rng.random() < BRRIP.TRICKLE:
            return self.rrpv_max - 1
        return self.rrpv_max
