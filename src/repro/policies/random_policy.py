"""Random replacement (sanity-check baseline)."""

from __future__ import annotations

import random

from .base import ReplacementPolicy

__all__ = ["RandomReplacement"]

#: Large odd multiplier spreading ``(seed, set)`` pairs over distinct RNG
#: seeds. ``random.Random`` only accepts hashable scalars, so the pair is
#: mixed into one int.
_SET_SEED_STRIDE = 1_000_003


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim selection (deterministic given ``seed``).

    Each set draws from its own seeded RNG stream, so the victims chosen
    in one set do not depend on how accesses to *other* sets interleave
    — sets stay independent of each other and of the replay order.
    """

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._seed = seed

    @staticmethod
    def rng_for_set(seed: int, set_idx: int) -> random.Random:
        """The seeded RNG stream of one set."""
        return random.Random(seed * _SET_SEED_STRIDE + set_idx)

    def reset(self) -> None:
        self._rngs = [
            self.rng_for_set(self._seed, set_idx)
            for set_idx in range(self.num_sets)
        ]

    def choose_victim(self, set_idx: int, ctx) -> int:
        return self._rngs[set_idx].randrange(self.num_ways)
