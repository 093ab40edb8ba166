"""Dead-block prediction policies: SDBP and Leeway.

The paper's Related Work (Section VIII) positions P-OPT against
dead-block predictors — "policies like SDBP [32] and Leeway [21] that
find cache lines that will receive no further accesses" — arguing P-OPT
identifies dead lines more accurately because it reads exact next
references from the transpose. These implementations let that claim be
measured directly (the ``related_deadblock`` entry of
:data:`repro.sim.spec.STUDIES`).

**SDBP** (Khan, Tian & Jimenez, MICRO'10): a *decoupled sampler* observes
a subset of sets with its own tag history (longer lifetime than the real
cache, which is what keeps mispredictions from becoming self-fulfilling);
sampler entries evicted without reuse train their last-touch PC "dead",
sampler hits train "live". Lines whose last-touch PC is predicted dead
become preferred victims.

**Leeway** (Faldu & Grot, PACT'17): tracks each line's *live distance* —
the deepest recency-stack position at which it still receives hits —
learned per PC with asymmetric updates (raise immediately on observed
deep hits, lower hesitantly), the spirit of Leeway's variability-aware
update policies. A line sitting deeper than its PC's live distance is
predicted dead.

Both reduce to PC-indexed prediction, which Section II-B shows is the
wrong lens for graph data: the single irregular load site mixes hub and
cold vertices, so these predictors cannot separate live from dead lines.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from .base import ReplacementPolicy

__all__ = ["SDBP", "Leeway"]


class _SamplerEntry:
    __slots__ = ("pc", "reused")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.reused = False


class SDBP(ReplacementPolicy):
    """Sampling Dead Block Prediction over an LRU substrate."""

    name = "SDBP"

    COUNTER_MAX = 3
    DEAD_THRESHOLD = 2       # counter >= threshold -> predicted dead
    SAMPLER_FACTOR = 4       # sampler history depth, in multiples of ways

    def __init__(self, sample_every: int = 8) -> None:
        super().__init__()
        self.sample_every = sample_every

    def reset(self) -> None:
        self._clock = 0
        self._stamps = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._line_pc = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._dead = [[False] * self.num_ways for _ in range(self.num_sets)]
        self._predictor = defaultdict(int)  # PC -> dead counter
        self._samplers = {
            set_idx: OrderedDict()
            for set_idx in range(0, self.num_sets, self.sample_every)
        }

    def _predict_dead(self, pc: int) -> bool:
        return self._predictor[pc] >= self.DEAD_THRESHOLD

    def _observe(self, set_idx: int, line_addr: int, ctx) -> None:
        """Feed the decoupled sampler: its history outlives the cache's
        residency, so real reuse is observed even when the cache itself
        thrashes (what keeps dead-prediction from self-fulfilling)."""
        sampler = self._samplers.get(set_idx)
        if sampler is None:
            return
        entry = sampler.get(line_addr)
        if entry is not None:
            if not entry.reused:
                # Reused while in sampler history: the filling PC is live.
                if self._predictor[entry.pc] > 0:
                    self._predictor[entry.pc] -= 1
                entry.reused = True
            entry.pc = ctx.pc
            sampler.move_to_end(line_addr)
        else:
            sampler[line_addr] = _SamplerEntry(ctx.pc)
            if len(sampler) > self.SAMPLER_FACTOR * self.num_ways:
                __, victim = sampler.popitem(last=False)
                if not victim.reused:
                    # Aged out of a long history with no reuse: dead.
                    if self._predictor[victim.pc] < self.COUNTER_MAX:
                        self._predictor[victim.pc] += 1

    def _touch(self, set_idx: int, way: int, ctx) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock
        self._line_pc[set_idx][way] = ctx.pc
        self._dead[set_idx][way] = self._predict_dead(ctx.pc)

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        self._observe(set_idx, self.cache.tags[set_idx][way], ctx)
        self._touch(set_idx, way, ctx)

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        self._observe(set_idx, self.cache.tags[set_idx][way], ctx)
        self._touch(set_idx, way, ctx)

    def choose_victim(self, set_idx: int, ctx) -> int:
        dead = self._dead[set_idx]
        stamps = self._stamps[set_idx]
        best_way = -1
        best_stamp = None
        for way in range(self.num_ways):
            if dead[way] and (best_stamp is None
                              or stamps[way] < best_stamp):
                best_way = way
                best_stamp = stamps[way]
        if best_way >= 0:
            return best_way
        return stamps.index(min(stamps))


class Leeway(ReplacementPolicy):
    """Live-distance based dead-block prediction (Leeway)."""

    name = "Leeway"

    MAX_LIVE_DISTANCE = 15
    #: Consecutive shrink observations needed before lowering a PC's
    #: live distance (the hesitation that makes updates variability-aware).
    SHRINK_HESITATION = 8

    def reset(self) -> None:
        self._clock = 0
        self._stamps = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._line_pc = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._line_max_depth = [
            [0] * self.num_ways for _ in range(self.num_sets)
        ]
        self._live_distance = defaultdict(
            lambda: self.MAX_LIVE_DISTANCE
        )
        self._shrink_votes = defaultdict(int)

    def _stack_depth(self, set_idx: int, way: int) -> int:
        """Recency-stack position of a way (0 = MRU)."""
        stamps = self._stamps[set_idx]
        mine = stamps[way]
        return sum(1 for s in stamps if s > mine)

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        depth = self._stack_depth(set_idx, way)
        if depth > self._line_max_depth[set_idx][way]:
            self._line_max_depth[set_idx][way] = depth
        pc = self._line_pc[set_idx][way]
        # Raise immediately: an observed deep hit proves liveness there.
        if depth > self._live_distance[pc]:
            self._live_distance[pc] = min(depth, self.MAX_LIVE_DISTANCE)
            self._shrink_votes[pc] = 0
        self._clock += 1
        self._stamps[set_idx][way] = self._clock
        self._line_pc[set_idx][way] = ctx.pc

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock
        self._line_pc[set_idx][way] = ctx.pc
        self._line_max_depth[set_idx][way] = 0

    def on_evict(self, set_idx: int, way: int, ctx) -> None:
        # Lower hesitantly: only a run of consistent shallow lifetimes
        # shrinks the PC's live distance by one.
        pc = self._line_pc[set_idx][way]
        observed = self._line_max_depth[set_idx][way]
        current = self._live_distance[pc]
        if observed < current:
            self._shrink_votes[pc] += 1
            if self._shrink_votes[pc] >= self.SHRINK_HESITATION:
                self._live_distance[pc] = current - 1
                self._shrink_votes[pc] = 0
        else:
            self._shrink_votes[pc] = 0

    def choose_victim(self, set_idx: int, ctx) -> int:
        stamps = self._stamps[set_idx]
        order = sorted(
            range(self.num_ways), key=lambda w: stamps[w]
        )  # LRU first
        total = self.num_ways
        # Prefer the LRU-most line already past its PC's live distance.
        for position, way in enumerate(order):
            depth = total - 1 - position
            pc = self._line_pc[set_idx][way]
            if depth > self._live_distance[pc]:
                return way
        return order[0]
