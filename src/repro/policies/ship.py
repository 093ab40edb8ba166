"""SHiP: Signature-based Hit Predictor (Wu et al. [53]).

SHiP layers a re-reference predictor over SRRIP. Every line carries the
*signature* of the access that filled it plus an outcome bit; a table of
saturating counters (the SHCT) learns, per signature, whether filled lines
are re-referenced before eviction. Fills whose signature has a zero counter
insert at distant RRPV (predicted dead); others insert long.

Two signature flavors match the paper's Section II-B:

- **SHiP-PC** signs with the access-site ID (program counter). Graph
  kernels defeat it: the single ``srcData[src]`` load site covers both
  hub vertices (high reuse) and cold vertices (no reuse).
- **SHiP-Mem** signs with the memory region of the line. The paper
  evaluates an *idealized* variant with unbounded tracking; here the SHCT
  is a dict (infinite capacity) and the region granularity is
  configurable down to a single line.
"""

from __future__ import annotations

from collections import defaultdict

from ..sim.constants import SHIP_SHCT_INITIAL, SHIP_SHCT_MAX
from .base import ReplacementPolicy

__all__ = ["SHiP", "ship_pc", "ship_mem"]


class SHiP(ReplacementPolicy):
    """SHiP over an SRRIP substrate with a pluggable signature."""

    name = "SHiP"

    SHCT_MAX = SHIP_SHCT_MAX  # 2-bit saturating counters
    SHCT_INITIAL = SHIP_SHCT_INITIAL

    def __init__(
        self,
        signature: str = "pc",
        rrpv_bits: int = 2,
        mem_region_lines: int = 256,
    ) -> None:
        super().__init__()
        if signature not in ("pc", "mem"):
            raise ValueError("signature must be 'pc' or 'mem'")
        self.signature_kind = signature
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        self.mem_region_lines = mem_region_lines
        self.name = f"SHiP-{'PC' if signature == 'pc' else 'Mem'}"

    def reset(self) -> None:
        self._rrpv = [
            [self.rrpv_max] * self.num_ways for _ in range(self.num_sets)
        ]
        self._line_sig = [[0] * self.num_ways for _ in range(self.num_sets)]
        self._line_reused = [
            [False] * self.num_ways for _ in range(self.num_sets)
        ]
        self._shct = defaultdict(lambda: self.SHCT_INITIAL)

    # ------------------------------------------------------------------

    def _fill_signature(self, line_addr: int, ctx) -> int:
        if self.signature_kind == "pc":
            return ctx.pc
        return line_addr // self.mem_region_lines

    # ------------------------------------------------------------------

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        self._rrpv[set_idx][way] = 0
        if not self._line_reused[set_idx][way]:
            self._line_reused[set_idx][way] = True
            sig = self._line_sig[set_idx][way]
            if self._shct[sig] < self.SHCT_MAX:
                self._shct[sig] += 1

    def on_evict(self, set_idx: int, way: int, ctx) -> None:
        if not self._line_reused[set_idx][way]:
            sig = self._line_sig[set_idx][way]
            if self._shct[sig] > 0:
                self._shct[sig] -= 1

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        line_addr = self.cache.tags[set_idx][way]
        sig = self._fill_signature(line_addr, ctx)
        self._line_sig[set_idx][way] = sig
        self._line_reused[set_idx][way] = False
        if self._shct[sig] == 0:
            self._rrpv[set_idx][way] = self.rrpv_max       # predicted dead
        else:
            self._rrpv[set_idx][way] = self.rrpv_max - 1   # long interval

    def choose_victim(self, set_idx: int, ctx) -> int:
        rrpv = self._rrpv[set_idx]
        maximum = self.rrpv_max
        while True:
            try:
                return rrpv.index(maximum)
            except ValueError:
                bump = maximum - max(rrpv)
                for way in range(self.num_ways):
                    rrpv[way] += bump

    def replay_kernel(self):
        # The replay kernel's dense SHCT indexes uint8 PC tags;
        # SHiP-Mem's region signatures (unbounded dict) must take the
        # generic per-access path.
        if self.signature_kind != "pc":
            return None
        return super().replay_kernel()


def ship_pc() -> SHiP:
    """SHiP signing with the access-site ID (program counter)."""
    return SHiP(signature="pc")


def ship_mem(region_lines: int = 1) -> SHiP:
    """Idealized SHiP-Mem: unbounded SHCT, per-``region_lines`` signatures.

    The paper's idealized variant tracks individual cache lines
    (``region_lines=1``).
    """
    return SHiP(signature="mem", mem_region_lines=region_lines)
