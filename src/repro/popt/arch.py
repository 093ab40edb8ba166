"""P-OPT's architecture model (Section V).

Models the parts of P-OPT that live outside the replacement decision
itself:

- **Way reservation** (Section V-A): the Rereference Matrix columns are
  pinned in reserved LLC ways; the application sees a smaller effective
  associativity/capacity. :func:`reserved_ways` computes the minimum
  reservation; :func:`repro.sim.driver.simulate_prepared` shrinks the
  LLC by it.
- **Next-ref engine and streaming engine cost accounting**
  (Sections V-C/V-D): counters for RM lookups, replacement events, ties,
  epoch transitions and bytes streamed, which the timing model converts
  into cycles.
- **NUCA mapping** (Section V-E): delegated to
  :class:`repro.cache.nuca.BankMapper`; :func:`nuca_locality_report`
  verifies bank-local RM access under P-OPT's modified mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cache.config import CacheConfig
from ..cache.nuca import BankMapper
from ..errors import CacheConfigError
from ..memory.layout import ArraySpan

__all__ = [
    "reserved_ways",
    "PoptCounters",
    "nuca_locality_report",
]


def reserved_ways(resident_bytes: int, llc: CacheConfig) -> int:
    """Minimum LLC ways that hold ``resident_bytes`` of RM columns.

    Way-based partitioning (Intel CAT-style, Section V-A): one way spans
    ``num_sets * line_size`` bytes.
    """
    if resident_bytes < 0:
        raise CacheConfigError("resident_bytes must be non-negative")
    ways = -(-resident_bytes // llc.way_bytes)  # ceil division
    return int(ways)


@dataclass
class PoptCounters:
    """Cost accounting for the next-ref and streaming engines."""

    replacements: int = 0
    streaming_evictions: int = 0       # victims found by base/bound check
    rm_lookups: int = 0                # RM entry reads by the engine
    ties: int = 0                      # replacements decided by tie-break
    tie_candidates: int = 0            # ways tied at the winning next-ref
    epoch_transitions: int = 0
    bytes_streamed: int = 0            # RM column bytes moved at boundaries

    def tie_rate(self) -> float:
        """Fraction of replacements that ended in a tie (Fig. 15's 41%/12%/0%
        for 4/8/16-bit quantization)."""
        return self.ties / self.replacements if self.replacements else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "replacements": self.replacements,
            "streaming_evictions": self.streaming_evictions,
            "rm_lookups": self.rm_lookups,
            "ties": self.ties,
            "tie_rate": round(self.tie_rate(), 4),
            "epoch_transitions": self.epoch_transitions,
            "bytes_streamed": self.bytes_streamed,
        }


def nuca_locality_report(
    mapper: BankMapper, span: ArraySpan, sample_stride: int = 1
) -> Dict[str, float]:
    """Check Section V-E's invariant over a span's lines.

    Returns the fraction of irregData lines whose RM entry is bank-local
    under (a) P-OPT's modified block-interleaved mapping and (b) default
    line striping. The former must be 1.0.
    """
    local_modified = 0
    local_default = 0
    sampled = 0
    for line_id in range(0, span.num_lines, sample_stride):
        addr = span.base + line_id * mapper.line_size
        sampled += 1
        if mapper.rm_access_is_bank_local(addr, span.base):
            local_modified += 1
        if mapper.default_bank(addr) == mapper.rm_bank(line_id):
            local_default += 1
    if sampled == 0:
        return {"modified": 1.0, "default": 1.0}
    return {
        "modified": local_modified / sampled,
        "default": local_default / sampled,
    }
