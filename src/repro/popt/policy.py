"""The P-OPT replacement policy (Sections IV-V).

At each replacement the next-ref engine:

1. scans the eviction set's ways against the ``irreg_base``/``irreg_bound``
   registers and immediately reports the first way holding *streaming*
   data (its re-reference distance is infinite);
2. otherwise evaluates Algorithm 2 against the Rereference Matrix for each
   irregData way (one RM lookup per way, two when the intra-epoch path
   needs the next epoch's entry) and evicts the way with the largest
   quantized next reference;
3. settles ties with a baseline policy — DRRIP, as in the paper.

Epoch boundaries are detected from the ``currVertex`` channel (the
``update_index`` instruction); each transition models one
``stream_nextrefs`` invocation, accounting the column bytes the streaming
engine moves (Section V-D) in :class:`~repro.popt.arch.PoptCounters`.

Variants (Fig. 7 / Fig. 11) are selected by the Rereference Matrix passed
in: ``inter_only``, ``inter_intra`` (default P-OPT), or ``single_epoch``
(P-OPT-SE).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PolicyError
from ..memory.layout import ArraySpan
from ..policies.base import ReplacementPolicy
from ..policies.rrip import DRRIP
from ..sim.constants import (
    POPT_SPARAM_LAYOUT,
    POPT_STREAMING_NEXT_REF,
    RM_VARIANT_CODES,
)
from .arch import PoptCounters
from .rereference import RereferenceMatrix

__all__ = ["PoptStream", "KernelMatrices", "FirstTiedWay", "POPT"]


@dataclass(frozen=True)
class PoptStream:
    """One irregular data structure with its Rereference Matrix."""

    span: ArraySpan
    matrix: RereferenceMatrix


class KernelMatrices:
    """One policy's Rereference Matrices in the form ``k_popt`` reads.

    Each matrix is laid out epoch-major, so one epoch column is
    contiguous (the reserved LLC ways of Section V-A hold whole
    columns), at 16 bits, which fits every entry width. The streams sit
    back to back in one read-only ``entries`` array: stream ``i`` starts
    at ``bases[i]`` and its ``sparams`` block (one
    :data:`~repro.sim.constants.POPT_SPARAM_LAYOUT` block per stream)
    gives its line count as the column ``stride``. The line-major
    ``RereferenceMatrix.entries`` stay the matrices' own form.

    The arrays are built on first use, so a replay on the generic
    engine never builds them. The driver keeps one instance per
    ``(entry_bits, variant)`` in ``PreparedRun.kernel_matrices``, so
    every LLC point of a sweep reads the same arrays.
    """

    def __init__(self, matrices: Sequence[RereferenceMatrix]) -> None:
        self.matrices = tuple(matrices)

    @cached_property
    def bases(self) -> Tuple[int, ...]:
        """Start of each stream's entries in :attr:`entries`."""
        sizes = [matrix.entries.size for matrix in self.matrices]
        return tuple(int(base) for base in np.cumsum([0] + sizes[:-1]))

    @cached_property
    def entries(self) -> np.ndarray:
        """Every stream's entries, epoch-major, as one uint16 array."""
        entries = np.empty(
            sum(matrix.entries.size for matrix in self.matrices),
            dtype=np.uint16,
        )
        for base, matrix in zip(self.bases, self.matrices):
            columns = entries[base:base + matrix.entries.size].reshape(
                matrix.num_epochs, matrix.num_lines
            )
            columns[...] = matrix.entries.T
        entries.setflags(write=False)
        return entries

    @cached_property
    def sparams(self) -> np.ndarray:
        """The streams' ``POPT_SPARAM_LAYOUT`` blocks, back to back."""
        blocks: List[int] = []
        for matrix in self.matrices:
            fields = {
                "variant": RM_VARIANT_CODES[matrix.variant],
                "msb": matrix._msb,
                "low_mask": matrix._low_mask,
                "next_bit": matrix._next_bit,
                "epoch_size": matrix.epoch_size,
                "sub_epoch_size": matrix.sub_epoch_size,
                "num_epochs": matrix.num_epochs,
                "stride": matrix.num_lines,
            }
            blocks.extend(fields[name] for name in POPT_SPARAM_LAYOUT)
        sparams = np.array(blocks, dtype=np.int64)
        sparams.setflags(write=False)
        return sparams


class FirstTiedWay(ReplacementPolicy):
    """A tie-break with no state: :class:`POPT` settles a quantization
    tie on the first tied way (Section V-C's ablation of the DRRIP
    tie-break). On its own it always evicts way 0."""

    name = "FirstWay"

    def choose_victim(self, set_idx: int, ctx) -> int:
        return 0


class POPT(ReplacementPolicy):
    """P-OPT: practical optimal replacement via the Rereference Matrix."""

    name = "P-OPT"

    def __init__(
        self,
        streams: Sequence[PoptStream],
        line_size: int = 64,
        tie_break: Optional[ReplacementPolicy] = None,
        prefer_streaming_victims: bool = True,
        kernel_matrices: Optional[KernelMatrices] = None,
    ) -> None:
        super().__init__()
        if not streams:
            raise PolicyError("P-OPT needs at least one irregular stream")
        self.line_size = line_size
        self.streams = tuple(streams)
        matrices = tuple(stream.matrix for stream in self.streams)
        if kernel_matrices is None:
            kernel_matrices = KernelMatrices(matrices)
        elif len(kernel_matrices.matrices) != len(matrices) or any(
            built is not own
            for built, own in zip(kernel_matrices.matrices, matrices)
        ):
            raise PolicyError(
                "kernel_matrices were built from other Rereference "
                "Matrices than the streams'"
            )
        #: The kernel form of the streams' matrices (shared, lazy).
        self.kernel_matrices = kernel_matrices
        self.prefer_streaming_victims = prefer_streaming_victims
        # (line_base, line_bound, matrix) per stream for the base/bound scan.
        self._regions: List[Tuple[int, int, RereferenceMatrix]] = []
        epoch_size = None
        for stream in streams:
            base_line = stream.span.base // line_size
            self._regions.append(
                (base_line, base_line + stream.span.num_lines, stream.matrix)
            )
            if epoch_size is None:
                epoch_size = stream.matrix.epoch_size
            elif stream.matrix.epoch_size != epoch_size:
                # _note_epoch tracks ONE currVertex epoch for the streaming
                # engine; matrices with different epoch geometries would get
                # their column transfers miscounted against it.
                raise PolicyError(
                    "P-OPT streams disagree on epoch geometry: epoch_size "
                    f"{stream.matrix.epoch_size} vs {epoch_size}; build all "
                    "Rereference Matrices with the same entry_bits/vertex "
                    "range or use separate policies"
                )
        variant = streams[0].matrix.variant
        mixed = sorted({s.matrix.variant for s in streams} - {variant})
        if mixed:
            # One Algorithm 2 encoding per policy: the variant names it
            # (and its resident columns), and the replay kernel runs the
            # one scan compiled for it.
            raise PolicyError(
                "P-OPT streams disagree on Rereference Matrix variant: "
                f"{mixed[0]} vs {variant}; build all Rereference "
                "Matrices with the same variant or use separate policies"
            )
        self._epoch_size = epoch_size
        self._tie_break = tie_break if tie_break is not None else DRRIP()
        self._current_epoch = -1
        self.counters = PoptCounters()
        if variant == "single_epoch":
            self.name = "P-OPT-SE"
        elif variant == "inter_only":
            self.name = "P-OPT-Inter"

    @cached_property
    def _line_table(
        self,
    ) -> Optional[Dict[int, Tuple[RereferenceMatrix, int]]]:
        """line -> (matrix, line offset), first stream winning overlaps
        like the register scan; built on first use (the generic path
        only: the replay kernels resolve membership vectorized). Gated:
        a dict over tens of millions of lines would dwarf the matrices
        themselves, so the scan stays as the fallback for huge irregular
        footprints."""
        total_lines = sum(bound - base for base, bound, _ in self._regions)
        if total_lines > 2_000_000:
            return None
        table: Dict[int, Tuple[RereferenceMatrix, int]] = {}
        for line_base, line_bound, matrix in reversed(self._regions):
            for line in range(line_base, line_bound):
                table[line] = (matrix, line - line_base)
        return table

    # ------------------------------------------------------------------

    def bind(self, cache) -> None:
        super().bind(cache)
        self._tie_break.bind(cache)

    def reset(self) -> None:
        # A rebind or mid-run cache reset must not leak the previous
        # replay's epoch position or engine-cost counters into the next
        # one (stale epochs double-count transitions/bytes_streamed).
        self._current_epoch = -1
        self.counters = PoptCounters()
        if self._tie_break.cache is not None:
            self._tie_break.reset()

    def fits_replay_kernel(self) -> bool:
        # The replay kernel inlines the tie-break sub-policy's RRPV/PSEL
        # evolution and models DRRIP exactly, or settles ties on the
        # first tied way; any other tie-break (or a DRRIP subclass) must
        # take the generic per-access path.
        return type(self._tie_break) in (DRRIP, FirstTiedWay)

    def resident_bytes(self) -> int:
        """LLC bytes pinned for RM columns across all streams."""
        return sum(stream.matrix.resident_bytes() for stream in self.streams)

    # ------------------------------------------------------------------
    # Hooks: keep the tie-break policy's metadata up to date.
    # ------------------------------------------------------------------

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        self._note_epoch(ctx.vertex)
        self._tie_break.on_hit(set_idx, way, ctx)

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        self._note_epoch(ctx.vertex)
        self._tie_break.on_fill(set_idx, way, ctx)

    def on_evict(self, set_idx: int, way: int, ctx) -> None:
        self._tie_break.on_evict(set_idx, way, ctx)

    def _note_epoch(self, vertex: int) -> None:
        epoch = vertex // self._epoch_size
        if epoch != self._current_epoch:
            if self._current_epoch >= 0:
                # stream_nextrefs: swap pointers, stream the new column in.
                self.counters.epoch_transitions += 1
                for __, __, matrix in self._regions:
                    self.counters.bytes_streamed += matrix.column_bytes()
            self._current_epoch = epoch

    # ------------------------------------------------------------------
    # Victim selection (the next-ref engine)
    # ------------------------------------------------------------------

    def _lookup(self, line_addr: int, vertex: int):
        """(is_irregular, next_ref_distance) for one way."""
        table = self._line_table
        if table is not None:
            entry = table.get(line_addr)
            if entry is None:
                return False, 0
            matrix, offset = entry
            self.counters.rm_lookups += 1
            return True, matrix.find_next_ref(offset, vertex)
        for line_base, line_bound, matrix in self._regions:
            if line_base <= line_addr < line_bound:
                self.counters.rm_lookups += 1
                return True, matrix.find_next_ref(line_addr - line_base, vertex)
        return False, 0

    def choose_victim(self, set_idx: int, ctx) -> int:
        self.counters.replacements += 1
        tags = self.cache.tags[set_idx]
        vertex = ctx.vertex
        best_ways: List[int] = []
        best_ref = -1
        for way, tag in enumerate(tags):
            is_irregular, next_ref = self._lookup(tag, vertex)
            if not is_irregular:
                if self.prefer_streaming_victims:
                    # First streaming way is reported immediately.
                    self.counters.streaming_evictions += 1
                    return way
                next_ref = POPT_STREAMING_NEXT_REF
            if next_ref > best_ref:
                best_ref = next_ref
                best_ways = [way]
            elif next_ref == best_ref:
                best_ways.append(way)
        if len(best_ways) == 1:
            return best_ways[0]
        # Tie: fall back to DRRIP's preference among the tied ways.
        self.counters.ties += 1
        self.counters.tie_candidates += len(best_ways)
        return self._tie_break_among(set_idx, best_ways)

    def _tie_break_among(self, set_idx: int, ways: List[int]) -> int:
        rrpv = getattr(self._tie_break, "_rrpv", None)
        if rrpv is None:
            return ways[0]
        row = rrpv[set_idx]
        best_way = ways[0]
        best_value = row[best_way]
        for way in ways[1:]:
            if row[way] > best_value:
                best_value = row[way]
                best_way = way
        return best_way
