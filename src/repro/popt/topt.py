"""T-OPT: Transpose-based Optimal Replacement (Section III).

T-OPT emulates Belady's MIN for graph data without an oracle: at
replacement time it consults the graph's transpose to find each candidate
line's next reference and evicts the line referenced furthest in the
future. Streaming data (offsets, neighbor arrays, dense per-outer-vertex
data) has a next reference of infinity and is evicted first.

This implementation is the *idealized* T-OPT of Figs. 4/7/10: the transpose
walks cost nothing (no extra cache traffic, no run-time overhead). Rather
than re-walking each vertex's out-neighbor list per eviction (the paper's
O(out-degree) formulation), we precompute, per irregular cache line, the
sorted array of outer-loop vertices that reference it — the exact same
information, binary-searched in O(log d) per candidate. ``walk_cost``
counters record what the naive walks *would* have touched, quantifying the
overhead P-OPT eliminates (Section III-C).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PolicyError
from ..graph.csr import CSRGraph
from ..memory.layout import ArraySpan
from ..policies.base import ReplacementPolicy
from ..sim.constants import TOPT_NEVER, TOPT_STREAMING, narrow

__all__ = [
    "IrregularStream",
    "TOPT",
    "build_line_references",
    "build_line_reference_csr",
    "build_stream_references",
]

#: Next-ref value assigned to lines never referenced again.
NEVER = TOPT_NEVER
#: Next-ref value for streaming (non-irregular) lines: beyond NEVER so the
#: first streaming way always wins the eviction search.
STREAMING = TOPT_STREAMING


@dataclass(frozen=True)
class IrregularStream:
    """One irregularly-accessed data structure and its reference pattern.

    ``reference_graph`` is oriented so ``out_neighbors(element)`` lists the
    outer-loop vertices that touch ``span``'s element (the transpose of the
    traversal direction — Section III-A).
    """

    span: ArraySpan
    reference_graph: CSRGraph


def build_line_reference_csr(
    reference_graph: CSRGraph, elems_per_line: int, num_lines: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cache-line sorted outer-vertex references in CSR form.

    Line ``l`` covers elements ``[l*epl, (l+1)*epl)``; its references are
    the sorted union of those elements' out-neighbor lists in the
    reference graph (deduplicated): ``refs[offsets[l]:offsets[l+1]]``.
    One flat (offsets, refs) pair instead of ``num_lines`` Python lists
    keeps the whole next-ref table in two arrays the replay kernels can
    binary-search directly.
    """
    n = reference_graph.num_vertices
    degrees = reference_graph.degrees()
    elems = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # One packed (line, outer) key per edge: outer < n, so sorting
    # ``line * n + outer`` orders by line, then outer, and duplicate
    # pairs land next to each other for a keep-mask dedup.
    keys = elems // elems_per_line
    keys *= n
    keys += reference_graph.neighbors
    keys.sort()
    if keys.size:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    lines_sorted, outer_sorted = np.divmod(keys, max(n, 1))
    offsets = np.searchsorted(
        lines_sorted, np.arange(num_lines + 1, dtype=np.int64),
        side="left",
    ).astype(np.int64)
    return offsets, np.ascontiguousarray(outer_sorted, dtype=np.int64)


def build_stream_references(
    streams: Sequence[IrregularStream],
) -> Tuple[np.ndarray, np.ndarray]:
    """Every stream's line references as one read-only (offsets, refs).

    Stream ``i``'s ``num_lines + 1`` offsets follow stream ``i - 1``'s
    in ``offsets`` and index the one flat ``refs`` array. Neither
    depends on the cache geometry, so a prepared run builds the pair
    once (``PreparedRun.line_references``) and every T-OPT replay of
    the run shares it. The refs are outer-loop vertex ids, so they are
    stored at the ``trace.vertex`` width (int32), half what int64
    would keep alive.
    """
    offset_parts = [np.empty(0, dtype=np.int64)]
    ref_parts = [np.empty(0, dtype=np.int32)]
    total_refs = 0
    for stream in streams:
        offsets, refs = build_line_reference_csr(
            stream.reference_graph, stream.span.elems_per_line,
            stream.span.num_lines,
        )
        offset_parts.append(offsets + total_refs)
        ref_parts.append(
            narrow(refs, "trace.vertex", "build_stream_references")
        )
        total_refs += refs.size
    pair = (np.concatenate(offset_parts), np.concatenate(ref_parts))
    for array in pair:
        array.setflags(write=False)
    return pair


def build_line_references(
    reference_graph: CSRGraph, elems_per_line: int, num_lines: int
) -> List[List[int]]:
    """List-of-lists view of :func:`build_line_reference_csr`."""
    offsets, refs = build_line_reference_csr(
        reference_graph, elems_per_line, num_lines
    )
    return [
        refs[offsets[line]:offsets[line + 1]].tolist()
        for line in range(num_lines)
    ]


class TOPT(ReplacementPolicy):
    """Idealized transpose-driven Belady emulation for the LLC."""

    name = "T-OPT"

    def __init__(
        self,
        streams: Sequence[IrregularStream],
        line_size: int = 64,
        references: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        super().__init__()
        if not streams:
            raise PolicyError("T-OPT needs at least one irregular stream")
        self.line_size = line_size
        # All streams' reference lists as ONE (offsets, refs) CSR pair
        # (built here unless a prepared run's shared pair is passed in);
        # per stream we keep (line_base, line_bound, offsets), its view
        # of the flat offsets.
        if references is None:
            references = build_stream_references(streams)
        offsets, self._refs_arr = references
        if len(offsets) != sum(s.span.num_lines + 1 for s in streams):
            raise PolicyError(
                f"T-OPT references hold {len(offsets)} offsets, not the "
                "num_lines + 1 per stream of the streams given"
            )
        self._regions: List[Tuple[int, int, np.ndarray]] = []
        start = 0
        for stream in streams:
            line_base = stream.span.base // line_size
            num_lines = stream.span.num_lines
            self._regions.append((
                line_base, line_base + num_lines,
                offsets[start:start + num_lines + 1],
            ))
            start += num_lines + 1
        # Counters quantifying the overhead an actual T-OPT would pay.
        self.replacements = 0
        self.transpose_walk_elements = 0

    @cached_property
    def _refs(self) -> List[int]:
        """List view of ``_refs_arr`` for the generic path, built on
        first use (the compiled kernel never reads it)."""
        return self._refs_arr.tolist()

    @cached_property
    def _line_table(self) -> Optional[Dict[int, Tuple[int, int]]]:
        """line -> (refs range) lookup, first stream winning overlaps
        like the region scan; built on first use (the generic path
        only). Gated like the Rereference Matrix row cache: a dict over
        tens of millions of lines is not worth its memory."""
        total_lines = sum(bound - base for base, bound, _ in self._regions)
        if total_lines > 2_000_000:
            return None
        table: Dict[int, Tuple[int, int]] = {}
        for line_base, line_bound, offsets in reversed(self._regions):
            bounds = offsets.tolist()
            for index, line in enumerate(range(line_base, line_bound)):
                table[line] = (bounds[index], bounds[index + 1])
        return table

    def reset(self) -> None:
        # Rebinding (or a mid-run cache reset) starts a fresh replay: the
        # walk-cost counters must not accumulate across replays.
        self.replacements = 0
        self.transpose_walk_elements = 0

    def _refs_range(self, line_addr: int) -> Tuple[int, int]:
        """(lo, hi) slice of the flat refs array, or (-1, -1) (streaming)."""
        table = self._line_table
        if table is not None:
            return table.get(line_addr, (-1, -1))
        for line_base, line_bound, offsets in self._regions:
            if line_base <= line_addr < line_bound:
                index = line_addr - line_base
                return int(offsets[index]), int(offsets[index + 1])
        return -1, -1

    def _next_ref(self, line_addr: int, curr_vertex: int) -> int:
        lo, hi = self._refs_range(line_addr)
        if lo < 0:
            return STREAMING
        # Inclusive of the current outer vertex: references made while
        # processing it still count as imminent (the same convention as
        # Algorithm 2's sub-epoch comparison).
        idx = bisect.bisect_left(self._refs, curr_vertex, lo, hi)
        # A real T-OPT would walk each vertex's out-neighbors up to the
        # next reference: account the equivalent work.
        self.transpose_walk_elements += max(1, idx - lo)
        if idx >= hi:
            return NEVER
        return self._refs[idx]

    def choose_victim(self, set_idx: int, ctx) -> int:
        self.replacements += 1
        tags = self.cache.tags[set_idx]
        vertex = ctx.vertex
        best_way = 0
        best_ref = -1
        for way, tag in enumerate(tags):
            ref = self._next_ref(tag, vertex)
            if ref == STREAMING:
                # Streaming data: evict immediately (Section V-C order).
                return way
            if ref > best_ref:
                best_ref = ref
                best_way = way
        return best_way
