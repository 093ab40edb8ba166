"""The Rereference Matrix: P-OPT's quantized next-reference metadata.

Section IV. The matrix has one row per cache line of the irregularly
accessed data and one column per *epoch* (a contiguous block of outer-loop
vertices). Three entry encodings are implemented:

- ``inter_only`` (Fig. 5): each entry is the distance, in epochs, from the
  current epoch to the epoch of the line's next reference (0 when the line
  is referenced somewhere in the current epoch). Loses intra-epoch
  information: after a line's final access within an epoch the entry still
  reads 0.
- ``inter_intra`` (Fig. 6 — the default P-OPT design): the MSB selects the
  meaning of the low bits. MSB=1: no reference this epoch; low bits hold
  the distance to the next referencing epoch. MSB=0: referenced this epoch;
  low bits hold the *sub-epoch* of the final access, letting Algorithm 2
  notice when the execution has already passed the line's last use.
- ``single_epoch`` (P-OPT-SE, Section VII-B): like ``inter_intra`` but the
  second MSB records whether the line is accessed in the *next* epoch, so
  only ONE column must be cache-resident — at the cost of two fewer
  distance/sub-epoch bits.

Construction is fully vectorized over the edge list (numpy), which is what
makes Table IV's "preprocessing is ~20% of one PageRank run" hold here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ..errors import PolicyError, WidthContractError
from ..graph.csr import CSRGraph
from ..sim.constants import (
    RM_VARIANTS,
    narrow,
    rm_field_bits,
    rm_low_mask,
    rm_msb,
    rm_next_bit,
    rm_sentinel,
)

__all__ = [
    "RereferenceMatrix",
    "build_rereference_matrix",
    "update_rereference_matrix",
    "epoch_geometry",
]

VARIANTS = RM_VARIANTS


def epoch_geometry(
    num_vertices: int, entry_bits: int, variant: str = "inter_intra"
) -> "tuple[int, int, int]":
    """Compute (num_epochs, epoch_size, sub_epoch_size).

    With b-bit entries the vertex range quantizes into ``2^b`` epochs
    (Section V-C: ``EpochSize = ceil(numVertices / 256)`` for b=8); the
    intra-epoch sub-epoch count is the largest value the remaining low
    bits can hold (127 for the default design, 63 for P-OPT-SE).
    """
    if variant not in VARIANTS:
        raise PolicyError(f"unknown Rereference Matrix variant {variant!r}")
    if entry_bits < 3 or entry_bits > 16:
        raise PolicyError("entry_bits must be in [3, 16]")
    max_epochs = 1 << entry_bits
    epoch_size = max(1, -(-num_vertices // max_epochs))  # ceil division
    num_epochs = -(-num_vertices // epoch_size)
    # inter_only stores no sub-epoch field (every bit is the distance,
    # see rm_field_bits) but shares the default design's sub-epoch
    # geometry so all three builders quantize vertices identically.
    geometry_variant = "inter_intra" if variant == "inter_only" else variant
    max_sub = max(1, (1 << rm_field_bits(entry_bits, geometry_variant)) - 1)
    sub_epoch_size = max(1, -(-epoch_size // max_sub))
    return num_epochs, epoch_size, sub_epoch_size


@dataclass
class RereferenceMatrix:
    """Quantized next-reference metadata for one irregular data structure."""

    entries: np.ndarray          # (num_lines, num_epochs) unsigned
    variant: str
    entry_bits: int
    epoch_size: int
    sub_epoch_size: int
    elems_per_line: int
    num_vertices: int

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise PolicyError(f"unknown variant {self.variant!r}")
        # The decode masks must mirror the builder's field_bits exactly:
        # a mask narrower than the stored sentinel would make past-the-end
        # epochs look *nearer* than known-far in-matrix lines. The shared
        # registry (repro.sim.constants) is the single source of truth for
        # the per-variant widths, here and in the compiled kernel.
        self._msb = rm_msb(self.entry_bits)
        self._next_bit = rm_next_bit(self.entry_bits, self.variant)
        self._low_mask = rm_low_mask(self.entry_bits, self.variant)
        # The rm.* width contracts: every entry fits entry_bits, the
        # storage is the dtype narrow() picks for that width, and an
        # entry can address every epoch column.
        where = "RereferenceMatrix"
        stored = narrow(
            self.entries, "rm.entries", where, bits=self.entry_bits
        )
        if stored.dtype != self.entries.dtype:
            raise WidthContractError(
                "rm.entries", f"storage dtype {self.entries.dtype}", where,
                f"{stored.dtype} storage of {self.entry_bits}-bit entries",
            )
        if self.num_epochs > 1 << self.entry_bits:
            raise WidthContractError(
                "rm.epoch_index", self.num_epochs, where,
                f"the {1 << self.entry_bits} epoch columns a "
                f"{self.entry_bits}-bit entry addresses",
            )
        # Every replay of the run shares one matrix: read-only from here.
        self.entries.setflags(write=False)

    @cached_property
    def _rows(self):
        """Row view for the per-access Python decode (generic engine
        only; the compiled kernel reads ``entries``), built on first
        use. Python nested lists beat numpy scalar extraction in
        the hot path, but converting huge matrices (fine-grained
        quantization on big graphs) would explode memory — fall back to
        numpy rows there."""
        if self.entries.size <= 4_000_000:
            return self.entries.tolist()
        return self.entries

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def num_lines(self) -> int:
        return self.entries.shape[0]

    @property
    def num_epochs(self) -> int:
        return self.entries.shape[1]

    @property
    def entry_bytes(self) -> int:
        return max(1, (self.entry_bits + 7) // 8)

    def column_bytes(self) -> int:
        """Bytes of one epoch column (what the streaming engine moves)."""
        return self.num_lines * self.entry_bytes

    def resident_columns(self) -> int:
        """LLC-resident columns: 2 for the default design (current + next
        epoch, Section V-A), 1 for P-OPT-SE."""
        return 1 if self.variant == "single_epoch" else 2

    def resident_bytes(self) -> int:
        """Bytes that must be pinned in the LLC at any time."""
        return self.column_bytes() * self.resident_columns()

    def epoch_of(self, vertex: int) -> int:
        """The epoch of an outer-loop vertex."""
        return vertex // self.epoch_size

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------

    def find_next_ref(self, line_id: int, curr_vertex: int) -> int:
        """Distance (in epochs) to the line's next reference.

        This is Algorithm 2 of the paper, generalized over entry widths
        and the three encodings. Larger return values mean "further in the
        future"; the sentinel (all low bits set) means no known reference.
        """
        epoch_id = curr_vertex // self.epoch_size
        row = self._rows[line_id]
        if epoch_id >= len(row):
            return self._low_mask
        current = row[epoch_id]
        if self.variant == "inter_only":
            return current
        msb = self._msb
        low_mask = self._low_mask
        if current & msb:
            # Not referenced this epoch; low bits are the epoch distance.
            return current & low_mask
        # Referenced this epoch; low bits are the final-access sub-epoch.
        last_sub_epoch = current & low_mask
        epoch_offset = curr_vertex - epoch_id * self.epoch_size
        curr_sub_epoch = epoch_offset // self.sub_epoch_size
        if curr_sub_epoch <= last_sub_epoch:
            return 0
        if self.variant == "single_epoch":
            # Only the next-epoch bit survives SE's compression: either the
            # line comes back next epoch (distance 1) or all we know is
            # "not next epoch" — assume the minimum consistent distance.
            return 1 if current & self._next_bit else 2
        if epoch_id + 1 >= len(row):
            return low_mask
        next_entry = row[epoch_id + 1]
        if next_entry & msb:
            return 1 + (next_entry & low_mask)
        return 1

    def find_next_ref_vector(
        self, line_ids: np.ndarray, curr_vertex: int
    ) -> np.ndarray:
        """Vectorized :meth:`find_next_ref`: Algorithm 2 decoded for a
        whole batch of lines (e.g. every way of an eviction set) with
        masked arithmetic directly on the ``entries`` rows."""
        line_ids = np.asarray(line_ids, dtype=np.int64)
        epoch_id = curr_vertex // self.epoch_size
        low_mask = self._low_mask
        if epoch_id >= self.num_epochs:
            return np.full(line_ids.shape, low_mask, dtype=np.int64)
        current = self.entries[line_ids, epoch_id].astype(np.int64)
        if self.variant == "inter_only":
            return current
        msb = self._msb
        out = current & low_mask  # inter-epoch distance where MSB is set
        intra = (current & msb) == 0
        # Referenced this epoch: 0 until execution passes the final-access
        # sub-epoch, then the minimum distance consistent with the encoding.
        epoch_offset = curr_vertex - epoch_id * self.epoch_size
        curr_sub_epoch = epoch_offset // self.sub_epoch_size
        passed = intra & (curr_sub_epoch > out)
        out[intra] = 0
        if self.variant == "single_epoch":
            out[passed] = np.where(current[passed] & self._next_bit, 1, 2)
        elif epoch_id + 1 >= self.num_epochs:
            out[passed] = low_mask
        else:
            next_entry = self.entries[line_ids, epoch_id + 1].astype(np.int64)
            out[passed] = np.where(
                next_entry[passed] & msb, 1 + (next_entry[passed] & low_mask), 1
            )
        return out


def _encode_entries(
    referenced: np.ndarray,
    last_sub: np.ndarray,
    entry_bits: int,
    variant: str,
) -> np.ndarray:
    """Encode per-line reference events into matrix entries (int64).

    ``referenced``/``last_sub`` are ``(rows, num_epochs)`` arrays for
    any subset of lines. The right-to-left distance scan and the field
    packing are independent per row — the property that makes the
    incremental path in :func:`update_rereference_matrix` bit-identical
    to a full rebuild: re-encoding only the changed rows reproduces
    exactly the rows the rebuild would produce.
    """
    num_epochs = referenced.shape[1]
    sentinel = rm_sentinel(entry_bits, variant)

    # Distance (in epochs) from each epoch to the next referencing epoch
    # (0 when the epoch itself references): a running minimum, taken
    # right to left, of each referencing epoch's index. Every step runs
    # in place on the one int64 array that becomes the result.
    epochs = np.arange(num_epochs, dtype=np.int64)
    entries = np.where(referenced, epochs, np.iinfo(np.int64).max // 2)
    backwards = entries[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)
    entries -= epochs
    np.minimum(entries, sentinel, out=entries)
    if variant != "inter_only":
        # Inter_only keeps the raw distance (0 while the epoch still
        # references). Otherwise referenced epochs store MSB=0 and the
        # clamped final-access sub-epoch; unreferenced epochs MSB=1 and
        # the clamped distance.
        entries |= rm_msb(entry_bits)
        np.copyto(entries, last_sub, where=referenced)
        np.minimum(entries, sentinel, out=entries, where=referenced)
        if variant == "single_epoch":
            # Referenced epochs whose next epoch also references.
            np.bitwise_or(
                entries[:, :-1], rm_next_bit(entry_bits, variant),
                out=entries[:, :-1],
                where=referenced[:, :-1] & referenced[:, 1:],
            )
    return entries


def build_rereference_matrix(
    reference_graph: CSRGraph,
    elems_per_line: int,
    entry_bits: int = 8,
    variant: str = "inter_intra",
    num_lines: Optional[int] = None,
) -> RereferenceMatrix:
    """Build the Rereference Matrix from a graph's transpose.

    ``reference_graph`` must be oriented so that ``out_neighbors(v)`` lists
    the outer-loop vertices whose processing touches irregular element
    ``v``. For a pull kernel over a CSC, that is the CSR (the transpose);
    for a push kernel over a CSR, the CSC (Section III-A).

    ``elems_per_line`` is how many irregular elements share a cache line
    (16 for 4 B elements; 512 for a frontier bit-vector).
    """
    if elems_per_line <= 0:
        raise PolicyError("elems_per_line must be positive")
    n = reference_graph.num_vertices
    num_epochs, epoch_size, sub_epoch_size = epoch_geometry(
        n, entry_bits, variant
    )
    if num_lines is None:
        num_lines = max(1, -(-n // elems_per_line))

    # Per-edge reference events: element v is touched at outer vertex d.
    degrees = reference_graph.degrees()
    elems = np.repeat(np.arange(n, dtype=np.int64), degrees)
    outer = reference_graph.neighbors.astype(np.int64)
    lines = elems // elems_per_line
    epochs = outer // epoch_size
    subs = (outer - epochs * epoch_size) // sub_epoch_size

    referenced = np.zeros((num_lines, num_epochs), dtype=bool)
    last_sub = np.zeros((num_lines, num_epochs), dtype=np.int64)
    flat = lines * num_epochs + epochs
    referenced.ravel()[flat] = True
    np.maximum.at(last_sub.ravel(), flat, subs)

    entries = _encode_entries(referenced, last_sub, entry_bits, variant)
    return RereferenceMatrix(
        entries=narrow(
            entries, "rm.entries", "build_rereference_matrix",
            bits=entry_bits,
        ),
        variant=variant,
        entry_bits=entry_bits,
        epoch_size=epoch_size,
        sub_epoch_size=sub_epoch_size,
        elems_per_line=elems_per_line,
        num_vertices=n,
    )


def update_rereference_matrix(
    matrix: RereferenceMatrix,
    reference_graph: CSRGraph,
    changed_elements: np.ndarray,
) -> RereferenceMatrix:
    """Incrementally refresh a matrix after a graph delta.

    ``reference_graph`` is the **post-delta** reference graph (same
    orientation the matrix was built from) and ``changed_elements`` the
    irregular elements whose reference lists may have changed — for a
    matrix built over the graph's transpose, the *destinations* the
    delta touched; for one built over the graph itself, the sources
    (:class:`repro.graph.dynamic.DynamicEpoch` records both).

    Only the cache lines covering those elements are recomputed; every
    recomputed row is gathered fresh from the post-delta graph, so the
    result is bit-identical to a full :func:`build_rereference_matrix`
    over the new graph (``benchmarks/bench_dynamic.py`` measures where
    this stops being a win as deltas grow).
    """
    n = reference_graph.num_vertices
    if n != matrix.num_vertices:
        raise PolicyError(
            f"reference graph has {n} vertices but the matrix was built "
            f"over {matrix.num_vertices}; the vertex set is fixed across "
            f"dynamic epochs"
        )
    changed = np.unique(np.asarray(changed_elements, dtype=np.int64))
    if len(changed) and (changed[0] < 0 or int(changed[-1]) >= n):
        raise PolicyError("changed element ID outside the vertex range")
    if not len(changed):
        return matrix
    elems_per_line = matrix.elems_per_line
    lines = np.unique(changed // elems_per_line)
    lines = lines[lines < matrix.num_lines]
    if not len(lines):
        return matrix

    # Every element sharing a line with a changed element contributes
    # reference events to that line's row, changed or not.
    elems = (
        lines[:, None] * elems_per_line
        + np.arange(elems_per_line, dtype=np.int64)[None, :]
    ).ravel()
    elems = elems[elems < n]

    # Gather the covered elements' adjacency segments in one shot.
    starts = reference_graph.offsets[elems]
    degrees = reference_graph.offsets[elems + 1] - starts
    total = int(degrees.sum())
    prefix = np.cumsum(degrees) - degrees
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, degrees)
    outer = reference_graph.neighbors[
        np.repeat(starts, degrees) + within
    ].astype(np.int64)

    num_epochs = matrix.num_epochs
    epoch_size = matrix.epoch_size
    epochs = outer // epoch_size
    subs = (outer - epochs * epoch_size) // matrix.sub_epoch_size
    # Row index (within the recomputed submatrix) of each event.
    event_rows = np.searchsorted(
        lines, np.repeat(elems // elems_per_line, degrees)
    )

    referenced = np.zeros((len(lines), num_epochs), dtype=bool)
    last_sub = np.zeros((len(lines), num_epochs), dtype=np.int64)
    flat = event_rows * num_epochs + epochs
    referenced.ravel()[flat] = True
    np.maximum.at(last_sub.ravel(), flat, subs)

    encoded = _encode_entries(
        referenced, last_sub, matrix.entry_bits, matrix.variant
    )
    # Matrix entries are read-only; scatter rows into a private copy.
    new_entries = np.array(matrix.entries, copy=True)
    new_entries[lines] = narrow(
        encoded, "rm.entries", "update_rereference_matrix",
        bits=matrix.entry_bits,
    )
    return RereferenceMatrix(
        entries=new_entries,
        variant=matrix.variant,
        entry_bits=matrix.entry_bits,
        epoch_size=epoch_size,
        sub_epoch_size=matrix.sub_epoch_size,
        elems_per_line=elems_per_line,
        num_vertices=matrix.num_vertices,
    )
