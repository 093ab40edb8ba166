"""Second implementations the P-OPT tests check the package against.

- :func:`find_next_ref_vector` decodes Algorithm 2 for a whole batch of
  lines with masked numpy arithmetic: a decode written independently of
  both ``RereferenceMatrix.find_next_ref`` and the compiled ``k_popt``.
- :func:`encode_entries_int64` is the Rereference Matrix entry encoder
  as one int64 pass over the whole matrix, and
  :func:`build_rereference_matrix_dense` the builder around it: the
  dense construction the blocked int32 encoder must reproduce row for
  row.
"""

import numpy as np

from repro.graph.csr import CSRGraph
from repro.popt.rereference import RereferenceMatrix, epoch_geometry
from repro.sim.constants import narrow, rm_msb, rm_next_bit, rm_sentinel


def find_next_ref_vector(
    matrix: RereferenceMatrix, line_ids, curr_vertex: int
) -> np.ndarray:
    """Algorithm 2 decoded for a batch of lines (e.g. every way of an
    eviction set) with masked arithmetic on the ``entries`` rows."""
    line_ids = np.asarray(line_ids, dtype=np.int64)
    epoch_id = curr_vertex // matrix.epoch_size
    low_mask = matrix._low_mask
    if epoch_id >= matrix.num_epochs:
        return np.full(line_ids.shape, low_mask, dtype=np.int64)
    current = matrix.entries[line_ids, epoch_id].astype(np.int64)
    if matrix.variant == "inter_only":
        return current
    msb = matrix._msb
    out = current & low_mask  # inter-epoch distance where MSB is set
    intra = (current & msb) == 0
    # Referenced this epoch: 0 until execution passes the final-access
    # sub-epoch, then the minimum distance consistent with the encoding.
    epoch_offset = curr_vertex - epoch_id * matrix.epoch_size
    curr_sub_epoch = epoch_offset // matrix.sub_epoch_size
    passed = intra & (curr_sub_epoch > out)
    out[intra] = 0
    if matrix.variant == "single_epoch":
        out[passed] = np.where(current[passed] & matrix._next_bit, 1, 2)
    elif epoch_id + 1 >= matrix.num_epochs:
        out[passed] = low_mask
    else:
        next_entry = matrix.entries[line_ids, epoch_id + 1].astype(np.int64)
        out[passed] = np.where(
            next_entry[passed] & msb, 1 + (next_entry[passed] & low_mask), 1
        )
    return out


def encode_entries_int64(referenced, last_sub, entry_bits, variant):
    """Encode ``(rows, num_epochs)`` reference events into int64
    entries, the whole matrix in one pass."""
    num_epochs = referenced.shape[1]
    sentinel = rm_sentinel(entry_bits, variant)
    epochs = np.arange(num_epochs, dtype=np.int64)
    entries = np.where(referenced, epochs, np.iinfo(np.int64).max // 2)
    backwards = entries[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)
    entries -= epochs
    np.minimum(entries, sentinel, out=entries)
    if variant != "inter_only":
        entries |= rm_msb(entry_bits)
        np.copyto(entries, last_sub, where=referenced)
        np.minimum(entries, sentinel, out=entries, where=referenced)
        if variant == "single_epoch":
            np.bitwise_or(
                entries[:, :-1], rm_next_bit(entry_bits, variant),
                out=entries[:, :-1],
                where=referenced[:, :-1] & referenced[:, 1:],
            )
    return entries


def build_rereference_matrix_dense(
    reference_graph: CSRGraph, elems_per_line: int, entry_bits: int,
    variant: str, num_lines=None,
) -> np.ndarray:
    """The entries ``build_rereference_matrix`` must produce: every
    edge scattered into whole-matrix bool/int64 ``(referenced,
    last_sub)`` arrays, encoded by :func:`encode_entries_int64` and
    narrowed at the end."""
    n = reference_graph.num_vertices
    num_epochs, epoch_size, sub_epoch_size = epoch_geometry(
        n, entry_bits, variant
    )
    if num_lines is None:
        num_lines = max(1, -(-n // elems_per_line))
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
    entries = encode_entries_int64(referenced, last_sub, entry_bits, variant)
    return narrow(entries, "rm.entries", "oracle", bits=entry_bits)
