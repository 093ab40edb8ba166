"""Vertex reordering transformations.

GRASP (Fig. 12a) expects inputs preprocessed with Degree-Based Grouping
(DBG, Faldu et al. [19]): vertices are partitioned into groups by degree so
that hot (high-degree) vertices occupy a contiguous low range of the vertex
ID space. P-OPT itself is reordering-agnostic; these utilities exist to
reproduce the GRASP comparison and for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = ["DbgLayout", "dbg_order", "apply_order"]


@dataclass(frozen=True)
class DbgLayout:
    """Result of Degree-Based Grouping.

    ``new_ids[v]`` is vertex ``v``'s ID after reordering. ``group_bounds``
    holds the start of each group in the new ID space, hottest group first;
    GRASP uses these boundaries to classify addresses as hot/warm/cold.
    """

    new_ids: np.ndarray
    group_bounds: Tuple[int, ...]

    @property
    def num_groups(self) -> int:
        return len(self.group_bounds) - 1

    def hot_range(self) -> Tuple[int, int]:
        """New-ID range of the hottest (highest-degree) group."""
        return int(self.group_bounds[0]), int(self.group_bounds[1])


def dbg_order(graph: CSRGraph, num_groups: int = 8) -> DbgLayout:
    """Degree-Based Grouping order.

    Vertices are bucketed into ``num_groups`` groups by descending degree,
    using power-of-two degree thresholds relative to the average degree
    (the scheme of Faldu et al.): group 0 holds vertices with degree >=
    avg * 2^(num_groups-2), the last group holds degree-0..below-average
    vertices. Within each group the original relative order is preserved
    (DBG is "lightweight": it avoids destroying intra-group locality).
    """
    if num_groups < 2:
        raise GraphFormatError("DBG needs at least 2 groups")
    degrees = graph.transpose().degrees() + graph.degrees()
    avg = max(degrees.mean(), 1e-9)
    # Thresholds: avg*2^(k) for k = num_groups-2 .. 0, then 0.
    thresholds = [avg * (2.0 ** k) for k in range(num_groups - 2, -1, -1)]
    group_of = np.full(graph.num_vertices, num_groups - 1, dtype=np.int64)
    for group_index, threshold in enumerate(thresholds):
        mask = (group_of == num_groups - 1) & (degrees >= threshold)
        group_of[mask] = group_index
    order = np.argsort(group_of, kind="stable")
    new_ids = np.empty(graph.num_vertices, dtype=np.int32)
    new_ids[order] = np.arange(graph.num_vertices, dtype=np.int32)
    counts = np.bincount(group_of, minlength=num_groups).astype(
        np.int64, copy=False
    )
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return DbgLayout(new_ids=new_ids, group_bounds=tuple(int(b) for b in bounds))


def apply_order(graph: CSRGraph, new_ids: np.ndarray) -> CSRGraph:
    """Relabel ``graph`` with the permutation ``new_ids``."""
    return graph.relabel(new_ids)
