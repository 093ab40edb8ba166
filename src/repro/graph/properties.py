"""Structural measurements over graphs (degree statistics, skew).

Used by dataset registration (Table III reporting) and by tests that assert
each synthetic generator lands in its intended structural class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = ["DegreeStats", "degree_stats", "degree_skew"]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's out-degree distribution."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    median_degree: float
    skew: float

    def as_row(self) -> dict:
        """Table-friendly dict (used when printing Table III)."""
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "avg_deg": round(self.avg_degree, 2),
            "max_deg": self.max_degree,
            "median_deg": self.median_degree,
            "skew": round(self.skew, 2),
        }


def degree_skew(graph: CSRGraph) -> float:
    """Ratio of max out-degree to average out-degree.

    Power-law / Kronecker graphs have skew in the hundreds-to-thousands;
    uniform and mesh graphs have skew close to 1.
    """
    degrees = graph.degrees()
    if graph.num_edges == 0:
        return 0.0
    return float(degrees.max() / degrees.mean())


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute :class:`DegreeStats` for ``graph``."""
    degrees = graph.degrees()
    if graph.num_vertices == 0:
        return DegreeStats(0, 0, 0.0, 0, 0.0, 0.0)
    return DegreeStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=float(degrees.mean()) if len(degrees) else 0.0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        median_degree=float(np.median(degrees)) if len(degrees) else 0.0,
        skew=degree_skew(graph),
    )

