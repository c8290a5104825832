"""Graph statistics: degree distribution, reachability, diameter estimate.

Used by the dataset benchmarks (Table 2) to demonstrate that each
stand-in reproduces its paper dataset's structural regime, and by tests
as generator sanity checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph


@dataclass(frozen=True)
class GraphStats:
    name: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_out_degree: int
    degree_skew: float  # max / avg, a proxy for power-law skew
    reachable_from_0: int
    eccentricity_from_0: int  # BFS depth from vertex 0 (diameter proxy)

    def row(self) -> dict:
        return {
            "dataset": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "avg_deg": round(self.avg_degree, 1),
            "max_deg": self.max_out_degree,
            "skew": round(self.degree_skew, 1),
            "reach(0)": self.reachable_from_0,
            "ecc(0)": self.eccentricity_from_0,
        }


def bfs_depths(graph: Graph, source: int = 0) -> dict[int, int]:
    """BFS hop distance from ``source`` to every reachable vertex."""
    adjacency = graph.out_adjacency()
    depths = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        depth = depths[vertex]
        for neighbour in adjacency[vertex]:
            if neighbour not in depths:
                depths[neighbour] = depth + 1
                queue.append(neighbour)
    return depths


def compute_stats(graph: Graph) -> GraphStats:
    degrees = np.array(graph.out_degrees(), dtype=np.float64)
    avg = float(degrees.mean()) if len(degrees) else 0.0
    max_deg = int(degrees.max()) if len(degrees) else 0
    depths = bfs_depths(graph, 0)
    return GraphStats(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=avg,
        max_out_degree=max_deg,
        degree_skew=(max_deg / avg) if avg else 0.0,
        reachable_from_0=len(depths),
        eccentricity_from_0=max(depths.values()) if depths else 0,
    )
