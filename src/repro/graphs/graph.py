"""The Graph container shared by generators, datasets and engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine.relation import Database


@dataclass
class Graph:
    """A directed graph over vertices ``0..num_vertices-1``.

    ``weights`` is optional; weighted consumers (SSSP, APSP) ask for
    :meth:`as_database` with ``weighted=True``, which generates
    deterministic integer weights when none were provided.
    """

    num_vertices: int
    edges: list[tuple[int, int]]
    weights: Optional[list] = None
    name: str = "graph"
    seed: int = 0

    def __post_init__(self):
        if self.weights is not None and len(self.weights) != len(self.edges):
            raise ValueError("weights must align with edges")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def weighted_edges(self) -> list[tuple[int, int, object]]:
        """Edges with weights, generating integer weights if absent."""
        weights = self.weights
        if weights is None:
            weights = self.generate_weights()
        return [(src, dst, w) for (src, dst), w in zip(self.edges, weights)]

    def generate_weights(self, low: int = 1, high: int = 10) -> list[int]:
        """Deterministic integer weights in ``[low, high]`` from the seed."""
        rng = np.random.default_rng(self.seed + 0x5EED)
        return rng.integers(low, high + 1, size=len(self.edges)).tolist()

    def with_weights(self, low: int = 1, high: int = 10) -> "Graph":
        return Graph(
            self.num_vertices,
            list(self.edges),
            self.generate_weights(low, high),
            name=self.name,
            seed=self.seed,
        )

    def out_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for src, dst in self.edges:
            adj[src].append(dst)
        return adj

    def in_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for src, dst in self.edges:
            adj[dst].append(src)
        return adj

    def out_degrees(self) -> list[int]:
        degrees = [0] * self.num_vertices
        for src, _ in self.edges:
            degrees[src] += 1
        return degrees

    def reversed(self) -> "Graph":
        return Graph(
            self.num_vertices,
            [(dst, src) for src, dst in self.edges],
            self.weights,
            name=f"{self.name}-rev",
            seed=self.seed,
        )

    def as_database(self, weighted: bool = False) -> Database:
        """Materialise the graph as EDB relations ``edge`` and ``node``.

        ``edge`` has arity 3 (src, dst, weight) when weighted, else 2.
        """
        db = Database()
        if weighted:
            db.add_facts("edge", self.weighted_edges(), arity=3)
        else:
            db.add_facts("edge", self.edges, arity=2)
        db.add_facts("node", zip(self.vertices()), arity=1)
        return db

    def __repr__(self):
        return (
            f"Graph({self.name}: {self.num_vertices} vertices, "
            f"{self.num_edges} edges)"
        )


def deduplicate_edges(
    edges: Sequence[tuple[int, int]], drop_self_loops: bool = True
) -> list[tuple[int, int]]:
    """Remove duplicate edges (and self loops) preserving determinism."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for src, dst in edges:
        if drop_self_loops and src == dst:
            continue
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        out.append((src, dst))
    return out
