"""The Graph container shared by generators, datasets and engines."""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Any, Optional, Sequence

import numpy as np

from repro.engine.relation import Database


class Graph:
    """A directed graph over vertices ``0..num_vertices-1``.

    ``weights`` is optional; weighted consumers (SSSP, APSP) ask for
    :meth:`as_database` with ``weighted=True``, which generates
    deterministic integer weights when none were provided.

    The edges are held one of two ways.  A graph built from a list of
    ``(src, dst)`` pairs keeps that list as :attr:`edges`.  A graph
    built by :meth:`from_columns` (what
    :func:`~repro.graphs.io.read_edge_list` returns for a plain integer
    file) keeps two int64 arrays instead, and :attr:`edges` is a tuple
    view built on first access; building it drops the arrays, so a
    graph never holds both (``"edges" in vars(graph)`` tells whether it
    was built).  The EDB builders read :meth:`columns`, which is free on
    a column graph.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[tuple[int, int]],
        weights: Optional[list] = None,
        name: str = "graph",
        seed: int = 0,
    ):
        self.num_vertices = num_vertices
        self.edges = edges
        self._columns: Optional[tuple] = None
        self.weights = weights
        self.name = name
        self.seed = seed
        if weights is not None and len(weights) != len(edges):
            raise ValueError("weights must align with edges")

    @classmethod
    def from_columns(
        cls,
        num_vertices: int,
        src: Any,
        dst: Any,
        weights: Optional[list] = None,
        name: str = "graph",
        seed: int = 0,
    ) -> "Graph":
        """A graph over parallel int64 endpoint arrays, edge ``i`` being
        ``src[i] -> dst[i]``; ``weights`` is a list, as for the list form."""
        if len(src) != len(dst):
            raise ValueError("src and dst must align")
        graph = cls(num_vertices, (), name=name, seed=seed)
        del graph.edges  # built from the columns on first access
        graph._columns = (src, dst)
        if weights is not None and len(weights) != len(src):
            raise ValueError("weights must align with edges")
        graph.weights = weights
        return graph

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The ``(src, dst)`` pairs in order; on a column graph, built
        once from the columns, which it then replaces."""
        pairs = self._pairs()
        self._columns = None
        return pairs

    def columns(self) -> tuple:
        """The edges as ``(src, dst)`` int64 arrays: a column graph's own
        (do not write to them), else fresh ones."""
        if self._columns is not None:
            return self._columns
        flat = chain.from_iterable(self.edges)
        pairs = np.fromiter(flat, np.int64, count=2 * len(self.edges)).reshape(-1, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    @property
    def num_edges(self) -> int:
        if self._columns is not None:
            return len(self._columns[0])
        return len(self.edges)

    def __eq__(self, other):
        """Equal vertex counts, edges in order, weights, names and seeds,
        whichever way each graph holds its edges (neither view is built)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.num_vertices, self.weights, self.name, self.seed) != (
            other.num_vertices, other.weights, other.name, other.seed
        ):
            return False
        if self._columns is not None and other._columns is not None:
            return all(map(np.array_equal, self._columns, other._columns))
        return self._pairs() == other._pairs()

    __hash__ = None  # mutable

    def _pairs(self) -> list:
        """The ``(src, dst)`` pairs, without building the cached view."""
        if self._columns is None:
            return self.edges
        src, dst = self._columns
        return list(zip(src.tolist(), dst.tolist()))

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
        return rng.integers(low, high + 1, size=self.num_edges).tolist()

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
