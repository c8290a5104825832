"""Seeded synthetic graph generators.

Each generator is deterministic in its ``seed`` and chosen to reproduce
one structural regime of the paper's datasets:

* :func:`rmat` -- recursive-matrix power-law graphs (social networks:
  Flickr, LiveJournal, Orkut, Wiki-link);
* :func:`small_world` -- ring lattice plus long-range shortcuts (small
  diameter, like ClueWeb09, where the paper notes delta-stepping wins);
* :func:`locality_crawl` -- edges drawn mostly to nearby vertex ids
  (high diameter / high locality, like the Arabic-2005 crawl);
* :func:`random_dag`, :func:`grid_graph`, :func:`chain`, :func:`star` --
  structured graphs for the DAG-counting programs and for tests.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, deduplicate_edges


def _spanning_backbone(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random tree rooted at vertex 0 so every vertex is reachable.

    Keeps single-source experiments (SSSP, Katz) meaningful on sparse
    random graphs; its n-1 edges are a small fraction of the total.
    """
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v))
    return edges


def rmat(
    n: int,
    m: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    name: str = "rmat",
    connected: bool = True,
) -> Graph:
    """R-MAT power-law digraph with ``~n`` vertices and ``~m`` edges."""
    rng = np.random.default_rng(seed)
    bits = max(1, int(np.ceil(np.log2(max(n, 2)))))
    d = 1.0 - a - b - c
    probs = np.array([a, b, c, d])
    # oversample to compensate for duplicates, then deduplicate
    samples = int(m * 1.4) + 16
    quadrant = rng.choice(4, size=(samples, bits), p=probs)
    src_bits = (quadrant >= 2).astype(np.int64)
    dst_bits = (quadrant % 2).astype(np.int64)
    powers = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    srcs = (src_bits * powers).sum(axis=1) % n
    dsts = (dst_bits * powers).sum(axis=1) % n
    edges = deduplicate_edges(list(zip(srcs.tolist(), dsts.tolist())))[:m]
    if connected:
        edges = deduplicate_edges(_spanning_backbone(n, rng) + edges)
    return Graph(n, edges, name=name, seed=seed)


def erdos_renyi(n: int, m: int, seed: int = 0, name: str = "er") -> Graph:
    """Uniform random digraph with ``n`` vertices and ``~m`` edges."""
    rng = np.random.default_rng(seed)
    samples = int(m * 1.2) + 16
    srcs = rng.integers(0, n, size=samples)
    dsts = rng.integers(0, n, size=samples)
    edges = deduplicate_edges(list(zip(srcs.tolist(), dsts.tolist())))[:m]
    edges = deduplicate_edges(_spanning_backbone(n, rng) + edges)
    return Graph(n, edges, name=name, seed=seed)


def small_world(
    n: int,
    m: int,
    seed: int = 0,
    rewire: float = 0.3,
    name: str = "small-world",
) -> Graph:
    """Watts-Strogatz-style digraph: ring lattice + random shortcuts.

    The shortcuts give a small diameter regardless of size, matching the
    ClueWeb09 regime where few iterations reach the whole graph.
    """
    rng = np.random.default_rng(seed)
    k = max(1, m // (2 * n))  # lattice half-degree
    edges: list[tuple[int, int]] = []
    for v in range(n):
        for offset in range(1, k + 1):
            edges.append((v, (v + offset) % n))
            edges.append((v, (v - offset) % n))
    # rewire a fraction of lattice edges into long-range shortcuts
    edges = [
        (src, int(rng.integers(0, n))) if rng.random() < rewire else (src, dst)
        for src, dst in edges
    ]
    remaining = m - len(edges)
    if remaining > 0:
        srcs = rng.integers(0, n, size=remaining)
        dsts = rng.integers(0, n, size=remaining)
        edges.extend(zip(srcs.tolist(), dsts.tolist()))
    edges = deduplicate_edges(_spanning_backbone(n, rng) + edges)[: m + n]
    return Graph(n, edges, name=name, seed=seed)


def locality_crawl(
    n: int,
    m: int,
    seed: int = 0,
    spread: float = 0.01,
    long_range: float = 0.02,
    name: str = "crawl",
) -> Graph:
    """A high-locality crawl-like digraph with a large diameter.

    Most edges connect vertices whose ids are within ``spread * n`` of
    each other (web crawls order pages by site), so information travels
    slowly -- the Arabic-2005 regime where synchronous engines pay many
    supersteps.
    """
    rng = np.random.default_rng(seed)
    window = max(2, int(spread * n))
    samples = int(m * 1.3) + 16
    srcs = rng.integers(0, n, size=samples)
    offsets = rng.integers(-window, window + 1, size=samples)
    dsts = (srcs + offsets) % n
    longs = rng.random(samples) < long_range
    dsts = np.where(longs, rng.integers(0, n, size=samples), dsts)
    edges = deduplicate_edges(list(zip(srcs.tolist(), dsts.tolist())))[:m]
    # chain backbone (not a random tree) to preserve the large diameter
    backbone = [(v, v + 1) for v in range(n - 1)]
    edges = deduplicate_edges(backbone + edges)
    return Graph(n, edges, name=name, seed=seed)


def grid_graph(rows: int, cols: int, name: str = "grid") -> Graph:
    """A directed 2D grid (edges right and down): deterministic, high diameter."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(n, edges, name=name)


def random_dag(n: int, m: int, seed: int = 0, name: str = "dag") -> Graph:
    """A random DAG (edges go from lower to higher vertex id)."""
    rng = np.random.default_rng(seed)
    samples = int(m * 1.5) + 16
    srcs = rng.integers(0, n - 1, size=samples)
    spans = rng.integers(1, max(2, n // 4), size=samples)
    dsts = np.minimum(srcs + spans, n - 1)
    edges = deduplicate_edges(list(zip(srcs.tolist(), dsts.tolist())))[:m]
    backbone = [(v, v + 1) for v in range(n - 1)]
    edges = deduplicate_edges(backbone + edges)
    return Graph(n, edges, name=name, seed=seed)


def chain(n: int, name: str = "chain") -> Graph:
    """A directed path 0 -> 1 -> ... -> n-1."""
    return Graph(n, [(v, v + 1) for v in range(n - 1)], name=name)


def star(n: int, name: str = "star") -> Graph:
    """A star with centre 0 and spokes 0 -> v."""
    return Graph(n, [(0, v) for v in range(1, n)], name=name)
