"""Ground-truth implementations (see package docstring)."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from repro.graphs.graph import Graph


# --------------------------------------------------------------------------
# shortest paths and components
# --------------------------------------------------------------------------
def dijkstra_sssp(graph: Graph, source: int = 0) -> dict[int, float]:
    """Single-source shortest paths by Dijkstra (binary heap)."""
    adjacency: list[list[tuple[int, object]]] = [[] for _ in range(graph.num_vertices)]
    for src, dst, weight in graph.weighted_edges():
        adjacency[src].append((dst, weight))
    distances: dict[int, float] = {source: 0}
    frontier: list[tuple[float, int]] = [(0, source)]
    visited: set[int] = set()
    while frontier:
        distance, vertex = heapq.heappop(frontier)
        if vertex in visited:
            continue
        visited.add(vertex)
        for neighbour, weight in adjacency[vertex]:
            candidate = distance + weight
            if neighbour not in distances or candidate < distances[neighbour]:
                distances[neighbour] = candidate
                heapq.heappush(frontier, (candidate, neighbour))
    return distances


def union_find_components(graph: Graph) -> dict[int, int]:
    """Minimum vertex id of each weakly connected component (union-find)."""
    parent = list(range(graph.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for src, dst in graph.edges:
        union(src, dst)
    return {v: find(v) for v in range(graph.num_vertices)}


# --------------------------------------------------------------------------
# spectral programs: exact linear solves
# --------------------------------------------------------------------------
def _normalized_matrix(graph: Graph, factor: float) -> np.ndarray:
    """``M[dst, src] = factor / outdeg(src)`` for each edge (dense)."""
    n = graph.num_vertices
    degrees = graph.out_degrees()
    matrix = np.zeros((n, n))
    for src, dst in graph.edges:
        matrix[dst, src] += factor / degrees[src]
    return matrix


def dense_pagerank(
    graph: Graph, damping: float = 0.85, constant: float = 0.15
) -> dict[int, float]:
    """Exact fixpoint of ``r = constant + damping * M r`` by linear solve."""
    n = graph.num_vertices
    matrix = _normalized_matrix(graph, damping)
    solution = np.linalg.solve(np.eye(n) - matrix, np.full(n, constant))
    return {v: float(solution[v]) for v in range(n)}


def dense_adsorption(
    graph: Graph,
    continue_prob: float = 0.9,
    damping: float = 0.7,
    injection: float = 0.25,
) -> dict[int, float]:
    """Exact fixpoint of the Program-4 recursion by linear solve."""
    n = graph.num_vertices
    matrix = _normalized_matrix(graph, damping * continue_prob)
    solution = np.linalg.solve(np.eye(n) - matrix, np.full(n, injection))
    return {v: float(solution[v]) for v in range(n)}


def dense_katz(
    graph: Graph, alpha: float = 0.5, source: int = 0, score: float = 1000.0
) -> dict[int, float]:
    """Exact fixpoint of the (normalised) Katz recursion by linear solve."""
    n = graph.num_vertices
    matrix = _normalized_matrix(graph, alpha)
    constant = np.zeros(n)
    constant[source] = score
    solution = np.linalg.solve(np.eye(n) - matrix, constant)
    return {v: float(solution[v]) for v in range(n)}


def dense_belief_propagation(
    graph: Graph,
    beliefs0: Mapping[tuple[int, int], float],
    coupling: Mapping[tuple[int, int], float],
    damping: float = 0.8,
    num_classes: int = 2,
) -> dict[tuple[int, int], float]:
    """Exact fixpoint of the Program-6 recursion over (vertex, class) keys."""
    n = graph.num_vertices
    size = n * num_classes
    degrees = graph.out_degrees()
    matrix = np.zeros((size, size))
    for src, dst in graph.edges:
        weight = 1.0 / degrees[src]
        for c1 in range(num_classes):
            for c2 in range(num_classes):
                row = dst * num_classes + c2
                col = src * num_classes + c1
                matrix[row, col] += damping * weight * coupling[(c1, c2)]
    base = np.zeros(size)
    for (vertex, cls), value in beliefs0.items():
        base[vertex * num_classes + cls] = value
    solution = np.linalg.solve(np.eye(size) - matrix, base)
    return {
        (v, c): float(solution[v * num_classes + c])
        for v in range(n)
        for c in range(num_classes)
    }


# --------------------------------------------------------------------------
# DAG programs: dynamic programming in topological order
# --------------------------------------------------------------------------
def _topological_order(graph: Graph) -> list[int]:
    indegree = [0] * graph.num_vertices
    adjacency = graph.out_adjacency()
    for _, dst in graph.edges:
        indegree[dst] += 1
    queue = deque(v for v in range(graph.num_vertices) if indegree[v] == 0)
    order = []
    while queue:
        vertex = queue.popleft()
        order.append(vertex)
        for neighbour in adjacency[vertex]:
            indegree[neighbour] -= 1
            if indegree[neighbour] == 0:
                queue.append(neighbour)
    if len(order) != graph.num_vertices:
        raise ValueError("graph is not a DAG")
    return order


def dag_path_counts(graph: Graph, source: int = 0) -> dict[int, int]:
    """Number of distinct paths from ``source`` to each reachable vertex."""
    counts = {source: 1}
    adjacency = graph.out_adjacency()
    for vertex in _topological_order(graph):
        if vertex not in counts:
            continue
        for neighbour in adjacency[vertex]:
            counts[neighbour] = counts.get(neighbour, 0) + counts[vertex]
    # the source's own base fact persists under the program's semantics
    return counts


def dag_path_costs(graph: Graph, source: int = 0) -> dict[int, float]:
    """Sum over source paths of the product of edge probabilities."""
    weights = {
        (src, dst): weight / 10.0 for src, dst, weight in graph.weighted_edges()
    }
    costs = {source: 1.0}
    adjacency = graph.out_adjacency()
    for vertex in _topological_order(graph):
        if vertex not in costs:
            continue
        for neighbour in adjacency[vertex]:
            costs[neighbour] = costs.get(neighbour, 0.0) + costs[vertex] * weights[
                (vertex, neighbour)
            ]
    return costs


def bfs_reachability(graph: Graph, source: int = 0) -> dict[int, float]:
    """Boolean reachability from ``source`` by plain BFS (1.0 = reachable)."""
    adjacency = graph.out_adjacency()
    reached = {source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbour in adjacency[vertex]:
            if neighbour not in reached:
                reached.add(neighbour)
                queue.append(neighbour)
    return {v: 1.0 for v in reached}


def dag_weighted_path_counts(graph: Graph, source: int = 0) -> dict[int, float]:
    """Multiplicity-weighted walk counts from ``source`` (counting semiring).

    Uses the same deterministic ``[1, 3]`` multiplicities as
    :func:`repro.programs.builders.multiplicity_dag_db`.
    """
    multiplicities = (
        graph.weights if graph.weights is not None else graph.generate_weights(1, 3)
    )
    weight_of = {
        (src, dst): m for (src, dst), m in zip(graph.edges, multiplicities)
    }
    counts = {source: 1.0}
    adjacency = graph.out_adjacency()
    for vertex in _topological_order(graph):
        if vertex not in counts:
            continue
        for neighbour in adjacency[vertex]:
            counts[neighbour] = counts.get(neighbour, 0.0) + counts[
                vertex
            ] * weight_of[(vertex, neighbour)]
    return counts


def k_shortest_path_lengths(
    graph: Graph, k: int = 3, source: int = 0
) -> dict[int, tuple[float, ...]]:
    """The ``k`` smallest *distinct* path lengths from ``source`` per vertex.

    Label-setting generalisation of Dijkstra (positive weights): each
    vertex keeps a sorted list of at most ``k`` distinct lengths; a
    popped label that was truncated out in the meantime is stale and
    skipped.  Independent of the engines' KTuple merge/shift algebra.
    """
    adjacency: list[list[tuple[int, float]]] = [
        [] for _ in range(graph.num_vertices)
    ]
    for src, dst, weight in graph.weighted_edges():
        adjacency[src].append((dst, float(weight)))
    labels: dict[int, list[float]] = {source: [0.0]}
    frontier: list[tuple[float, int]] = [(0.0, source)]
    while frontier:
        length, vertex = heapq.heappop(frontier)
        if length not in labels.get(vertex, ()):
            continue  # truncated while parked: stale
        for neighbour, weight in adjacency[vertex]:
            candidate = length + weight
            known = labels.setdefault(neighbour, [])
            if candidate in known:
                continue
            if len(known) < k or candidate < known[-1]:
                known.append(candidate)
                known.sort()
                del known[k:]
                heapq.heappush(frontier, (candidate, neighbour))
    return {vertex: tuple(lengths) for vertex, lengths in labels.items()}


def max_path_probability(graph: Graph, source: int = 0) -> dict[int, float]:
    """Maximum product of edge probabilities over ``source`` paths.

    Best-first search with a max-heap -- exact on cyclic graphs because
    probabilities lie in (0, 1], so extending a path never increases its
    product (the Viterbi analogue of Dijkstra's invariant).
    """
    adjacency: list[list[tuple[int, float]]] = [
        [] for _ in range(graph.num_vertices)
    ]
    for src, dst, weight in graph.weighted_edges():
        adjacency[src].append((dst, weight / 10.0))
    best: dict[int, float] = {source: 1.0}
    frontier: list[tuple[float, int]] = [(-1.0, source)]
    settled: set[int] = set()
    while frontier:
        negated, vertex = heapq.heappop(frontier)
        if vertex in settled:
            continue
        settled.add(vertex)
        probability = -negated
        for neighbour, edge_probability in adjacency[vertex]:
            candidate = probability * edge_probability
            if candidate > best.get(neighbour, 0.0):
                best[neighbour] = candidate
                heapq.heappush(frontier, (-candidate, neighbour))
    return best


def viterbi_best_path(graph: Graph, source: int = 0) -> dict[int, float]:
    """Maximum path probability from ``source`` (DP over the DAG)."""
    weights = {
        (src, dst): weight / 10.0 for src, dst, weight in graph.weighted_edges()
    }
    best = {source: 1.0}
    adjacency = graph.out_adjacency()
    for vertex in _topological_order(graph):
        if vertex not in best:
            continue
        for neighbour in adjacency[vertex]:
            candidate = best[vertex] * weights[(vertex, neighbour)]
            if candidate > best.get(neighbour, -1.0):
                best[neighbour] = candidate
    return best


# --------------------------------------------------------------------------
# pair-key programs
# --------------------------------------------------------------------------
def floyd_warshall_apsp(graph: Graph) -> dict[tuple[int, int], float]:
    """All-pairs shortest paths (Floyd-Warshall on a dense matrix)."""
    n = graph.num_vertices
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for src, dst, weight in graph.weighted_edges():
        dist[src, dst] = min(dist[src, dst], float(weight))
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return {
        (s, t): float(dist[s, t])
        for s in range(n)
        for t in range(n)
        if np.isfinite(dist[s, t])
    }


def lca_ancestor_distances(
    parent_of: Mapping[int, int], queries: Iterable[int]
) -> dict[tuple[int, int], int]:
    """Hop distance from each query vertex to each of its ancestors.

    Walks the parent chain directly -- independent of the engines' min
    propagation.  The LCA of two queries is the common ancestor
    minimising the distance sum.
    """
    distances: dict[tuple[int, int], int] = {}
    for query in queries:
        vertex = query
        hops = 0
        distances[(query, vertex)] = 0
        while vertex in parent_of:
            vertex = parent_of[vertex]
            hops += 1
            distances[(query, vertex)] = hops
    return distances


def simrank_series(
    graph: Graph, decay: float = 0.8, tolerance: float = 1e-10, max_rounds: int = 500
) -> dict[tuple[int, int], float]:
    """Fixpoint of the linearised SimRank recursion by matrix iteration.

    ``S = I + decay * Pᵀ S P`` with ``P[x, a] = 1/|I(a)|`` for in-edges
    ``x -> a`` -- the same series the Datalog program accumulates.
    """
    n = graph.num_vertices
    p = np.zeros((n, n))
    in_adjacency = graph.in_adjacency()
    for vertex, in_neighbours in enumerate(in_adjacency):
        if not in_neighbours:
            continue
        weight = 1.0 / len(in_neighbours)
        for u in in_neighbours:
            p[u, vertex] = weight
    s = np.eye(n)
    for _ in range(max_rounds):
        updated = np.eye(n) + decay * (p.T @ s @ p)
        if np.max(np.abs(updated - s)) < tolerance:
            s = updated
            break
        s = updated
    return {(a, b): float(s[a, b]) for a in range(n) for b in range(n)}
