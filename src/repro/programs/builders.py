"""Database builders: turn a Graph into each program's EDB relations.

These perform the data preparation the paper's experiments assume:
weighted edge relations for SSSP/APSP, symmetrised edges for CC,
row-normalised weighted adjacency for the spectral programs
(Adsorption, Katz, Belief Propagation -- normalisation keeps the
recursions contractive at our graph scale, preserving the convergent
regime of the paper's runs), probability-weighted DAGs for
Cost/Viterbi, parent trees for LCA, and in-neighbour predecessor
relations for SimRank.

Counting inputs are certified rather than clamped:
:func:`multiplicity_dag_db` proves the exact walk-count bound of its
output (via the RA35x abstract interpreter's
:func:`~repro.analysis.absint.counting_walk_bound`) and raises
:class:`WalkBoundError` with the RA351 verdict when float64 exactness
cannot be guaranteed, instead of relying on a multiplicity clamp to keep
counts small.

**Edge-local builders** (:class:`EdgeLocalBuilder`) are the ones whose
``edge`` rows are a function of one graph edge at a time and whose
``node`` rows are the vertex ids: ``weighted_graph_db``,
``plain_graph_db``, ``symmetrized_db``, ``dag_db`` and the probability
builders.  Each states its rows once, as a *batch* row function over
parallel source, destination and weight columns; the from-scratch build
calls it over the whole graph's columns (:meth:`Graph.columns`, as int
lists in edge order, so the rows -- and the relation's insertion order
-- are what the graph's edge list gives), and :mod:`repro.delta` calls
it over the edges a graph version bump removed and added, so a patched
EDB and a rebuilt one cannot drift.  The rest are not edge-local and
are always rebuilt: the row-normalised builders read a vertex aggregate
(out-degree, or in-degree for SimRank), ``tree_db`` reads a global BFS,
and ``multiplicity_dag_db`` certifies its whole output.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.engine.relation import Database
from repro.graphs.graph import Graph


class WalkBoundError(ValueError):
    """RA351: a counting builder refuses a graph whose walk counts would
    leave float64's exact-integer range."""


class EdgeLocalBuilder:
    """An EDB of ``edge`` rows computed edge by edge, plus ``node(v)``.

    ``rows(src, dst, weights)`` maps parallel lists of sources,
    destinations and weights (``None`` unless ``weighted``) to the
    ``edge`` rows they account for, in order and with repeats.  A
    from-scratch build inserts them as produced -- deduplicated and
    sorted first when ``sort_rows`` is set -- so a graph's rows come
    from one call and, for the plain builders, no weights are generated.
    """

    def __init__(
        self,
        rows: Callable[[list, list, Optional[list]], list],
        *,
        arity: int,
        weighted: bool,
        sort_rows: bool = False,
        doc: str = "",
    ) -> None:
        self.rows = rows
        self.arity = arity
        self.weighted = weighted
        self.sort_rows = sort_rows
        self.__doc__ = doc

    def __call__(self, graph: Graph) -> Database:
        rows = self.graph_rows(graph)
        if self.sort_rows:
            rows = sorted(set(rows))
        db = Database()
        db.add_facts("edge", rows, arity=self.arity)
        db.add_facts("node", zip(graph.vertices()), arity=1)
        return db

    def graph_rows(self, graph: Graph) -> list:
        """The ``edge`` rows of every edge of ``graph`` (repeats kept)."""
        weights = None
        if self.weighted:
            weights = graph.weights
            if weights is None:
                weights = graph.generate_weights()
        src, dst = graph.columns()
        return self.rows(src.tolist(), dst.tolist(), weights)

    def edge_rows(self, triples: list) -> list:
        """The ``edge`` rows of recorded ``(src, dst, weight)`` triples,
        one per edge the row function maps them to (repeats kept)."""
        src = [src for src, _, _ in triples]
        dst = [dst for _, dst, _ in triples]
        weights = [weight for _, _, weight in triples] if self.weighted else None
        return self.rows(src, dst, weights)


weighted_graph_db = EdgeLocalBuilder(
    lambda src, dst, weights: list(zip(src, dst, weights)),
    arity=3,
    weighted=True,
    doc="``edge(src, dst, weight)`` with integer weights, plus ``node``.",
)

plain_graph_db = EdgeLocalBuilder(
    lambda src, dst, weights: list(zip(src, dst)),
    arity=2,
    weighted=False,
    doc="``edge(src, dst)`` and ``node(v)``.",
)

symmetrized_db = EdgeLocalBuilder(
    lambda src, dst, weights: [*zip(src, dst), *zip(dst, src)],
    arity=2,
    weighted=False,
    sort_rows=True,
    doc="Undirected view for CC: every edge present in both directions.",
)


def _normalized_weights(graph: Graph) -> list[tuple[int, int, float]]:
    """``(src, dst, 1 / out-degree(src))`` per edge, in edge order (one
    IEEE division per edge, the bits of Python's ``1.0 / degree``)."""
    src, dst = graph.columns()
    weights = 1.0 / np.bincount(src).take(src)
    return list(zip(src.tolist(), dst.tolist(), weights.tolist()))


def adsorption_db(graph: Graph) -> Database:
    """Adsorption EDB: stochastic adjacency A, weights pc/pi, init I."""
    db = Database()
    db.add_facts("a", _normalized_weights(graph))
    db.add_facts("node", [(v,) for v in graph.vertices()])
    db.add_facts("pc", [(v, 0.9) for v in graph.vertices()])
    db.add_facts("pi", [(v, 0.25) for v in graph.vertices()])
    db.add_facts("inj", [(v, 1.0) for v in graph.vertices()])
    return db


def katz_db(graph: Graph) -> Database:
    """Katz EDB: row-normalised adjacency (keeps alpha=0.5 contractive)
    and the source vertex with its initial metric score."""
    db = Database()
    db.add_facts("a", _normalized_weights(graph))
    db.add_facts("node", [(v,) for v in graph.vertices()])
    db.add_facts("src", [(0, 1000.0)])
    return db


def bp_db(graph: Graph, num_classes: int = 2) -> Database:
    """Belief propagation EDB: network E, coupling H, initial beliefs I."""
    db = Database()
    db.add_facts("enet", _normalized_weights(graph))
    coupling = []
    for c1 in range(num_classes):
        for c2 in range(num_classes):
            coupling.append((c1, c2, 0.6 if c1 == c2 else 0.4))
    db.add_facts("h", coupling)
    rng = np.random.default_rng(graph.seed + 0xBE11EF)
    beliefs = []
    for v in graph.vertices():
        p = float(rng.uniform(0.3, 0.7))
        beliefs.append((v, 0, p))
        beliefs.append((v, 1, 1.0 - p))
    db.add_facts("beliefs0", beliefs)
    return db


def _probabilities(src: list, dst: list, weights: list) -> list:
    return [(s, d, w / 10.0) for s, d, w in zip(src, dst, weights)]


probability_dag_db = EdgeLocalBuilder(
    _probabilities,
    arity=3,
    weighted=True,
    doc="DAG with edge probabilities in (0, 1] for Cost and Viterbi.",
)

dag_db = EdgeLocalBuilder(
    lambda src, dst, weights: [(s, d) for s, d in zip(src, dst) if s < d],
    arity=2,
    weighted=False,
    doc="""Unweighted DAG for path counting.

    Cyclic inputs (the social datasets) are canonicalised to their
    forward sub-DAG -- only edges ``src < dst`` are kept -- so walk
    counting is well-defined and terminates.  The DAG generators emit
    topologically-id-ordered edges, so acyclic fixtures pass through
    unchanged.
    """,
)


def multiplicity_dag_db(graph: Graph) -> Database:
    """DAG with integer edge multiplicities for weighted counting.

    Float64 exactness is *certified*, not assumed: the builder computes
    the exact counting-semiring walk bound of the emitted forward
    sub-DAG (:func:`repro.analysis.absint.counting_walk_bound` -- the
    same number the RA35x range analysis proves for ``path_count``) and
    refuses any input whose counts could leave the exact-integer range,
    instead of clamping multiplicities and silently trusting the clamp.
    Statically bounded inputs run unclamped.  As in :func:`dag_db`,
    cyclic inputs are canonicalised to the forward sub-DAG (``src <
    dst``) so the counting fixpoint terminates.
    """
    from repro.analysis.absint import FLOAT64_EXACT_LIMIT, counting_walk_bound

    multiplicities = (
        graph.weights if graph.weights is not None else graph.generate_weights(1, 3)
    )
    src, dst = graph.columns()
    rows = [
        (s, d, m)
        for s, d, m in zip(src.tolist(), dst.tolist(), multiplicities)
        if s < d
    ]
    bound = counting_walk_bound(rows)
    if bound >= FLOAT64_EXACT_LIMIT:
        raise WalkBoundError(
            f"RA351: walk counts reach {bound:g} >= 2**53 on this "
            "multiplicity DAG; the counting semiring's float64 carrier "
            "would lose precision.  Shrink the graph or its "
            "multiplicities -- the builder no longer saturates silently."
        )
    db = Database()
    db.add_facts("edge", rows)
    db.add_facts("node", [(v,) for v in graph.vertices()])
    return db


probability_graph_db = EdgeLocalBuilder(
    _probabilities,
    arity=3,
    weighted=True,
    doc="""General digraph with edge success probabilities in (0, 1].

    Unlike :func:`probability_dag_db` the input may be cyclic: products
    of probabilities never increase along a walk, so the Viterbi-style
    max fixpoint still terminates.
    """,
)


def tree_db(graph: Graph) -> Database:
    """LCA EDB: a parent tree derived from BFS over the graph, plus the
    two deepest leaves as the query pair."""
    from repro.graphs.stats import bfs_depths

    depths = bfs_depths(graph, 0)
    adjacency = graph.out_adjacency()
    parents = []
    seen = {0}
    order = sorted(depths, key=depths.get)
    parent_of = {}
    for vertex in order:
        for child in adjacency[vertex]:
            if child not in seen:
                seen.add(child)
                parent_of[child] = vertex
                parents.append((child, vertex))  # parent(child) = vertex
    db = Database()
    db.add_facts("parent", parents)
    deepest = sorted(seen, key=lambda v: depths.get(v, 0))[-2:]
    db.add_facts("query", [(v,) for v in deepest])
    db.add_facts("node", [(v,) for v in graph.vertices()])
    return db


def simrank_db(graph: Graph) -> Database:
    """SimRank EDB: ``pred(in_neighbour, vertex, 1/|I(vertex)|)``."""
    in_adjacency = graph.in_adjacency()
    rows = []
    for vertex, in_neighbours in enumerate(in_adjacency):
        if not in_neighbours:
            continue
        weight = 1.0 / len(in_neighbours)
        rows.extend((u, vertex, weight) for u in in_neighbours)
    db = Database()
    db.add_facts("pred", rows)
    db.add_facts("node", [(v,) for v in graph.vertices()])
    return db


def embedding_db(graph: Graph) -> Database:
    """GCN/CommNet EDB: normalised adjacency, learned parameter, inputs."""
    db = Database()
    db.add_facts("a", _normalized_weights(graph))
    db.add_facts("para", [(0.7,)])
    rng = np.random.default_rng(graph.seed + 0x6C4)
    db.add_facts(
        "feat", [(v, float(rng.uniform(-1.0, 1.0))) for v in graph.vertices()]
    )
    db.add_facts("node", [(v,) for v in graph.vertices()])
    return db
