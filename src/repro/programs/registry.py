"""Registry of eighteen programs: the paper's fourteen recursive aggregate
programs (Table 1) plus four semiring-family extensions.

Each program is given in the paper's Datalog dialect; sources follow the
paper's listings (Programs 1-7) where available.  Two deliberate,
documented deviations keep the recursions convergent at reproduction
scale: Katz and the other spectral programs run on a row-normalised
adjacency with an attenuation constant below 1 (the paper's
``k1 = 0.1*k`` on a raw multi-hundred-degree adjacency diverges on dense
graphs), and Paths-in-DAG / Cost express counting as summation, which is
exactly the paper's runtime semantics for ``count``
(``return sum(r, count[d])``, section 2.3).

Beyond Table 1, four program families exercise one registered semiring
each: ``why_reach`` (boolean -- why-provenance reachability),
``path_count`` (counting -- multiplicity-weighted walk counting),
``kpaths`` (k-tropical -- top-k shortest path lengths) and
``reach_prob`` (Viterbi -- maximum path success probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.datalog import ProgramAnalysis, analyze, parse_program
from repro.engine.plan import CompiledPlan, compile_plan
from repro.engine.relation import Database
from repro.graphs.graph import Graph
from repro.programs import builders


@dataclass(frozen=True)
class ProgramSpec:
    """One Table-1 program: source, expected verdict, EDB builder."""

    name: str
    title: str
    source: str
    #: aggregator named in Table 1 (display; the engine aggregate may be
    #: ``sum`` where the paper's runtime semantics for ``count`` applies)
    aggregator: str
    #: expected "MRA sat." verdict from Table 1
    expected_mra: bool
    build_database: Callable[[Graph], Database]
    #: True when the program is one of the six evaluated in Figures 9-11
    benchmarked: bool = False
    #: "vertex" or "pair" key domain (pair programs run on small graphs)
    key_domain: str = "vertex"
    notes: str = ""

    def parse(self):
        return parse_program(self.source, name=self.name)

    def analysis(self) -> ProgramAnalysis:
        return _analysis_for_source(self.name, self.source)

    def plan(self, graph: Graph) -> CompiledPlan:
        return self.compile(self.build_database(graph))

    def compile(self, db: Database) -> CompiledPlan:
        """The plan over an EDB ``build_database`` made: what :meth:`plan`
        compiles, for a caller that keeps the database."""
        return compile_plan(self.analysis(), db)


_SSSP = """
% Program 1 (paper): single source shortest path from vertex 0.
sssp(X, d) :- X = 0, d = 0.
sssp(Y, min[dy]) :- sssp(X, dx), edge(X, Y, dxy), dy = dx + dxy.
"""

_CC = """
% Program 3 (paper): connected components by label propagation.
% The EDB is symmetrised, so components are the undirected ones.
cc(X, X) :- edge(X, _).
cc(Y, min[v]) :- cc(X, v), edge(X, Y).
"""

_PAGERANK = """
% Program 2 (paper): PageRank, declarative + imperative form.
assume d > 0.
degree(X, count[Y]) :- edge(X, Y).
rank(0, X, r) :- node(X), r = 0.
rank(i+1, Y, sum[ry]) :- node(Y), ry = 0.15;
    :- rank(i, X, rx), edge(X, Y), degree(X, d),
       ry = 0.85 * rx / d, {sum[delta] < 0.001}.
"""

_ADSORPTION = """
% Program 4 (paper): adsorption label propagation (Markov process form).
assume w >= 0.
assume p >= 0.
lab(0, x, l) :- node(x), l = 0.
lab(j+1, y, sum[a1]) :- inj(y, i), pi(y, p2), a1 = i * p2;
    :- lab(j, x, a), a(x, y, w), pc(x, p),
       a1 = 0.7 * a * w * p, {sum[da] < 0.001}.
"""

_KATZ = """
% Program 5 (paper): Katz metric from source 0.  Reproduction note: the
% adjacency is row-normalised and the attenuation is 0.5 so the series
% converges at reproduction scale (the paper's 0.1 on a raw adjacency
% assumes spectral radius < 10).
assume w >= 0.
katz(i+1, y, sum[k1]) :- src(y, j), k1 = j;
    :- katz(i, x, k), a(x, y, w), k1 = 0.5 * k * w, {sum[dk] < 0.001}.
"""

_BP = """
% Program 6 (paper): belief propagation on a weighted network with
% coupling scores h over classes.
assume w >= 0.
assume h >= 0.
bel(0, v, c, b) :- beliefs0(v, c, b).
bel(j+1, t, c2, sum[b1]) :- bel(j, s, c1, b), enet(s, t, w), h(c1, c2, hc),
    b1 = 0.8 * w * b * hc, {sum[db] < 0.0001}.
"""

_DAG_PATHS = """
% Computing paths in a DAG [DeALS]: number of distinct source-0 paths
% reaching each vertex.  Counting is summation of path counts -- the
% paper's runtime semantics for count is sum(r, count[d]).
paths(X, c) :- X = 0, c = 1.
paths(Y, sum[c1]) :- paths(X, c), edge(X, Y), c1 = c.
"""

_COST = """
% Cost [DeALS]: total probability-weighted cost over all source-0 paths
% of a DAG with edge success probabilities.
assume p >= 0.
cost(X, c) :- X = 0, c = 1.
cost(Y, sum[c1]) :- cost(X, c), edge(X, Y, p), c1 = c * p.
"""

_VITERBI = """
% Viterbi [DeALS]: maximum-probability path from vertex 0 over a trellis
% with transition probabilities.
assume p >= 0.
vit(X, v) :- X = 0, v = 1.
vit(Y, max[v1]) :- vit(X, v), edge(X, Y, p), v1 = v * p.
"""

_SIMRANK = """
% SimRank [Jeh-Widom], linearised series form over vertex pairs:
% s(a,b) accumulates 0.8 * wa * wb * s(x,y) over in-neighbour pairs.
assume wa >= 0.
assume wb >= 0.
sim(X, X2, s) :- node(X), X2 = X, s = 1.
sim(A, B, sum[s1]) :- sim(X, Y, s), pred(X, A, wa), pred(Y, B, wb),
    s1 = 0.8 * s * wa * wb, {sum[ds] < 0.001}.
"""

_LCA = """
% Lowest common ancestor [Schieber-Vishkin]: minimum hop distance from
% each query vertex to each of its ancestors; the LCA of the query pair
% is the common ancestor minimising the distance sum (computed outside
% the recursion).
anc(S, S2, d) :- query(S), S2 = S, d = 0.
anc(S, Z, min[dz]) :- anc(S, Y, dy), parent(Y, Z), dz = dy + 1.
"""

_APSP = """
% All pairs shortest paths [DeALS] over vertex-pair keys.
apsp(S, S2, d) :- node(S), S2 = S, d = 0.
apsp(S, Y, min[dy]) :- apsp(S, X, dx), edge(X, Y, dxy), dy = dx + dxy.
"""

_COMMNET = """
% CommNet [Sukhbaatar et al.]: communication step of a multi-agent net;
% the tanh non-linearity breaks Property 2 (Table 1: MRA sat. = no).
comm(0, v, g) :- feat(v, g).
comm(j+1, Y, sum[g1]) :- comm(j, X, g), a(X, Y, w), para(p),
    g1 = tanh(g * p) * w, {sum[dg] < 0.001}.
"""

_GCN = """
% Program 7 (paper): GCN forward pass; relu breaks Property 2
% (Table 1: MRA sat. = no), e.g. sum(relu(-1+2), relu(1-2)) = 1 but
% sum(relu(-1), relu(2), relu(1), relu(-2)) = 3.
gcn(0, v, g) :- feat(v, g).
gcn(j+1, Y, sum[g1]) :- gcn(j, X, g), a(X, Y, w), para(p),
    g1 = relu(g * p) * w, {sum[dg] < 0.001}.
"""


_WHY_REACH = """
% Why-provenance reachability over the boolean semiring: a vertex is
% derivable iff some source-0 path witnesses it (⊕ = or, ⊗ = and).
reach(X, r) :- X = 0, r = 1.
reach(Y, or[ry]) :- reach(X, rx), edge(X, Y), ry = rx.
"""

_PATH_COUNT = """
% Path counting over the counting semiring: walks from source 0 in a
% DAG with integer edge multiplicities; each edge multiplies the walk
% count by its multiplicity (⊕ = +, ⊗ = ×).
assume m >= 0.
pc(X, c) :- X = 0, c = 1.
pc(Y, sum[c1]) :- pc(X, c), edge(X, Y, m), c1 = c * m.
"""

_KPATHS = """
% Top-k shortest paths over the k-tropical semiring: the k smallest
% distinct source-0 path lengths per vertex (k = 3); ⊕ is the sorted
% distinct-truncating merge, ⊗ shifts every component by the edge
% weight.
kp(X, d) :- X = 0, d = ktup(0).
kp(Y, topk[dy]) :- kp(X, dx), edge(X, Y, w), dy = dx + w.
"""

_REACH_PROB = """
% Probabilistic reachability over the Viterbi semiring: the maximum
% success probability over source-0 paths with independent edge
% probabilities (⊕ = max, ⊗ = ×).
assume p >= 0.
rp(X, v) :- X = 0, v = 1.
rp(Y, best[v1]) :- rp(X, v), edge(X, Y, p), v1 = v * p.
"""


PROGRAMS: dict[str, ProgramSpec] = {
    spec.name: spec
    for spec in [
        ProgramSpec(
            "sssp", "SSSP", _SSSP, "min", True,
            builders.weighted_graph_db, benchmarked=True,
        ),
        ProgramSpec(
            "cc", "CC", _CC, "min", True,
            builders.symmetrized_db, benchmarked=True,
        ),
        ProgramSpec(
            "pagerank", "PageRank", _PAGERANK, "sum", True,
            builders.plain_graph_db, benchmarked=True,
        ),
        ProgramSpec(
            "adsorption", "Adsorption", _ADSORPTION, "sum", True,
            builders.adsorption_db, benchmarked=True,
        ),
        ProgramSpec(
            "katz", "Katz metric", _KATZ, "sum", True,
            builders.katz_db, benchmarked=True,
            notes="row-normalised adjacency, attenuation 0.5 (see module doc)",
        ),
        ProgramSpec(
            "bp", "Belief Propagation", _BP, "sum", True,
            builders.bp_db, benchmarked=True, key_domain="pair",
        ),
        ProgramSpec(
            "dag_paths", "Computing Paths in DAG", _DAG_PATHS, "count", True,
            builders.dag_db,
            notes="count expressed as summation (paper section 2.3 semantics)",
        ),
        ProgramSpec(
            "cost", "Cost", _COST, "sum", True, builders.probability_dag_db,
        ),
        ProgramSpec(
            "viterbi", "Viterbi Algorithm", _VITERBI, "max", True,
            builders.probability_dag_db,
        ),
        ProgramSpec(
            "simrank", "SimRank", _SIMRANK, "sum", True,
            builders.simrank_db, key_domain="pair",
        ),
        ProgramSpec(
            "lca", "Lowest Common Ancestor", _LCA, "min", True,
            builders.tree_db, key_domain="pair",
        ),
        ProgramSpec(
            "apsp", "APSP", _APSP, "min", True,
            builders.weighted_graph_db, key_domain="pair",
        ),
        ProgramSpec(
            "commnet", "CommNet", _COMMNET, "sum", False,
            builders.embedding_db,
        ),
        ProgramSpec(
            "gcn", "GCN-Forward", _GCN, "sum", False,
            builders.embedding_db,
        ),
        ProgramSpec(
            "why_reach", "Why-Provenance Reachability", _WHY_REACH, "or",
            True, builders.plain_graph_db,
            notes="boolean semiring; witness = some derivation path exists",
        ),
        ProgramSpec(
            "path_count", "Weighted Path Counting", _PATH_COUNT, "sum",
            True, builders.multiplicity_dag_db,
            notes="counting semiring over edge multiplicities (DAG input)",
        ),
        ProgramSpec(
            "kpaths", "Top-K Shortest Paths", _KPATHS, "topk",
            True, builders.weighted_graph_db,
            notes="k-tropical semiring, k = 3 distinct path lengths",
        ),
        ProgramSpec(
            "reach_prob", "Probabilistic Reachability", _REACH_PROB, "best",
            True, builders.probability_graph_db,
            notes="Viterbi semiring; exact on cyclic inputs (p <= 1)",
        ),
    ]
}


@lru_cache(maxsize=None)
def _analysis_for_source(name: str, source: str) -> ProgramAnalysis:
    return analyze(parse_program(source, name=name))


def get_program(name: str) -> ProgramSpec:
    """Look up a Table-1 program by name (raises ``KeyError`` if unknown)."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; expected one of {sorted(PROGRAMS)}"
        ) from None


def program_names() -> list[str]:
    """All program names, Table-1 order."""
    return list(PROGRAMS)


def benchmark_programs() -> list[str]:
    """The six programs evaluated in the paper's Figures 9-11."""
    return [name for name, spec in PROGRAMS.items() if spec.benchmarked]
