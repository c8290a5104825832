"""The program registry and its database builders."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.chaos_harness import default_graph
from repro.graphs import Graph, random_dag, rmat
from repro.programs import PROGRAMS, benchmark_programs, get_program, program_names
from repro.programs import builders


class TestRegistry:
    def test_registry_size(self):
        # 14 Table-1 programs + 4 semiring-family extensions
        assert len(PROGRAMS) == 18

    def test_table1_split(self):
        passing = [n for n, s in PROGRAMS.items() if s.expected_mra]
        failing = [n for n, s in PROGRAMS.items() if not s.expected_mra]
        assert len(passing) == 16
        assert sorted(failing) == ["commnet", "gcn"]

    def test_benchmarked_six(self):
        assert benchmark_programs() == [
            "sssp", "cc", "pagerank", "adsorption", "katz", "bp",
        ]

    def test_get_program(self):
        assert get_program("sssp").title == "SSSP"

    def test_unknown_program(self):
        with pytest.raises(KeyError, match="unknown program"):
            get_program("bfs")

    def test_program_names_order(self):
        assert program_names()[0] == "sssp"

    def test_aggregator_column_matches_table1(self):
        expected = {
            "sssp": "min", "cc": "min", "pagerank": "sum",
            "adsorption": "sum", "katz": "sum", "bp": "sum",
            "dag_paths": "count", "cost": "sum", "viterbi": "max",
            "simrank": "sum", "lca": "min", "apsp": "min",
            "commnet": "sum", "gcn": "sum",
            "why_reach": "or", "path_count": "sum",
            "kpaths": "topk", "reach_prob": "best",
        }
        assert {n: s.aggregator for n, s in PROGRAMS.items()} == expected


class TestBuilders:
    @pytest.fixture
    def graph(self):
        return rmat(30, 120, seed=61)

    def test_weighted_db(self, graph):
        db = builders.weighted_graph_db(graph)
        assert db.relation("edge").arity == 3

    def test_symmetrized_db(self, graph):
        db = builders.symmetrized_db(graph)
        edges = set(db.relation("edge"))
        assert all((dst, src) in edges for src, dst in edges)

    def test_adsorption_db_normalised(self, graph):
        db = builders.adsorption_db(graph)
        outgoing: dict = {}
        for src, _, weight in db.relation("a"):
            outgoing[src] = outgoing.get(src, 0.0) + weight
        for total in outgoing.values():
            assert total == pytest.approx(1.0)

    def test_katz_db_has_source(self, graph):
        db = builders.katz_db(graph)
        assert (0, 1000.0) in db.relation("src")

    def test_bp_db_coupling_rows(self, graph):
        db = builders.bp_db(graph)
        assert len(db.relation("h")) == 4
        beliefs = {(v, c): b for v, c, b in db.relation("beliefs0")}
        for v in graph.vertices():
            assert beliefs[(v, 0)] + beliefs[(v, 1)] == pytest.approx(1.0)

    def test_probability_dag_weights_in_unit_interval(self):
        dag = random_dag(20, 60, seed=62)
        db = builders.probability_dag_db(dag)
        assert all(0 < w <= 1 for _, _, w in db.relation("edge"))

    def test_tree_db_is_a_tree(self, graph):
        db = builders.tree_db(graph)
        children = [child for child, _ in db.relation("parent")]
        assert len(children) == len(set(children))  # one parent each
        assert len(db.relation("query")) == 2

    def test_simrank_db_in_weights(self, graph):
        db = builders.simrank_db(graph)
        incoming: dict = {}
        for _, vertex, weight in db.relation("pred"):
            incoming[vertex] = incoming.get(vertex, 0.0) + weight
        for total in incoming.values():
            assert total == pytest.approx(1.0)

    def test_embedding_db_features(self, graph):
        db = builders.embedding_db(graph)
        assert len(db.relation("feat")) == graph.num_vertices
        assert all(-1 <= f <= 1 for _, f in db.relation("feat"))


class TestPlansCompile:
    @pytest.mark.parametrize(
        "name", [n for n in PROGRAMS if PROGRAMS[n].key_domain == "vertex"]
    )
    def test_vertex_programs_compile(self, name):
        graph = rmat(25, 100, seed=63)
        if name in ("dag_paths", "cost", "viterbi", "path_count"):
            graph = random_dag(25, 80, seed=63)
        plan = PROGRAMS[name].plan(graph)
        assert plan.keys


def _relations(db) -> dict:
    """Every relation's rows in iteration order, with each value's type:
    the order the plan compiler reads and the types its columns keep."""
    return {
        name: [(row, tuple(map(type, row))) for row in db.relation(name)]
        for name in db.names()
    }


def _column_twin(graph: Graph) -> Graph:
    src, dst = graph.columns()
    return Graph.from_columns(
        graph.num_vertices, src, dst, graph.weights, name=graph.name, seed=graph.seed
    )


def _build(spec, graph):
    try:
        return _relations(spec.build_database(graph))
    except ValueError as exc:  # RA351, or no rows to infer an arity from
        return type(exc), str(exc)


class TestColumnGraphs:
    """A graph held as int64 columns (what ``read_edge_list`` returns for
    a plain integer file) builds every program's EDB row for row, in
    the same insertion order, as the list graph of the same edges."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_registry_graph(self, program):
        graph = default_graph(program, seed=7)
        for weighted in (graph, graph.with_weights()):
            twin = _column_twin(weighted)
            assert _build(PROGRAMS[program], twin) == _build(PROGRAMS[program], weighted)

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60
        ),
        weighted=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_random_multigraphs(self, edges, weighted, seed):
        """Repeated edges, self loops, isolated vertices, no edges."""
        weights = [3 + i % 5 for i in range(len(edges))] if weighted else None
        graph = Graph(12, edges, weights, name="multi", seed=seed)
        twin = _column_twin(graph)
        for program in sorted(PROGRAMS):
            spec = PROGRAMS[program]
            assert _build(spec, twin) == _build(spec, graph), program

    @pytest.mark.parametrize("program", ["sssp", "pagerank", "adsorption", "cc"])
    def test_the_build_keeps_the_columns(self, program):
        """No tuple list is built on the way to the relations."""
        twin = _column_twin(default_graph(program, seed=7).with_weights())
        PROGRAMS[program].build_database(twin)
        assert "edges" not in vars(twin)
