"""Graph container, generators and IO."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    EdgeListError,
    Graph,
    chain,
    erdos_renyi,
    grid_graph,
    locality_crawl,
    random_dag,
    read_edge_list,
    rmat,
    small_world,
    star,
    write_edge_list,
)
from repro.graphs.stats import bfs_depths, compute_stats
from repro.programs.builders import plain_graph_db, weighted_graph_db


class TestGraphContainer:
    def test_weights_alignment_enforced(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 2)], weights=[1])

    def test_generated_weights_deterministic(self):
        graph = Graph(3, [(0, 1), (1, 2)], seed=5)
        assert graph.generate_weights() == graph.generate_weights()

    def test_generated_weights_in_range(self):
        graph = Graph(10, [(i, i + 1) for i in range(9)], seed=1)
        assert all(1 <= w <= 10 for w in graph.generate_weights())

    def test_adjacency(self):
        graph = Graph(3, [(0, 1), (0, 2), (2, 1)])
        assert graph.out_adjacency() == [[1, 2], [], [1]]
        assert graph.in_adjacency() == [[], [0, 2], [0]]

    # a graph as a database: the EDB builders make its relations
    def test_as_database_unweighted(self):
        db = plain_graph_db(Graph(3, [(0, 1)]))
        assert db.relation("edge").arity == 2
        assert len(db.relation("node")) == 3

    def test_as_database_weighted(self):
        db = weighted_graph_db(Graph(3, [(0, 1)], weights=[7]))
        assert (0, 1, 7) in db.relation("edge")


class TestGenerators:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: rmat(50, 200, seed=seed),
            lambda seed: erdos_renyi(50, 200, seed=seed),
            lambda seed: small_world(50, 200, seed=seed),
            lambda seed: locality_crawl(50, 200, seed=seed),
            lambda seed: random_dag(50, 150, seed=seed),
        ],
        ids=["rmat", "er", "small-world", "crawl", "dag"],
    )
    def test_deterministic(self, factory):
        first, second = factory(9), factory(9)
        assert first.edges == second.edges

    def test_rmat_connected_from_zero(self):
        graph = rmat(100, 300, seed=2)
        assert len(bfs_depths(graph, 0)) == 100

    def test_rmat_no_self_loops_or_duplicates(self):
        graph = rmat(60, 300, seed=3)
        assert all(src != dst for src, dst in graph.edges)
        assert len(set(graph.edges)) == len(graph.edges)

    def test_rmat_power_law_skew(self):
        stats = compute_stats(rmat(500, 5000, seed=4))
        uniform = compute_stats(erdos_renyi(500, 5000, seed=4))
        assert stats.degree_skew > uniform.degree_skew

    def test_dag_is_acyclic(self):
        graph = random_dag(80, 240, seed=5)
        assert all(src < dst for src, dst in graph.edges)

    def test_crawl_has_larger_diameter_than_small_world(self):
        crawl = locality_crawl(400, 3000, seed=6, long_range=0.0005)
        sw = small_world(400, 3000, seed=6)
        assert (
            compute_stats(crawl).eccentricity_from_0
            > compute_stats(sw).eccentricity_from_0
        )

    def test_grid_dimensions(self):
        graph = grid_graph(3, 4)
        assert graph.num_vertices == 12
        assert graph.num_edges == 3 * 3 + 2 * 4  # rights + downs

    def test_chain_and_star(self):
        assert chain(5).num_edges == 4
        assert star(5).num_edges == 4
        assert compute_stats(chain(5)).eccentricity_from_0 == 4
        assert compute_stats(star(5)).eccentricity_from_0 == 1

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 1000))
    def test_rmat_respects_size_bounds(self, seed):
        graph = rmat(64, 256, seed=seed)
        assert graph.num_vertices == 64
        assert graph.num_edges <= 256 + 64  # requested edges + backbone


class TestIO:
    def test_round_trip_unweighted(self, tmp_path):
        graph = rmat(30, 90, seed=7, name="io-test")
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == graph.num_vertices
        assert sorted(loaded.edges) == sorted(graph.edges)
        assert loaded.name == "io-test"

    def test_round_trip_weighted(self, tmp_path):
        graph = rmat(20, 60, seed=8).with_weights()
        path = tmp_path / "weighted.tsv"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.weights == graph.weights

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("0\t1\n1\t2\n")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 3
        assert loaded.edges == [(0, 1), (1, 2)]

    def test_mixed_weights_rejected(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("0\t1\t5\n1\t2\n")
        with pytest.raises(EdgeListError, match="some edges have weights"):
            read_edge_list(path)

    def test_weight_literals_parse_int_else_float(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("0\t1\t1e-3\n1\t2\t7\n2\t3\t2.5\n3\t4\t-4E2\n")
        weights = read_edge_list(path).weights
        assert weights == [0.001, 7, 2.5, -400.0]
        assert [type(w) for w in weights] == [float, int, float, float]

    @pytest.mark.parametrize(
        "line, lineno, complaint",
        [
            ("0\t1\tnan", 2, "weight 'nan' is not finite"),
            ("0\t1\tinf", 2, "weight 'inf' is not finite"),
            ("0\t1\t-inf", 2, "weight '-inf' is not finite"),
            ("0\t1\t1.0e999", 2, "weight '1.0e999' is not finite"),
            ("0\t1\theavy", 2, "weight 'heavy' is not a number"),
            ("0\t1\t1.2.3", 2, "weight '1.2.3' is not a number"),
            ("a\t1\t3", 2, "vertex ids must be integers, got 'a' '1'"),
            ("0\t1.5", 2, "vertex ids must be integers, got '0' '1.5'"),
            ("0\t-1", 2, "vertex ids must be non-negative, got 0 -1"),
            ("7", 2, "expected 'src dst [weight]'"),
        ],
    )
    def test_malformed_lines_rejected_with_location(
        self, tmp_path, line, lineno, complaint
    ):
        path = tmp_path / "bad.tsv"
        path.write_text(f"0\t1\t2\n{line}\n")
        with pytest.raises(EdgeListError) as excinfo:
            read_edge_list(path)
        assert str(excinfo.value).startswith(f"{path}:{lineno}: {complaint}")
        assert (excinfo.value.path, excinfo.value.lineno) == (str(path), lineno)
        assert isinstance(excinfo.value, ValueError)

    def test_malformed_vertex_count_header_rejected(self, tmp_path):
        path = tmp_path / "header.tsv"
        path.write_text("# vertices many\n0\t1\n")
        with pytest.raises(EdgeListError, match=":1: vertex count 'many'"):
            read_edge_list(path)


class TestStats:
    def test_bfs_depths(self):
        graph = chain(4)
        assert bfs_depths(graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_stats_row_shape(self):
        row = compute_stats(chain(4)).row()
        assert row["vertices"] == 4 and row["edges"] == 3
