"""Plan compilation: pre-joined edges, parameters, broadcast keys."""


from repro.datalog import analyze, parse_program
from repro.engine import compile_plan
from repro.programs import PROGRAMS


class TestSSSPPlan:
    def test_edges_carry_weights(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source)), diamond_db)
        assert plan.num_edges == 5
        targets = {(dst, params) for dst, params, _ in plan.edges_from(1)}
        assert (2, (4,)) in targets
        assert (3, (1,)) in targets

    def test_initial_from_base_rule(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source)), diamond_db)
        assert plan.initial == {1: 0}

    def test_no_constants(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source)), diamond_db)
        assert plan.constants == {}

    def test_keys_cover_all_vertices(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source)), diamond_db)
        assert plan.keys == frozenset({1, 2, 3, 4})

    def test_fprime_fn_compiled(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source)), diamond_db)
        assert plan.fprime_fns[0](10, 4) == 14


class TestPageRankPlan:
    def test_auxiliary_degree_joined_into_params(self, triangle_db, pagerank_source):
        plan = compile_plan(analyze(parse_program(pagerank_source)), triangle_db)
        # vertex 2 has out-degree 2: its edges carry d=2
        params = {params for _, params, _ in plan.edges_from(2)}
        assert params == {(2,)}

    def test_constants_per_key(self, triangle_db, pagerank_source):
        plan = compile_plan(analyze(parse_program(pagerank_source)), triangle_db)
        assert plan.constants == {1: 0.15, 2: 0.15, 3: 0.15}

    def test_initial_zero(self, triangle_db, pagerank_source):
        plan = compile_plan(analyze(parse_program(pagerank_source)), triangle_db)
        assert plan.initial == {1: 0, 2: 0, 3: 0}

    def test_termination_from_clause(self, triangle_db, pagerank_source):
        plan = compile_plan(analyze(parse_program(pagerank_source)), triangle_db)
        assert plan.termination.epsilon == 1e-4


class TestBroadcastKeys:
    """APSP/LCA: the pair key's first column never appears in the joins."""

    def test_apsp_edges_expanded_per_source(self, pair_graph):
        plan = PROGRAMS["apsp"].plan(pair_graph)
        n = pair_graph.num_vertices
        assert plan.num_edges == n * pair_graph.num_edges

    def test_apsp_edge_structure(self, pair_graph):
        plan = PROGRAMS["apsp"].plan(pair_graph)
        src, dst, _ = next(iter(pair_graph.weighted_edges()))
        for s in range(pair_graph.num_vertices):
            targets = {d for d, _, _ in plan.edges_from((s, src))}
            assert (s, dst) in targets

    def test_lca_broadcast_over_queries(self, medium_graph):
        plan = PROGRAMS["lca"].plan(medium_graph)
        queries = {key[0] for key in plan.initial}
        assert len(queries) == 2
        for src in plan.out_edges:
            assert src[0] in queries


class TestAggregatedDuplicates:
    def test_duplicate_base_facts_aggregated(self):
        from repro.engine import Database

        source = """
        best(X, v) :- seeds(X, v).
        best(Y, min[v1]) :- best(X, v), e(X, Y), v1 = v + 1.
        """
        db = Database()
        db.add_facts("seeds", [(1, 5), (1, 3)])
        db.add_facts("e", [(1, 2)])
        plan = compile_plan(analyze(parse_program(source)), db)
        assert plan.initial == {1: 3}


class TestRepr:
    def test_plan_repr(self, diamond_db, sssp_source):
        plan = compile_plan(analyze(parse_program(sssp_source, name="sssp")), diamond_db)
        text = repr(plan)
        assert "sssp" in text and "4 keys" in text and "5 edges" in text


class TestCompileIsSetAtATime:
    def test_collections_do_not_grow_with_the_plan(self):
        """Compiling allocates a few long columns, not a container per
        edge: the cyclic collector runs no more often over 20 k edges
        than over 2 k.  (Transposing the matched tuples with
        ``zip(*rows)`` holds one iterator per edge alive at once -- 270
        collections and most of the compile time on a 208 k-edge plan.)"""
        import gc

        from repro.graphs import rmat

        spec = PROGRAMS["sssp"]
        analysis = spec.analysis()
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        def collections_while_compiling(vertices, edges):
            db = spec.build_database(rmat(vertices, edges, seed=5).with_weights())
            gc.collect()
            del collections[:]
            gc.callbacks.append(count)
            try:
                plan = compile_plan(analysis, db)
            finally:
                gc.callbacks.remove(count)
            assert plan.num_edges > edges * 0.9
            return len(collections)

        assert gc.isenabled()
        small = collections_while_compiling(400, 2_000)
        large = collections_while_compiling(4_000, 20_000)
        assert large <= small + 2
