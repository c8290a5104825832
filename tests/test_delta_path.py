"""The delta path is the recompile path.

``IncrementalEngine`` no longer compiles and diffs two plans per repair:
it joins the changed EDB rows (``delta_join``), patches the plan it
holds (``CompiledPlan.patched``) and repairs from the diff alone, with
the cone and the boundary as kernel class operations.  Everything here
holds that path to the one it replaced, which stays as the oracle:
fresh compiles, ``diff_plans`` and ``tests/reference_repair.py``.
"""

import sys
from array import array
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.delta.engine as delta_engine
import repro.engine.plan as plan_module
import repro.programs.registry as registry
import repro.runtime.csr as csr_module
from repro.delta import (
    DeltaValidationError,
    GraphDelta,
    IncrementalEngine,
    MutableGraphView,
    choose_strategy,
    diff_plans,
    random_delta,
)
from repro.delta.engine import delta_join, diff_databases
from repro.delta.model import EdgeIndex
from repro.engine import MRAEvaluator
from repro.engine.plan import EdgeColumns, edge_index, edge_signatures, flat_signature
from repro.engine.relation import Relation
from repro.graphs import Graph, random_dag, rmat
from repro.programs import PROGRAMS
from repro.programs.builders import EdgeLocalBuilder, WalkBoundError, weighted_graph_db
from repro.programs.registry import ProgramSpec
from repro.runtime import available_backends, get_kernel
from repro.runtime.base import Kernel
from repro.runtime.csr import _pack_columns
from tests.reference_repair import reference_apply_to, reference_repair_plan

BACKENDS = tuple(available_backends())

#: every RA320/RA321 program: what the delta path is for
DELTA_PATH = (
    "sssp", "cc", "viterbi", "lca", "apsp", "why_reach", "kpaths",
    "reach_prob", "dag_paths", "cost", "path_count",
)
ACYCLIC = ("viterbi", "dag_paths", "cost", "path_count")
#: float-additive: a seed order is a sum order (outside the bit-exact contract)
FLOAT_ADDITIVE = ("cost",)

KINDS = (
    "insert", "delete", "reweight", "retype", "mixed", "add_vertices",
    "remove_vertices",
)


def test_the_delta_path_programs_are_the_maintainable_ones():
    from repro.analysis.incremental import classify_incremental

    maintainable = {
        name
        for name, spec in PROGRAMS.items()
        if classify_incremental(spec.analysis()).maintainable
    }
    assert maintainable == set(DELTA_PATH)
    for name in DELTA_PATH:
        analysis = PROGRAMS[name].analysis()
        assert not analysis.aux_rules
        for spec in analysis.recursions:
            assert len({atom.name for atom in spec.join_atoms}) == len(spec.join_atoms)


def base_graph(program: str, seed: int) -> Graph:
    if program == "apsp":
        return rmat(8, 18, seed=seed)
    if program in ACYCLIC:
        # small multiplicities keep path_count inside its RA351 certificate
        return random_dag(12, 24, seed=seed).with_weights(1, 3)
    return rmat(14, 40, seed=seed)


def with_repeats(graph: Graph) -> Graph:
    """``graph`` with three of its pairs held twice: under an equal
    weight, under another weight, under the equal weight's float."""
    graph = graph if graph.weights is not None else graph.with_weights(1, 3)
    first = graph.weights[:3]
    extra = [first[0], first[1] % 3 + 1, float(first[2])]
    return Graph(
        graph.num_vertices,
        graph.edges + graph.edges[:3],
        graph.weights + extra,
        name=graph.name,
        seed=graph.seed,
    )


def make_delta(graph: Graph, kind: str, seed: int, acyclic: bool) -> GraphDelta:
    size = 1 + seed % 3
    sizes = {
        "insert": dict(insert_edges=size),
        "delete": dict(delete_edges=size),
        "reweight": dict(update_weights=size),
        "mixed": dict(insert_edges=size, delete_edges=size, update_weights=1),
    }
    if kind in sizes:
        return random_delta(
            graph, seed, acyclic=acyclic, weight_range=(1, 3), **sizes[kind]
        )
    if kind == "retype":
        # the same weights as floats: ``5 -> 5.0`` (a float stays itself)
        start = seed % max(1, graph.num_edges)
        picked = zip(graph.edges[start:start + 3], graph.weights[start:start + 3])
        return GraphDelta(
            update_weights=tuple(
                (src, dst, float(weight)) for (src, dst), weight in dict(picked).items()
            )
        )
    if kind == "add_vertices":
        # the fresh vertex has the largest id, so the edge keeps a DAG a DAG
        source = seed % graph.num_vertices
        return GraphDelta(
            add_vertices=1, insert_edges=((source, graph.num_vertices, 2),)
        )
    return GraphDelta(remove_vertices=(1 + seed % (graph.num_vertices - 1),))


def exact(value):
    if isinstance(value, tuple):
        return tuple(exact(item) for item in value)
    return (type(value), repr(value))


def kind_of(column):
    return type(column), getattr(column, "typecode", None)


def column_kinds(plan) -> list:
    return [
        [kind_of(col) for col in (columns.srcs, columns.dsts, *columns.param_cols)]
        for columns in plan.edge_columns
    ]


def assert_plan_is_a_fresh_compile(plan, fresh) -> None:
    """Same edges as a multiset, same keys and base facts; columns typed
    as their values demand, hence as the fresh compile's wherever the
    values are type-identical (``5 -> 5.0`` keeps the lineage's ``5``)."""
    assert plan.signature == fresh.signature
    assert plan.keys == fresh.keys
    assert plan.initial == fresh.initial
    assert plan.constants == fresh.constants
    retyped = [
        EdgeColumns(
            columns.fn,
            list(columns.srcs),
            list(columns.dsts),
            [list(col) for col in columns.param_cols],
        )
        for columns in plan.edge_columns
    ]
    assert column_kinds(plan) == [
        [kind_of(col) for col in (c.srcs, c.dsts, *c.param_cols)] for c in retyped
    ]
    if Counter(map(exact, plan.signature.elements())) == Counter(
        map(exact, fresh.signature.elements())
    ):
        assert column_kinds(plan) == column_kinds(fresh)


def assert_same_repair(repair, expected, approximate: bool = False) -> None:
    assert repair.strategy == expected.strategy
    if approximate:
        assert repair.values == pytest.approx(expected.values)
    else:
        assert repair.values == expected.values
    assert repair.counters.snapshot() == expected.counters.snapshot()
    assert repair.frontier_size == expected.frontier_size
    assert repair.reset_keys == expected.reset_keys
    assert repair.ops == expected.ops
    assert repair.stop_reason == expected.stop_reason


def row_sets(changed: dict) -> dict:
    return {
        name: (set(removed), set(added)) for name, (removed, added) in changed.items()
    }


def assert_edb_is_rebuilt(engine: IncrementalEngine) -> None:
    """The engine's kept EDB holds what the builder makes of the head."""
    rebuilt = engine.spec.build_database(engine.view.graph)
    assert engine._db.names() == rebuilt.names()
    for name in rebuilt.names():
        assert set(engine._db.relation(name)) == set(rebuilt.relation(name)), name


def record_edb_changes(engine: IncrementalEngine) -> list:
    """Every EDB change the engine moves its kept EDB by, in order."""
    seen: list = []
    read = engine._edb_change

    def recorded():
        changed, db = read()
        seen.append(changed)
        return changed, db

    engine._edb_change = recorded
    return seen


def check_batch(engine: IncrementalEngine, delta: GraphDelta, seen: list) -> bool:
    """Apply one batch through the engine and through the oracle (the
    rebuild path: fresh EDBs, their set difference, fresh compiles);
    False when the builder refuses the new graph (path_count's RA351).
    ``seen`` is the engine's :func:`record_edb_changes`."""
    spec, mode = engine.spec, engine.verdict.mode
    old_graph = engine.view.graph
    new_graph = delta.apply_to(old_graph)
    fresh_old = spec.plan(old_graph)
    try:
        fresh_new = spec.plan(new_graph)
    except ValueError:
        return False
    expected_diff = diff_plans(fresh_old, fresh_new)
    new_db = spec.build_database(new_graph)
    rebuilt = diff_databases(spec.build_database(old_graph), new_db)
    plan = engine._plan
    joined = delta_join(plan, rebuilt, new_db)
    if joined is not None:
        diff = joined[0]
        assert diff.added == expected_diff.added
        assert diff.removed == expected_diff.removed
        assert diff.improved == expected_diff.improved
        assert diff.regressed == expected_diff.regressed
        assert choose_strategy(mode, diff) == choose_strategy(mode, expected_diff)
    expected = reference_repair_plan(
        fresh_old, fresh_new, dict(engine.values), mode=mode, backend=engine.backend
    )
    repair = engine.apply(delta)
    # the EDB change read off the view's record is the rebuild's, so is
    # the EDB it patched, and so is the delta join over it
    assert row_sets(seen[-1]) == row_sets(rebuilt)
    assert_edb_is_rebuilt(engine)
    if joined is not None:
        patched = delta_join(plan, seen[-1], engine._db)
        assert patched[0] == joined[0]
        assert patched[1:] == joined[1:]
    assert_plan_is_a_fresh_compile(engine._plan, fresh_new)
    assert_same_repair(
        repair, expected, approximate=spec.name in FLOAT_ADDITIVE
    )
    return True


@pytest.mark.parametrize("program", DELTA_PATH)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_delta_path_is_the_recompile_path(program, data):
    backend = data.draw(st.sampled_from(BACKENDS))
    graph = base_graph(program, data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        graph = with_repeats(graph)
    stream = data.draw(
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6)),
            min_size=1,
            max_size=30,
        )
    )
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    seen = record_edb_changes(engine)
    for kind, seed in stream:
        delta = make_delta(engine.view.graph, kind, seed, program in ACYCLIC)
        if not check_batch(engine, delta, seen):
            break


# -- the patched plan's CSR is spliced, not packed -----------------------------

#: sssp with a second recursive body over the reversed edges: a two-body plan
TWO_BODIES = ProgramSpec(
    name="sssp_two_bodies",
    title="shortest paths, reversed edges at twice the weight",
    source="""
dist(X, d) :- X = 0, d = 0.
dist(Y, min[dy]) :- dist(X, dx), edge(X, Y, W), dy = dx + W;
    :- dist(X, dx), edge(Y, X, W), dy = dx + 2 * W.
""",
    aggregator="min",
    expected_mra=True,
    build_database=weighted_graph_db,
)


def assert_same_array(got, expected) -> None:
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def assert_csr_is_a_pack(plan) -> None:
    """The CSR the numpy kernel got for ``plan`` is, array for array, the
    one a full pack of ``plan`` makes."""
    got = plan._kernel_csr
    packed = _pack_columns(plan)
    assert got.keys_sorted == packed.keys_sorted
    for name in ("indptr", "edst", "efn", "erow"):
        assert_same_array(getattr(got, name), getattr(packed, name))
    assert len(got.groups) == len(packed.groups)
    for mine, theirs in zip(got.groups, packed.groups):
        assert mine.fn is theirs.fn
        assert_same_array(mine.perm, theirs.perm)
        rows = range(len(theirs.raw_params))
        assert len(mine.raw_params) == len(rows)
        assert [exact(mine.raw_params[r]) for r in rows] == [
            exact(theirs.raw_params[r]) for r in rows
        ]
        assert (mine.cols is None) == (theirs.cols is None)
        if theirs.cols is not None:
            assert len(mine.cols) == len(theirs.cols)
            for col, packed_col in zip(mine.cols, theirs.cols):
                assert_same_array(col, packed_col)


@pytest.mark.parametrize("program", DELTA_PATH + ("two_bodies",))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_a_patched_plan_splices_the_csr_a_pack_makes(program, data):
    spec = TWO_BODIES if program == "two_bodies" else PROGRAMS[program]
    graph = base_graph(program, data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        graph = with_repeats(graph)
    stream = data.draw(
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6)),
            min_size=1,
            max_size=20,
        )
    )
    engine = IncrementalEngine(spec, graph, backend="numpy")
    engine.bootstrap()
    for kind, seed in stream:
        delta = make_delta(engine.view.graph, kind, seed, program in ACYCLIC)
        try:
            engine.apply(delta)
        except ValueError:  # path_count's RA351: the builder refuses the graph
            break
        if "_kernel_csr" in vars(engine._plan):  # kpaths runs on python
            assert_csr_is_a_pack(engine._plan)
            assert "_kernel_parent" not in vars(engine._plan)


def test_the_two_body_plan_is_spliced(monkeypatch):
    assert len(TWO_BODIES.analysis().recursions) == 2
    calls = CountedCalls(monkeypatch)
    calls.wrap(csr_module, "_pack_columns")
    engine = IncrementalEngine(TWO_BODIES, rmat(40, 160, seed=3), backend="numpy")
    engine.bootstrap()
    for index, kind in enumerate(("insert", "delete", "reweight", "mixed") * 2):
        engine.apply(make_delta(engine.view.graph, kind, 10 + index, acyclic=False))
        assert_csr_is_a_pack(engine._plan)
    # the bootstrap's plan is packed; the patches keep the key set
    assert calls.counts == {"_pack_columns": 1}
    assert engine.values == oracle(TWO_BODIES, engine.view.graph, "numpy")


# -- the traps, by name -------------------------------------------------------


def weighted(num_vertices, triples) -> Graph:
    return Graph(
        num_vertices, [(s, d) for s, d, _ in triples], [w for _, _, w in triples]
    )


def oracle(spec, graph, backend="python") -> dict:
    return MRAEvaluator(spec.plan(graph), backend=backend).run().values


#: reachability over the *weighted* EDB: the body ignores the weight
#: column, so different rows account for equal plan edges
IGNORES_WEIGHT = ProgramSpec(
    name="reach_w",
    title="reachability ignoring weights",
    source="""
reach(X, r) :- X = 0, r = 1.
reach(Y, or[ry]) :- reach(X, rx), edge(X, Y, _), ry = rx.
""",
    aggregator="or",
    expected_mra=True,
    build_database=weighted_graph_db,
)


class TestCancelBeforePatching:
    """Trap 1: rows differ, plan edges do not."""

    def test_cc_reverse_duplicate_insert_changes_no_row(self):
        graph = weighted(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        engine = IncrementalEngine("cc", graph)
        engine.bootstrap()
        plan = engine._plan
        repair = engine.apply(GraphDelta(insert_edges=((1, 0, 1),)))
        assert (repair.edges_added, repair.edges_removed) == (0, 0)
        assert engine._plan is plan
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_why_reach_reweight_changes_no_row(self):
        graph = weighted(3, [(0, 1, 4), (1, 2, 5)])
        engine = IncrementalEngine("why_reach", graph)
        engine.bootstrap()
        plan = engine._plan
        repair = engine.apply(GraphDelta(update_weights=((0, 1, 9),)))
        assert repair.strategy == "frontier" and repair.frontier_size == 0
        assert engine._plan is plan

    def test_rows_that_account_for_equal_edges_cancel(self):
        graph = weighted(3, [(0, 1, 4), (1, 2, 5)])
        engine = IncrementalEngine(IGNORES_WEIGHT, graph)
        engine.bootstrap()
        old_db = weighted_graph_db(engine.view.graph)
        engine.view.apply(GraphDelta(update_weights=((0, 1, 9),)))
        new_db = weighted_graph_db(engine.view.graph)
        # the EDB did change ...
        assert len(old_db.relation("edge").difference(new_db.relation("edge"))) == 1
        # ... the plan did not: R and A hold the same edge
        diff, _, _ = delta_join(engine._plan, diff_databases(old_db, new_db), new_db)
        assert diff.is_empty
        repair = engine.refresh()
        assert repair.strategy == "frontier"
        assert (repair.edges_added, repair.edges_removed) == (0, 0)

    def test_delete_and_reinsert_across_one_refresh(self):
        graph = weighted(4, [(0, 1, 2), (1, 2, 2), (0, 2, 7), (2, 3, 1)])
        engine = IncrementalEngine("sssp", graph)
        engine.bootstrap()
        plan = engine._plan
        engine.view.apply(GraphDelta(delete_edges=((1, 2),)))
        engine.view.apply(GraphDelta(insert_edges=((1, 2, 2),)))
        repair = engine.refresh()
        assert (repair.edges_added, repair.edges_removed) == (0, 0)
        assert engine._plan is plan and engine.fixpoint_version == 3
        # re-inserted with another weight it is one edge out, one in
        engine.view.apply(GraphDelta(delete_edges=((1, 2),)))
        engine.view.apply(GraphDelta(insert_edges=((1, 2, 1),)))
        repair = engine.refresh()
        assert (repair.edges_added, repair.edges_removed) == (1, 1)
        assert engine.values == oracle(engine.spec, engine.view.graph)


class TestTheEdbIsPatched:
    """The kept EDB moves by the view's records, and stays the rebuild's."""

    def test_which_builders_are_edge_local(self):
        local = {
            name
            for name in DELTA_PATH
            if isinstance(PROGRAMS[name].build_database, EdgeLocalBuilder)
        }
        # a global BFS (lca) and a whole-output certificate (path_count)
        assert set(DELTA_PATH) - local == {"lca", "path_count"}

    def test_cc_reverse_insert_then_one_direction_deleted(self):
        graph = weighted(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        engine = IncrementalEngine("cc", graph)
        engine.bootstrap()
        plan = engine._plan
        engine.apply(GraphDelta(insert_edges=((1, 0, 1),)))
        # (1, 0) still accounts for both rows (0, 1) deleted itself
        repair = engine.apply(GraphDelta(delete_edges=((0, 1),)))
        assert (repair.edges_added, repair.edges_removed) == (0, 0)
        assert engine._plan is plan
        assert_edb_is_rebuilt(engine)
        # the last edge of the pair takes both directions with it
        repair = engine.apply(GraphDelta(delete_edges=((1, 0),)))
        assert repair.edges_removed == 2
        assert_edb_is_rebuilt(engine)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_a_repeated_pair_leaves_with_its_last_copy(self):
        # two copies of (1, 2) under one weight: one row, held twice
        graph = weighted(4, [(0, 1, 1), (1, 2, 4), (1, 2, 4), (2, 3, 1)])
        engine = IncrementalEngine("sssp", graph)
        engine.bootstrap()
        seen = record_edb_changes(engine)
        engine.apply(GraphDelta(update_weights=((1, 2, 3),)))  # both copies
        assert row_sets(seen[-1]) == {"edge": ({(1, 2, 4)}, {(1, 2, 3.0)})}
        assert engine._shared == {(1, 2, 3.0): 2}
        engine.apply(GraphDelta(delete_edges=((1, 2),)))
        assert row_sets(seen[-1]) == {"edge": ({(1, 2, 3.0)}, set())}
        assert engine._shared == {}
        assert_edb_is_rebuilt(engine)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_refresh_composes_three_external_bumps(self):
        graph = weighted(5, [(0, 1, 2), (1, 2, 2), (2, 3, 1)])
        engine = IncrementalEngine("sssp", graph)
        engine.bootstrap()
        seen = record_edb_changes(engine)
        engine.view.apply(GraphDelta(insert_edges=((3, 4, 1),)))
        engine.view.apply(GraphDelta(update_weights=((1, 2, 1),)))
        engine.view.apply(GraphDelta(delete_edges=((3, 4),)))
        repair = engine.refresh()
        # (3, 4) came at v2 and went at v4: only the reweight is left
        assert row_sets(seen[-1]) == {"edge": ({(1, 2, 2)}, {(1, 2, 1.0)})}
        assert (repair.edges_added, repair.edges_removed) == (1, 1)
        assert engine.fixpoint_version == 4
        assert_edb_is_rebuilt(engine)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_reweight_to_an_equal_value_keeps_the_rows_object(self):
        engine = IncrementalEngine("sssp", weighted(3, [(0, 1, 5), (1, 2, 5)]))
        engine.bootstrap()
        seen = record_edb_changes(engine)
        engine.apply(GraphDelta(update_weights=((0, 1, 5),)))  # 5.0
        assert seen[-1] == {}
        # the EDB keeps 5 where a rebuild holds 5.0: equal, not identical
        (row,) = [row for row in engine._db.relation("edge") if row[:2] == (0, 1)]
        assert exact(row[2]) == exact(5)
        assert_edb_is_rebuilt(engine)

    def test_added_vertices_are_node_rows(self):
        engine = IncrementalEngine("apsp", rmat(6, 12, seed=3))
        engine.bootstrap()
        engine.apply(GraphDelta(add_vertices=2, insert_edges=((0, 6, 2),)))
        assert (7,) in engine._db.relation("node")
        assert_edb_is_rebuilt(engine)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    @pytest.mark.parametrize("program", ["path_count", "lca"])
    def test_the_other_builders_rebuild_and_diff(self, program, monkeypatch):
        engine = IncrementalEngine(program, base_graph(program, 3))
        engine.bootstrap()
        calls = CountedCalls(monkeypatch)
        calls.wrap(Relation, "difference")
        calls.wrap(Relation, "patch")
        engine.apply(make_delta(engine.view.graph, "insert", 5, program in ACYCLIC))
        assert calls.counts == {"difference": 2 * len(engine._db.names())}
        assert engine._shared is None
        assert_edb_is_rebuilt(engine)


class TestRefusal:
    """RA351 is a typed diagnostic, and a refused head changes nothing."""

    #: walk counts 3**v along the chain: 3**33 < 2**53 <= 3**34
    CHAIN = Graph(35, [(v, v + 1) for v in range(33)], [3] * 33)

    def test_the_builder_raises_a_walk_bound_error(self):
        assert issubclass(WalkBoundError, ValueError)
        PROGRAMS["path_count"].build_database(self.CHAIN)
        longer = GraphDelta(insert_edges=((33, 34, 3),)).apply_to(self.CHAIN)
        with pytest.raises(WalkBoundError, match="RA351"):
            PROGRAMS["path_count"].build_database(longer)

    def test_a_refusal_leaves_the_engine_unchanged(self):
        engine = IncrementalEngine("path_count", self.CHAIN)
        engine.bootstrap()
        plan, db, values = engine._plan, engine._db, engine._values
        rows = {name: set(db.relation(name)) for name in db.names()}
        with pytest.raises(WalkBoundError):
            engine.apply(GraphDelta(insert_edges=((33, 34, 3),)))
        assert engine.view.version == 2  # the view moved, the fixpoint did not
        assert engine._plan is plan and engine._db is db and engine._values is values
        assert engine.fixpoint_version == 1
        assert {name: set(db.relation(name)) for name in db.names()} == rows
        # a later head the builder accepts repairs from the kept fixpoint
        engine.apply(GraphDelta(delete_edges=((33, 34),)))
        assert engine.fixpoint_version == 3
        assert engine.values == values == oracle(engine.spec, engine.view.graph)


class TestTypeExactColumns:
    """Trap 2: a patched column never coerces."""

    GRAPH = [(0, 1, 4), (1, 2, 5), (0, 2, 3)]

    def weights(self, engine):
        return engine._plan.edge_columns[0].param_cols[0]

    def test_float_insert_demotes_an_int_column_and_back(self):
        engine = IncrementalEngine("sssp", weighted(4, self.GRAPH), backend="python")
        engine.bootstrap()
        assert kind_of(self.weights(engine)) == (array, "q")
        engine.apply(GraphDelta(insert_edges=((2, 3, 7),)))  # stored as 7.0
        column = self.weights(engine)
        assert type(column) is list
        assert Counter(map(exact, column)) == Counter(map(exact, [4, 5, 3, 7.0]))
        # the python kernel hands these objects to F': 4 stays 4
        assert exact(engine.values[1]) == exact(4)
        assert exact(engine.values[3]) == exact(10.0)
        assert_plan_is_a_fresh_compile(
            engine._plan, engine.spec.plan(engine.view.graph)
        )
        engine.apply(GraphDelta(delete_edges=((2, 3),)))
        assert kind_of(self.weights(engine)) == (array, "q")
        assert kind_of(engine._plan.edge_columns[0].srcs) == (array, "q")

    def test_reweight_to_an_equal_value_of_another_type_is_no_change(self):
        engine = IncrementalEngine("sssp", weighted(4, self.GRAPH))
        engine.bootstrap()
        plan = engine._plan
        repair = engine.apply(GraphDelta(update_weights=((1, 2, 5),)))  # 5.0
        fresh = engine.spec.plan(engine.view.graph)
        assert diff_plans(plan, fresh).is_empty  # the oracle agrees
        assert (repair.edges_added, repair.edges_removed) == (0, 0)
        # the lineage keeps its 5 where a fresh compile holds 5.0
        assert engine._plan is plan
        assert kind_of(self.weights(engine)) == (array, "q")
        assert type(fresh.edge_columns[0].param_cols[0]) is list

    def test_patched_never_coerces_either_way(self):
        plan = PROGRAMS["viterbi"].plan(weighted(3, [(0, 1, 5), (1, 2, 5)]))
        assert kind_of(plan.edge_columns[0].param_cols[0]) == (array, "d")
        grown = plan.patched(
            Counter({(0, 2, (1,), 0): 1}), Counter(), plan.initial, plan.constants
        )
        column = grown.edge_columns[0].param_cols[0]
        assert type(column) is list and exact(column[-1]) == exact(1)
        huge = plan.patched(
            Counter({(0, 2**70, (0.5,), 0): 1}), Counter(), plan.initial, plan.constants
        )
        assert huge.edge_columns[0].dsts == [1, 2, 2**70]
        # the parent plan is untouched
        assert len(plan.edge_columns[0]) == 2
        assert kind_of(plan.edge_columns[0].dsts) == (array, "q")


class TestKeysShrink:
    """Trap 4: an endpoint whose last edge goes is no longer a key."""

    def test_last_edge_of_a_vertex_deleted_then_readded(self):
        graph = weighted(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        engine = IncrementalEngine("sssp", graph)
        engine.bootstrap()
        assert 3 in engine._plan.keys and engine.values[3] == 3
        repair = engine.apply(GraphDelta(delete_edges=((2, 3),)))
        assert repair.strategy == "rederive"
        assert 3 not in engine._plan.keys and 3 not in engine.values
        assert engine._plan.keys == engine.spec.plan(engine.view.graph).keys
        # the parent plan's caches are not inherited: what the repair's
        # kernel cached on the new plan is the new plan's
        assert sorted(engine._plan._kernel_key_order) == [0, 1, 2]
        assert sorted(engine._plan.out_edges) == [0, 1]
        assert "signature" not in vars(engine._plan)
        repair = engine.apply(GraphDelta(insert_edges=((1, 3, 5),)))
        assert repair.strategy == "frontier"
        assert 3 in engine._plan.keys
        assert engine.values == oracle(engine.spec, engine.view.graph)


class TestMultiplicity:
    def test_a_signature_held_twice(self):
        # a multigraph: two 1->2 edges whose weights the body ignores
        graph = weighted(4, [(0, 1, 1), (1, 2, 4), (1, 2, 6), (2, 3, 1)])
        engine = IncrementalEngine(IGNORES_WEIGHT, graph)
        engine.bootstrap()
        assert engine._plan.signature[(1, 2, (), 0)] == 2
        engine.apply(GraphDelta(insert_edges=((0, 3, 1),)))  # builds the index
        repair = engine.apply(GraphDelta(delete_edges=((1, 2),)))  # both copies
        assert repair.edges_removed == 2
        assert engine._plan.signature == Counter(
            {(0, 1, (), 0): 1, (2, 3, (), 0): 1, (0, 3, (), 0): 1}
        )
        assert engine.values == oracle(IGNORES_WEIGHT, engine.view.graph)

    def test_patched_removes_one_of_two(self):
        plan = IGNORES_WEIGHT.plan(weighted(3, [(0, 1, 1), (1, 2, 4), (1, 2, 6)]))
        one = Counter({(1, 2, (), 0): 1})
        once = plan.patched(Counter(), one, plan.initial, plan.constants)
        assert once.signature == Counter({(0, 1, (), 0): 1, (1, 2, (), 0): 1})
        twice = once.patched(Counter(), one, once.initial, once.constants)
        assert twice.signature == Counter({(0, 1, (), 0): 1})
        assert twice.keys == frozenset({0, 1})
        with pytest.raises(KeyError):
            twice.patched(Counter(), one, twice.initial, twice.constants)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_delta_that_empties_the_plan(backend):
    graph = weighted(3, [(0, 1, 2), (1, 2, 2)])
    engine = IncrementalEngine("sssp", graph, backend=backend)
    engine.bootstrap()
    engine.apply(GraphDelta(delete_edges=((0, 1), (1, 2))))
    fresh = engine.spec.plan(engine.view.graph)
    assert engine._plan.num_edges == 0
    assert_plan_is_a_fresh_compile(engine._plan, fresh)
    assert engine.values == {0: 0}
    engine.apply(GraphDelta(insert_edges=((0, 2, 3),)))
    assert engine.values == oracle(engine.spec, engine.view.graph, backend)


class CountedCalls:
    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.monkeypatch = monkeypatch

    def wrap(self, owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counted)


class TestFallsBackToAFreshCompile:
    def test_apsp_add_vertices_changes_the_broadcast_keys(self, monkeypatch):
        calls = CountedCalls(monkeypatch)
        calls.wrap(registry, "compile_plan")
        engine = IncrementalEngine("apsp", rmat(6, 12, seed=3))
        engine.bootstrap()
        engine.apply(random_delta(engine.view.graph, 1, insert_edges=1))
        assert calls.counts["compile_plan"] == 1  # the delta path
        engine.apply(GraphDelta(add_vertices=1, insert_edges=((0, 6, 2),)))
        assert calls.counts["compile_plan"] == 2  # node/1 changed X⁰'s keys
        assert "_lineage" not in vars(engine._plan)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_recompute_restarts_the_lineage(self, monkeypatch):
        calls = CountedCalls(monkeypatch)
        calls.wrap(registry, "compile_plan")
        calls.wrap(delta_engine, "diff_plans")
        dag = random_dag(12, 24, seed=5)
        engine = IncrementalEngine("dag_paths", dag)
        engine.bootstrap()
        repair = engine.apply(random_delta(engine.view.graph, 1, insert_edges=2, acyclic=True))
        assert repair.strategy == "frontier"
        assert "_lineage" in vars(engine._plan)
        repair = engine.apply(random_delta(engine.view.graph, 2, delete_edges=2))
        assert repair.strategy == "recompute"
        assert calls.counts["compile_plan"] == 2
        assert "_lineage" not in vars(engine._plan)
        repair = engine.apply(random_delta(engine.view.graph, 3, insert_edges=2, acyclic=True))
        assert repair.strategy == "frontier"
        assert calls.counts["compile_plan"] == 2 and calls.counts["diff_plans"] == 0
        assert "_lineage" in vars(engine._plan)
        assert engine.values == oracle(engine.spec, engine.view.graph)

    def test_mode_none_compiles_as_before(self, monkeypatch):
        calls = CountedCalls(monkeypatch)
        calls.wrap(registry, "compile_plan")
        engine = IncrementalEngine("pagerank", rmat(10, 30, seed=2))
        engine.bootstrap()
        repair = engine.apply(random_delta(engine.view.graph, 4, insert_edges=2))
        assert repair.strategy == "recompute"
        assert calls.counts["compile_plan"] == 2 and engine._db is None


# -- the two kernel class operations ------------------------------------------

_OPS_PROGRAMS = {"min": "sssp", "max": "viterbi", "sum": "dag_paths"}


@settings(max_examples=40, deadline=None)
@given(
    fold=st.sampled_from(sorted(_OPS_PROGRAMS)),
    graph_seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_array_cone_and_boundary_are_the_reference_ones(fold, graph_seed, data):
    program = _OPS_PROGRAMS[fold]
    graph = (
        random_dag(16, 40, seed=graph_seed)
        if program in ACYCLIC
        else rmat(16, 40, seed=graph_seed)
    )
    plan = PROGRAMS[program].plan(graph)
    assert plan.aggregate.fold_mode == fold
    array_kernel = get_kernel("numpy")
    # keys the plan has, and a few (16..19) it does not
    anywhere = st.integers(0, 19)
    seeds = data.draw(st.sets(anywhere, max_size=4))
    pairs = data.draw(st.lists(st.tuples(anywhere, anywhere), max_size=6))
    cone = array_kernel.forward_closure(plan, seeds, pairs)
    assert cone == Kernel.forward_closure(plan, seeds, pairs)

    keys = sorted(plan.keys)
    values = {
        key: float(data.draw(st.integers(0, 9)))
        for key in data.draw(st.sets(st.sampled_from(keys), max_size=8))
    }
    targets = data.draw(st.sets(anywhere, max_size=10))
    batch = array_kernel.boundary_contributions(plan, values, targets)
    reference = Kernel.boundary_contributions(plan, values, targets)
    assert len(batch) == len(reference)
    names = plan._kernel_keys_sorted
    assert Counter(
        (names[code], value) for code, value in zip(batch.codes.tolist(), batch.vals.tolist())
    ) == Counter((key, float(value)) for key, value in reference)
    # folded into a kernel they leave the same pending column
    folded = {}
    for backend, payload in (("numpy", batch), ("python", reference)):
        kernel = get_kernel(backend).from_plan(plan, initial={})
        kernel.push_many(payload)
        folded[backend] = kernel.drain_all()
    assert folded["numpy"] == folded["python"]


def test_array_cone_never_builds_the_adjacency_view():
    plan = PROGRAMS["sssp"].plan(rmat(30, 90, seed=1))
    kernel = get_kernel("numpy")
    cone = kernel.forward_closure(plan, {0}, [(0, 99), (99, 5), (98, 6)])
    assert 99 in cone and 5 in cone
    kernel.boundary_contributions(plan, {1: 2.0}, cone)
    assert "out_edges" not in vars(plan)


# -- a tier-1 mirror of the benchmark's per-layer metrics ----------------------


def test_a_repair_neither_compiles_nor_diffs_nor_builds_a_view(monkeypatch):
    calls = CountedCalls(monkeypatch)
    calls.wrap(registry, "compile_plan")
    calls.wrap(delta_engine, "diff_plans")
    engine = IncrementalEngine("sssp", rmat(60, 240, seed=9), backend="numpy")
    engine.bootstrap()
    strategies = []
    for index, kind in enumerate(("insert", "delete", "reweight") * 2):
        delta = make_delta(engine.view.graph, kind, 100 + index, acyclic=False)
        strategies.append(engine.apply(delta).strategy)
        assert "out_edges" not in vars(engine._plan)
        assert "signature" not in vars(engine._plan)
    assert set(strategies) == {"frontier", "rederive"}
    assert calls.counts == {"compile_plan": 1}  # the bootstrap
    assert engine.values == oracle(engine.spec, engine.view.graph, "numpy")


def test_after_the_first_repair_nothing_is_packed_or_indexed_whole(monkeypatch):
    calls = CountedCalls(monkeypatch)
    calls.wrap(csr_module, "_pack_columns")
    calls.wrap(EdgeIndex, "reset")
    calls.wrap(plan_module, "edge_index")
    engine = IncrementalEngine("sssp", rmat(60, 240, seed=9), backend="numpy")
    engine.bootstrap()
    assert calls.counts == {"_pack_columns": 1}
    engine.apply(make_delta(engine.view.graph, "insert", 99, acyclic=False))
    # the first repair indexes the view's head and the plan's lineage
    assert calls.counts == {"_pack_columns": 1, "reset": 1, "edge_index": 1}
    calls.counts.clear()
    keys = engine._plan.keys
    strategies = []
    for index, kind in enumerate(("insert", "delete", "reweight", "mixed") * 2):
        delta = make_delta(engine.view.graph, kind, 100 + index, acyclic=False)
        strategies.append(engine.apply(delta).strategy)
        assert_csr_is_a_pack(engine._plan)
    assert engine._plan.keys == keys
    assert set(strategies) == {"frontier", "rederive"}
    assert calls.counts == {}
    assert engine.values == oracle(engine.spec, engine.view.graph, "numpy")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_repair_neither_builds_nor_diffs_the_edb(monkeypatch, backend):
    calls = CountedCalls(monkeypatch)
    calls.wrap(registry, "compile_plan")
    engine = IncrementalEngine("sssp", rmat(60, 240, seed=9), backend=backend)
    engine.bootstrap()
    calls.wrap(EdgeLocalBuilder, "__call__")  # spec.build_database
    calls.wrap(Relation, "difference")
    for index, kind in enumerate(("insert", "delete", "reweight") * 2):
        engine.apply(make_delta(engine.view.graph, kind, 100 + index, acyclic=False))
    assert calls.counts == {"compile_plan": 1}  # the bootstrap
    monkeypatch.undo()
    assert engine.values == oracle(engine.spec, engine.view.graph, backend)


class CountingColumn(list):
    """A plan column that counts the passes made over it (and its copies)."""

    passes = 0

    def __iter__(self):
        CountingColumn.passes += 1
        return super().__iter__()

    def __getitem__(self, item):
        got = super().__getitem__(item)
        return CountingColumn(got) if isinstance(item, slice) else got


def test_a_removal_only_patch_never_walks_a_column():
    plan = PROGRAMS["sssp"].plan(rmat(300, 2000, seed=4))
    (columns,) = plan.edge_columns
    assert len(columns) >= 2000
    # pair keys and mixed weights: columns that stay untyped lists
    srcs = [(0, src) for src in columns.srcs]
    dsts = [(0, dst) for dst in columns.dsts]
    weights = [w if j % 2 else float(w) for j, w in enumerate(columns.param_cols[0])]
    counted = replace(
        plan,
        keys=frozenset(srcs + dsts),
        initial={},
        constants={},
        edge_columns=(
            EdgeColumns.typed(
                columns.fn, [CountingColumn(col) for col in (srcs, dsts, weights)]
            ),
        ),
    )
    edges = list(edge_signatures(0, srcs, dsts, [weights]))
    first = counted.patched(Counter(), Counter(edges[:1]), {}, {})  # the lineage
    CountingColumn.passes = 0
    removed = Counter(edges[1:40:2])
    patched = first.patched(Counter(), removed, {}, {})
    assert CountingColumn.passes == 0
    assert all(type(col) is CountingColumn for col in patched.edge_columns[0].param_cols)
    assert patched.signature == Counter(edges) - Counter(edges[:1]) - removed
    assert patched.keys == frozenset(
        key for src, dst, _, _ in patched.signature for key in (src, dst)
    )


def test_the_c_level_index_is_the_per_edge_one():
    # (1, 2) three times and (2, 3) twice under weights the body ignores
    triples = [(0, 1, 1), (1, 2, 4), (2, 3, 1), (1, 2, 6), (1, 2, 7), (2, 3, 5)]
    plan = IGNORES_WEIGHT.plan(weighted(4, triples))
    per_edge: dict = {}
    for body, columns in enumerate(plan.edge_columns):
        signatures = edge_signatures(body, columns.srcs, columns.dsts, columns.param_cols)
        for position, edge in enumerate(signatures):
            per_edge.setdefault(flat_signature(edge), []).append(position)
    assert any(len(held) > 2 for held in per_edge.values())
    assert edge_index(plan.edge_columns) == {
        edge: held[0] if len(held) == 1 else held for edge, held in per_edge.items()
    }


def test_view_apply_runs_no_python_per_edge():
    graph = rmat(300, 2000, seed=4).with_weights()
    assert graph.num_edges >= 2000
    view = MutableGraphView(graph)
    delta = random_delta(graph, 8, insert_edges=2, delete_edges=2, update_weights=1)
    expected = reference_apply_to(delta, graph)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1

    sys.setprofile(count)
    try:
        head = view.apply(delta)
    finally:
        sys.setprofile(None)
    # a per-edge loop costs at least a call event (append, get) per edge
    assert events < graph.num_edges // 4
    assert (head.edges, head.weights) == (expected.edges, expected.weights)


def index_state(index: EdgeIndex) -> tuple:
    slots = {
        pair: list(held) if type(held) is list else held for pair, held in index.slots.items()
    }
    return slots, list(index.dead), index.size


@settings(max_examples=25, deadline=None)
@given(
    graph_seed=st.integers(0, 10**6),
    stream=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6)), min_size=10, max_size=20
    ),
    repeated=st.booleans(),
)
def test_the_view_carries_the_heads_index(graph_seed, stream, repeated):
    graph = rmat(12, 30, seed=graph_seed).with_weights()
    if repeated:  # three pairs held twice
        graph = with_repeats(graph)
    view = MutableGraphView(graph)
    versions = {view.version: (list(graph.edges), list(map(exact, graph.weights)))}
    for kind, seed in stream:
        head = view.graph
        delta = make_delta(head, kind, seed, acyclic=False)
        expected = reference_apply_to(delta, head)
        bumped = view.apply(delta)
        assert bumped.edges == expected.edges
        assert list(map(exact, bumped.weights)) == list(map(exact, expected.weights))
        index = view._index
        assert {pair: index.positions(pair)[-1] for pair in index.slots} == dict(
            zip(bumped.edges, range(len(bumped.edges)))
        )
        assert all(
            index.positions(pair) == [p for p, edge in enumerate(bumped.edges) if edge == pair]
            for pair in index.slots
        )
        versions[view.version] = (list(bumped.edges), list(map(exact, bumped.weights)))
        # a batch the head refuses changes neither the view nor its index
        pairs = list(dict.fromkeys(bumped.edges))
        if len(pairs) >= 2:
            held = index_state(index)
            refused = GraphDelta(
                delete_edges=(pairs[0],), insert_edges=((*pairs[1], 1),)
            )
            with pytest.raises(DeltaValidationError):
                view.apply(refused)
            assert index_state(view._index) == held
            assert view.graph is bumped
    assert view.version == 1 + len(stream)
    for version, (edges, weights) in versions.items():
        older = view.graph_at(version)
        assert (older.edges, list(map(exact, older.weights))) == (edges, weights)


@settings(max_examples=60, deadline=None)
@given(
    graph_seed=st.integers(0, 10**6),
    delta_seed=st.integers(0, 10**6),
    kind=st.sampled_from(KINDS),
    repeated=st.booleans(),
)
def test_apply_to_is_the_per_edge_loop(graph_seed, delta_seed, kind, repeated):
    graph = rmat(12, 30, seed=graph_seed).with_weights()
    if repeated:  # a multigraph: a pair held twice, under two weights
        graph = Graph(
            graph.num_vertices,
            graph.edges + graph.edges[:3],
            graph.weights + [11, 12, 13],
        )
    delta = make_delta(graph, kind, delta_seed, acyclic=False)
    expected = reference_apply_to(delta, graph)
    mutated = delta.apply_to(graph)
    assert mutated == expected
    # the very weight objects, not equal ones
    assert list(map(exact, mutated.weights)) == list(map(exact, expected.weights))
