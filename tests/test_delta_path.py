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

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.delta.engine as delta_engine
import repro.programs.registry as registry
from repro.delta import (
    GraphDelta,
    IncrementalEngine,
    MutableGraphView,
    choose_strategy,
    diff_plans,
    random_delta,
)
from repro.delta.engine import delta_join
from repro.engine import MRAEvaluator
from repro.engine.plan import EdgeColumns
from repro.graphs import Graph, random_dag, rmat
from repro.programs import PROGRAMS
from repro.programs.builders import weighted_graph_db
from repro.programs.registry import ProgramSpec
from repro.runtime import HAVE_NUMPY, available_backends, get_kernel
from repro.runtime.base import Kernel
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

KINDS = ("insert", "delete", "reweight", "mixed", "add_vertices", "remove_vertices")


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


def check_batch(engine: IncrementalEngine, delta: GraphDelta) -> bool:
    """Apply one batch through the engine and through the oracle; False
    when the builder refuses the new graph (path_count's RA351)."""
    spec, mode = engine.spec, engine.verdict.mode
    old_graph = engine.view.graph
    new_graph = delta.apply_to(old_graph)
    fresh_old = spec.plan(old_graph)
    try:
        fresh_new = spec.plan(new_graph)
    except ValueError:
        return False
    expected_diff = diff_plans(fresh_old, fresh_new)
    joined = delta_join(
        engine._plan, spec.build_database(old_graph), spec.build_database(new_graph)
    )
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
    stream = data.draw(
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6)),
            min_size=1,
            max_size=30,
        )
    )
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    for kind, seed in stream:
        delta = make_delta(engine.view.graph, kind, seed, program in ACYCLIC)
        if not check_batch(engine, delta):
            break


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
        diff, _, _ = delta_join(engine._plan, old_db, new_db)
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
        assert "_edge_positions" not in vars(engine._plan)
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
        assert "_edge_positions" in vars(engine._plan)
        repair = engine.apply(random_delta(engine.view.graph, 2, delete_edges=2))
        assert repair.strategy == "recompute"
        assert calls.counts["compile_plan"] == 2
        assert "_edge_positions" not in vars(engine._plan)
        repair = engine.apply(random_delta(engine.view.graph, 3, insert_edges=2, acyclic=True))
        assert repair.strategy == "frontier"
        assert calls.counts["compile_plan"] == 2 and calls.counts["diff_plans"] == 0
        assert "_edge_positions" in vars(engine._plan)
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed")
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed")
def test_array_cone_never_builds_the_adjacency_view():
    plan = PROGRAMS["sssp"].plan(rmat(30, 90, seed=1))
    kernel = get_kernel("numpy")
    cone = kernel.forward_closure(plan, {0}, [(0, 99), (99, 5), (98, 6)])
    assert 99 in cone and 5 in cone
    kernel.boundary_contributions(plan, {1: 2.0}, cone)
    assert "out_edges" not in vars(plan)


# -- a tier-1 mirror of the benchmark's per-layer metrics ----------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed")
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
