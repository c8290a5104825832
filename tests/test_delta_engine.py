"""Unit tests for ``repro.delta``: batch validation, versioned views,
plan diffing, strategy selection and frontier seeding.

The oracle comparisons live in ``tests/test_delta_equivalence.py``;
this suite pins the *mechanics* -- which malformed batches are refused,
what a view remembers, which repair strategy a given (mode, diff) pair
selects, and that the insert-only fast path really seeds a small
frontier instead of resetting state.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.delta import (
    DEFAULT_WEIGHT,
    DeltaValidationError,
    GraphDelta,
    IncrementalEngine,
    MutableGraphView,
    PlanDiff,
    STRATEGIES,
    choose_strategy,
    diff_plans,
    random_delta,
    repair_plan,
)
from repro.graphs import random_dag, rmat
from repro.obs import Observability
from repro.programs import PROGRAMS


@pytest.fixture
def graph():
    return rmat(24, 60, seed=5)


#: anything a JSON file can hold
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
_FIELDS = (
    "insert_edges", "delete_edges", "update_weights",
    "add_vertices", "remove_vertices", "allow_self_loops",
)


@settings(max_examples=300, deadline=None)
@given(
    payload=_JSON
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), _JSON)
)
def test_from_dict_returns_a_delta_or_a_diagnosis(payload):
    try:
        delta = GraphDelta.from_dict(payload)
    except DeltaValidationError:
        return
    assert GraphDelta.from_dict(delta.to_dict()) == delta


@pytest.fixture
def dag():
    return random_dag(20, 50, seed=5)


class TestGraphDeltaValidation:
    def test_empty_delta(self, graph):
        delta = GraphDelta()
        assert delta.is_empty and delta.is_insert_only
        delta.validate(graph)
        assert delta.apply_to(graph).edges == graph.edges

    def test_duplicate_insert_in_batch_rejected(self, graph):
        src, dst = self._missing_edge(graph)
        delta = GraphDelta(insert_edges=((src, dst, 1), (src, dst, 2)))
        with pytest.raises(DeltaValidationError, match="listed twice"):
            delta.validate(graph)

    def test_insert_of_existing_edge_rejected(self, graph):
        src, dst = graph.edges[0]
        with pytest.raises(DeltaValidationError, match="already exists"):
            GraphDelta(insert_edges=((src, dst, 1),)).validate(graph)

    def test_insert_after_delete_of_same_edge_allowed(self, graph):
        src, dst = graph.edges[0]
        delta = GraphDelta(
            insert_edges=((src, dst, 3),), delete_edges=((src, dst),)
        )
        delta.validate(graph)
        mutated = delta.apply_to(graph)
        assert mutated.weights[mutated.edges.index((src, dst))] == 3

    def test_out_of_range_insert_rejected(self, graph):
        n = graph.num_vertices
        with pytest.raises(DeltaValidationError, match="out of range"):
            GraphDelta(insert_edges=((0, n, 1),)).validate(graph)
        # ...but an added vertex extends the range
        GraphDelta(insert_edges=((0, n, 1),), add_vertices=1).validate(graph)

    def test_self_loop_policy(self, graph):
        delta = GraphDelta(insert_edges=((3, 3, 1),))
        with pytest.raises(DeltaValidationError, match="self loop"):
            delta.validate(graph)
        GraphDelta(insert_edges=((3, 3, 1),), allow_self_loops=True).validate(
            graph
        )

    def test_dangling_delete_rejected(self, graph):
        src, dst = self._missing_edge(graph)
        with pytest.raises(DeltaValidationError, match="dangling"):
            GraphDelta(delete_edges=((src, dst),)).validate(graph)

    def test_duplicate_delete_rejected(self, graph):
        pair = graph.edges[0]
        with pytest.raises(DeltaValidationError, match="listed twice"):
            GraphDelta(delete_edges=(pair, pair)).validate(graph)

    def test_update_of_missing_edge_rejected(self, graph):
        src, dst = self._missing_edge(graph)
        with pytest.raises(DeltaValidationError, match="does not exist"):
            GraphDelta(update_weights=((src, dst, 2.0),)).validate(graph)

    def test_update_of_deleted_edge_rejected(self, graph):
        src, dst = graph.edges[0]
        delta = GraphDelta(
            delete_edges=((src, dst),), update_weights=((src, dst, 2.0),)
        )
        with pytest.raises(DeltaValidationError, match="also deleted"):
            delta.validate(graph)

    def test_remove_vertex_out_of_range_rejected(self, graph):
        delta = GraphDelta(remove_vertices=(graph.num_vertices,))
        with pytest.raises(DeltaValidationError, match="not in the graph"):
            delta.validate(graph)

    def test_insert_touching_removed_vertex_rejected(self, graph):
        victim = graph.edges[0][0]
        fresh = graph.num_vertices  # guaranteed-new vertex, so only the
        delta = GraphDelta(         # removed-vertex check can fire
            insert_edges=((fresh, victim, 1),),
            add_vertices=1,
            remove_vertices=(victim,),
        )
        with pytest.raises(DeltaValidationError, match="removed"):
            delta.validate(graph)

    def test_negative_add_vertices_rejected(self, graph):
        with pytest.raises(DeltaValidationError, match="non-negative"):
            GraphDelta(add_vertices=-1).validate(graph)

    @staticmethod
    def _missing_edge(graph):
        existing = set(graph.edges)
        for src in range(graph.num_vertices):
            for dst in range(graph.num_vertices):
                if src != dst and (src, dst) not in existing:
                    return src, dst
        raise AssertionError("graph is complete")


class TestGraphDeltaApply:
    def test_tombstone_semantics(self, graph):
        victim = graph.edges[0][0]
        mutated = GraphDelta(remove_vertices=(victim,)).apply_to(graph)
        # the id slot survives; only incident edges disappear
        assert mutated.num_vertices == graph.num_vertices
        assert all(victim not in pair for pair in mutated.edges)
        survivors = [pair for pair in graph.edges if victim not in pair]
        assert mutated.edges == survivors

    def test_insert_default_weight(self, graph):
        src, dst = TestGraphDeltaValidation._missing_edge(graph)
        mutated = GraphDelta(insert_edges=((src, dst),)).apply_to(graph)
        assert mutated.edges[-1] == (src, dst)
        assert mutated.weights[-1] == DEFAULT_WEIGHT

    def test_base_weights_pinned_before_mutation(self, graph):
        # weights derive from (edge list, seed): applying a delta to an
        # unweighted graph must pin the ORIGINAL weights first, never
        # re-roll them from the mutated edge list
        assert graph.weights is None
        original = graph.with_weights().weights
        src, dst = TestGraphDeltaValidation._missing_edge(graph)
        mutated = GraphDelta(insert_edges=((src, dst, 4),)).apply_to(graph)
        assert list(mutated.weights[:-1]) == list(original)

    def test_apply_does_not_mutate_base(self, graph):
        edges_before = list(graph.edges)
        GraphDelta(delete_edges=(graph.edges[0],)).apply_to(graph)
        assert graph.edges == edges_before

    def test_json_round_trip(self, graph):
        delta = random_delta(graph, seed=2, insert_edges=3, delete_edges=2)
        clone = GraphDelta.from_json(delta.to_json())
        assert clone == delta

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DeltaValidationError, match="unknown delta fields"):
            GraphDelta.from_dict({"inserts": []})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "not valid JSON"),
            ("[1, 2]", "a delta is an object of fields"),
            ('"insert_edges"', "a delta is an object of fields"),
            ('{"insert_edges": 5}', "insert_edges: expected a list, got 5"),
            ('{"insert_edges": [[1]]}', r"insert_edges: expected \[src, dst\] or .*got \[1\]"),
            ('{"insert_edges": [[1, 2, 3, 4]]}', "insert_edges: expected"),
            ('{"insert_edges": [7]}', "insert_edges: expected .* got 7"),
            ('{"delete_edges": [[1, 2, 3]]}', r"delete_edges: expected \[src, dst\], got"),
            ('{"update_weights": [[1, 2]]}', r"update_weights: expected \[src, dst, weight\]"),
            ('{"insert_edges": [[1, "b"]]}', "insert_edges: vertex ids must be integers, got 'b'"),
            ('{"delete_edges": [[1.5, 2]]}', "delete_edges: vertex ids must be integers, got 1.5"),
            ('{"delete_edges": [[true, 2]]}', "delete_edges: vertex ids must be integers, got True"),
            ('{"update_weights": [[1, 2, "w"]]}', "update_weights: weight 'w' .* is not a number"),
            ('{"update_weights": [[1, 2, null]]}', "update_weights: weight None .* is not a number"),
            ('{"update_weights": [[1, 2, NaN]]}', "update_weights: weight nan .* is not finite"),
            ('{"update_weights": [[1, 2, Infinity]]}', "update_weights: weight inf .* is not finite"),
            ('{"insert_edges": [[1, 2, -Infinity]]}', "insert_edges: weight -inf .* is not finite"),
            ('{"insert_edges": [[1, 2, 1e999]]}', "insert_edges: weight inf .* is not finite"),
            ('{"insert_edges": [[1, 2, 1' + "0" * 400 + "]]}", "is not finite"),
            ('{"add_vertices": "x"}', "add_vertices: expected an integer, got 'x'"),
            ('{"add_vertices": 1.0}', "add_vertices: expected an integer, got 1.0"),
            ('{"remove_vertices": 3}', "remove_vertices: expected a list, got 3"),
            ('{"remove_vertices": [[3]]}', "remove_vertices: vertex ids must be integers"),
            ('{"allow_self_loops": "yes"}', "allow_self_loops: expected true or false"),
        ],
    )
    def test_malformed_files_are_diagnosed(self, text, message):
        with pytest.raises(DeltaValidationError, match=message):
            GraphDelta.from_json(text)

    def test_null_insert_weight_asks_for_the_default(self):
        delta = GraphDelta.from_json('{"insert_edges": [[0, 1, null], [1, 2]]}')
        assert delta.insert_edges == ((0, 1, None), (1, 2, None))

    def test_random_delta_is_deterministic_and_applicable(self, graph):
        first = random_delta(
            graph, seed=9, insert_edges=5, delete_edges=3, update_weights=2
        )
        second = random_delta(
            graph, seed=9, insert_edges=5, delete_edges=3, update_weights=2
        )
        assert first == second
        first.validate(graph)
        assert len(first.insert_edges) == 5

    def test_random_delta_acyclic_inserts(self, dag):
        delta = random_delta(dag, seed=4, insert_edges=10, acyclic=True)
        assert all(src < dst for src, dst, _ in delta.insert_edges)


class TestMutableGraphView:
    def test_versioning(self, graph):
        view = MutableGraphView(graph)
        assert view.version == 1
        delta = random_delta(graph, seed=1, insert_edges=2)
        view.apply(delta)
        assert view.version == 2
        (change,) = view.changes_between(1, 2)
        assert change.removed == []
        assert [(src, dst) for src, dst, _ in change.added] == [
            (src, dst) for src, dst, _ in delta.insert_edges
        ]
        assert view.graph_at(1).edges == graph.edges
        assert len(view.graph.edges) == len(graph.edges) + 2

    def test_invalid_delta_leaves_view_untouched(self, graph):
        view = MutableGraphView(graph)
        bad = GraphDelta(delete_edges=((0, 0),))
        with pytest.raises(DeltaValidationError):
            view.apply(bad)
        assert view.version == 1

    def test_changes_between(self, graph):
        view = MutableGraphView(graph)
        added = []
        for step in range(3):
            delta = random_delta(view.graph, seed=step, insert_edges=1)
            view.apply(delta)
            added.append(view.changes_between(step + 1, step + 2)[0].added)
        assert [change.added for change in view.changes_between(1, 4)] == added
        assert [change.added for change in view.changes_between(3, 4)] == added[2:]
        assert view.changes_between(4, 4) == []
        with pytest.raises(KeyError):
            view.changes_between(2, 5)

    def test_advance_to_materialises_lazily(self, graph):
        view = MutableGraphView(graph)
        made = []

        def make(view_, version):
            delta = random_delta(view_.graph, seed=version, insert_edges=1)
            made.append(version)
            return delta

        view.advance_to(3, make)
        assert view.version == 3
        assert made == [2, 3]
        view.advance_to(3, make)  # idempotent
        assert made == [2, 3]


class TestPlanDiffAndStrategy:
    def _plans(self, program, graph, delta):
        spec = PROGRAMS[program]
        base = graph.with_weights()
        return spec.plan(base), spec.plan(delta.apply_to(base))

    def test_identical_plans_diff_empty(self, graph):
        spec = PROGRAMS["sssp"]
        plan = spec.plan(graph.with_weights())
        again = spec.plan(graph.with_weights())
        diff = diff_plans(plan, again)
        assert diff.is_empty and diff.is_pure_growth

    def test_insert_only_delta_is_pure_growth(self, graph):
        delta = random_delta(graph, seed=3, insert_edges=4)
        old, new = self._plans("sssp", graph, delta)
        diff = diff_plans(old, new)
        assert diff.is_pure_growth
        assert sum(diff.added.values()) == 4
        assert not diff.removed

    def test_cc_symmetrises_plan_edges(self, graph):
        # cc compiles each graph edge in both directions: one graph
        # insert becomes two plan edges -- exactly why repairs diff
        # compiled plans instead of raw edge lists
        existing = set(graph.edges)
        pair = next(
            (s, d)
            for s in range(graph.num_vertices)
            for d in range(graph.num_vertices)
            if s != d and (s, d) not in existing and (d, s) not in existing
        )
        delta = GraphDelta(insert_edges=(pair,))
        old, new = self._plans("cc", graph, delta)
        diff = diff_plans(old, new)
        assert sum(diff.added.values()) == 2

    def test_cc_reverse_duplicate_insert_is_a_plan_noop(self, graph):
        # inserting (d, s) when (s, d) already exists leaves cc's
        # symmetric plan unchanged -- the diff must see that
        src, dst = next(
            (s, d) for s, d in graph.edges if (d, s) not in set(graph.edges)
        )
        delta = GraphDelta(insert_edges=((dst, src),))
        old, new = self._plans("cc", graph, delta)
        assert diff_plans(old, new).is_empty

    def test_deletion_shows_up_as_removed(self, graph):
        delta = GraphDelta(delete_edges=(graph.edges[0],))
        old, new = self._plans("sssp", graph, delta)
        diff = diff_plans(old, new)
        assert not diff.is_pure_growth
        assert sum(diff.removed.values()) == 1

    def test_signature_is_built_once_per_plan(self, graph):
        # a refresh diffs the plan the previous refresh compiled: the
        # middle plan of a chain is multiset-ed once, not twice, and
        # diffing (Counter subtraction) leaves the cached multiset intact
        first = random_delta(graph, seed=3, insert_edges=4)
        old, middle = self._plans("sssp", graph, first)
        assert "signature" not in vars(middle)
        grown = diff_plans(old, middle)
        cached = vars(middle)["signature"]
        snapshot = dict(cached)
        shrunk = diff_plans(middle, old)
        assert middle.signature is cached and dict(cached) == snapshot
        assert sum(cached.values()) == middle.num_edges
        assert shrunk.removed == grown.added and not shrunk.added

    def test_strategy_table(self):
        from collections import Counter

        growth = PlanDiff(Counter({("e", 1): 1}), Counter(), {}, set())
        shrink = PlanDiff(Counter(), Counter({("e", 1): 1}), {}, set())
        assert choose_strategy("full", growth) == "frontier"
        assert choose_strategy("full", shrink) == "rederive"
        assert choose_strategy("insert-only", growth) == "frontier"
        assert choose_strategy("insert-only", shrink) == "recompute"
        assert choose_strategy("none", growth) == "recompute"
        assert choose_strategy("none", shrink) == "recompute"
        for mode in ("full", "insert-only", "none"):
            for diff in (growth, shrink):
                assert choose_strategy(mode, diff) in STRATEGIES

    def test_regressed_initial_disables_pure_growth(self, graph):
        # a weight update can make a base fact worse; the frontier fast
        # path must refuse it
        weighted = graph.with_weights()
        src, dst = weighted.edges[0]
        worse = weighted.weights[0] + 5
        delta = GraphDelta(update_weights=((src, dst, worse),))
        old, new = self._plans("sssp", graph, delta)
        diff = diff_plans(old, new)
        assert not diff.is_pure_growth


class TestRepairPlan:
    def test_frontier_seeds_are_sparse(self, graph):
        # the fast path seeds only the delta's footprint, not the graph
        spec = PROGRAMS["sssp"]
        base = graph.with_weights()
        delta = random_delta(base, seed=7, insert_edges=2)
        old_plan = spec.plan(base)
        new_plan = spec.plan(delta.apply_to(base))
        from repro.engine import MRAEvaluator

        prior = MRAEvaluator(old_plan).run().values
        repair = repair_plan(old_plan, new_plan, prior, mode="full")
        assert repair.strategy == "frontier"
        assert 0 < repair.frontier_size <= 2
        assert repair.reset_keys == 0
        assert repair.stop_reason == "fixpoint"

    def test_rederive_resets_only_affected_cone(self):
        # a path graph makes the affected cone explicit: deleting the
        # edge into vertex 3 can only invalidate vertices 3, 4 and 5
        from repro.graphs import Graph

        base = Graph(6, [(i, i + 1) for i in range(5)], [1.0] * 5, name="path")
        spec = PROGRAMS["sssp"]
        delta = GraphDelta(delete_edges=((2, 3),))
        old_plan = spec.plan(base)
        new_plan = spec.plan(delta.apply_to(base))
        from repro.engine import MRAEvaluator

        prior = MRAEvaluator(old_plan).run().values
        repair = repair_plan(old_plan, new_plan, prior, mode="full")
        assert repair.strategy == "rederive"
        assert repair.reset_keys == 3
        # the surviving prefix keeps its exact distances
        for vertex in (0, 1, 2):
            assert repair.values[vertex] == prior[vertex]

    def test_recompute_reports_full_engine(self, dag):
        spec = PROGRAMS["dag_paths"]
        base = dag.with_weights()
        delta = GraphDelta(delete_edges=(base.edges[0],))
        old_plan = spec.plan(base)
        new_plan = spec.plan(delta.apply_to(base))
        from repro.engine import MRAEvaluator

        prior = MRAEvaluator(old_plan).run().values
        repair = repair_plan(old_plan, new_plan, prior, mode="insert-only")
        assert repair.strategy == "recompute"
        assert repair.result.engine == "mra"
        payload = repair.to_dict()
        assert payload["strategy"] == "recompute"
        assert json.dumps(payload)  # serialisable

    def test_engine_refuses_missing_graph(self):
        with pytest.raises(ValueError, match="graph or a view"):
            IncrementalEngine("sssp")

    def test_engine_tracks_fixpoint_version(self, graph):
        engine = IncrementalEngine("sssp", graph)
        assert engine.fixpoint_version is None
        engine.bootstrap()
        assert engine.fixpoint_version == 1
        engine.apply(random_delta(graph, seed=2, insert_edges=1))
        assert engine.fixpoint_version == engine.view.version == 2

    def test_engine_refresh_catches_up_external_mutations(self, graph):
        view = MutableGraphView(graph)
        engine = IncrementalEngine("sssp", view=view)
        engine.bootstrap()
        for step in range(2):
            view.apply(random_delta(view.graph, seed=step, insert_edges=2))
        assert engine.fixpoint_version == 1
        engine.refresh()
        assert engine.fixpoint_version == 3
        from repro.engine import MRAEvaluator

        oracle = MRAEvaluator(PROGRAMS["sssp"].plan(view.graph)).run().values
        assert engine.values == oracle


class TestRepairMetrics:
    """An observed repair ends through ``repro.obs.record_run``: its
    ``work.*`` and ``runtime.backend_runs`` counters, labelled
    ``engine=incremental``, are the ones pinned here (taken before the
    repair's epilogue was ``record_run``)."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "strategy, make_delta, work",
        [
            (
                "frontier",
                lambda g: random_delta(g, seed=4, insert_edges=4),
                {"combines": 21, "fprime_applications": 17, "iterations": 3, "updates": 6},
            ),
            (
                "rederive",
                lambda g: GraphDelta(delete_edges=(g.edges[0], g.edges[5])),
                {"combines": 66, "fprime_applications": 89, "iterations": 7, "updates": 30},
            ),
        ],
        ids=["frontier", "rederive"],
    )
    def test_apply_counts_the_repairs_run(self, graph, backend, strategy, make_delta, work):
        obs = Observability()
        engine = IncrementalEngine("sssp", graph.with_weights(), backend=backend, obs=obs)
        engine.bootstrap()
        repair = engine.apply(make_delta(engine.view.graph))
        assert repair.strategy == strategy
        assert repair.result.metrics is obs.metrics
        labels = "backend=python,engine=incremental"
        if backend == "numpy":
            labels = f"backend=numpy,engine=incremental,numpy_version={np.__version__}"
        expected = {f"work.{field}{{engine=incremental}}": n for field, n in work.items()}
        expected[f"runtime.backend_runs{{{labels}}}"] = 1
        counters = obs.metrics.snapshot()["counters"]
        assert {k: v for k, v in counters.items() if "engine=incremental" in k} == expected
