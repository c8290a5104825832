"""The four semiring program families, end to end.

Each family exercises one registered semiring -- boolean (why_reach),
counting (path_count), k-tropical (kpaths), Viterbi (reach_prob) -- and
each must (a) agree with an independent oracle, (b) reach the identical
fixpoint on every engine it is algebraically eligible for, under both
backend preferences, and (c) be refused, not silently mis-evaluated,
by a backend whose carrier assumptions its semiring violates.
"""

import pytest

from repro import reference
from repro.aggregates import KTuple
from repro.distributed.aap import AAPEngine
from repro.distributed.async_engine import AsyncEngine
from repro.distributed.chaos_harness import default_graph
from repro.distributed.cluster import ClusterConfig
from repro.distributed.sync_engine import SyncEngine
from repro.distributed.unified import UnifiedEngine
from repro.engine import MRAEvaluator, NaiveEvaluator, SemiNaiveEvaluator
from repro.engine.seminaive import UnsupportedProgramError
from repro.programs import PROGRAMS
from repro.runtime import (
    KernelUnavailableError,
    available_backends,
    get_kernel,
    resolve_backend_for_plan,
)

NEW_FAMILIES = ("why_reach", "path_count", "kpaths", "reach_prob")

#: programs whose ⊕ is idempotent run semi-naive too; additive ones are
#: rejected there by design (same as pagerank/dag_paths)
SEMINAIVE_OK = ("why_reach", "kpaths", "reach_prob")


def graph_for(name):
    return default_graph(name, seed=7)


def oracle_for(name, graph):
    if name == "why_reach":
        return reference.bfs_reachability(graph)
    if name == "path_count":
        return reference.dag_weighted_path_counts(graph)
    if name == "kpaths":
        return reference.k_shortest_path_lengths(graph)
    return reference.max_path_probability(graph)


def assert_matches_oracle(name, values, oracle):
    assert set(values) == set(oracle), name
    for key, expected in oracle.items():
        got = values[key]
        if isinstance(got, KTuple):
            assert tuple(got.values) == expected, (name, key, got, expected)
        else:
            assert got == pytest.approx(expected, abs=1e-12), (name, key)


class TestOracleAgreement:
    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_mra_matches_oracle(self, name):
        graph = graph_for(name)
        values = MRAEvaluator(PROGRAMS[name].plan(graph)).run().values
        assert_matches_oracle(name, values, oracle_for(name, graph))

    def test_why_reach_is_boolean(self):
        graph = graph_for("why_reach")
        values = MRAEvaluator(PROGRAMS["why_reach"].plan(graph)).run().values
        assert set(values.values()) == {1.0}

    def test_kpaths_tuples_are_sorted_distinct_and_bounded(self):
        graph = graph_for("kpaths")
        values = MRAEvaluator(PROGRAMS["kpaths"].plan(graph)).run().values
        for tup in values.values():
            assert isinstance(tup, KTuple)
            assert 1 <= len(tup.values) <= KTuple.k
            assert list(tup.values) == sorted(set(tup.values))

    def test_kpaths_first_component_is_sssp(self):
        # the k=1 projection of the k-tropical fixpoint IS the tropical one
        graph = graph_for("kpaths")
        kpaths = MRAEvaluator(PROGRAMS["kpaths"].plan(graph)).run().values
        sssp = reference.dijkstra_sssp(graph)
        assert set(kpaths) == set(sssp)
        for key, tup in kpaths.items():
            assert tup.values[0] == sssp[key]


class TestSingleNodeEngines:
    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_naive_matches_mra(self, name):
        spec = PROGRAMS[name]
        graph = graph_for(name)
        naive = NaiveEvaluator(spec.analysis(), spec.build_database(graph)).run()
        mra = MRAEvaluator(spec.plan(graph)).run()
        assert naive.values == mra.values

    @pytest.mark.parametrize("name", SEMINAIVE_OK)
    def test_seminaive_matches_mra(self, name):
        spec = PROGRAMS[name]
        graph = graph_for(name)
        semi = SemiNaiveEvaluator(spec.analysis(), spec.build_database(graph)).run()
        mra = MRAEvaluator(spec.plan(graph)).run()
        assert semi.values == mra.values

    def test_seminaive_rejects_additive_path_count(self):
        spec = PROGRAMS["path_count"]
        graph = graph_for("path_count")
        with pytest.raises(UnsupportedProgramError, match="monotonic"):
            SemiNaiveEvaluator(spec.analysis(), spec.build_database(graph))


class TestDistributedEngines:
    ENGINES = {
        "sync": SyncEngine,
        "async": AsyncEngine,
        "unified": UnifiedEngine,
        "aap": AAPEngine,
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_engine_matches_oracle_on_two_backends(self, name, engine):
        spec = PROGRAMS[name]
        graph = graph_for(name)
        oracle = oracle_for(name, graph)
        cluster = ClusterConfig(num_workers=4)
        results = {}
        for backend in ("python", "numpy"):
            plan = spec.plan(graph)
            results[backend] = self.ENGINES[engine](
                plan, cluster, backend=backend
            ).run()
            # the preference holds wherever the kernel can hold the
            # carrier; kpaths' KTuples resolve to python
            assert results[backend].backend == resolve_backend_for_plan(
                plan, backend
            )
            assert_matches_oracle(name, results[backend].values, oracle)
        # the two backends must agree bit for bit, counters included
        assert results["python"].values == results["numpy"].values
        assert (
            results["python"].counters.snapshot()
            == results["numpy"].counters.snapshot()
        )


class TestCarrierRefusal:
    """The float64 backend refuses the KTuple carrier instead of corrupting it."""

    def test_supports_plan_is_false_for_kpaths(self):
        plan = PROGRAMS["kpaths"].plan(graph_for("kpaths"))
        for backend in available_backends():
            supported = get_kernel(backend).supports_plan(plan)
            assert supported == (backend == "python"), backend

    def test_array_kernel_construction_raises(self):
        plan = PROGRAMS["kpaths"].plan(graph_for("kpaths"))
        with pytest.raises(KernelUnavailableError, match="min/max/sum"):
            get_kernel("numpy").from_plan(plan)
        # an ImportError, so `except ImportError` guards keep working
        assert issubclass(KernelUnavailableError, ImportError)

    def test_numeric_families_supported_everywhere(self):
        for name in ("why_reach", "path_count", "reach_prob"):
            plan = PROGRAMS[name].plan(graph_for(name))
            for backend in available_backends():
                assert get_kernel(backend).supports_plan(plan), (name, backend)


class TestCyclicInputCanonicalisation:
    """DAG builders + magnitude accounting survive cyclic/huge inputs.

    ``repro run dag_paths|path_count`` on the (cyclic) social datasets
    used to crash: the builders fed back-edges into a walk-counting
    fixpoint whose exact python-int counts then outgrew float64 inside
    the ``|ΔX| < eps`` magnitude conversion.  The builders now keep the
    forward sub-DAG (``src < dst``) and magnitudes saturate to inf.
    """

    def test_dag_builders_drop_back_edges(self):
        from repro.graphs import Graph
        from repro.programs import builders

        cyclic = Graph(4, [(0, 1), (1, 2), (2, 1), (3, 3), (2, 3)], name="cyc")
        db = builders.dag_db(cyclic)
        assert set(db.relation("edge")) == {(0, 1), (1, 2), (2, 3)}
        mdb = builders.multiplicity_dag_db(cyclic)
        assert {(s, d) for s, d, _ in mdb.relation("edge")} == {
            (0, 1),
            (1, 2),
            (2, 3),
        }

    def test_dag_builders_preserve_acyclic_fixtures(self):
        from repro.programs import builders

        graph = graph_for("path_count")
        assert all(src < dst for src, dst in graph.edges)
        rows = list(builders.multiplicity_dag_db(graph).relation("edge"))
        assert len(rows) == len(graph.edges)

    def test_magnitude_saturates_on_huge_int_carriers(self):
        from repro.aggregates import get_aggregate
        from repro.aggregates.semiring import COUNTING

        huge = 10**400  # far beyond float64's max of ~1.8e308
        assert COUNTING.value_magnitude(huge) == float("inf")
        assert get_aggregate("sum").delta_magnitude(huge) == float("inf")
        assert get_aggregate("count").change_magnitude(huge, None, huge) == float(
            "inf"
        )
