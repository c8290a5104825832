"""Distributed engines: correctness (Theorem 3), timing model, determinism."""


import pytest

from repro.distributed import (
    AAPEngine,
    AsyncEngine,
    ClusterConfig,
    SyncEngine,
    UnifiedEngine,
)
from repro.distributed.buffers import BufferPolicy
from repro.distributed.chaos_harness import default_graph
from repro.engine import MRAEvaluator
from repro.graphs import rmat
from repro.programs import PROGRAMS


@pytest.fixture(scope="module")
def graph():
    return rmat(80, 400, seed=21, name="dist-graph")


@pytest.fixture(scope="module")
def cluster():
    return ClusterConfig(num_workers=8)


def reference_values(program: str, graph):
    return MRAEvaluator(PROGRAMS[program].plan(graph)).run().values


def assert_same_values(values: dict, reference: dict, exact: bool):
    assert set(values) == set(reference)
    for key, expected in reference.items():
        if exact:
            assert values[key] == expected, key
        else:
            assert values[key] == pytest.approx(expected, abs=2e-3), key


ENGINE_BUILDERS = {
    "sync": lambda plan, cluster: SyncEngine(plan, cluster),
    "naive": lambda plan, cluster: SyncEngine(plan, cluster, mode="naive"),
    "async": lambda plan, cluster: AsyncEngine(plan, cluster),
    "async-eager": lambda plan, cluster: AsyncEngine(
        plan, cluster, batch_size=16,
        buffer_policy=BufferPolicy(initial_beta=8, adaptive=False),
    ),
    "unified": lambda plan, cluster: UnifiedEngine(plan, cluster),
    "aap": lambda plan, cluster: AAPEngine(plan, cluster),
}


class TestCorrectness:
    """All execution modes reach the same fixpoint (Theorem 3)."""

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_BUILDERS))
    @pytest.mark.parametrize("program", ["sssp", "cc"])
    def test_selective_programs_exact(self, engine_name, program, graph, cluster):
        plan = PROGRAMS[program].plan(graph)
        result = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        assert_same_values(result.values, reference_values(program, graph), exact=True)

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_BUILDERS))
    @pytest.mark.parametrize("program", ["pagerank", "katz"])
    def test_additive_programs_approx(self, engine_name, program, graph, cluster):
        plan = PROGRAMS[program].plan(graph)
        result = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        assert_same_values(result.values, reference_values(program, graph), exact=False)

    def test_single_worker_cluster(self, graph):
        plan = PROGRAMS["sssp"].plan(graph)
        result = SyncEngine(plan, ClusterConfig(num_workers=1)).run()
        assert_same_values(result.values, reference_values("sssp", graph), exact=True)

    def test_naive_mode_on_a_non_numeric_carrier(self, cluster):
        # kpaths' KTuple has no subtraction: naive mode measures each
        # change with the semiring's own distance
        plan = PROGRAMS["kpaths"].plan(default_graph("kpaths"))
        result = SyncEngine(plan, cluster, mode="naive").run()
        assert result.stop_reason == "fixpoint"
        assert result.values == MRAEvaluator(plan).run().values


class TestStopReasons:
    def test_fixpoint_for_min_programs(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        assert SyncEngine(plan, cluster).run().stop_reason == "fixpoint"
        assert AsyncEngine(plan, cluster).run().stop_reason == "fixpoint"

    def test_epsilon_for_limit_programs(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        assert SyncEngine(plan, cluster).run().stop_reason == "epsilon"
        assert AsyncEngine(plan, cluster).run().stop_reason == "epsilon"


class TestTimingModel:
    def test_simulated_time_positive(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = SyncEngine(plan, cluster).run()
        assert result.simulated_seconds > 0

    def test_naive_slower_than_incremental(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        naive = SyncEngine(plan, cluster, mode="naive").run()
        incremental = SyncEngine(plan, cluster).run()
        assert naive.simulated_seconds > incremental.simulated_seconds

    def test_naive_does_more_work(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        naive = SyncEngine(plan, cluster, mode="naive").run()
        incremental = SyncEngine(plan, cluster).run()
        assert (
            naive.counters.fprime_applications
            > incremental.counters.fprime_applications
        )

    def test_barriers_counted_per_superstep(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = SyncEngine(plan, cluster).run()
        assert result.counters.barriers == result.counters.iterations

    def test_async_has_no_barriers(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = AsyncEngine(plan, cluster).run()
        assert result.counters.barriers == 0

    def test_messages_counted(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = SyncEngine(plan, cluster).run()
        assert result.counters.messages > 0
        assert result.counters.message_tuples >= result.counters.messages

    def test_eager_async_sends_more_messages(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        eager = ENGINE_BUILDERS["async-eager"](plan, cluster).run()
        batched = UnifiedEngine(plan, cluster).run()
        assert eager.counters.messages > batched.counters.messages


class TestDeterminism:
    @pytest.mark.parametrize("engine_name", ["sync", "async", "unified", "aap"])
    def test_repeat_runs_identical(self, engine_name, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        first = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        second = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        assert first.values == second.values
        assert first.simulated_seconds == second.simulated_seconds
        assert first.counters.snapshot() == second.counters.snapshot()


class TestDeltaStepping:
    def test_correct_results(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = SyncEngine(plan, cluster, delta_stepping=True).run()
        assert_same_values(result.values, reference_values("sssp", graph), exact=True)

    def test_reduces_wasted_relaxations(self, cluster):
        heavy = rmat(120, 900, seed=33, name="heavy")
        plan = PROGRAMS["sssp"].plan(heavy)
        plain = SyncEngine(plan, cluster).run()
        stepped = SyncEngine(plan, cluster, delta_stepping=True).run()
        assert (
            stepped.counters.fprime_applications
            <= plain.counters.fprime_applications
        )

    def test_rejected_for_additive(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        with pytest.raises(ValueError, match="selective"):
            SyncEngine(plan, cluster, delta_stepping=True)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_refused_by_the_frontier_verdict(self, graph, cluster, backend):
        """kpaths is selective, but its top-k tuples have no float bucket
        priority: RA331, refused at construction instead of dying mid-run
        comparing a ``KTuple`` with a float."""
        plan = PROGRAMS["kpaths"].plan(graph)
        assert plan.aggregate.is_idempotent
        with pytest.raises(ValueError, match="RA331: .*non-numeric semiring carrier"):
            SyncEngine(plan, cluster, delta_stepping=True, backend=backend)


class TestImportanceThreshold:
    def test_threshold_reduces_work(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        plain = UnifiedEngine(plan, cluster, importance_threshold=0.0).run()
        thresholded = UnifiedEngine(plan, cluster).run()
        assert (
            thresholded.counters.fprime_applications
            <= plain.counters.fprime_applications
        )

    def test_threshold_keeps_results_within_epsilon(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        result = UnifiedEngine(plan, cluster).run()
        assert_same_values(result.values, reference_values("pagerank", graph), exact=False)


class TestMasterCheckRobustness:
    """Regression: with few workers, compute bursts are longer than the
    master's check interval; two checks observing the same snapshot must
    not fake epsilon convergence (the accumulation-progress gate)."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_epsilon_programs_correct_at_low_worker_counts(self, graph, workers):
        plan = PROGRAMS["pagerank"].plan(graph)
        reference = reference_values("pagerank", graph)
        cluster = ClusterConfig(num_workers=workers)
        result = UnifiedEngine(plan, cluster).run()
        assert_same_values(result.values, reference, exact=False)

    def test_scaling_reduces_simulated_time(self):
        from repro.graphs import load_dataset

        plan = PROGRAMS["pagerank"].plan(load_dataset("livej"))
        small = UnifiedEngine(plan, ClusterConfig(num_workers=2)).run()
        large = UnifiedEngine(plan, ClusterConfig(num_workers=16)).run()
        assert large.simulated_seconds < small.simulated_seconds


class TestInvalidConfig:
    def test_unknown_mode(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        with pytest.raises(ValueError, match="unknown mode"):
            SyncEngine(plan, cluster, mode="magic")

    def test_aap_has_no_importance_threshold(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        with pytest.raises(TypeError, match="importance_threshold"):
            AAPEngine(plan, cluster, importance_threshold=1e-4)


class TestRemainingBenchmarkedPrograms:
    """Adsorption and BP (pair keys) across every execution mode."""

    @pytest.mark.parametrize("engine_name", ["sync", "async", "unified", "aap"])
    def test_adsorption(self, engine_name, graph, cluster):
        plan = PROGRAMS["adsorption"].plan(graph)
        result = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        assert_same_values(
            result.values, reference_values("adsorption", graph), exact=False
        )

    @pytest.mark.parametrize("engine_name", ["sync", "async", "unified"])
    def test_bp_pair_keys(self, engine_name, cluster):
        small = rmat(30, 120, seed=44)
        plan = PROGRAMS["bp"].plan(small)
        result = ENGINE_BUILDERS[engine_name](plan, cluster).run()
        reference = reference_values("bp", small)
        assert_same_values(result.values, reference, exact=False)

    def test_apsp_pair_keys_sync(self, cluster):
        small = rmat(12, 36, seed=45)
        plan = PROGRAMS["apsp"].plan(small)
        result = ENGINE_BUILDERS["sync"](plan, cluster).run()
        assert_same_values(
            result.values, reference_values("apsp", small), exact=True
        )

    def test_deterministic_structure_grid(self, cluster):
        """A grid graph (fixed diameter) across sync and async."""
        from repro.graphs import grid_graph

        grid = grid_graph(6, 8)
        plan = PROGRAMS["sssp"].plan(grid)
        sync_result = ENGINE_BUILDERS["sync"](plan, cluster).run()
        async_result = ENGINE_BUILDERS["async"](plan, cluster).run()
        assert sync_result.values == async_result.values
        # BSP supersteps track the weighted-hop depth of the grid
        assert sync_result.counters.iterations >= 6 + 8 - 2
