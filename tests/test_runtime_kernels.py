"""The vertex-runtime layer: kernel contract, registry and accounting.

Covers the pieces the engines now build on: backend resolution
(argument > ``REPRO_BACKEND`` > default), the MonoTable protocol and
inner loop on every registered backend, snapshot/restore, which
operations the engines reach on the array kernel, and the unified
work-counter semantics (``combines``/``updates``/``fprime_applications``
counted inside the kernel, never by the engines).  What is particular to the array kernel
lives in ``test_array_kernel``.
"""

import inspect

import pytest

from repro.distributed import ClusterConfig
from repro.distributed.sync_engine import SyncEngine
from repro.engine import MRAEvaluator, WorkCounters
from repro.engine.rules import aggregate_contributions
from repro.engine.seminaive import improve_contributions
from repro.graphs.graph import Graph
from repro.obs import Observability
from repro.programs import PROGRAMS
from repro.runtime import (
    BACKEND_ENV_VAR,
    KERNELS,
    Kernel,
    available_backends,
    get_kernel,
    resolve_backend,
)

BACKENDS = available_backends()


def _deterministic_graph(num_vertices: int = 40) -> Graph:
    """A fixed digraph, independent of the generators' RNG streams."""
    edges = []
    for i in range(num_vertices):
        for stride in (1, 7, 13):
            edges.append((i, (i * 3 + stride) % num_vertices))
    weights = [1.0 + ((src * 31 + dst * 17) % 9) for src, dst in edges]
    return Graph(
        num_vertices=num_vertices, edges=edges, weights=weights, name="fixed"
    )


@pytest.fixture
def plan():
    return PROGRAMS["sssp"].plan(_deterministic_graph())


@pytest.fixture(params=BACKENDS)
def kernel_cls(request):
    return get_kernel(request.param)


class TestBackendResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "python"

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None) == "numpy"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_engines_resolve_env_backend(self, plan, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert MRAEvaluator(plan).backend == "python"

    def test_plan_resolution_degrades_nonnumeric_carrier(self, monkeypatch):
        from repro.runtime import resolve_backend_for_plan

        kplan = PROGRAMS["kpaths"].plan(_deterministic_graph())
        # a float64 array cannot hold KTuple values: every preference
        # resolves to the python kernel instead of crashing the run
        for preference in BACKENDS:
            assert resolve_backend_for_plan(kplan, preference) == "python"
            monkeypatch.setenv(BACKEND_ENV_VAR, preference)
            assert resolve_backend_for_plan(kplan, None) == "python"
            assert MRAEvaluator(kplan).backend == "python"


class TestKernelContract:
    """Every registered backend honours the MonoTable protocol."""

    def test_from_plan_seeds_initial_state(self, kernel_cls, plan):
        kernel = kernel_cls.from_plan(plan)
        assert kernel.result() == dict(plan.initial)
        assert not kernel.has_pending()

    def test_push_combines_pending(self, kernel_cls, plan):
        kernel = kernel_cls.from_plan(plan)
        kernel.push(3, 5.0)
        kernel.push(3, 2.0)  # min aggregate: 2.0 wins
        assert kernel.pending_count() == 1
        assert kernel.fetch_and_reset(3) == 2.0
        assert kernel.fetch_and_reset(3) is None

    def test_step_reaches_the_reference_fixpoint(self, kernel_cls, plan):
        kernel = kernel_cls.from_plan(plan)
        from repro.engine.mra import compute_initial_delta

        kernel.push_many(compute_initial_delta(plan).items())
        for _ in range(10_000):
            if not kernel.step().changed and not kernel.has_pending():
                break
        reference = MRAEvaluator(plan, backend="python").run()
        assert kernel.result() == reference.values

    def test_snapshot_restore_roundtrip(self, kernel_cls, plan):
        kernel = kernel_cls.from_plan(plan)
        kernel.push(1, 4.0)
        kernel.accumulate(2, 9.0)
        snap = kernel.snapshot()
        restored = kernel_cls.from_plan(plan, initial={})
        restored.restore(snap)
        assert restored.result() == kernel.result()
        assert restored.intermediate == kernel.intermediate
        # the snapshot is a copy, not a view
        kernel.push(1, 1.0)
        assert restored.fetch_and_reset(1) == 4.0

    def test_state_dicts_hold_plain_floats(self, kernel_cls, plan):
        """The Checkpointer JSON boundary: accumulated/intermediate must
        expose builtin floats, never backend scalar types."""
        import json

        kernel = kernel_cls.from_plan(plan)
        kernel.push(1, 4.5)
        kernel.accumulate(2, 9.0)
        json.dumps({"acc": kernel.accumulated, "pend": kernel.intermediate})


class TestUnifiedCounters:
    """combines/updates/F' are counted inside the kernel, once."""

    def test_single_worker_sync_matches_mra_work(self, plan):
        """One BSP worker performs exactly the MRA reference's g/F' work."""
        mra = MRAEvaluator(plan).run()
        sync = SyncEngine(plan, ClusterConfig(num_workers=1)).run()
        for field in ("combines", "updates", "fprime_applications"):
            assert getattr(sync.counters, field) == getattr(mra.counters, field)

    def test_aggregate_contributions_counts_combines(self):
        """The naive evaluator's fold."""
        aggregate = PROGRAMS["sssp"].analysis().aggregate
        counters = WorkCounters()
        folded = aggregate_contributions(
            aggregate, [(1, 5.0), (1, 3.0), (2, 7.0)], counters
        )
        assert folded == {1: 3.0, 2: 7.0}
        # 3 contributions over 2 keys -> exactly 1 combine
        assert counters.combines == 1

    def test_improve_contributions_counts_combines(self):
        """The semi-naive filter+fold: one combine per contribution
        tested against a held value, one per fold that improves."""
        aggregate = PROGRAMS["sssp"].analysis().aggregate
        counters = WorkCounters()
        changed = improve_contributions(
            aggregate, {1: 4.0}, [(1, 5.0), (1, 3.0), (2, 7.0), (2, 6.0)], counters
        )
        assert changed == {1: 3.0, 2: 6.0}
        # key 1: two tests, one improving fold; key 2: one fold
        assert counters.combines == 4

    def test_accumulate_counts_updates(self, kernel_cls, plan):
        kernel = kernel_cls.from_plan(plan, initial={})
        changed, _ = kernel.accumulate(1, 5.0)
        assert changed and kernel.counters.updates == 1
        changed, _ = kernel.accumulate(1, 7.0)  # min: no improvement
        assert not changed and kernel.counters.updates == 1
        changed, _ = kernel.accumulate(1, 2.0)
        assert changed and kernel.counters.updates == 2

    def test_counter_snapshots_identical_across_backends(self, plan):
        if len(BACKENDS) < 2:
            pytest.skip("only one backend installed")
        runs = {b: MRAEvaluator(plan, backend=b).run() for b in BACKENDS}
        snapshots = {b: r.counters.snapshot() for b, r in runs.items()}
        reference = snapshots[BACKENDS[0]]
        assert all(snap == reference for snap in snapshots.values())


class TestBackendObservability:
    def test_result_records_backend(self, plan):
        result = MRAEvaluator(plan, backend="python").run()
        assert result.backend == "python"
        assert result.engine == "mra"

    def test_metrics_record_backend_runs(self, plan):
        obs = Observability()
        MRAEvaluator(plan, obs=obs, backend="python").run()
        counters = obs.metrics.snapshot()["counters"]
        matching = {
            key: value
            for key, value in counters.items()
            if key.startswith("runtime.backend_runs")
        }
        assert matching
        (key,) = matching
        assert "backend=python" in key and "engine=mra" in key
        assert matching[key] == 1


class TestContractCalls:
    """The array kernel implements the contract's loops, not its
    per-shard operations: no engine reaches ``apply_batch``,
    ``select_pending`` or ``split_out`` on it (the base class's split of
    ``ΔX¹`` is called on ``Kernel`` itself)."""

    PER_SHARD = ("apply_batch", "select_pending", "split_out")

    def test_no_engine_calls_a_per_shard_operation(self, monkeypatch):
        from repro.delta import GraphDelta, IncrementalEngine
        from repro.distributed import ENGINES
        from repro.distributed.chaos_harness import default_graph
        from repro.runtime.numpy_kernel import NumpyKernel

        calls = dict.fromkeys(self.PER_SHARD, 0)
        for name in self.PER_SHARD:
            raw = inspect.getattr_static(NumpyKernel, name)
            bound = isinstance(raw, classmethod)

            def counted(*args, _name=name, _fn=raw.__func__ if bound else raw, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(NumpyKernel, name, classmethod(counted) if bound else counted)

        for program in ("sssp", "pagerank"):
            plan = PROGRAMS[program].plan(default_graph(program, seed=7))
            cluster = ClusterConfig(num_workers=4)
            runs = [build(plan, cluster, backend="numpy") for build in ENGINES.values()]
            runs.append(SyncEngine(plan, cluster, delta_stepping=program == "sssp", backend="numpy"))
            runs.append(MRAEvaluator(plan, backend="numpy"))
            for engine in runs:
                assert engine.run().backend == "numpy"
        engine = IncrementalEngine("sssp", _deterministic_graph(), backend="numpy")
        engine.bootstrap()
        assert engine.apply(GraphDelta(delete_edges=((0, 1),))).strategy == "rederive"
        assert calls == dict.fromkeys(self.PER_SHARD, 0)

    @pytest.mark.parametrize("backend", ("python", "numpy", "sparse"))
    def test_the_benchmark_wrapped_names_resolve(self, backend):
        """The traced end-to-end benchmark wraps these on each kernel
        class; the array kernel holds some only by inheritance."""
        for name in ("from_plan", "apply_batch", "push", "push_many", "drain_all"):
            inspect.getattr_static(KERNELS[backend], name)


def test_base_kernel_is_abstract(plan):
    kernel = Kernel()
    with pytest.raises(NotImplementedError):
        kernel.push(0, 1.0)
