"""Cross-backend equivalence: the array kernel == pure-Python kernel, bit for bit.

The vectorized backend (numpy) is not allowed to be "close": every
registry program it supports must reach the
*identical* fixpoint with *identical* work counters on every backend,
on the single-node MRA evaluator and on the distributed engines (where
the simulated clock must agree too, since ``BatchResult.ops`` prices
compute time).  Under a seeded fault schedule the recovery path must
also behave identically -- ``EvalResult.faults`` and all.

The property-based section drives the kernels over random graphs so
the equivalence claim does not quietly specialise to the fixture
graphs.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.distributed.async_engine import AsyncEngine
from repro.distributed.chaos_harness import default_graph, schedule_for
from repro.distributed.cluster import ClusterConfig
from repro.distributed.sync_engine import SyncEngine
from repro.aggregates import AggregateKind
from repro.engine import MRAEvaluator, NaiveEvaluator, SemiNaiveEvaluator
from repro.graphs import random_dag, rmat
from repro.programs import PROGRAMS
from repro.runtime import available_backends, get_kernel

ALL_PROGRAMS = sorted(PROGRAMS)

#: every available backend measured against the python reference
BACKENDS = [b for b in available_backends() if b != "python"]

#: engines exercised per program in the distributed sweep; naive mode
#: rides along on two programs (it routes whole-table sweeps, not deltas)
DISTRIBUTED_PROGRAMS = ("sssp", "cc", "pagerank", "katz", "viterbi", "dag_paths")

#: selective-aggregate programs run under sync delta-stepping too (the
#: array kernel's threshold takes must not change a single bit)
DELTA_STEP_PROGRAMS = ("sssp", "cc", "viterbi")


def _assert_identical(python_result, other_result, backend, *, clock: bool = True):
    assert other_result.backend == backend
    assert python_result.values == other_result.values
    assert python_result.stop_reason == other_result.stop_reason
    assert python_result.counters.snapshot() == other_result.counters.snapshot()
    if clock:
        assert python_result.simulated_seconds == other_result.simulated_seconds


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", ALL_PROGRAMS)
def test_mra_fixpoint_identical(program, backend):
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    if not get_kernel(backend).supports_plan(spec.plan(graph)):
        pytest.skip(f"{backend} backend refuses {program}'s semiring carrier")
    python_result = MRAEvaluator(spec.plan(graph), backend="python").run()
    other_result = MRAEvaluator(spec.plan(graph), backend=backend).run()
    _assert_identical(python_result, other_result, backend, clock=False)
    assert python_result.counters.iterations == other_result.counters.iterations


#: the relational evaluators on every program the array kernel holds;
#: semi-naive only where it is correct (selective aggregates)
RELATIONAL_CASES = [
    (evaluator, program)
    for program in ALL_PROGRAMS
    if get_kernel("numpy").supports_plan(PROGRAMS[program].analysis())
    for evaluator in (NaiveEvaluator, SemiNaiveEvaluator)
    if evaluator is NaiveEvaluator
    or PROGRAMS[program].analysis().aggregate.kind is AggregateKind.SELECTIVE
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "evaluator, program", RELATIONAL_CASES,
    ids=[f"{evaluator.engine_name}-{program}" for evaluator, program in RELATIONAL_CASES],
)
def test_relational_evaluators_identical(evaluator, program, backend):
    """Naive and semi-naive evaluation -- whose folds,
    ``aggregate_contributions`` and ``improve_contributions``, are no
    kernel's -- give the same value bits, value types and
    ``WorkCounters`` whatever backend is asked for."""
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)

    def run(name):
        result = evaluator(spec.analysis(), spec.build_database(graph), backend=name).run()
        values = {
            key: (type(value).__name__, float(value).hex())
            for key, value in result.values.items()
        }
        return values, result.counters.snapshot(), result.stop_reason

    assert run(backend) == run("python")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", DISTRIBUTED_PROGRAMS)
def test_sync_engine_identical(program, backend):
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    python_result = SyncEngine(spec.plan(graph), cluster, backend="python").run()
    other_result = SyncEngine(spec.plan(graph), cluster, backend=backend).run()
    _assert_identical(python_result, other_result, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ("mra", "sync"))
def test_two_body_plan_identical(engine, backend):
    """Program-2.b plans (several recursive bodies, no registry program
    has one) take the same packer and kernel paths as everything else."""
    from tests.test_array_kernel import two_body_plan

    def run(name):
        plan = two_body_plan()
        assert len(plan.edge_columns) == 2
        if engine == "mra":
            return MRAEvaluator(plan, backend=name).run()
        return SyncEngine(plan, ClusterConfig(num_workers=4), backend=name).run()

    python_result, other_result = run("python"), run(backend)
    assert python_result.counters.fprime_applications > 0
    _assert_identical(python_result, other_result, backend, clock=engine == "sync")
    # ``==`` would let 1 pass for 1.0: same bits, same types
    assert {k: repr(v) for k, v in python_result.values.items()} == {
        k: repr(v) for k, v in other_result.values.items()
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", DELTA_STEP_PROGRAMS)
def test_sync_delta_stepping_identical(program, backend):
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    python_result = SyncEngine(
        spec.plan(graph), cluster, delta_stepping=True, backend="python"
    ).run()
    other_result = SyncEngine(
        spec.plan(graph), cluster, delta_stepping=True, backend=backend
    ).run()
    _assert_identical(python_result, other_result, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", DISTRIBUTED_PROGRAMS)
def test_async_engine_identical(program, backend):
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    python_result = AsyncEngine(spec.plan(graph), cluster, backend="python").run()
    other_result = AsyncEngine(spec.plan(graph), cluster, backend=backend).run()
    _assert_identical(python_result, other_result, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", ("sssp", "pagerank"))
def test_naive_mode_identical(program, backend):
    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    python_result = SyncEngine(
        spec.plan(graph), cluster, mode="naive", backend="python"
    ).run()
    other_result = SyncEngine(
        spec.plan(graph), cluster, mode="naive", backend=backend
    ).run()
    _assert_identical(python_result, other_result, backend)


@pytest.mark.chaos
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", ("sssp", "pagerank", "dag_paths"))
@pytest.mark.parametrize("engine_cls", (SyncEngine, AsyncEngine))
def test_chaos_recovery_identical(program, engine_cls, backend, tmp_path):
    """Same seeded fault schedule => same crashes, replays and fixpoint."""
    from repro.distributed.fault import Checkpointer

    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    reference = engine_cls(spec.plan(graph), cluster, backend="python").run()
    schedule = schedule_for(reference.simulated_seconds, 4, seed=11)
    chaotic_cluster = cluster.with_faults(schedule)

    results = {}
    for leg in ("python", backend):
        kwargs = dict(
            backend=leg,
            checkpointer=Checkpointer(tmp_path / leg),
            run_name=f"chaos-{leg}",
        )
        if engine_cls is SyncEngine:
            kwargs["checkpoint_every"] = 4
        results[leg] = engine_cls(
            spec.plan(graph), chaotic_cluster, **kwargs
        ).run()

    python_result, other_result = results["python"], results[backend]
    _assert_identical(python_result, other_result, backend)
    assert python_result.faults is not None
    assert python_result.faults.snapshot() == other_result.faults.snapshot()
    # the schedule really fired -- the equality above is not vacuous
    assert sum(python_result.faults.snapshot().values()) > 0


def _adaptive_engines():
    from repro.distributed import AAPEngine, UnifiedEngine

    # small fixed buffers for AAP: its default 256 never fills on a
    # 60-vertex shard, and the mid-batch flush is the path to compare
    return {
        "unified": lambda plan, cluster, **kw: UnifiedEngine(plan, cluster, **kw),
        "aap": lambda plan, cluster, **kw: AAPEngine(
            plan, cluster, fixed_buffer_size=8.0, stream_batch=16, **kw
        ),
    }


def _assert_same_run(python_leg, other_leg, backend):
    """Results, fault accounting and the obs stream, event for event:
    every flush (order, size, instant, reason) and beta adaptation."""
    (python_result, python_obs), (other_result, other_obs) = python_leg, other_leg
    _assert_identical(python_result, other_result, backend)
    assert python_result.trace == other_result.trace
    python_faults = python_result.faults and python_result.faults.snapshot()
    assert python_faults == (other_result.faults and other_result.faults.snapshot())
    python_events, other_events = python_obs.trace.events, other_obs.trace.events
    assert len(python_events) == len(other_events)
    for position, (mine, theirs) in enumerate(zip(python_events, other_events)):
        assert mine == theirs, position
        # a numpy scalar that leaked into an event would still compare equal
        assert [type(v) for v in mine.values()] == [type(v) for v in theirs.values()]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ("unified", "aap"))
@pytest.mark.parametrize("program", DISTRIBUTED_PROGRAMS)
def test_adaptive_engines_identical(program, engine, backend):
    """The paper's engine (adaptive beta(i,j), importance deferral) and
    AAP (dynamic batch limits) take the columnar local mode, send side
    and inbox on the array kernel and the pair forms on the python one;
    nothing observable may tell them apart."""
    from repro.obs import Observability

    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    legs = {}
    for leg in ("python", backend):
        obs = Observability()
        build = _adaptive_engines()[engine]
        legs[leg] = (build(spec.plan(graph), cluster, backend=leg, obs=obs).run(), obs)
    _assert_same_run(legs["python"], legs[backend], backend)
    flushes = legs["python"][1].trace.of_kind("buffer.flush")
    assert flushes and legs["python"][0].counters.messages == len(flushes)


@pytest.mark.chaos
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ("unified", "aap"))
@pytest.mark.parametrize("program", ("sssp", "pagerank", "dag_paths"))
def test_adaptive_engines_chaos_identical(program, engine, backend, tmp_path):
    """Same seeded crash + drop + duplicate schedule: rollback (sum) and
    restart replay (min) with payloads parked in inboxes, retransmit
    queues and snapshots leave the same trace on both kernels."""
    from repro.distributed.fault import Checkpointer
    from repro.obs import Observability

    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    build = _adaptive_engines()[engine]
    reference = build(spec.plan(graph), cluster, backend="python").run()
    schedule = schedule_for(reference.simulated_seconds, 4, seed=11)
    legs = {}
    for leg in ("python", backend):
        obs = Observability()
        legs[leg] = (
            build(
                spec.plan(graph),
                cluster.with_faults(schedule),
                backend=leg,
                obs=obs,
                checkpointer=Checkpointer(tmp_path / leg),
                run_name="chaos",  # it is in the trace: one name, two dirs
            ).run(),
            obs,
        )
    _assert_same_run(legs["python"], legs[backend], backend)
    assert sum(legs["python"][0].faults.snapshot().values()) > 0


@pytest.mark.chaos
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "program,recovery", (("pagerank", "rollbacks"), ("sssp", "replayed_tuples"))
)
def test_sync_chaos_payloads_identical_and_immutable(
    program, recovery, backend, tmp_path, monkeypatch
):
    """Heavy drops + duplicates + one crash on the BSP exchange: the
    columnar payloads take every chaos branch (parked for retransmission,
    deduplicated, delivered twice, snapshotted and rolled back) and the
    run stays bit-identical to the python kernel's.  Every payload a
    round produced must also still read the same when the run ends: one
    that aliased a reused kernel buffer would have changed while parked.
    """
    from repro.distributed.fault import Checkpointer

    spec = PROGRAMS[program]
    graph = default_graph(program, seed=7)
    cluster = ClusterConfig(num_workers=4)
    reference = SyncEngine(spec.plan(graph), cluster, backend="python").run()
    schedule = schedule_for(
        reference.simulated_seconds, 4, seed=11,
        drop_rate=0.15, duplicate_rate=0.1,
    )

    def decode(kernel_cls, plan, payload) -> dict:
        # a payload is opaque: read it the way a receiver would
        blank = kernel_cls.from_plan(plan, initial={})
        blank.push_many(payload)
        return blank.intermediate

    results = {}
    for leg in ("python", backend):
        plan = spec.plan(graph)
        kernel_cls = get_kernel(leg)
        cluster_round = kernel_cls.cluster_round
        produced = []

        def recording(shards, owners, parts, deltas=None, plan=plan):
            results, sends = cluster_round(shards, owners, parts, deltas)
            for payload in sends.values():
                produced.append((payload, decode(kernel_cls, plan, payload)))
            return results, sends

        monkeypatch.setattr(kernel_cls, "cluster_round", staticmethod(recording))
        results[leg] = SyncEngine(
            plan,
            cluster.with_faults(schedule),
            backend=leg,
            checkpointer=Checkpointer(tmp_path / leg),
            checkpoint_every=4,
            run_name=f"payloads-{leg}",
        ).run()
        monkeypatch.undo()
        assert produced
        for payload, first_read in produced:
            assert decode(kernel_cls, plan, payload) == first_read

    python_result, other_result = results["python"], results[backend]
    _assert_identical(python_result, other_result, backend)
    faults = python_result.faults.snapshot()
    assert faults == other_result.faults.snapshot()
    for fired in ("crashes", "retransmits", "duplicates_absorbed", recovery):
        assert faults[fired] > 0, fired


# -- property-based sweep ------------------------------------------------------

#: vertex-domain programs safe on arbitrary digraphs (cyclic included)
CYCLIC_SAFE = ("sssp", "cc", "pagerank", "katz", "adsorption", "lca")
#: programs requiring acyclic inputs (path counting diverges on cycles)
DAG_ONLY = ("dag_paths", "cost", "viterbi")


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    program=st.sampled_from(CYCLIC_SAFE),
    num_vertices=st.integers(min_value=8, max_value=90),
    density=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_random_graphs_mra(program, num_vertices, density, seed, backend):
    graph = rmat(num_vertices, num_vertices * density, seed=seed, name="hyp")
    spec = PROGRAMS[program]
    python_result = MRAEvaluator(spec.plan(graph), backend="python").run()
    other_result = MRAEvaluator(spec.plan(graph), backend=backend).run()
    _assert_identical(python_result, other_result, backend, clock=False)


@settings(max_examples=8, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    program=st.sampled_from(DAG_ONLY),
    num_vertices=st.integers(min_value=8, max_value=70),
    density=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_random_dags_mra(program, num_vertices, density, seed, backend):
    graph = random_dag(num_vertices, num_vertices * density, seed=seed, name="hyp-dag")
    spec = PROGRAMS[program]
    python_result = MRAEvaluator(spec.plan(graph), backend="python").run()
    other_result = MRAEvaluator(spec.plan(graph), backend=backend).run()
    _assert_identical(python_result, other_result, backend, clock=False)


@settings(max_examples=6, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    program=st.sampled_from(("sssp", "pagerank")),
    num_vertices=st.integers(min_value=8, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.integers(min_value=1, max_value=6),
)
def test_property_random_graphs_distributed(program, num_vertices, seed, workers, backend):
    graph = rmat(num_vertices, num_vertices * 4, seed=seed, name="hyp-dist")
    spec = PROGRAMS[program]
    cluster = ClusterConfig(num_workers=workers)
    python_result = SyncEngine(spec.plan(graph), cluster, backend="python").run()
    other_result = SyncEngine(spec.plan(graph), cluster, backend=backend).run()
    _assert_identical(python_result, other_result, backend)


@settings(max_examples=6, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    program=st.sampled_from(("sssp", "cc")),
    num_vertices=st.integers(min_value=8, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    width=st.floats(min_value=0.5, max_value=40.0),
)
def test_property_delta_stepping_buckets(program, num_vertices, seed, width, backend):
    """Threshold takes agree with the reference for arbitrary widths."""
    graph = rmat(num_vertices, num_vertices * 3, seed=seed, name="hyp-bucket")
    spec = PROGRAMS[program]
    cluster = ClusterConfig(num_workers=3)
    python_result = SyncEngine(
        spec.plan(graph), cluster, delta_stepping=True, delta_width=width,
        backend="python",
    ).run()
    other_result = SyncEngine(
        spec.plan(graph), cluster, delta_stepping=True, delta_width=width,
        backend=backend,
    ).run()
    _assert_identical(python_result, other_result, backend)
