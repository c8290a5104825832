"""Oracle-backed equivalence: incremental repair == from-scratch evaluation.

The correctness contract of ``repro.delta`` is *exactness*: after any
sequence of graph deltas, the maintained fixpoint must be bit-identical
to what a cold :class:`~repro.engine.MRAEvaluator` run computes on the
mutated graph -- not close, identical.  The suite drives that oracle
comparison three ways:

* a deterministic sweep over every RA32x-eligible registry program, on
  every registered kernel backend, through seeded insert-only and mixed
  insert/delete delta streams;
* hypothesis property tests that randomise the base graph and the delta
  stream, so the claim does not quietly specialise to the fixtures;
* a work-counter assertion (via ``repro.obs``, never wall-clock) that
  insert-only repairs genuinely do less work than recomputation -- the
  whole point of the subsystem.

Scope: ``sssp``/``cc``/``viterbi`` are selective (min/max) programs and
bit-stable by construction; ``dag_paths`` is additive but folds
integers, so it is bit-stable too.  Float-additive ``cost`` is covered
by the unit suite (strategy selection), not by bit-exact properties.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.delta import IncrementalEngine, random_delta
from repro.engine import MRAEvaluator
from repro.graphs import random_dag, rmat
from repro.obs import Observability
from repro.programs import PROGRAMS
from repro.runtime import available_backends

#: selective-aggregate programs: deletions re-derive (RA320)
SELECTIVE = ("sssp", "cc", "viterbi")
#: integer-additive programs: insert-only fast path (RA321)
ADDITIVE = ("dag_paths",)
ELIGIBLE = SELECTIVE + ADDITIVE

#: every registered backend (python, numpy): the repair paths must be
#: exact on both
BACKENDS = tuple(available_backends())

#: programs compiled over DAGs must stay acyclic under inserts
ACYCLIC = ("viterbi", "dag_paths", "cost")


def base_graph(program: str, seed: int = 7):
    if program in ACYCLIC:
        return random_dag(40, 120, seed=seed)
    return rmat(48, 180, seed=seed)


def oracle(program: str, graph, backend: str) -> dict:
    """The ground truth: a cold evaluation on the mutated graph."""
    plan = PROGRAMS[program].plan(graph)
    return MRAEvaluator(plan, backend=backend).run().values


def delta_stream(program: str, graph, seed: int, steps: int, deletes: bool):
    """Seeded per-step deltas sized relative to the current graph."""
    stream = []
    for step in range(steps):
        inserts = max(1, graph.num_edges // 20)
        removals = max(1, graph.num_edges // 30) if deletes else 0
        delta = random_delta(
            graph,
            seed=seed * 101 + step,
            insert_edges=inserts,
            delete_edges=removals,
            acyclic=program in ACYCLIC,
        )
        stream.append(delta)
        graph = delta.apply_to(graph)
    return stream


# -- deterministic sweep ------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", ELIGIBLE)
def test_insert_stream_matches_oracle(program, backend):
    graph = base_graph(program)
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    for delta in delta_stream(program, graph, seed=3, steps=4, deletes=False):
        repair = engine.apply(delta)
        # inserts never force a full recompute on an eligible program
        assert repair.strategy in ("frontier", "rederive")
        assert engine.values == oracle(program, engine.view.graph, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", ELIGIBLE)
def test_mixed_stream_matches_oracle(program, backend):
    graph = base_graph(program)
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    for delta in delta_stream(program, graph, seed=11, steps=4, deletes=True):
        engine.apply(delta)
        assert engine.values == oracle(program, engine.view.graph, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", SELECTIVE)
def test_weight_updates_match_oracle(program, backend):
    graph = base_graph(program)
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    for step in range(3):
        delta = random_delta(
            engine.view.graph, seed=23 + step, update_weights=4
        )
        engine.apply(delta)
        assert engine.values == oracle(program, engine.view.graph, backend)


@pytest.mark.parametrize("program", ("sssp", "dag_paths"))
def test_backends_agree_after_repairs(program):
    graph = base_graph(program)
    engines = {
        backend: IncrementalEngine(program, base_graph(program), backend=backend)
        for backend in BACKENDS
    }
    for engine in engines.values():
        engine.bootstrap()
    for delta in delta_stream(program, graph, seed=5, steps=3, deletes=True):
        results = {
            backend: engine.apply(delta)
            for backend, engine in engines.items()
        }
        reference = results["python"]
        for backend, repair in results.items():
            assert repair.strategy == reference.strategy, backend
            assert engines[backend].values == engines["python"].values


# -- hypothesis properties ----------------------------------------------------

_PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_PROPERTY_SETTINGS
@given(
    graph_seed=st.integers(min_value=0, max_value=10**6),
    delta_seed=st.integers(min_value=0, max_value=10**6),
    steps=st.integers(min_value=1, max_value=3),
    program=st.sampled_from(ELIGIBLE),
)
def test_property_insert_only_repair_is_exact(
    graph_seed, delta_seed, steps, program
):
    graph = base_graph(program, seed=graph_seed)
    engine = IncrementalEngine(program, graph)
    engine.bootstrap()
    for delta in delta_stream(
        program, graph, seed=delta_seed, steps=steps, deletes=False
    ):
        engine.apply(delta)
    assert engine.values == oracle(program, engine.view.graph, "python")


@_PROPERTY_SETTINGS
@given(
    graph_seed=st.integers(min_value=0, max_value=10**6),
    delta_seed=st.integers(min_value=0, max_value=10**6),
    program=st.sampled_from(SELECTIVE),
)
def test_property_deletion_rederive_is_exact(graph_seed, delta_seed, program):
    graph = base_graph(program, seed=graph_seed)
    engine = IncrementalEngine(program, graph)
    engine.bootstrap()
    delta = random_delta(
        engine.view.graph,
        seed=delta_seed,
        delete_edges=max(1, engine.view.graph.num_edges // 25),
        acyclic=program in ACYCLIC,
    )
    engine.apply(delta)
    assert engine.values == oracle(program, engine.view.graph, "python")


@_PROPERTY_SETTINGS
@given(
    graph_seed=st.integers(min_value=0, max_value=10**6),
    delta_seed=st.integers(min_value=0, max_value=10**6),
    program=st.sampled_from(ELIGIBLE),
    backend=st.sampled_from([b for b in BACKENDS if b != "python"] or ["python"]),
)
def test_property_vectorized_backends_are_exact(
    graph_seed, delta_seed, program, backend
):
    graph = base_graph(program, seed=graph_seed)
    engine = IncrementalEngine(program, graph, backend=backend)
    engine.bootstrap()
    delta = random_delta(
        graph,
        seed=delta_seed,
        insert_edges=max(1, graph.num_edges // 20),
        acyclic=program in ACYCLIC,
    )
    engine.apply(delta)
    assert engine.values == oracle(program, engine.view.graph, backend)


# -- work accounting (the acceptance criterion) -------------------------------


@pytest.mark.parametrize("program", ("sssp", "cc"))
def test_insert_repair_does_less_work_than_recompute(program):
    """Insert-only repairs must beat recompute on ``work.*`` counters
    (measured through ``repro.obs``, never wall-clock)."""
    graph = base_graph(program)
    delta = random_delta(graph, seed=3, insert_edges=max(1, graph.num_edges // 100))

    inc_obs = Observability()
    engine = IncrementalEngine(program, graph, obs=inc_obs)
    engine.bootstrap()
    repair = engine.apply(delta)
    assert repair.strategy == "frontier"

    scratch_obs = Observability()
    plan = PROGRAMS[program].plan(engine.view.graph)
    MRAEvaluator(plan, obs=scratch_obs).run()

    for counter in ("work.fprime_applications", "work.combines"):
        repaired = inc_obs.metrics.counter_value(counter, engine="incremental")
        recomputed = scratch_obs.metrics.counter_value(counter, engine="mra")
        assert recomputed > 0
        # "measurably less": at most half the from-scratch work
        assert repaired <= recomputed / 2, (
            f"{counter}: repair did {repaired}, recompute did {recomputed}"
        )


def test_repair_metrics_and_trace_surface_in_obs():
    obs = Observability()
    graph = base_graph("sssp")
    engine = IncrementalEngine("sssp", graph, obs=obs)
    engine.bootstrap()
    delta = random_delta(graph, seed=9, insert_edges=4)
    engine.apply(delta)

    metrics = obs.metrics
    assert metrics.counter_value(
        "delta.repairs", strategy="frontier", program="sssp"
    ) == 1
    assert metrics.counter_total("delta.plan_edges_added") > 0
    assert metrics.counter_total("delta.frontier_seeds") > 0
    assert metrics.counter_value(
        "work.updates", engine="incremental"
    ) == metrics.counter_total("work.updates") - metrics.counter_value(
        "work.updates", engine="mra"
    )
    events = [e for e in obs.trace.events if e["kind"] == "delta.repair"]
    assert len(events) == 1
    assert events[0]["strategy"] == "frontier"
    assert events[0]["stop"] == "fixpoint"


def test_deletion_on_additive_program_recomputes_but_stays_exact():
    # dag_paths is RA321: deletions are outside the certified strategies,
    # so the engine falls back to recompute -- and must still be exact
    graph = base_graph("dag_paths")
    engine = IncrementalEngine("dag_paths", graph)
    engine.bootstrap()
    delta = random_delta(graph, seed=13, delete_edges=3, acyclic=True)
    repair = engine.apply(delta)
    assert repair.strategy == "recompute"
    assert engine.values == oracle("dag_paths", engine.view.graph, "python")
