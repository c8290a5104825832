"""Golden asynchronous runs: the async engines are pinned across commits.

``tests/test_kernel_equivalence.py`` compares the two kernels *at one
commit*, so it cannot see a change both share -- a different flush
order, a fold that rounds differently, a combine counted at another
moment.  Every such change moves something this file digests: each
registry program on ``default_graph`` seeds 7 and 11, on
``AsyncEngine`` (fixed ``beta``), ``UnifiedEngine`` (adaptive
``beta(i,j)``) and ``AAPEngine``, on 4 and 7 workers, sweeping whole
shards (``batch_size=None``) and five keys per event, on both kernels;
the fixed buffers are sized far below the defaults (:data:`FIXED_BETA`)
because a 60-vertex shard never fills a 64-update buffer and the
mid-batch ``reason="full"`` flush is the path worth pinning;
plus one crash + drop + duplicate leg with a ``Checkpointer`` per
program, engine and kernel; plus a 16-worker slice (:data:`W16_CASES`,
``ClusterConfig()``'s and the benchmark's size, where the engines'
lookahead windows hold the most workers).  A digest covers the values by
``float.hex`` in result order, the ``WorkCounters``, the simulated
clock, the stop reason, the ``FaultStats``, the termination trace and
the **whole obs event stream** -- every ``buffer.flush`` with its
order, size and instant, every ``buffer.beta`` adaptation.

Tier-1 checks the :data:`TIER1` slice; ``make golden-drift`` recomputes
every case and fails on any difference.  Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_async_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis.asynccert import AsyncIneligibleError
from repro.distributed import (
    AAPEngine,
    AsyncEngine,
    BufferPolicy,
    ClusterConfig,
    UnifiedEngine,
)
from repro.distributed.chaos_harness import default_graph, schedule_for
from repro.distributed.fault import Checkpointer
from repro.obs import Observability
from repro.programs import PROGRAMS

GOLDEN_PATH = Path(__file__).parent / "golden" / "async_runs.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

ENGINES = {"async": AsyncEngine, "unified": UnifiedEngine, "aap": AAPEngine}
#: fixed buffer sizes small enough to fill several times inside one batch
FIXED_BETA = {"async": 6.0, "aap": 12.0}
BACKENDS = ("python", "numpy")
CASES = [
    (program, seed, engine, workers, batch, backend)
    for program in sorted(PROGRAMS)
    for seed in (7, 11)
    for engine in ENGINES
    for workers in (4, 7)
    for batch in (None, 5)
    for backend in BACKENDS
]
#: the default cluster's 16 workers, seed 7: a dense (pagerank) and two
#: sparse-frontier programs
W16_CASES = [
    (program, 7, engine, 16, batch, backend)
    for program in ("cc", "pagerank", "sssp")
    for engine in ENGINES
    for batch in (None, 5)
    for backend in BACKENDS
]
CASES += W16_CASES
CHAOS_CASES = [
    (program, engine, backend)
    for program in sorted(PROGRAMS)
    for engine in ENGINES
    for backend in BACKENDS
]
#: the slice tier-1 recomputes: every program, engine and kernel once,
#: small batches where mid-batch flushes and in-batch edges are densest
TIER1 = [
    case
    for case in CASES
    if case[1] == 7 and case[3] == 4 and (case[4] is None or case[0] in ("pagerank", "sssp"))
] + [case for case in W16_CASES if case[4] is None and case[0] in ("pagerank", "sssp")]
TIER1_CHAOS = [case for case in CHAOS_CASES if case[0] in ("pagerank", "sssp", "dag_paths")]


def case_id(program, seed, engine, workers, batch, backend) -> str:
    return f"{program}@{seed}/{engine}/w{workers}/b{batch}/{backend}"


def chaos_id(program, engine, backend) -> str:
    return f"{program}@7/{engine}/w4/chaos/{backend}"


def _canon(value) -> str:
    """``value`` with its exact type and, for floats, its exact bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(map(_canon, value)) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}={_canon(v)}" for k, v in value.items()) + "}"
    return f"{type(value).__name__}:{value!r}"


def _build(program, seed, engine, workers, batch, backend, faults=None, **extra):
    plan = PROGRAMS[program].plan(default_graph(program, seed=seed))
    cluster = ClusterConfig(num_workers=workers)
    if faults is not None:
        cluster = cluster.with_faults(faults)
    kwargs = dict(backend=backend, **extra)
    if engine == "aap":
        kwargs["fixed_buffer_size"] = FIXED_BETA["aap"]
        if batch is not None:
            kwargs["stream_batch"] = batch
    else:
        kwargs["batch_size"] = batch
        if engine == "async":
            kwargs["buffer_policy"] = BufferPolicy(
                initial_beta=FIXED_BETA["async"], adaptive=False
            )
    return ENGINES[engine](plan, cluster, **kwargs)


def _digest(result, obs) -> dict:
    lines = [
        "backend " + result.backend,
        "stop " + result.stop_reason,
        "clock " + _canon(result.simulated_seconds),
        "counters " + json.dumps(result.counters.snapshot(), sort_keys=True),
        "faults " + _canon(result.faults.snapshot() if result.faults else None),
        "trace " + _canon(result.trace),
        "values " + _canon(list(result.values.items())),
    ]
    lines.extend("event " + _canon(event) for event in obs.trace.events)
    counters = result.counters
    return {
        "stop": result.stop_reason,
        "fprime": counters.fprime_applications,
        "combines": counters.combines,
        "messages": counters.messages,
        "events": len(obs.trace.events),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def run_digest(program, seed, engine, workers, batch, backend) -> dict:
    obs = Observability()
    try:
        built = _build(program, seed, engine, workers, batch, backend, obs=obs)
    except AsyncIneligibleError:
        return {"refused": "AsyncIneligibleError"}
    return _digest(built.run(), obs)


def chaos_digest(program, engine, backend, tmp_path) -> dict:
    try:
        reference = _build(program, 7, engine, 4, None, backend).run()
    except AsyncIneligibleError:
        return {"refused": "AsyncIneligibleError"}
    schedule = schedule_for(reference.simulated_seconds, 4, seed=11)
    obs = Observability()
    chaotic = _build(
        program, 7, engine, 4, None, backend,
        faults=schedule,
        checkpointer=Checkpointer(tmp_path / f"{program}-{engine}-{backend}"),
        run_name="golden-chaos",
        obs=obs,
    )
    return _digest(chaotic.run(), obs)


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> dict:
    if REGEN or not GOLDEN_PATH.exists():
        tmp_path = tmp_path_factory.mktemp("golden-chaos")
        snapshot = {case_id(*case): run_digest(*case) for case in CASES}
        for case in CHAOS_CASES:
            snapshot[chaos_id(*case)] = chaos_digest(*case, tmp_path)
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    expected = [case_id(*case) for case in CASES]
    expected += [chaos_id(*case) for case in CHAOS_CASES]
    assert sorted(golden) == sorted(expected)
    # the file pins work, not refusals: most programs run on every engine
    assert sum("sha256" in entry for entry in golden.values()) > len(golden) * 0.8


@pytest.mark.parametrize("case", TIER1, ids=lambda case: case_id(*case))
def test_async_run_matches_golden(golden, case):
    assert run_digest(*case) == golden[case_id(*case)], (
        f"{case_id(*case)} drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.chaos
@pytest.mark.parametrize("case", TIER1_CHAOS, ids=lambda case: chaos_id(*case))
def test_chaotic_run_matches_golden(golden, case, tmp_path):
    assert chaos_digest(*case, tmp_path) == golden[chaos_id(*case)], (
        f"{chaos_id(*case)} drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )
