"""Golden synchronous runs: the BSP engine is pinned across commits.

The companion of ``tests/test_async_golden.py`` for :class:`SyncEngine`:
each registry program on ``default_graph`` seeds 7 and 11, on 4 and 7
workers, on both kernels, in ``mode="incremental"`` and
``mode="naive"``, plus ``delta_stepping=True`` on the programs the
frontier analysis certifies for it (RA330); plus one crash + drop +
duplicate leg with a ``Checkpointer`` per program and kernel
(:data:`CHAOS`: rates high enough that every leg drops, retransmits and
absorbs duplicates, and a crash late enough that the selective programs
restore a checkpointed shard before their replay; the additive ones
roll back to a barrier snapshot).

A digest covers the values by ``float.hex`` in result order, the
``WorkCounters``, the simulated clock, the stop reason, the
``FaultStats``, the termination trace and the **whole obs event
stream** -- every superstep, retransmit, backoff, checkpoint write and
restore with its instant.

Tier-1 checks the :data:`TIER1` slice and every chaos leg; ``make golden-drift`` recomputes
every case and fails on any difference.  Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_sync_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.frontier import classify_frontier
from repro.distributed import ClusterConfig, SyncEngine
from repro.distributed.chaos_harness import default_graph, schedule_for
from repro.distributed.fault import Checkpointer
from repro.obs import Observability
from repro.programs import PROGRAMS
from tests.test_async_golden import _digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "sync_runs.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

BACKENDS = ("python", "numpy")
#: programs whose RA330 verdict admits delta-stepping
DELTA_STEPPING = tuple(
    program
    for program in sorted(PROGRAMS)
    if classify_frontier(PROGRAMS[program].analysis()).delta_stepping
)
CASES = [
    (program, seed, mode, workers, backend)
    for program in sorted(PROGRAMS)
    for seed in (7, 11)
    for mode in ("incremental", "naive", "delta-step")
    if mode != "delta-step" or program in DELTA_STEPPING
    for workers in (4, 7)
    for backend in BACKENDS
]
CHAOS_CASES = [(program, backend) for program in sorted(PROGRAMS) for backend in BACKENDS]
#: the slice tier-1 recomputes: every program and kernel once per mode,
#: and every delta-stepping case (all 56 take about 0.2 s)
TIER1 = [
    case for case in CASES
    if case[2] == "delta-step" or (case[1] == 7 and case[3] == 4)
]
#: the chaos leg's schedule knobs (:func:`schedule_for`) and cadence
CHAOS = dict(crash_fractions=(0.6,), drop_rate=0.1, duplicate_rate=0.1)
CHAOS_CHECKPOINT_EVERY = 2


def case_id(program, seed, mode, workers, backend) -> str:
    return f"{program}@{seed}/{mode}/w{workers}/{backend}"


def chaos_id(program, backend) -> str:
    return f"{program}@7/incremental/w4/chaos/{backend}"


def _build(program, seed, mode, workers, backend, faults=None, **extra):
    plan = PROGRAMS[program].plan(default_graph(program, seed=seed))
    cluster = ClusterConfig(num_workers=workers)
    if faults is not None:
        cluster = cluster.with_faults(faults)
    if mode == "delta-step":
        extra["delta_stepping"] = True
    else:
        extra["mode"] = mode
    return SyncEngine(plan, cluster, backend=backend, **extra)


def run_digest(program, seed, mode, workers, backend) -> dict:
    obs = Observability()
    engine = _build(program, seed, mode, workers, backend, obs=obs)
    return _digest(engine.run(), obs)


def chaos_digest(program, backend, tmp_path) -> dict:
    reference = _build(program, 7, "incremental", 4, backend).run()
    schedule = schedule_for(reference.simulated_seconds, 4, seed=11, **CHAOS)
    obs = Observability()
    chaotic = _build(
        program, 7, "incremental", 4, backend,
        faults=schedule,
        checkpointer=Checkpointer(tmp_path / f"{program}-{backend}"),
        checkpoint_every=CHAOS_CHECKPOINT_EVERY,
        run_name="golden-chaos",
        obs=obs,
    )
    return _digest(chaotic.run(), obs)


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> dict:
    if REGEN or not GOLDEN_PATH.exists():
        tmp_path = tmp_path_factory.mktemp("golden-sync-chaos")
        snapshot = {case_id(*case): run_digest(*case) for case in CASES}
        for case in CHAOS_CASES:
            snapshot[chaos_id(*case)] = chaos_digest(*case, tmp_path)
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    expected = [case_id(*case) for case in CASES]
    expected += [chaos_id(*case) for case in CHAOS_CASES]
    assert sorted(golden) == sorted(expected)
    # every chaos leg recovered and converged
    chaos = [golden[chaos_id(*case)] for case in CHAOS_CASES]
    assert all(entry["stop"] in ("fixpoint", "epsilon") for entry in chaos)


@pytest.mark.parametrize("case", TIER1, ids=lambda case: case_id(*case))
def test_sync_run_matches_golden(golden, case):
    assert run_digest(*case) == golden[case_id(*case)], (
        f"{case_id(*case)} drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )


#: every chaos leg is in tier-1: together they pin the whole
#: retransmit / dedup / checkpoint / recovery protocol (about 1 s)
@pytest.mark.chaos
@pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda case: chaos_id(*case))
def test_chaotic_sync_run_matches_golden(golden, case, tmp_path):
    assert chaos_digest(*case, tmp_path) == golden[chaos_id(*case)], (
        f"{chaos_id(*case)} drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )
