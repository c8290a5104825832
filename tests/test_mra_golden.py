"""Golden single-node runs: ``MRAEvaluator`` is pinned across commits.

``tests/test_kernel_equivalence.py`` compares the two kernels *at one
commit*, so it cannot see a change both share -- ``ΔX¹`` pushed twice,
a combine counted at another moment, a round visited in another order.
Every such change moves something this file digests: each registry
program on ``default_graph`` (seed 7), and the dense-frontier
(``pagerank``, ``katz``, ``adsorption``) and sparse-frontier (``sssp``,
``cc``) programs on ``load_dataset("livej", 0.25)``, so that both of the
array kernel's frontier paths run; each on both kernels.  A digest
covers the values by ``float.hex`` in result order, the
``WorkCounters``, the stop reason, the termination trace and the obs
event stream (``tests.test_async_golden._digest``).

Tier-1 checks every case (about 1 s); ``make golden-drift`` recomputes
them and fails on any difference.  Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_mra_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.distributed.chaos_harness import default_graph
from repro.engine.mra import MRAEvaluator
from repro.graphs import load_dataset
from repro.obs import Observability
from repro.programs import PROGRAMS
from tests.test_async_golden import _digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "mra_runs.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

BACKENDS = ("python", "numpy")
#: the realistic graph: large enough that the frontier of the first
#: programs stays dense and that of the last two collapses
DATASET = ("livej", 0.25)
DATASET_PROGRAMS = ("pagerank", "katz", "adsorption", "sssp", "cc")
CASES = [
    (program, "default", backend) for program in sorted(PROGRAMS) for backend in BACKENDS
] + [(program, "livej", backend) for program in DATASET_PROGRAMS for backend in BACKENDS]


def case_id(program, graph, backend) -> str:
    if graph == "default":
        return f"{program}@7/{backend}"
    return f"{program}@{DATASET[0]}-{DATASET[1]}/{backend}"


def run_digest(program, graph, backend) -> dict:
    data = default_graph(program, seed=7) if graph == "default" else load_dataset(*DATASET)
    obs = Observability()
    result = MRAEvaluator(PROGRAMS[program].plan(data), obs=obs, backend=backend).run()
    return _digest(result, obs)


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN or not GOLDEN_PATH.exists():
        snapshot = {case_id(*case): run_digest(*case) for case in CASES}
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)
    assert all(entry["stop"] in ("fixpoint", "epsilon") for entry in golden.values())


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_id(*case))
def test_mra_run_matches_golden(golden, case):
    assert run_digest(*case) == golden[case_id(*case)], (
        f"{case_id(*case)} drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )
