"""Golden compiled plans: ``compile_plan`` output is pinned across commits.

The in-process oracles compare the matcher against a reference matcher,
so they cannot see a change both share: the order a relation is filled
in, ``Database.copy``, how the key set is built.  That order is
observable -- it is the plan's edge order, hence the layout of
``plan.keys``, ``ShardedRun.owner`` and every simulated statistic -- so
each registry program's plan on ``default_graph`` seeds 7 and 11 is
digested here: every edge column with its container and element types,
``list(plan.keys)``, the item order of ``initial`` and ``constants``,
and the compile-time ``WorkCounters``.

Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_plan_golden.py
"""

import hashlib
import json
import os
from array import array
from pathlib import Path

import pytest

from repro.distributed.chaos_harness import default_graph
from repro.engine.plan import compile_plan
from repro.engine.result import WorkCounters
from repro.programs import PROGRAMS

GOLDEN_PATH = Path(__file__).parent / "golden" / "plans.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
SEEDS = (7, 11)
CASES = [(name, seed) for name in sorted(PROGRAMS) for seed in SEEDS]


def _typed(value) -> str:
    """``value`` with its exact type, so ``4`` and ``4.0`` digest apart."""
    if isinstance(value, tuple):
        return "(" + ",".join(map(_typed, value)) + ")"
    return f"{type(value).__name__}:{value!r}"


def _column(column) -> str:
    container = type(column).__name__
    if isinstance(column, array):
        container += ":" + column.typecode
    return container + "[" + ",".join(map(_typed, column)) + "]"


def plan_digest(name: str, seed: int) -> dict:
    spec = PROGRAMS[name]
    counters = WorkCounters()
    plan = compile_plan(
        spec.analysis(),
        spec.build_database(default_graph(name, seed=seed)),
        counters=counters,
    )
    lines = []
    for body, columns in enumerate(plan.edge_columns):
        lines.append(f"body {body} srcs {_column(columns.srcs)}")
        lines.append(f"body {body} dsts {_column(columns.dsts)}")
        for position, col in enumerate(columns.param_cols):
            lines.append(f"body {body} param {position} {_column(col)}")
    lines.append("keys " + ",".join(map(_typed, plan.keys)))
    lines.append("initial " + ",".join(map(_typed, plan.initial.items())))
    lines.append("constants " + ",".join(map(_typed, plan.constants.items())))
    lines.append("counters " + json.dumps(counters.snapshot(), sort_keys=True))
    return {
        "edges": plan.num_edges,
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN or not GOLDEN_PATH.exists():
        snapshot = {
            f"{name}@{seed}": plan_digest(name, seed) for name, seed in CASES
        }
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(f"{name}@{seed}" for name, seed in CASES)


@pytest.mark.parametrize("name,seed", CASES)
def test_compiled_plan_matches_golden(golden, name, seed):
    assert plan_digest(name, seed) == golden[f"{name}@{seed}"], (
        f"compiled plan for {name} (seed {seed}) drifted from {GOLDEN_PATH}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )
