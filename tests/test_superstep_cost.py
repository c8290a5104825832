"""A BSP superstep's host cost does not grow with the number of workers.

Wall clock is kept out of the suite (determinism), so this guard is
structural: on the array kernel a superstep is one
``NumpyKernel.cluster_round`` and one ``cluster_ingest`` over the stacked
shards, seeding is one more ingest, and no per-shard ``apply_batch`` or
``push_many`` runs at all -- a loop of those per worker is what made a
16-worker solve cost 2.8x a 1-worker one.
"""

from collections import Counter

import pytest

from repro.distributed import ClusterConfig, SyncEngine
from repro.distributed.chaos_harness import default_graph
from repro.programs import PROGRAMS
from repro.runtime.numpy_kernel import NumpyKernel


def _counting(monkeypatch, calls: Counter) -> None:
    for name in ("apply_batch", "push_many", "cluster_round", "cluster_ingest"):
        original = getattr(NumpyKernel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(NumpyKernel, name, counted)


@pytest.mark.parametrize(
    "program,options", (("pagerank", {}), ("sssp", {"delta_stepping": True}))
)
def test_a_superstep_is_one_cluster_call_whatever_the_workers(
    program, options, monkeypatch
):
    calls: Counter = Counter()
    _counting(monkeypatch, calls)
    plan = PROGRAMS[program].plan(default_graph(program, seed=7))
    seen = {}
    for workers in (1, 4, 16):
        calls.clear()
        result = SyncEngine(
            plan, ClusterConfig(num_workers=workers), backend="numpy", **options
        ).run()
        assert result.backend == "numpy"
        assert calls["apply_batch"] == calls["push_many"] == 0
        supersteps = result.counters.iterations
        assert calls["cluster_round"] == supersteps
        assert calls["cluster_ingest"] == supersteps + 1  # + the seeding
        seen[workers] = dict(calls)
    assert seen[1] == seen[4] == seen[16]
