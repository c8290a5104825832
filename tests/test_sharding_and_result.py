"""ShardedRun scaffolding and result/counter bookkeeping."""

import pytest

from repro.aggregates.semiring import KTuple
from repro.distributed import Checkpointer, ClusterConfig
from repro.distributed.sharding import ShardedRun
from repro.engine import EvalResult, WorkCounters
from repro.graphs import rmat
from repro.programs import PROGRAMS


@pytest.fixture
def state():
    plan = PROGRAMS["sssp"].plan(rmat(40, 160, seed=3))
    return ShardedRun(plan, ClusterConfig(num_workers=4))


class TestShardedRun:
    def test_every_key_owned_exactly_once(self, state):
        seen = set()
        for worker, keys in enumerate(state.shard_keys):
            assert seen.isdisjoint(keys)
            seen.update(keys)
            for key in keys:
                assert state.owner[key] == worker
        assert seen == set(state.plan.keys)

    def test_seed_initial_delta_lands_on_owners(self, state):
        state.seed_initial_delta()
        for worker, shard in enumerate(state.shards):
            for key in shard.intermediate:
                assert state.owner[key] == worker
        assert state.total_pending() > 0

    def test_merged_values_unions_shards(self, state):
        probes = {}
        for worker, shard in enumerate(state.shards):
            key = min(state.shard_keys[worker])
            shard.accumulated = {key: float(worker + 1)}
            probes[key] = float(worker + 1)
        merged = state.merged_values()
        for key, value in probes.items():
            assert merged[key] == value

    def test_global_accumulation_sums_magnitudes(self, state):
        for shard in state.shards:
            shard.accumulated = {}
        state.shards[0].accumulated = {min(state.shard_keys[0]): 3}
        state.shards[1].accumulated = {min(state.shard_keys[1]): -4}
        assert state.global_accumulation() == 7.0

    def test_global_accumulation_of_a_non_numeric_carrier(self):
        # kpaths' KTuple has no float(); its magnitude is the semiring's
        kpaths = ShardedRun(
            PROGRAMS["kpaths"].plan(rmat(20, 60, seed=3)), ClusterConfig(num_workers=2)
        )
        aggregate = kpaths.plan.aggregate
        values = [aggregate.identity.merge(KTuple((1.0, 4.0))), KTuple((2.0,))]
        for shard, value in zip(kpaths.shards, values):
            shard.accumulated = {min(kpaths.plan.keys): value}
        assert kpaths.global_accumulation() == sum(map(aggregate.delta_magnitude, values))

    def test_checkpoint_roundtrip(self, state, tmp_path):
        state.seed_initial_delta()
        checkpointer = Checkpointer(tmp_path)
        state.checkpoint(checkpointer, "run")

        fresh = ShardedRun(state.plan, state.cluster)
        assert fresh.restore(checkpointer, "run")
        for original, restored in zip(state.shards, fresh.shards):
            assert original.accumulated == restored.accumulated
            assert original.intermediate == restored.intermediate

    def test_restore_missing_returns_false(self, state, tmp_path):
        assert not state.restore(Checkpointer(tmp_path), "never")


class TestWorkCounters:
    def test_snapshot_roundtrip(self):
        counters = WorkCounters(updates=4, barriers=2)
        snapshot = counters.snapshot()
        assert snapshot["updates"] == 4 and snapshot["barriers"] == 2
        assert len(snapshot) == 9


class TestEvalResult:
    def test_value_accessor(self):
        result = EvalResult(values={1: 10}, stop_reason="fixpoint")
        assert result.value(1) == 10
        assert result.value(99) is None
        assert len(result) == 1

    def test_repr_with_and_without_simulated_time(self):
        bare = EvalResult(values={}, stop_reason="fixpoint", engine="e")
        assert "simulated" not in repr(bare)
        timed = EvalResult(
            values={}, stop_reason="epsilon", simulated_seconds=1.5, engine="e"
        )
        assert "simulated=1.500s" in repr(timed)
