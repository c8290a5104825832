"""Checkpointing and recovery of kernel state (paper Figure 6).

Every engine checkpoints its shards' kernels, so these tests checkpoint
kernels: the python kernel throughout, and the array kernel wherever a
case is a round trip through the disk format.
"""

import functools
import os

import pytest

from repro.aggregates.semiring import KTuple
from repro.distributed import Checkpointer, CheckpointMismatchError
from repro.distributed.chaos_harness import default_graph
from repro.engine import MRAEvaluator
from repro.graphs import rmat
from repro.programs import PROGRAMS
from repro.runtime import available_backends, get_kernel, resolve_backend_for_plan


@functools.cache
def _plan(program):
    return PROGRAMS[program].plan(default_graph(program, seed=7))


def _table(program, initial, backend="python"):
    """A kernel of ``program``'s plan holding ``initial`` (``pagerank``:
    sum over vertices, ``sssp``: min over vertices, ``apsp``: min over
    pairs, ``kpaths``: top-k tuples, which resolve to the python kernel
    whatever the preference, as in a run)."""
    plan = _plan(program)
    kernel_cls = get_kernel(resolve_backend_for_plan(plan, backend))
    return kernel_cls.from_plan(plan, initial=initial)


class TestRoundTrip:
    backend = "python"

    def test_save_and_restore(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        table = _table("pagerank", {1: 10.5, 2: -3}, self.backend)
        table.push(1, 2.5)
        checkpointer.save_shard("run", 0, table)

        restored = _table("pagerank", {}, self.backend)
        checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == table.accumulated
        assert restored.intermediate == table.intermediate

    def test_tuple_keys_roundtrip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        table = _table("apsp", {(0, 3): 4, (1, 2): 7}, self.backend)
        checkpointer.save_shard("pairs", 2, table)
        restored = _table("apsp", {}, self.backend)
        checkpointer.restore_shard("pairs", 2, restored)
        assert restored.accumulated == {(0, 3): 4, (1, 2): 7}

    def test_ktuple_values_roundtrip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        table = _table("kpaths", {0: KTuple((0.0,)), 3: KTuple((2.0, 5.5))}, self.backend)
        table.push(3, KTuple((1.0,)))
        checkpointer.save_shard("kpaths", 0, table)
        restored = _table("kpaths", {}, self.backend)
        assert checkpointer.restore_shard("kpaths", 0, restored)
        assert restored.accumulated == table.accumulated
        assert restored.intermediate == table.intermediate
        assert type(restored.accumulated[3]) is KTuple

    def test_aggregate_mismatch_rejected(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.save_shard("run", 0, _table("pagerank", {1: 1}, self.backend))
        with pytest.raises(ValueError, match="does not match"):
            checkpointer.restore_shard("run", 0, _table("sssp", {}, self.backend))

    def test_has_checkpoint(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        assert not checkpointer.has_checkpoint("run", 0)
        checkpointer.save_shard("run", 0, _table("pagerank", {}, self.backend))
        assert checkpointer.has_checkpoint("run", 0)


class TestRoundTripNumpy(TestRoundTrip):
    """The same round trips through the array kernel's columns."""

    backend = "numpy"


class TestRobustOnDiskFormat:
    """Atomic writes, corruption tolerance, run-compatibility metadata."""

    def test_save_leaves_no_temp_file(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 1}))
        assert os.path.exists(path)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_save_overwrites_atomically(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.save_shard("run", 0, _table("pagerank", {1: 1.0}))
        checkpointer.save_shard("run", 0, _table("pagerank", {1: 2.0}))
        restored = _table("pagerank", {})
        assert checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == {1: 2.0}

    def test_corrupt_checkpoint_warns_and_reports_missing(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 1}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "accum')  # torn write
        with pytest.warns(RuntimeWarning, match="unreadable"):
            ok = checkpointer.restore_shard("run", 0, _table("pagerank", {}))
        assert not ok

    def test_payload_missing_columns_warns(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 1}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "aggregate": "sum"}')  # valid JSON, wrong shape
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert not checkpointer.restore_shard(
                "run", 0, _table("pagerank", {})
            )

    def test_missing_checkpoint_is_silent(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not checkpointer.restore_shard(
                "never", 0, _table("pagerank", {})
            )

    def test_metadata_mismatch_fails_loudly(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        meta = {"program": "sssp", "num_workers": 4}
        checkpointer.save_shard("run", 0, _table("sssp", {1: 1}), meta=meta)
        # same metadata restores fine
        assert checkpointer.restore_shard(
            "run", 0, _table("sssp", {}), expect_meta=meta
        )
        # a different worker count is a different run
        with pytest.raises(CheckpointMismatchError, match="num_workers"):
            checkpointer.restore_shard(
                "run",
                0,
                _table("sssp", {}),
                expect_meta={"program": "sssp", "num_workers": 8},
            )
        # so is a different program
        with pytest.raises(CheckpointMismatchError, match="program"):
            checkpointer.restore_shard(
                "run",
                0,
                _table("sssp", {}),
                expect_meta={"program": "cc", "num_workers": 4},
            )

    def test_shard_id_mismatch_fails_loudly(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("sssp", {1: 1}))
        os.replace(path, checkpointer._path("run", 3))
        with pytest.raises(CheckpointMismatchError, match="shard"):
            checkpointer.restore_shard("run", 3, _table("sssp", {}))


class TestRecoveryReachesFixpoint:
    """Restoring mid-run state and continuing reaches the same fixpoint."""

    def test_sssp_resume(self, tmp_path):
        graph = rmat(50, 200, seed=41)
        plan = PROGRAMS["sssp"].plan(graph)
        expected = MRAEvaluator(plan).run().values

        for backend in available_backends():
            # run a few rounds, checkpoint, "crash", restore, finish
            kernel_cls = get_kernel(backend)
            table = kernel_cls.from_plan(plan)
            table.push_many(kernel_cls.initial_delta(plan).items())
            for _ in range(2):
                table.step()

            checkpointer = Checkpointer(tmp_path / backend)
            checkpointer.save_shard("sssp", 0, table)

            recovered = kernel_cls.from_plan(plan, initial={})
            assert checkpointer.restore_shard("sssp", 0, recovered)
            while recovered.has_pending():
                recovered.step()
            assert recovered.result() == expected, backend


def _flip_accumulated_value(path):
    """Corrupt one aggregate in place without touching the checksum."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    key = next(iter(payload["accumulated"]))
    payload["accumulated"][key] = (payload["accumulated"][key] or 0) + 1000.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


class TestChecksumCorruption:
    """Schema-3 payloads are checksummed; bit flips fail loudly but
    recoverably (CheckpointCorruptionError is a CheckpointMismatchError,
    and the engines degrade it to reseed-and-replay)."""

    def test_bit_flip_raises_corruption_error(self, tmp_path):
        from repro.distributed import CheckpointCorruptionError

        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 10.5}))
        _flip_accumulated_value(path)
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            checkpointer.restore_shard("run", 0, _table("pagerank", {}))

    def test_corruption_error_is_a_mismatch_error(self):
        from repro.distributed import CheckpointCorruptionError

        assert issubclass(CheckpointCorruptionError, CheckpointMismatchError)

    def test_truncated_shard_degrades_to_missing(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 1.0}))
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(20)  # torn write survives as invalid JSON
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert not checkpointer.restore_shard("run", 0, _table("pagerank", {}))

    def test_legacy_payload_without_checksum_still_restores(self, tmp_path):
        import json

        checkpointer = Checkpointer(tmp_path)
        path = checkpointer._path("run", 0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": 2,
                    "aggregate": "sum",
                    "shard_id": 0,
                    "meta": {},
                    "accumulated": {"1": 4.0},
                    "intermediate": {},
                },
                handle,
            )
        restored = _table("pagerank", {})
        assert checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == {1: 4.0}

    def test_restore_guard_distinguishes_corruption_from_mismatch(self, tmp_path):
        from repro.distributed.fault import restore_guarding_corruption

        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, _table("pagerank", {1: 1.0}))
        _flip_accumulated_value(path)
        with pytest.warns(RuntimeWarning, match="reseed-and-replay"):
            assert not restore_guarding_corruption(
                lambda: checkpointer.restore_shard("run", 0, _table("pagerank", {})),
                what="test restore",
            )
        # a genuine run mismatch must keep propagating through the guard
        checkpointer.save_shard("other", 0, _table("pagerank", {1: 1.0}))
        with pytest.raises(CheckpointMismatchError):
            restore_guarding_corruption(
                lambda: checkpointer.restore_shard(
                    "other", 0, _table("sssp", {})
                ),
                what="test restore",
            )


class TestEngineSurvivesCorruption:
    """A corrupt shard on disk must not crash a resuming engine: the run
    falls back to reseed-and-replay and still reaches the fixpoint."""

    def test_sync_engine_falls_back_to_replay(self, tmp_path):
        from repro.distributed import ClusterConfig, SyncEngine

        graph = rmat(40, 160, seed=11)
        plan = PROGRAMS["sssp"].plan(graph)
        cluster = ClusterConfig(num_workers=4)
        expected = SyncEngine(plan, cluster).run().values

        checkpointer = Checkpointer(tmp_path)
        first = SyncEngine(
            PROGRAMS["sssp"].plan(graph),
            cluster,
            checkpointer=checkpointer,
            checkpoint_every=2,
            run_name="corrupt-me",
        ).run()
        assert first.values == expected
        assert checkpointer.has_checkpoint("corrupt-me", 1)

        _flip_accumulated_value(checkpointer._path("corrupt-me", 1))
        with pytest.warns(RuntimeWarning, match="reseed-and-replay"):
            resumed = SyncEngine(
                PROGRAMS["sssp"].plan(graph),
                cluster,
                checkpointer=checkpointer,
                checkpoint_every=2,
                run_name="corrupt-me",
            ).run()
        assert resumed.values == expected

    def test_async_engine_falls_back_to_replay(self, tmp_path):
        from repro.distributed import AsyncEngine, ClusterConfig

        graph = rmat(40, 160, seed=11)
        plan = PROGRAMS["sssp"].plan(graph)
        cluster = ClusterConfig(num_workers=4)
        expected = AsyncEngine(plan, cluster).run().values

        checkpointer = Checkpointer(tmp_path)
        AsyncEngine(
            PROGRAMS["sssp"].plan(graph),
            cluster,
            checkpointer=checkpointer,
            checkpoint_interval=1e-4,
            run_name="corrupt-async",
        ).run()
        assert checkpointer.has_checkpoint("corrupt-async", 0)

        _flip_accumulated_value(checkpointer._path("corrupt-async", 0))
        with pytest.warns(RuntimeWarning, match="reseed-and-replay"):
            resumed = AsyncEngine(
                PROGRAMS["sssp"].plan(graph),
                cluster,
                checkpointer=checkpointer,
                run_name="corrupt-async",
            ).run()
        assert resumed.values == expected
