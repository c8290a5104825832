"""Checkpointing and recovery of MonoTable state."""

import os

import pytest

from repro.aggregates import MIN, SUM
from repro.aggregates.semiring import KTuple
from repro.distributed import Checkpointer, CheckpointMismatchError
from repro.engine import MonoTable, MRAEvaluator
from repro.engine.monotable import MonoTable as MonoTableClass
from repro.engine.mra import compute_initial_delta
from repro.graphs import rmat
from repro.programs import PROGRAMS


class TestRoundTrip:
    def test_save_and_restore(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        table = MonoTable(SUM, initial={1: 10.5, 2: -3})
        table.push(1, 2.5)
        checkpointer.save_shard("run", 0, table)

        restored = MonoTable(SUM, initial={})
        checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == table.accumulated
        assert restored.intermediate == table.intermediate

    def test_tuple_keys_roundtrip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        table = MonoTable(MIN, initial={(0, 3): 4, (1, 2): 7})
        checkpointer.save_shard("pairs", 2, table)
        restored = MonoTable(MIN, initial={})
        checkpointer.restore_shard("pairs", 2, restored)
        assert restored.accumulated == {(0, 3): 4, (1, 2): 7}

    def test_ktuple_values_roundtrip(self, tmp_path):
        topk = PROGRAMS["kpaths"].analysis().aggregate
        checkpointer = Checkpointer(tmp_path)
        table = MonoTable(topk, initial={0: KTuple((0.0,)), 3: KTuple((2.0, 5.5))})
        table.push(3, KTuple((1.0,)))
        checkpointer.save_shard("kpaths", 0, table)
        restored = MonoTable(topk, initial={})
        assert checkpointer.restore_shard("kpaths", 0, restored)
        assert restored.accumulated == table.accumulated
        assert restored.intermediate == table.intermediate
        assert type(restored.accumulated[3]) is KTuple

    def test_aggregate_mismatch_rejected(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1}))
        with pytest.raises(ValueError, match="does not match"):
            checkpointer.restore_shard("run", 0, MonoTable(MIN, initial={}))

    def test_has_checkpoint(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        assert not checkpointer.has_checkpoint("run", 0)
        checkpointer.save_shard("run", 0, MonoTable(SUM, initial={}))
        assert checkpointer.has_checkpoint("run", 0)


class TestRobustOnDiskFormat:
    """Atomic writes, corruption tolerance, run-compatibility metadata."""

    def test_save_leaves_no_temp_file(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1}))
        assert os.path.exists(path)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_save_overwrites_atomically(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1.0}))
        checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 2.0}))
        restored = MonoTable(SUM, initial={})
        assert checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == {1: 2.0}

    def test_corrupt_checkpoint_warns_and_reports_missing(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "accum')  # torn write
        with pytest.warns(RuntimeWarning, match="unreadable"):
            ok = checkpointer.restore_shard("run", 0, MonoTable(SUM, initial={}))
        assert not ok

    def test_payload_missing_columns_warns(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1}))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "aggregate": "sum"}')  # valid JSON, wrong shape
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert not checkpointer.restore_shard(
                "run", 0, MonoTable(SUM, initial={})
            )

    def test_missing_checkpoint_is_silent(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not checkpointer.restore_shard(
                "never", 0, MonoTable(SUM, initial={})
            )

    def test_metadata_mismatch_fails_loudly(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        meta = {"program": "sssp", "num_workers": 4}
        checkpointer.save_shard("run", 0, MonoTable(MIN, initial={1: 1}), meta=meta)
        # same metadata restores fine
        assert checkpointer.restore_shard(
            "run", 0, MonoTable(MIN, initial={}), expect_meta=meta
        )
        # a different worker count is a different run
        with pytest.raises(CheckpointMismatchError, match="num_workers"):
            checkpointer.restore_shard(
                "run",
                0,
                MonoTable(MIN, initial={}),
                expect_meta={"program": "sssp", "num_workers": 8},
            )
        # so is a different program
        with pytest.raises(CheckpointMismatchError, match="program"):
            checkpointer.restore_shard(
                "run",
                0,
                MonoTable(MIN, initial={}),
                expect_meta={"program": "cc", "num_workers": 4},
            )

    def test_shard_id_mismatch_fails_loudly(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(MIN, initial={1: 1}))
        os.replace(path, checkpointer._path("run", 3))
        with pytest.raises(CheckpointMismatchError, match="shard"):
            checkpointer.restore_shard("run", 3, MonoTable(MIN, initial={}))


class TestRecoveryReachesFixpoint:
    """Restoring mid-run state and continuing reaches the same fixpoint."""

    def test_sssp_resume(self, tmp_path):
        graph = rmat(50, 200, seed=41)
        plan = PROGRAMS["sssp"].plan(graph)
        expected = MRAEvaluator(plan).run().values

        # run a few rounds manually, checkpoint, "crash", restore, finish
        table = MonoTableClass(plan.aggregate, plan.initial)
        table.push_many(compute_initial_delta(plan).items())
        for _ in range(2):
            for key, tmp in table.drain_all().items():
                changed, _ = table.accumulate(key, tmp)
                if changed:
                    for dst, params, fn in plan.edges_from(key):
                        table.push(dst, fn(tmp, *params))

        checkpointer = Checkpointer(tmp_path)
        checkpointer.save_shard("sssp", 0, table)

        recovered = MonoTableClass(plan.aggregate, {})
        checkpointer.restore_shard("sssp", 0, recovered)
        while recovered.has_pending():
            for key, tmp in recovered.drain_all().items():
                changed, _ = recovered.accumulate(key, tmp)
                if changed:
                    for dst, params, fn in plan.edges_from(key):
                        recovered.push(dst, fn(tmp, *params))
        assert recovered.result() == expected


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
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 10.5}))
        _flip_accumulated_value(path)
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            checkpointer.restore_shard("run", 0, MonoTable(SUM, initial={}))

    def test_corruption_error_is_a_mismatch_error(self):
        from repro.distributed import CheckpointCorruptionError

        assert issubclass(CheckpointCorruptionError, CheckpointMismatchError)

    def test_truncated_shard_degrades_to_missing(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1.0}))
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(20)  # torn write survives as invalid JSON
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert not checkpointer.restore_shard("run", 0, MonoTable(SUM, initial={}))

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
        restored = MonoTable(SUM, initial={})
        assert checkpointer.restore_shard("run", 0, restored)
        assert restored.accumulated == {1: 4.0}

    def test_restore_guard_distinguishes_corruption_from_mismatch(self, tmp_path):
        from repro.distributed.fault import restore_guarding_corruption

        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save_shard("run", 0, MonoTable(SUM, initial={1: 1.0}))
        _flip_accumulated_value(path)
        with pytest.warns(RuntimeWarning, match="reseed-and-replay"):
            assert not restore_guarding_corruption(
                lambda: checkpointer.restore_shard("run", 0, MonoTable(SUM, initial={})),
                what="test restore",
            )
        # a genuine run mismatch must keep propagating through the guard
        checkpointer.save_shard("other", 0, MonoTable(SUM, initial={1: 1.0}))
        with pytest.raises(CheckpointMismatchError):
            restore_guarding_corruption(
                lambda: checkpointer.restore_shard(
                    "other", 0, MonoTable(MIN, initial={})
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
