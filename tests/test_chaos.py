"""Deterministic fault injection: chaotic runs reach the same fixpoint.

The whole module is marked ``chaos`` (``make chaos`` / ``pytest -m
chaos``); it also runs as part of the default ``make test``.
"""

import dataclasses

import pytest

from repro.distributed import (
    AsyncEngine,
    FAULT_TOLERANT_ENGINES,
    Checkpointer,
    ClusterConfig,
    FaultSchedule,
    Partition,
    RetransmitBuffer,
    Straggler,
    SyncEngine,
    WorkerCrash,
    run_chaos,
    run_matrix,
)
from repro.distributed.chaos import FaultInjector
from repro.graphs import random_dag, rmat
from repro.programs import PROGRAMS

pytestmark = pytest.mark.chaos

#: the fixed seed matrix every acceptance sweep runs under
SEEDS = (7, 23)


@pytest.fixture(scope="module")
def graph():
    return rmat(50, 220, seed=13, name="chaos-test")


@pytest.fixture(scope="module")
def dag():
    return random_dag(40, 120, seed=17, name="chaos-test-dag")


def _plan(name, graph):
    return PROGRAMS[name].plan(graph)


class TestScheduleValidation:
    def test_null_schedule_is_null(self):
        assert FaultSchedule().is_null()
        assert not FaultSchedule(drop_rate=0.01).is_null()

    def test_permanent_crash_rejected(self):
        schedule = FaultSchedule(
            crashes=(WorkerCrash(worker=0, at=0.1, restart_after=0.0),)
        )
        with pytest.raises(ValueError, match="must restart"):
            schedule.validate(num_workers=4)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSchedule(drop_rate=1.5).validate(num_workers=2)
        with pytest.raises(ValueError, match="duplicate_rate"):
            FaultSchedule(duplicate_rate=-0.1).validate(num_workers=2)

    def test_out_of_range_workers_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FaultSchedule(
                crashes=(WorkerCrash(worker=9, at=0.1),)
            ).validate(num_workers=4)

    def test_naive_mode_rejects_faults(self, graph):
        cluster = ClusterConfig(num_workers=2).with_faults(
            FaultSchedule(drop_rate=0.05)
        )
        with pytest.raises(ValueError, match="incremental"):
            SyncEngine(_plan("sssp", graph), cluster, mode="naive")

    def test_with_faults_validates(self):
        with pytest.raises(ValueError, match="outside"):
            ClusterConfig(num_workers=2).with_faults(
                FaultSchedule(crashes=(WorkerCrash(worker=5, at=0.1),))
            )

    def test_fault_free_result_has_no_stats(self, graph):
        result = SyncEngine(_plan("sssp", graph), ClusterConfig(num_workers=2)).run()
        assert result.faults is None


class TestRetransmitBuffer:
    def test_track_ack_cycle(self):
        buffer = RetransmitBuffer()
        buffer.track(0, {"a": 1})
        buffer.track(1, {"b": 2})
        assert len(buffer) == 2
        assert buffer.get(0) == {"a": 1}
        buffer.ack(0)
        assert buffer.get(0) is None
        assert buffer.pending and buffer.get(1) == {"b": 2}
        buffer.ack(0)  # duplicate acks are harmless
        assert len(buffer) == 1
        buffer.clear()
        assert not buffer.pending

    def test_exponential_backoff_caps(self):
        buffer = RetransmitBuffer()
        assert buffer.timeout(1) == 5e-3
        assert buffer.timeout(2) == 1e-2
        assert buffer.timeout(3) == 2e-2
        assert buffer.timeout(4) == 4e-2
        assert buffer.timeout(5) == 8e-2  # capped
        assert buffer.timeout(10) == 8e-2


class TestDeterminism:
    """Same schedule + seed -> bit-identical chaotic executions."""

    @pytest.mark.parametrize("engine_cls", [SyncEngine, AsyncEngine])
    def test_identical_runs(self, graph, engine_cls):
        schedule = FaultSchedule(
            crashes=(WorkerCrash(worker=1, at=0.01, restart_after=0.004),),
            drop_rate=0.05,
            duplicate_rate=0.02,
            reorder_jitter=1e-4,
            stragglers=(Straggler(worker=0, factor=2.5, start=0.0, end=0.02),),
            seed=11,
        )
        cluster = ClusterConfig(num_workers=4).with_faults(schedule)
        first = engine_cls(_plan("sssp", graph), cluster).run()
        second = engine_cls(_plan("sssp", graph), cluster).run()
        assert first.values == second.values
        assert first.simulated_seconds == second.simulated_seconds
        assert first.faults.snapshot() == second.faults.snapshot()

    def test_different_seeds_differ(self, graph):
        base = FaultSchedule(drop_rate=0.2, duplicate_rate=0.1, seed=1)
        cluster = ClusterConfig(num_workers=4)
        a = SyncEngine(
            _plan("sssp", graph), cluster.with_faults(base)
        ).run()
        b = SyncEngine(
            _plan("sssp", graph), cluster.with_faults(dataclasses.replace(base, seed=2))
        ).run()
        # values agree (recovery works) but the injected faults differ
        assert a.values == b.values
        assert a.faults.snapshot() != b.faults.snapshot()


class TestAcceptanceMatrix:
    """The ISSUE acceptance bar: >= 1 crash, >= 1% drops, duplicates, and
    chaotic runs agree with fault-free references on a min program, a
    sum program and a non-monotonic (PageRank) program, on both
    engines, under fixed seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_agrees(self, seed):
        reports = run_matrix(
            num_workers=4,
            seed=seed,
            schedule_kwargs={"drop_rate": 0.02, "duplicate_rate": 0.015},
        )
        assert len(reports) == 6  # 3 programs x 2 engines
        for report in reports:
            assert report.agreed, report.row()
            assert report.stats["crashes"] >= 1
            assert report.stats["dropped_messages"] >= 1
            assert report.stats["retransmits"] >= 1
        # the schedule duplicated at least one delivery somewhere
        assert any(r.stats["duplicated_messages"] >= 1 for r in reports)
        # fault counters surface in EvalResult-derived reports
        assert all(r.stats["recoveries"] >= 1 for r in reports)

    def test_idempotent_is_bit_for_bit(self, graph):
        report = run_chaos("sssp", engine="async", graph=graph, seed=7)
        assert report.tolerance == 0.0
        assert report.agreed
        assert report.max_error == 0.0

    def test_additive_rollback_recovery(self, dag):
        report = run_chaos("dag_paths", engine="sync", graph=dag, seed=7)
        assert report.agreed, report.row()
        assert report.stats["rollbacks"] >= 1

    @pytest.mark.parametrize("engine", FAULT_TOLERANT_ENGINES)
    def test_non_numeric_carrier_compares_by_equality(self, engine):
        # kpaths' KTuple values have no float distance: they match or not
        report = run_chaos("kpaths", engine=engine)
        assert report.agreed, report.row()
        assert report.max_error == 0.0
        assert report.stats["crashes"] >= 1


class TestDuplicateAbsorption:
    """Duplicates are absorbed by g (idempotent) or seq dedup (additive)."""

    @pytest.mark.parametrize("engine_cls", [SyncEngine, AsyncEngine])
    def test_min_absorbed_by_g(self, graph, engine_cls):
        plan = _plan("sssp", graph)
        reference = engine_cls(plan, ClusterConfig(num_workers=4)).run()
        chaotic = engine_cls(
            _plan("sssp", graph),
            ClusterConfig(num_workers=4).with_faults(
                FaultSchedule(duplicate_rate=0.3, seed=5)
            ),
        ).run()
        assert chaotic.values == reference.values
        assert chaotic.faults.duplicated_messages >= 1

    @pytest.mark.parametrize("engine_cls", [SyncEngine, AsyncEngine])
    def test_sum_deduplicated_exactly(self, dag, engine_cls):
        plan = _plan("dag_paths", graph=dag)
        reference = engine_cls(plan, ClusterConfig(num_workers=4)).run()
        chaotic = engine_cls(
            _plan("dag_paths", graph=dag),
            ClusterConfig(num_workers=4).with_faults(
                FaultSchedule(duplicate_rate=0.3, seed=5)
            ),
        ).run()
        # path *counts* must match exactly: one double-applied delta
        # would inflate a count, so this catches any dedup hole
        assert chaotic.values == reference.values
        assert chaotic.faults.duplicated_messages >= 1
        assert chaotic.faults.duplicates_absorbed >= 1


class TestFaultClasses:
    def test_straggler_stretches_time(self, graph):
        plan = _plan("sssp", graph)
        cluster = ClusterConfig(num_workers=4)
        reference = SyncEngine(plan, cluster).run()
        slowed = SyncEngine(
            _plan("sssp", graph),
            cluster.with_faults(
                FaultSchedule(
                    stragglers=(Straggler(worker=0, factor=10.0),), seed=3
                )
            ),
        ).run()
        assert slowed.values == reference.values
        assert slowed.simulated_seconds > reference.simulated_seconds

    def test_partition_heals_and_converges(self, graph):
        plan = _plan("sssp", graph)
        cluster = ClusterConfig(num_workers=4)
        reference = SyncEngine(plan, cluster).run()
        partitioned = SyncEngine(
            _plan("sssp", graph),
            cluster.with_faults(
                FaultSchedule(
                    partitions=(Partition(a=0, b=1, start=0.0, end=0.004),),
                    seed=3,
                )
            ),
        ).run()
        assert partitioned.values == reference.values
        assert partitioned.faults.dropped_messages >= 1
        assert partitioned.faults.retransmits >= 1

    def test_injector_partition_window(self):
        injector = FaultInjector(
            FaultSchedule(partitions=(Partition(a=0, b=2, start=0.1, end=0.2),)),
            num_workers=4,
        )
        assert injector.partitioned(0, 2, 0.15)
        assert injector.partitioned(2, 0, 0.15)  # both directions
        assert not injector.partitioned(0, 2, 0.05)  # before the window
        assert not injector.partitioned(0, 2, 0.25)  # after it heals
        assert not injector.partitioned(0, 1, 0.15)  # unrelated pair


class TestCrashRecoveryWithCheckpoints:
    """Crashed shards restore from disk checkpoints when available."""

    def test_sync_local_restore_from_checkpoint(self, graph, tmp_path):
        plan = _plan("sssp", graph)
        cluster = ClusterConfig(num_workers=4)
        reference = SyncEngine(plan, cluster).run()
        mid = reference.simulated_seconds * 0.5
        chaotic = SyncEngine(
            _plan("sssp", graph),
            cluster.with_faults(
                FaultSchedule(
                    crashes=(WorkerCrash(worker=1, at=mid, restart_after=0.004),),
                    seed=9,
                )
            ),
            checkpointer=Checkpointer(tmp_path),
            checkpoint_every=1,
            run_name="chaos-ckpt",
        ).run()
        assert chaotic.values == reference.values
        assert chaotic.faults.crashes == 1
        assert chaotic.faults.recoveries == 1
        assert chaotic.faults.replayed_tuples >= 1

    def test_async_crash_without_checkpointer_reseeds(self, graph):
        plan = _plan("sssp", graph)
        cluster = ClusterConfig(num_workers=4)
        reference = AsyncEngine(plan, cluster).run()
        mid = reference.simulated_seconds * 0.4
        chaotic = AsyncEngine(
            _plan("sssp", graph),
            cluster.with_faults(
                FaultSchedule(
                    crashes=(WorkerCrash(worker=2, at=mid, restart_after=0.004),),
                    seed=9,
                )
            ),
        ).run()
        assert chaotic.values == reference.values
        assert chaotic.faults.crashes == 1
        assert chaotic.faults.recoveries == 1

    def test_multiple_crashes(self, graph):
        plan = _plan("sssp", graph)
        cluster = ClusterConfig(num_workers=4)
        reference = SyncEngine(plan, cluster).run()
        duration = reference.simulated_seconds
        chaotic = SyncEngine(
            _plan("sssp", graph),
            cluster.with_faults(
                FaultSchedule(
                    crashes=(
                        WorkerCrash(worker=1, at=duration * 0.3, restart_after=0.003),
                        WorkerCrash(worker=3, at=duration * 0.6, restart_after=0.003),
                    ),
                    drop_rate=0.02,
                    seed=9,
                )
            ),
        ).run()
        assert chaotic.values == reference.values
        assert chaotic.faults.crashes == 2
        assert chaotic.faults.recoveries == 2
