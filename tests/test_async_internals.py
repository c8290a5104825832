"""Async engine internals: flush paths, deferral wake-up, AAP adaptation."""

import pytest

from repro.distributed import (
    AAPEngine,
    AsyncEngine,
    ClusterConfig,
    UnifiedEngine,
)
from repro.distributed.buffers import BufferPolicy
from repro.engine import MRAEvaluator
from repro.graphs import rmat
from repro.programs import PROGRAMS


@pytest.fixture(scope="module")
def graph():
    return rmat(60, 300, seed=91, name="async-internals")


@pytest.fixture(scope="module")
def cluster():
    return ClusterConfig(num_workers=6)


class TestFlushPaths:
    def test_huge_beta_relies_on_timer_flush(self, graph, cluster):
        """With beta far above any payload, only tau-based flushes move
        data between workers -- the run must still converge correctly."""
        plan = PROGRAMS["sssp"].plan(graph)
        policy = BufferPolicy(initial_beta=10**9, tau=2e-3, adaptive=False)
        result = AsyncEngine(plan, cluster, buffer_policy=policy).run()
        expected = MRAEvaluator(plan).run().values
        assert result.values == expected
        assert result.counters.messages > 0

    def test_tiny_beta_floods_messages(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        eager = AsyncEngine(
            plan, cluster,
            buffer_policy=BufferPolicy(initial_beta=1, adaptive=False),
        ).run()
        lazy = AsyncEngine(
            plan, cluster,
            buffer_policy=BufferPolicy(initial_beta=512, adaptive=False),
        ).run()
        assert eager.counters.messages > 2 * lazy.counters.messages
        assert eager.values == lazy.values

    def test_message_tuples_bounded_by_combining(self, graph, cluster):
        """Buffers g-combine per-destination updates, so message tuples
        cannot exceed raw F' applications."""
        plan = PROGRAMS["pagerank"].plan(graph)
        result = UnifiedEngine(plan, cluster).run()
        assert result.counters.message_tuples <= result.counters.fprime_applications


class TestDeferralWakeup:
    def test_deferred_deltas_wake_on_delivery(self, graph, cluster):
        """A worker whose whole shard is below the importance threshold
        idles; arriving contributions must reactivate it (no livelock,
        correct result)."""
        plan = PROGRAMS["pagerank"].plan(graph)
        # aggressive threshold: plenty of deferral traffic
        result = UnifiedEngine(
            plan, cluster, importance_threshold=1e-4
        ).run()
        expected = MRAEvaluator(plan).run().values
        for key, value in expected.items():
            assert result.values[key] == pytest.approx(value, abs=5e-2)
        assert result.stop_reason in ("epsilon", "fixpoint")

    def test_zero_threshold_equals_plain_async(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        unified = UnifiedEngine(
            plan, cluster, importance_threshold=0.0,
            buffer_policy=BufferPolicy(initial_beta=64, adaptive=False),
        ).run()
        plain = AsyncEngine(
            plan, cluster,
            buffer_policy=BufferPolicy(initial_beta=64, adaptive=False),
        ).run()
        assert unified.counters.fprime_applications == plain.counters.fprime_applications


class TestAAPAdaptation:
    def test_aap_differs_from_plain_async_in_batching(self, graph, cluster):
        plan = PROGRAMS["pagerank"].plan(graph)
        aap = AAPEngine(plan, cluster, stream_batch=8).run()
        expected = MRAEvaluator(plan).run().values
        for key, value in expected.items():
            assert aap.values[key] == pytest.approx(value, abs=2e-3)

    def test_aap_stream_batch_bounds_work_amplification(self, graph, cluster):
        """Flooded AAP workers switch to sweeps, so even with a tiny
        stream batch the work amplification stays bounded."""
        plan = PROGRAMS["pagerank"].plan(graph)
        aap = AAPEngine(plan, cluster, stream_batch=4).run()
        sweep = AsyncEngine(plan, cluster).run()
        assert (
            aap.counters.fprime_applications
            < 5 * sweep.counters.fprime_applications
        )


class TestStopClock:
    def test_fixpoint_time_not_quantised_to_master_interval(self, graph, cluster):
        plan = PROGRAMS["sssp"].plan(graph)
        result = AsyncEngine(plan, cluster).run()
        interval = cluster.cost.termination_interval
        # the reported time is the last work event, not a master tick
        assert result.simulated_seconds % interval != 0.0


class TestPerEventCost:
    """The per-layer benchmark metrics, as a tier-1 guard: on the array
    kernel the unified engine pays per lookahead window and per process
    event, so a reintroduced per-edge, per-tuple or per-shard kernel call
    fails here and not only in a traced run."""

    def test_calls_scale_with_events_not_edges(self, monkeypatch):
        from repro.distributed.buffers import FixedBuffer
        from repro.runtime.numpy_kernel import ColumnSendSide, NumpyKernel

        calls = dict.fromkeys(
            ("push", "push_many", "ingested_payloads", "batches", "selects",
             "windows", "members", "adds", "flushes", "replayed",
             "deliveries"), 0
        )

        def counting(cls, name, key):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[key] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(NumpyKernel, "push", "push")
        counting(NumpyKernel, "select_pending", "selects")
        counting(NumpyKernel, "apply_batch", "batches")
        counting(FixedBuffer, "add", "adds")
        counting(FixedBuffer, "flush", "flushes")

        window_local, push_many = NumpyKernel.window_local, NumpyKernel.push_many
        replay = ColumnSendSide._replay
        ran = []  # per window: the process events that ran a batch

        def counting_window_local(cls, shards, inboxes, limits, *args):
            calls["windows"] += 1
            calls["members"] += len(inboxes)
            calls["ingested_payloads"] += sum(map(len, inboxes.values()))
            outcomes = window_local(shards, inboxes, limits, *args)
            ran.append(sum(1 for o in outcomes.values() if o and o[0]))
            return outcomes

        def counting_push_many(self, *batches):
            calls["push_many"] += 1
            calls["ingested_payloads"] += len(batches)
            return push_many(self, *batches)

        def counting_replay(self, buffers, codes, vals, offsets):
            calls["replayed"] += len(codes)
            return replay(self, buffers, codes, vals, offsets)

        monkeypatch.setattr(
            NumpyKernel, "window_local", classmethod(counting_window_local)
        )
        monkeypatch.setattr(NumpyKernel, "push_many", counting_push_many)
        monkeypatch.setattr(ColumnSendSide, "_replay", counting_replay)

        class Engine(UnifiedEngine):
            def _observe_delivery(self, worker, payload_size):
                calls["deliveries"] += 1

        workers = 4
        plan = PROGRAMS["pagerank"].plan(rmat(200, 1400, seed=5, name="guard"))
        result = Engine(
            plan, ClusterConfig(num_workers=workers), backend="numpy"
        ).run()
        counters = result.counters
        assert result.backend == "numpy" and result.stop_reason == "epsilon"
        batches = sum(ran)
        # the work is there: a few hundred F' applications per event
        assert counters.fprime_applications > 100 * batches > 0
        # no per-shard kernel call: a window's ingest, selections and
        # rounds are one pass; seeding is one cluster ingest and the end
        # of the run drains at most one inbox per worker
        assert calls["push"] == calls["selects"] == calls["batches"] == 0
        assert calls["push_many"] <= workers
        # windows hold several workers' events
        assert calls["windows"] < batches < calls["members"]
        # one add per (event, target), plus the contributions of targets
        # whose buffer filled mid-batch, replayed one at a time
        assert calls["replayed"] > 0
        assert calls["adds"] <= batches * (workers - 1) + calls["replayed"]
        assert calls["adds"] * 10 < counters.fprime_applications
        assert calls["flushes"] == counters.messages == calls["deliveries"]
        # every delivered payload is ingested exactly once
        assert calls["ingested_payloads"] == calls["deliveries"]
