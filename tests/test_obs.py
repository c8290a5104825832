"""The observability layer: metrics registry, trace events, invariants.

The two contracts under test:

* observability must never perturb a run -- traced and untraced
  executions produce identical values and identical simulated time;
* every ``FaultStats`` increment flows through
  :meth:`FaultInjector.record`, so aggregating the ``fault.*`` trace
  events reproduces ``EvalResult.faults`` *exactly*, not approximately.
"""

import json

import pytest

from repro.distributed import (
    AsyncEngine,
    BufferPolicy,
    ClusterConfig,
    SyncEngine,
    UnifiedEngine,
)
from repro.distributed.chaos import FaultSchedule, WorkerCrash
from repro.engine.result import WorkCounters
from repro.graphs import rmat
from repro.obs import (
    NULL_OBS,
    Observability,
    MetricsRegistry,
    NULL_METRICS,
    TraceRecorder,
    aggregate_fault_events,
    ensure_obs,
    read_jsonl,
)
from repro.programs import PROGRAMS


def _plan(program="sssp", seed=11):
    graph = rmat(60, 260, seed=seed, name="obs-test")
    return PROGRAMS[program].plan(graph)


def _chaotic_cluster(num_workers=4, crashes=True):
    schedule = FaultSchedule(
        crashes=(WorkerCrash(worker=1, at=0.004, restart_after=0.004),)
        if crashes
        else (),
        drop_rate=0.05,
        duplicate_rate=0.03,
        reorder_jitter=1e-4,
        seed=13,
    )
    return ClusterConfig(num_workers=num_workers).with_faults(schedule)


class TestMetricsRegistry:
    def test_counters_with_labels(self):
        metrics = MetricsRegistry()
        metrics.inc("flushes", worker=0)
        metrics.inc("flushes", worker=0)
        metrics.inc("flushes", n=3, worker=1)
        assert metrics.counter_value("flushes", worker=0) == 2
        assert metrics.counter_value("flushes", worker=1) == 3
        assert metrics.counter_total("flushes") == 5
        assert metrics.counter_value("missing") == 0

    def test_gauge_keeps_series(self):
        metrics = MetricsRegistry()
        metrics.gauge("beta", 64.0, t=0.0, worker=1, target=2)
        metrics.gauge("beta", 32.0, t=1.0, worker=1, target=2)
        series = list(metrics.gauge_series("beta"))
        assert len(series) == 1
        labels, points = series[0]
        assert dict(labels) == {"worker": 1, "target": 2}
        assert points == [(0.0, 64.0), (1.0, 32.0)]

    def test_gauge_without_series(self):
        metrics = MetricsRegistry(keep_series=False)
        metrics.gauge("beta", 64.0, t=0.0)
        metrics.gauge("beta", 32.0, t=1.0)
        assert list(metrics.gauge_series("beta")) == []
        assert metrics.snapshot()["gauges"]["beta"] == 32.0

    def test_histogram_stats(self):
        metrics = MetricsRegistry()
        for value in (1, 2, 3, 1000):
            metrics.observe("sizes", value)
        stats = metrics.snapshot()["histograms"]["sizes"]
        assert stats["count"] == 4
        assert stats["min"] == 1 and stats["max"] == 1000
        assert stats["mean"] == pytest.approx(1006 / 4)

    def test_absorb_work_counters(self):
        metrics = MetricsRegistry()
        counters = WorkCounters(iterations=4, updates=9, messages=2)
        metrics.absorb_work_counters(counters, engine="test")
        assert metrics.counter_value("work.updates", engine="test") == 9
        assert metrics.counter_value("work.iterations", engine="test") == 4
        # zero fields are not materialised
        assert metrics.counter_total("work.barriers") == 0

    def test_disabled_registry_is_inert(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("x", 1.0)
        NULL_METRICS.observe("x", 1.0)
        NULL_METRICS.absorb_work_counters(WorkCounters(updates=5))
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.gauges == {}
        assert NULL_METRICS.histograms == {}


class TestTraceRecorder:
    def test_emit_and_counts(self):
        trace = TraceRecorder()
        trace.emit("engine.epoch", t=1.0, round=1)
        trace.emit("engine.epoch", t=2.0, round=2)
        trace.emit("buffer.flush", t=2.5, size=10)
        assert len(trace) == 3
        assert trace.counts_by_kind() == {"engine.epoch": 2, "buffer.flush": 1}
        assert [e["round"] for e in trace.of_kind("engine.epoch")] == [1, 2]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=str(path)) as trace:
            trace.emit("a", t=0.5, n=1)
            trace.emit("b", payload={"x": 1}, weird=object())
        events = read_jsonl(str(path))
        assert len(events) == 2
        assert events[0] == {"kind": "a", "t": 0.5, "n": 1}
        assert events[1]["payload"] == {"x": 1}
        assert isinstance(events[1]["weird"], str)  # stringified fallback
        # every line is standalone JSON
        with open(path) as handle:
            for line in handle:
                json.loads(line)

    def test_disabled_recorder_is_inert(self, tmp_path):
        trace = TraceRecorder(path=str(tmp_path / "no.jsonl"), enabled=False)
        trace.emit("a")
        trace.close()
        assert len(trace) == 0
        assert not (tmp_path / "no.jsonl").exists()

    def test_aggregate_fault_events(self):
        events = [
            {"kind": "fault.crashes", "t": 1.0, "n": 1},
            {"kind": "fault.dropped_messages", "n": 1},
            {"kind": "fault.dropped_messages", "n": 1},
            {"kind": "fault.replayed_tuples", "n": 17},
            {"kind": "engine.epoch", "round": 1},  # non-fault: ignored
        ]
        counts = aggregate_fault_events(events)
        assert counts["crashes"] == 1
        assert counts["dropped_messages"] == 2
        assert counts["replayed_tuples"] == 17
        # zeroed template covers every FaultStats field
        assert counts["rollbacks"] == 0 and "checkpoints" in counts


class TestObservabilityHandle:
    def test_ensure_obs(self):
        assert ensure_obs(None) is NULL_OBS
        obs = Observability()
        assert ensure_obs(obs) is obs

    def test_disabled_uses_null_instruments(self):
        obs = Observability.disabled()
        assert not obs.enabled
        assert obs.metrics is NULL_METRICS
        obs.trace.emit("x")
        assert len(obs.trace) == 0

    def test_context_manager_closes_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Observability(trace_path=str(path)) as obs:
            obs.trace.emit("a")
        assert read_jsonl(str(path)) == [{"kind": "a", "t": None}]


def _counting(calls: dict, name: str, function):
    """``function``, counting its calls in ``calls[name]``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted


class TestEngineInstrumentation:
    def test_single_node_epoch_events_and_metrics(self):
        from repro.engine import MRAEvaluator

        obs = Observability()
        result = MRAEvaluator(_plan(), obs=obs).run()
        epochs = obs.trace.of_kind("engine.epoch")
        assert len(epochs) == result.counters.iterations
        assert epochs[-1]["changed"] == 0  # the fixpoint round
        assert result.metrics is obs.metrics
        assert (
            result.metrics.counter_value("work.updates", engine="mra")
            == result.counters.updates
        )

    @pytest.mark.parametrize("engine", [SyncEngine, AsyncEngine, UnifiedEngine])
    def test_an_observed_run_prices_no_static_estimate(self, engine, monkeypatch):
        # a run's metrics hold only the run: whoever prints the plan's
        # static estimates (``repro metrics``) computes them itself
        import repro.analysis.absint as absint
        import repro.analysis.comm as comm

        calls = {"estimate_plan_cost": 0, "estimate_plan_communication": 0}
        for module, name in ((absint, "estimate_plan_cost"), (comm, "estimate_plan_communication")):
            monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        obs = Observability()
        result = engine(_plan(), ClusterConfig(num_workers=4), obs=obs).run()
        assert result.metrics is obs.metrics
        assert calls == {"estimate_plan_cost": 0, "estimate_plan_communication": 0}
        assert not [name for name, _ in obs.metrics.gauges if name.startswith(("comm_", "cost_"))]

    def test_sync_superstep_events_match_rounds(self):
        obs = Observability()
        result = SyncEngine(_plan(), ClusterConfig(num_workers=4), obs=obs).run()
        supersteps = obs.trace.of_kind("engine.superstep")
        assert len(supersteps) == result.counters.iterations
        assert [e["round"] for e in supersteps] == list(
            range(1, len(supersteps) + 1)
        )
        # simulated time is monotone along the trace
        times = [e["t"] for e in supersteps]
        assert times == sorted(times)

    def test_unified_emits_beta_adaptations(self):
        obs = Observability()
        result = UnifiedEngine(_plan(), ClusterConfig(num_workers=4), obs=obs).run()
        betas = obs.trace.of_kind("buffer.beta")
        assert betas, "adaptive buffers should adapt at least once"
        for event in betas:
            assert event["old"] != event["new"]
        assert result.metrics.counter_total("buffer.adaptations") == len(betas)
        series = list(result.metrics.gauge_series("buffer.beta"))
        assert sum(len(points) for _, points in series) == len(betas)

    def test_flush_events_match_message_counters(self):
        obs = Observability()
        result = AsyncEngine(
            _plan(),
            ClusterConfig(num_workers=4),
            buffer_policy=BufferPolicy(initial_beta=16, adaptive=False),
            obs=obs,
        ).run()
        flushes = obs.trace.of_kind("buffer.flush")
        assert len(flushes) == result.counters.messages
        assert sum(e["size"] for e in flushes) == result.counters.message_tuples

    def test_observability_does_not_perturb_async_run(self):
        plain = AsyncEngine(_plan(), ClusterConfig(num_workers=4)).run()
        obs = Observability()
        traced = AsyncEngine(_plan(), ClusterConfig(num_workers=4), obs=obs).run()
        assert traced.values == plain.values
        assert traced.simulated_seconds == plain.simulated_seconds
        assert traced.counters.snapshot() == plain.counters.snapshot()

    def test_observability_does_not_perturb_chaotic_run(self):
        plain = SyncEngine(_plan(), _chaotic_cluster()).run()
        traced = SyncEngine(_plan(), _chaotic_cluster(), obs=Observability()).run()
        assert traced.values == plain.values
        assert traced.simulated_seconds == plain.simulated_seconds
        assert traced.faults.snapshot() == plain.faults.snapshot()


@pytest.mark.chaos
class TestFaultEventInvariant:
    """fault.* trace events aggregate to EvalResult.faults, exactly."""

    def _check(self, engine_factory):
        obs = Observability()
        result = engine_factory(obs).run()
        assert result.faults is not None
        observed = aggregate_fault_events(obs.trace.events)
        assert observed == result.faults.snapshot()
        # the schedule actually injected something
        assert sum(observed.values()) > 0

    def test_sync_engine(self):
        self._check(
            lambda obs: SyncEngine(_plan(), _chaotic_cluster(), obs=obs)
        )

    def test_async_engine(self):
        self._check(
            lambda obs: AsyncEngine(
                _plan(),
                _chaotic_cluster(),
                buffer_policy=BufferPolicy(initial_beta=16, adaptive=False),
                obs=obs,
            )
        )

    def test_unified_engine_additive_rollback(self):
        plan = _plan("pagerank")
        self._check(
            lambda obs: UnifiedEngine(plan, _chaotic_cluster(), obs=obs)
        )

    def test_async_no_crashes(self):
        self._check(
            lambda obs: AsyncEngine(
                _plan(),
                _chaotic_cluster(crashes=False),
                buffer_policy=BufferPolicy(initial_beta=16, adaptive=False),
                obs=obs,
            )
        )


class TestCli:
    def test_trace_smoke(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        assert (
            main(["trace", "sssp", "--chaos", "--workers", "3", "--out", str(path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "fault events agree with EvalResult.faults" in out
        assert read_jsonl(str(path))

    def test_metrics_smoke(self, capsys):
        from repro.cli import main

        assert main(["metrics", "sssp", "--workers", "3"]) == 0
        out = capsys.readouterr().out
        assert "counters (summed over labels):" in out
        assert "work.updates" in out
        assert "beta(" in out
