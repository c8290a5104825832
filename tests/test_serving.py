"""Unit tests for the multi-tenant serving layer."""

import json

import pytest

from repro.serving import (
    CacheEntry,
    CircuitBreaker,
    FAILED,
    OK,
    OK_STALE,
    Request,
    ResultCache,
    SHED,
    ServeChaos,
    ServeConfig,
    ServingService,
    TIMEOUT,
    TenantSpec,
    TERMINAL_STATUSES,
    WorkloadSpec,
    build_report,
    cache_key,
    default_chaos,
    generate_workload,
    percentile,
    render_text,
    report_to_json,
)
from repro.delta import MutableGraphView
from repro.graphs import Graph
from repro.serving.service import CACHE_COST, Outage


def single_spec(**overrides):
    """A one-tenant, one-program, one-engine spec for focused tests."""
    base = dict(
        num_requests=6,
        arrival_rate=2.0,
        burst_factor=1.0,
        tenants=(TenantSpec("solo", queue_capacity=8, deadline=6.0),),
        program_mix=(("sssp", 1.0),),
        engine_mix=(("sync", 1.0),),
        params_mix={},
        version_bumps=(),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestWorkload:
    def test_same_seed_same_workload(self):
        spec = WorkloadSpec(num_requests=30)
        first = generate_workload(spec, seed=3)
        second = generate_workload(spec, seed=3)
        assert [
            (r.id, r.tenant, r.program, r.engine, r.params, r.arrival)
            for r in first
        ] == [
            (r.id, r.tenant, r.program, r.engine, r.params, r.arrival)
            for r in second
        ]

    def test_different_seed_differs(self):
        spec = WorkloadSpec(num_requests=30)
        first = generate_workload(spec, seed=3)
        second = generate_workload(spec, seed=4)
        assert [r.arrival for r in first] != [r.arrival for r in second]

    def test_burst_window_raises_rate(self):
        spec = WorkloadSpec(burst_start=1.0, burst_end=2.0, burst_factor=10.0)
        assert spec.rate_at(1.5) == 10.0 * spec.arrival_rate
        assert spec.rate_at(0.5) == spec.arrival_rate
        assert spec.rate_at(2.0) == spec.arrival_rate

    def test_deadlines_are_absolute(self):
        spec = single_spec()
        for request in generate_workload(spec, seed=1):
            assert request.deadline == pytest.approx(request.arrival + 6.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("sync", failure_threshold=3, reset_timeout=1.0)
        breaker.on_failure(0.1)
        breaker.on_failure(0.2)
        assert breaker.state == "closed"
        breaker.on_failure(0.3)
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allows(0.5)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("sync", failure_threshold=2)
        breaker.on_failure(0.1)
        breaker.on_success(0.2)
        breaker.on_failure(0.3)
        assert breaker.state == "closed"

    def test_half_open_admits_single_probe(self):
        breaker = CircuitBreaker("sync", failure_threshold=1, reset_timeout=0.5)
        breaker.on_failure(0.0)
        assert breaker.state == "open"
        assert not breaker.allows(0.49)
        assert breaker.allows(0.6)
        assert breaker.state == "half-open"
        breaker.on_attempt_start(0.6)
        assert not breaker.allows(0.61)  # one probe at a time

    def test_probe_failure_reopens_probe_success_closes(self):
        breaker = CircuitBreaker("sync", failure_threshold=1, reset_timeout=0.5)
        breaker.on_failure(0.0)
        breaker.poll(0.6)
        breaker.on_attempt_start(0.6)
        breaker.on_failure(0.7)
        assert breaker.state == "open"
        assert breaker.trips == 2
        breaker.poll(1.3)
        breaker.on_attempt_start(1.3)
        breaker.on_success(1.4)
        assert breaker.state == "closed"
        assert breaker.closes == 1

    def test_transition_hook_sees_every_edge(self):
        edges = []
        breaker = CircuitBreaker(
            "sync",
            failure_threshold=1,
            reset_timeout=0.5,
            on_transition=lambda now, engine, old, new: edges.append((old, new)),
        )
        breaker.on_failure(0.0)
        breaker.poll(0.6)
        breaker.on_success(0.7)
        assert edges == [("closed", "open"), ("open", "half-open"), ("half-open", "closed")]


class TestResultCache:
    def entry(self, version, computed_at=0.0):
        return CacheEntry(
            key=cache_key("sssp", version, ()),
            values={0: 0.0},
            computed_at=computed_at,
            graph_version=version,
            stop_reason="fixpoint",
            engine="sync",
        )

    def test_fresh_requires_current_version_and_ttl(self):
        cache = ResultCache(freshness_ttl=1.0)
        cache.put(self.entry(1, computed_at=0.0))
        assert cache.fresh("sssp", 1, (), now=0.5) is not None
        assert cache.fresh("sssp", 1, (), now=2.0) is None  # too old
        assert cache.fresh("sssp", 2, (), now=0.5) is None  # old version

    def test_fallback_prefers_newest_version(self):
        cache = ResultCache(freshness_ttl=1.0)
        cache.put(self.entry(1))
        cache.put(self.entry(2))
        hit = cache.fallback("sssp", 3, ())
        assert hit is not None and hit.graph_version == 2
        assert cache.fallback("pagerank", 3, ()) is None


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 99.0) == 4.0
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0


class TestServiceLifecycle:
    def test_every_request_reaches_exactly_one_terminal_state(self):
        spec = WorkloadSpec(num_requests=40)
        outcome = ServingService(ServeConfig()).run(spec, seed=5)
        ids = [r.request_id for r in outcome.responses]
        assert sorted(ids) == list(range(40))
        assert all(r.status in TERMINAL_STATUSES for r in outcome.responses)

    def test_overload_sheds_explicitly(self):
        spec = single_spec(
            num_requests=16,
            arrival_rate=400.0,
            tenants=(TenantSpec("solo", queue_capacity=3, deadline=6.0),),
        )
        outcome = ServingService(ServeConfig(executors=1)).run(spec, seed=5)
        statuses = [r.status for r in outcome.responses]
        assert SHED in statuses
        shed = [r for r in outcome.responses if r.status == SHED]
        assert all(r.detail == "queue-full" and r.latency == 0.0 for r in shed)
        assert outcome.counters["shed"] == len(shed)

    def test_unmeetable_deadline_times_out_with_empty_cache(self):
        spec = single_spec(
            num_requests=1,
            tenants=(TenantSpec("solo", queue_capacity=4, deadline=1e-4),),
        )
        outcome = ServingService(ServeConfig()).run(spec, seed=5)
        (response,) = outcome.responses
        assert response.status == TIMEOUT
        assert response.values == {}

    def test_all_attempts_failing_is_failed_not_lost(self):
        chaos = ServeChaos(attempt_failure_rate=1.0)
        spec = single_spec(num_requests=2, arrival_rate=0.3)
        outcome = ServingService(ServeConfig(max_attempts=2), chaos=chaos).run(
            spec, seed=5
        )
        assert [r.status for r in outcome.responses] == [FAILED, FAILED]
        assert all(r.attempts == 2 for r in outcome.responses)
        assert all(r.detail == "retries-exhausted" for r in outcome.responses)
        assert outcome.counters["retries"] >= 2

    def test_outage_serves_stale_from_cache(self):
        # request 0 computes and caches; the outage then fails every
        # sync attempt, so later requests degrade to the stale fixpoint
        spec = single_spec(num_requests=8, arrival_rate=1.0)
        requests = generate_workload(spec, seed=5)
        outage_start = requests[0].arrival + 0.5  # after request 0 completed
        chaos = ServeChaos(outages=(Outage("sync", outage_start, 1e9),))
        config = ServeConfig(freshness_ttl=0.05, max_attempts=2)
        outcome = ServingService(config, chaos=chaos).serve(requests, spec, seed=5)
        statuses = [r.status for r in outcome.responses]
        assert statuses[0] == OK
        assert OK_STALE in statuses
        stale = [r for r in outcome.responses if r.status == OK_STALE]
        assert all(r.stale and r.stale_age > 0 for r in stale)
        assert all(r.values for r in stale)
        breaker = outcome.breakers["sync"]
        assert breaker["trips"] >= 1

    def test_fresh_cache_hits_do_not_rerun_engines(self):
        spec = single_spec(num_requests=10, arrival_rate=50.0)
        config = ServeConfig(freshness_ttl=100.0)
        outcome = ServingService(config).run(spec, seed=5)
        assert all(r.status == OK for r in outcome.responses)
        assert outcome.counters["executions_full"] == 1
        assert outcome.counters["cache_fresh_hits"] == 9

    def test_version_bump_invalidates_fresh_path(self):
        spec = single_spec(num_requests=8, arrival_rate=1.0, version_bumps=(3.0,))
        config = ServeConfig(freshness_ttl=100.0)
        outcome = ServingService(config).run(spec, seed=5)
        assert outcome.final_graph_version == 2
        versions = {r.graph_version for r in outcome.responses if r.served}
        assert versions == {1, 2}
        # the v2 answer is real work, never the stale v1 entry: either a
        # second full run or (for RA32x-maintainable sssp) a delta repair
        assert (
            outcome.counters["executions_full"]
            + outcome.counters["executions_repaired"]
            >= 2
        )

    def test_checkpointed_recomputation_resumes(self, tmp_path):
        spec = single_spec(num_requests=8, arrival_rate=0.8)
        config = ServeConfig(freshness_ttl=0.1)
        outcome = ServingService(config, checkpoint_dir=str(tmp_path)).run(
            spec, seed=5
        )
        assert outcome.counters["executions_resumed"] >= 1
        resumed = [
            profile
            for key, profile in outcome.profiles.items()
            if key[-1] == "resume"
        ]
        assert resumed and all(p.resumed for p in resumed)
        full = outcome.profiles[resumed[0].key + ("full",)]
        # restoring at the fixpoint must be cheaper than the cold run
        assert resumed[0].duration < full.duration
        assert resumed[0].values == full.values

    def _request(self, id, arrival, deadline=None):
        return Request(
            id=id,
            tenant="solo",
            program="sssp",
            engine="sync",
            arrival=arrival,
            deadline=arrival + 6.0 if deadline is None else deadline,
        )

    def test_version_bump_in_flight_does_not_pollute_cache(self):
        # request 0 is executing when the bump lands; its v1 fixpoint
        # must stay keyed on v1, so request 1 (graph v2) cannot be
        # served it as a fresh OK answer
        spec = single_spec(num_requests=2, version_bumps=(0.001,))
        requests = [self._request(0, 0.0), self._request(1, 1.0)]
        config = ServeConfig(freshness_ttl=100.0)
        outcome = ServingService(config).serve(requests, spec, seed=5)
        first, second = outcome.responses
        assert first.status == OK and first.graph_version == 1
        assert second.status == OK and second.graph_version == 2
        assert outcome.counters["cache_fresh_hits"] == 0
        # the v2 answer is computed (full run or delta repair of the v1
        # fixpoint), never the cached v1 entry passed off as fresh
        assert (
            outcome.counters["executions_full"]
            + outcome.counters["executions_repaired"]
            == 2
        )

    def test_a_refused_graph_fails_the_request_with_the_diagnostic(self):
        # walk counts 3**34 >= 2**53: path_count's builder refuses (RA351)
        chain = Graph(35, [(v, v + 1) for v in range(34)], [3] * 34)
        service = ServingService(ServeConfig())
        service._views["path_count"] = MutableGraphView(chain)
        spec = single_spec(num_requests=2, program_mix=(("path_count", 1.0),))
        requests = [
            Request(id=i, tenant="solo", program="path_count", engine="sync",
                    arrival=0.5 * i, deadline=6.0)
            for i in range(2)
        ]
        outcome = service.serve(requests, spec, seed=5)
        assert [r.status for r in outcome.responses] == [FAILED, FAILED]
        assert all(r.detail.startswith("RA351") for r in outcome.responses)
        assert outcome.counters["attempts"] == 0

    def test_deadline_expired_queued_requests_release_queue_slots(self):
        # requests 1-3 fill the queue and deadline out before their
        # first dispatch; their admission slots must come back, so the
        # late request 4 is admitted instead of spuriously shed
        spec = single_spec(
            num_requests=5,
            tenants=(TenantSpec("solo", queue_capacity=3, deadline=6.0),),
        )
        requests = [self._request(0, 0.0)]
        requests += [
            self._request(i, 0.0001, deadline=0.001) for i in (1, 2, 3)
        ]
        requests.append(self._request(4, 0.005))
        outcome = ServingService(ServeConfig(executors=1)).serve(
            requests, spec, seed=5
        )
        by_id = {r.request_id: r for r in outcome.responses}
        assert [by_id[i].status for i in (1, 2, 3)] == [TIMEOUT] * 3
        assert by_id[4].status == OK

    def test_cache_hit_cost_does_not_shift_global_clock(self):
        # requests 1 and 2 queue behind request 0 and both hit the
        # fresh cache when it completes: each pays CACHE_COST once,
        # from the same dispatch instant -- the cost never accumulates
        # onto the shared clock
        spec = single_spec(num_requests=3)
        requests = [
            self._request(0, 0.0),
            self._request(1, 0.001),
            self._request(2, 0.002),
        ]
        config = ServeConfig(executors=1, freshness_ttl=100.0)
        outcome = ServingService(config).serve(requests, spec, seed=5)
        first, hit1, hit2 = outcome.responses
        assert hit1.served_from == "cache" and hit2.served_from == "cache"
        assert hit1.resolved_at == pytest.approx(
            first.resolved_at + CACHE_COST
        )
        assert hit2.resolved_at == pytest.approx(hit1.resolved_at)

    def test_execution_counters_match_report_engine_runs(self, tmp_path):
        spec = single_spec(num_requests=8, arrival_rate=0.8)
        config = ServeConfig(freshness_ttl=0.1)
        service = ServingService(config, checkpoint_dir=str(tmp_path))
        outcome = service.run(spec, seed=5)
        report = build_report(outcome, spec, config)
        assert (
            outcome.counters["executions_full"]
            == report["engine_runs"]["distinct"]
        )
        assert (
            outcome.counters["executions_resumed"]
            == report["engine_runs"]["resumed"]
        )
        assert (
            outcome.counters["executions_repaired"]
            == report["engine_runs"]["repaired"]
        )

    def test_serving_loop_survives_corrupt_checkpoint(self, tmp_path):
        from tests.test_fault import _flip_accumulated_value

        spec = single_spec(num_requests=4, arrival_rate=0.8)
        config = ServeConfig(freshness_ttl=0.1)
        service = ServingService(config, checkpoint_dir=str(tmp_path))
        first = service.run(spec, seed=5)
        assert first.counters["executions_resumed"] >= 1

        shard_files = sorted(tmp_path.glob("*.shard*.json"))
        assert shard_files
        _flip_accumulated_value(shard_files[0])
        fresh = ServingService(config, checkpoint_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="reseed-and-replay"):
            second = fresh.run(spec, seed=5)
        assert all(r.status in TERMINAL_STATUSES for r in second.responses)
        served_first = {r.request_id: r.values for r in first.responses if r.served}
        served_second = {r.request_id: r.values for r in second.responses if r.served}
        assert served_second == served_first


class TestDeltaRepair:
    """A version bump is an applied GraphDelta; certified programs repair
    the stale fixpoint instead of recomputing from scratch."""

    @staticmethod
    def _request(id, arrival, program="sssp"):
        return Request(
            id=id,
            tenant="solo",
            program=program,
            engine="sync",
            arrival=arrival,
            deadline=arrival + 6.0,
        )

    def _bump_outcome(self, program="sssp"):
        spec = single_spec(
            num_requests=2,
            program_mix=((program, 1.0),),
            version_bumps=(0.5,),
        )
        requests = [self._request(0, 0.0, program), self._request(1, 1.0, program)]
        config = ServeConfig(freshness_ttl=100.0)
        return ServingService(config).serve(requests, spec, seed=5)

    def test_version_bump_takes_repair_path(self):
        # regression pin for the delta-repair fast path: v1 runs full,
        # the v2 request repairs the cached v1 fixpoint and is answered
        # FRESH (OK, not OK_STALE) at the new version
        outcome = self._bump_outcome()
        first, second = outcome.responses
        assert first.status == OK and first.graph_version == 1
        assert first.detail == "computed"
        assert second.status == OK and second.graph_version == 2
        assert not second.stale
        assert second.detail == "repaired"
        assert outcome.counters["executions_full"] == 1
        assert outcome.counters["executions_repaired"] == 1
        assert outcome.counters["executions_resumed"] == 0

    def test_repaired_values_match_full_recompute(self):
        # the repaired v2 fixpoint must be bit-identical to what a cold
        # service computes for v2 from scratch
        outcome = self._bump_outcome()
        repaired = outcome.responses[1]
        assert repaired.detail == "repaired"

        spec = single_spec(num_requests=1, version_bumps=(0.5,))
        cold = ServingService(ServeConfig(freshness_ttl=100.0)).serve(
            [self._request(0, 1.0)], spec, seed=5
        )
        reference = cold.responses[0]
        assert reference.graph_version == 2
        assert reference.detail == "computed"
        assert repaired.values == reference.values

    def test_repair_is_cheaper_than_full_run(self):
        # the repair profile is priced by repair ops, which must come in
        # under the measured cold-run duration for a small delta
        outcome = self._bump_outcome()
        profiles = {key[-1]: p for key, p in outcome.profiles.items()}
        assert profiles.keys() == {"full", "repair"}
        assert profiles["repair"].repaired
        assert profiles["repair"].duration < profiles["full"].duration

    def test_unmaintainable_program_recomputes(self):
        # pagerank is RA322 (iterated): a version bump must fall back to
        # a second full execution, never a repair
        outcome = self._bump_outcome(program="pagerank")
        second = outcome.responses[1]
        assert second.status == OK and second.graph_version == 2
        assert second.detail == "computed"
        assert outcome.counters["executions_full"] == 2
        assert outcome.counters["executions_repaired"] == 0

    def test_repair_counted_in_report_engine_runs(self):
        outcome = self._bump_outcome()
        spec = single_spec(num_requests=2, version_bumps=(0.5,))
        report = build_report(outcome, spec, ServeConfig(freshness_ttl=100.0))
        assert report["engine_runs"]["repaired"] == 1
        assert report["engine_runs"]["distinct"] == 1


class TestStaticPricing:
    """Deadline pricing from the abstract cost estimates (schema 3)."""

    @staticmethod
    def _request(id, arrival, engine="sync", deadline=None):
        return Request(
            id=id,
            tenant="solo",
            program="sssp",
            engine=engine,
            arrival=arrival,
            deadline=arrival + 6.0 if deadline is None else deadline,
        )

    def test_consulted_estimates_land_in_the_outcome(self):
        spec = single_spec(num_requests=2)
        config = ServeConfig()
        outcome = ServingService(config).run(spec, seed=5)
        assert "sssp@v1" in outcome.static_costs
        entry = outcome.static_costs["sssp@v1"]
        model = config.cost_model
        expected = (
            model.job_overhead
            + entry["supersteps"] * model.barrier_cost
            + entry["work"] * model.tuple_cost / config.workers
        )
        assert entry["est_seconds"] == pytest.approx(expected)
        assert entry["recommended_backend"] == "sparse"

    def test_deadline_skip_prices_statically_before_any_profile(self):
        from repro.distributed.cluster import CostModel

        # barriers priced absurdly high: the static prediction blows
        # every deadline.  Request 0 has no fallback, so it runs anyway
        # (measured time is engine-simulated, not predicted); request 1
        # -- a different engine, hence no measured profile -- degrades
        # to the stale entry on the static basis without running
        spec = single_spec(
            num_requests=2, engine_mix=(("sync", 0.5), ("async", 0.5))
        )
        config = ServeConfig(
            freshness_ttl=0.0,
            cost_model=CostModel().with_overrides(barrier_cost=50.0),
        )
        requests = [
            self._request(0, 0.0),
            self._request(1, 1.0, engine="async", deadline=1.5),
        ]
        outcome = ServingService(config).serve(requests, spec, seed=5)
        first, second = outcome.responses
        assert first.status == OK
        assert second.status == OK_STALE
        assert second.detail == "deadline-skip-static"
        assert outcome.counters["executions_full"] == 1

    def test_report_exposes_pricing_and_estimates(self):
        spec = single_spec(num_requests=4)
        config = ServeConfig()
        report = build_report(
            ServingService(config).run(spec, seed=5), spec, config
        )
        assert report["schema"] == 3
        pricing = report["config"]["cost_model"]
        assert pricing["tuple_cost"] == config.cost_model.tuple_cost
        assert pricing["barrier_cost"] == config.cost_model.barrier_cost
        assert "sssp@v1" in report["static_costs"]


class TestReport:
    def test_report_bytes_are_deterministic(self):
        spec = WorkloadSpec(num_requests=30)
        config = ServeConfig()
        first = build_report(ServingService(config).run(spec, seed=9), spec, config)
        second = build_report(ServingService(config).run(spec, seed=9), spec, config)
        assert report_to_json(first) == report_to_json(second)

    def test_report_is_valid_sorted_json(self):
        spec = WorkloadSpec(num_requests=20)
        config = ServeConfig()
        report = build_report(ServingService(config).run(spec, seed=9), spec, config)
        payload = report_to_json(report)
        parsed = json.loads(payload)
        assert parsed["status_counts"].keys() == set(TERMINAL_STATUSES)
        assert payload == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_status_counts_cover_all_requests(self):
        spec = WorkloadSpec(num_requests=25)
        config = ServeConfig()
        chaos = default_chaos()
        report = build_report(
            ServingService(config, chaos=chaos).run(spec, seed=9),
            spec,
            config,
            chaos=chaos,
        )
        assert sum(report["status_counts"].values()) == 25
        assert report["chaos"] is True

    def test_render_text_mentions_every_status(self):
        spec = WorkloadSpec(num_requests=20)
        config = ServeConfig()
        report = build_report(ServingService(config).run(spec, seed=9), spec, config)
        text = render_text(report)
        for status in TERMINAL_STATUSES:
            assert status in text
