"""The multi-tenant serving loop: a deterministic discrete-event service.

``ServingService`` sits in front of the distributed engines and plays a
generated request stream against them on one simulated clock:

* **admission control** -- per-tenant bounded queues; the request that
  would overflow its tenant's queue is resolved ``SHED`` immediately
  (an explicit terminal state, never a silent drop);
* **request lifecycle** -- every admitted request carries an absolute
  deadline; failed attempts retry with exponential backoff plus seeded
  jitter until the deadline or the attempt budget runs out;
* **circuit breaking** -- one :class:`~repro.serving.breaker.CircuitBreaker`
  per engine backend trips on consecutive failures and half-opens on the
  simulated clock; while open, requests are served stale from the
  result cache or parked until the breaker's probe window;
* **typed refusals** -- a graph version the program's builder refuses
  (``path_count``'s RA351 walk bound, :class:`WalkBoundError`) resolves
  the request ``FAILED`` with the diagnostic as its detail; it never
  escapes the serving loop;
* **graceful degradation** -- a :class:`~repro.serving.cache.ResultCache`
  keyed on ``(program, graph version, params)`` answers repeated queries
  fresh and, under degradation, serves stale-but-certified fixpoints
  with the staleness surfaced on the response;
* **incremental recomputation** -- completed runs checkpoint their
  MonoTable shards through the existing
  :class:`~repro.distributed.fault.Checkpointer`; recomputations and
  post-crash retries restore from the latest checkpoint and converge in
  a fraction of the original run (a corrupted checkpoint falls back to
  reseed-and-replay instead of crashing the loop);
* **incremental maintenance** -- graph version bumps are concrete
  :class:`~repro.delta.GraphDelta` batches applied through a per-program
  :class:`~repro.delta.MutableGraphView`.  When a request arrives at a
  new version and the program is RA32x-certified, the stale-but-certified
  cache entry is *repaired* via :func:`repro.delta.repair_plan` from the
  prior fixpoint instead of being discarded -- the response is fresh,
  accounted as ``executions_repaired``, and priced by repair ops rather
  than a full run.

Determinism contract: the service consumes one seeded RNG in event
order, every engine execution is itself deterministic, and the clock is
simulated -- so a full serving run (and its JSON SLO report) is a pure
function of ``(workload spec, config, chaos plan, seed)``.

Simulator shortcut: engine executions are memoised per
``(program, graph version, params, engine)``.  The first execution of a
key really runs the engine (and its chaos schedule); repeats replay the
measured duration and values, which is exact because the engines are
deterministic given identical inputs.  Checkpoint-restored
("resumed") executions are measured separately, so recomputation cost
reflects genuine checkpoint recovery, not a model.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.delta import (
    GraphDelta,
    MutableGraphView,
    choose_strategy,
    diff_plans,
    random_delta,
    repair_plan,
)
from repro.distributed.chaos import FaultSchedule
from repro.distributed.chaos_harness import default_graph
from repro.distributed.cluster import ClusterConfig, CostModel
from repro.distributed.fault import Checkpointer
from repro.distributed.registry import FAULT_TOLERANT_ENGINES, build_engine
from repro.obs import ensure_obs
from repro.programs import get_program
from repro.programs.builders import WalkBoundError
from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import CacheEntry, ResultCache, cache_key
from repro.serving.request import (
    FAILED,
    OK,
    OK_STALE,
    Request,
    Response,
    SHED,
    TIMEOUT,
)
from repro.serving.workload import WorkloadSpec, generate_workload

#: simulated cost of answering from the cache
CACHE_COST = 2e-3
#: a failed attempt retries after ``BACKOFF_BASE * BACKOFF_FACTOR **
#: (attempts - 1)`` simulated seconds, plus a uniform(0, BACKOFF_JITTER)
#: fraction of that
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.5
#: a crashed attempt observes a uniform fraction in this range of the
#: run's duration
FAILED_ATTEMPT_FRACTION = (0.2, 0.8)

#: certified stop reasons -- only these results enter the cache
_CERTIFIED_STOPS = ("fixpoint", "epsilon")


@dataclass(frozen=True)
class Outage:
    """A window during which every attempt on ``engine`` fails."""

    engine: str
    start: float
    end: float


@dataclass(frozen=True)
class ServeChaos:
    """What goes wrong at the serving layer (all seeded, all simulated).

    ``engine_faults`` are :class:`FaultSchedule` kwargs applied to the
    cluster of every real engine execution -- the chaos matrix's drops,
    duplicates and crashes now happening *under* live traffic.
    ``outages`` and ``attempt_failure_rate`` fail serving attempts
    themselves, which is what drives retries and the circuit breaker.
    """

    #: i.i.d. probability that an execution attempt crashes
    attempt_failure_rate: float = 0.0
    outages: tuple = ()
    #: FaultSchedule kwargs for engine-internal fault injection
    engine_faults: Optional[dict] = None

    def outage_covers(self, engine: str, now: float) -> bool:
        return any(
            o.engine == engine and o.start <= now < o.end for o in self.outages
        )


def default_chaos() -> ServeChaos:
    """The default chaos plan the ``--chaos`` flag and CI smoke use."""
    return ServeChaos(
        attempt_failure_rate=0.08,
        outages=(Outage("sync", 2.0, 3.5),),
        engine_faults={"drop_rate": 0.02, "duplicate_rate": 0.01},
    )


#: fraction of head edges each serving version bump inserts
DEFAULT_DELTA_FRACTION = 0.02


@dataclass(frozen=True)
class ServeConfig:
    """Service-side knobs (the workload side lives in WorkloadSpec)."""

    #: concurrent execution slots shared by all tenants; the default is
    #: deliberately scarce so the default burst saturates it and
    #: admission control visibly sheds
    executors: int = 1
    #: simulated workers per engine execution
    workers: int = 4
    #: cache entries older than this are recomputed on the happy path
    freshness_ttl: float = 1.5
    max_attempts: int = 3
    #: seed of the base graphs and their per-version mutation deltas
    graph_seed: int = 7
    #: fraction of head edges inserted by each version-bump delta
    delta_fraction: float = DEFAULT_DELTA_FRACTION
    #: the distributed cost model that prices everything the service
    #: predicts instead of measures: repair ops (accumulate attempts +
    #: edge applications, at ``tuple_cost`` per op spread over the
    #: workers) and the abstract-interpretation static cost estimate
    #: used for deadline pricing before any profile was measured.  This
    #: replaced the old flat per-op repair constant, so repair and
    #: deadline decisions share one currency with the engines.
    cost_model: CostModel = CostModel()
    backend: Optional[str] = None


@dataclass
class ExecutionProfile:
    """One measured engine run, replayed for repeat executions."""

    key: tuple  # (program, graph_version, params, engine)
    values: dict
    duration: float
    stop_reason: str
    #: True when the run restored from a checkpoint (recomputation path)
    resumed: bool
    #: True when the values were produced by incrementally repairing a
    #: stale certified cache entry (no engine ran at all)
    repaired: bool = False
    #: FaultStats snapshot of the run (engine-internal chaos), or {}
    faults: dict = field(default_factory=dict)
    uses: int = 0


@dataclass
class ServeOutcome:
    """Everything one serving run produced."""

    responses: list
    requests: list
    counters: dict
    breakers: dict
    #: every measured engine run, keyed like the execution memo
    profiles: dict
    makespan: float
    seed: int
    final_graph_version: int
    #: static cost estimates consulted for deadline pricing, keyed
    #: ``"program@vN"`` (the abstract-interpretation cost section)
    static_costs: dict = field(default_factory=dict)


def serving_delta(
    graph, program: str, version: int, graph_seed: int = 7,
    delta_fraction: float = DEFAULT_DELTA_FRACTION,
) -> GraphDelta:
    """The mutation batch that produces ``version`` from ``version - 1``.

    Deterministic in ``(program, version, graph_seed)``: a seeded
    insert-only batch sized as a fraction of the head's edge count.
    Inserts respect acyclicity when the base graph is topologically
    ordered (``src < dst`` everywhere, as :func:`repro.graphs.random_dag`
    guarantees), so path-counting programs stay well-defined.
    """
    acyclic = all(src < dst for src, dst in graph.edges)
    inserts = max(1, int(graph.num_edges * delta_fraction))
    seed = (
        graph_seed * 1_000_003
        + 131 * version
        + (zlib.crc32(program.encode("utf-8")) & 0xFFFF)
    )
    return random_delta(graph, seed=seed, insert_edges=inserts, acyclic=acyclic)


def serving_view(
    program: str, graph_seed: int = 7
) -> MutableGraphView:
    """A fresh versioned view over the program's base serving graph.

    Counting programs get their multiplicities materialised in the
    builders' own ``[1, 3]`` regime rather than the view's generic
    ``[1, 10]`` edge weights: ``multiplicity_dag_db`` certifies the
    exact walk bound against ``2**53`` and (rightly) refuses the
    generic weights, whose walk counts overflow float64 exactness on
    the serving DAG.
    """
    from repro.programs import builders

    base = default_graph(program, seed=graph_seed)
    spec = get_program(program)
    if (
        spec.build_database is builders.multiplicity_dag_db
        and base.weights is None
    ):
        base = base.with_weights(1, 3)
    return MutableGraphView(base)


def serving_graph(
    program: str, version: int, graph_seed: int = 7,
    delta_fraction: float = DEFAULT_DELTA_FRACTION,
):
    """The graph a program runs on at a given version.

    Version bumps model mutation ingests as *applied deltas*: version 1
    is the base graph and every later version extends the previous one
    by one :func:`serving_delta` batch.  Cached fixpoints for older
    versions genuinely disagree with the current data -- but because the
    versions are delta-related, a stale certified fixpoint can be
    *repaired* to the current version instead of discarded.
    """
    view = serving_view(program, graph_seed)
    return view.advance_to(
        version,
        lambda v, ver: serving_delta(
            v.graph, program, ver, graph_seed, delta_fraction
        ),
    )


def execution_seed(base_seed: int, key: tuple) -> int:
    """Stable per-execution seed for the engine-internal fault schedule."""
    text = ":".join(str(part) for part in key)
    return base_seed * 100003 + (zlib.crc32(text.encode("utf-8")) & 0xFFFF)


class ServingService:
    """Deterministic simulated-clock serving in front of the engines."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        chaos: Optional[ServeChaos] = None,
        obs=None,
        checkpoint_dir: Optional[str] = None,
    ):
        self.config = config or ServeConfig()
        self.chaos = chaos
        self.obs = ensure_obs(obs)
        self.checkpointer = (
            Checkpointer(checkpoint_dir, obs=obs) if checkpoint_dir else None
        )
        self._plans: dict = {}
        self.profiles: dict = {}
        self._resume_profiles: dict = {}
        self._views: dict = {}
        self._incremental_modes: dict = {}
        self._static_costs: dict = {}

    # -- versioned graphs (mutation ingests as applied deltas) ---------------
    def _view(self, program: str) -> MutableGraphView:
        view = self._views.get(program)
        if view is None:
            view = serving_view(program, self.config.graph_seed)
            self._views[program] = view
        return view

    def _graph(self, program: str, version: int):
        view = self._view(program)
        return view.advance_to(
            version,
            lambda v, ver: serving_delta(
                v.graph,
                program,
                ver,
                self.config.graph_seed,
                self.config.delta_fraction,
            ),
        )

    def _incremental_mode(self, program: str) -> str:
        """RA32x verdict (``full`` / ``insert-only`` / ``none``), cached."""
        mode = self._incremental_modes.get(program)
        if mode is None:
            from repro.analysis.incremental import classify_incremental

            mode = classify_incremental(get_program(program).analysis()).mode
            self._incremental_modes[program] = mode
        return mode

    # -- engine execution (memoised) ----------------------------------------
    def _plan(self, program: str, version: int):
        key = (program, version)
        if key not in self._plans:
            spec = get_program(program)
            self._plans[key] = spec.plan(self._graph(program, version))
        return self._plans[key]

    # -- static cost (abstract interpretation) -------------------------------
    def static_cost(self, program: str, version: int):
        """Memoised abstract-interpretation cost estimate for the plan."""
        key = (program, version)
        estimate = self._static_costs.get(key)
        if estimate is None:
            from repro.analysis.absint import estimate_plan_cost

            estimate = estimate_plan_cost(self._plan(program, version))
            self._static_costs[key] = estimate
        return estimate

    def predicted_duration(self, program: str, version: int) -> float:
        """Deadline-pricing prediction before any profile was measured,
        in the same simulated-seconds currency the engines report."""
        return self.static_cost(program, version).est_seconds(
            self.config.cost_model, workers=self.config.workers
        )

    def _termination(self, plan, params: tuple):
        scale = dict(params).get("eps_scale")
        spec = plan.termination
        if scale is None or spec.epsilon is None:
            return spec
        return replace(spec, epsilon=spec.epsilon * float(scale))

    def _cluster(self, key: tuple, seed: int) -> ClusterConfig:
        cluster = ClusterConfig(num_workers=self.config.workers)
        if self.chaos is not None and self.chaos.engine_faults:
            schedule = FaultSchedule(
                **self.chaos.engine_faults, seed=execution_seed(seed, key)
            )
            cluster = cluster.with_faults(schedule)
        return cluster

    def _run_name(self, key: tuple) -> str:
        program, version, params, engine = key
        param_text = "-".join(f"{k}{v}" for k, v in params) or "none"
        return f"srv-{program}-v{version}-{param_text}-{engine}"

    def _has_checkpoints(self, key: tuple) -> bool:
        if self.checkpointer is None:
            return False
        run_name = self._run_name(key)
        return all(
            self.checkpointer.has_checkpoint(run_name, shard)
            for shard in range(self.config.workers)
        )

    def _run_engine(self, key: tuple, seed: int, with_checkpointer: bool):
        program, version, params, engine = key
        plan = self._plan(program, version)
        return build_engine(
            engine,
            plan,
            self._cluster(key, seed),
            checkpointer=self.checkpointer if with_checkpointer else None,
            termination=self._termination(plan, params),
            run_name=self._run_name(key),
            backend=self.config.backend,
        ).run()

    def _repair_profile(self, key: tuple, basis) -> Optional[ExecutionProfile]:
        """Repair a stale certified fixpoint up to ``key``'s version.

        Returns ``None`` when the program's RA32x verdict (or the shape
        of the accumulated deltas) forces a recompute -- the caller then
        runs a real engine.  The repair itself runs no engine: it diffs
        the compiled plans of the two versions and replays the delta
        subsystem's frontier/re-derivation repair, priced per repair op.
        """
        memo = self.profiles.get(key + ("repair",))
        if memo is not None:
            return memo
        program, version, *_ = key
        mode = self._incremental_mode(program)
        if mode == "none":
            return None
        old_plan = self._plan(program, basis.graph_version)
        new_plan = self._plan(program, version)
        diff = diff_plans(old_plan, new_plan)
        if choose_strategy(mode, diff) == "recompute":
            return None
        repair = repair_plan(
            old_plan,
            new_plan,
            basis.values,
            mode=mode,
            diff=diff,
            backend=self.config.backend,
            obs=self.obs,
            program=program,
        )
        if repair.stop_reason not in _CERTIFIED_STOPS:
            return None
        model = self.config.cost_model
        profile = ExecutionProfile(
            key=key,
            values=repair.values,
            duration=CACHE_COST
            + model.job_overhead
            + repair.ops * model.tuple_cost / max(1, self.config.workers),
            stop_reason=repair.stop_reason,
            resumed=False,
            repaired=True,
        )
        self.profiles[key + ("repair",)] = profile
        return profile

    def _execute(
        self, key: tuple, seed: int, repair_basis=None
    ) -> ExecutionProfile:
        """Measured execution: real engine runs, memoised per key.

        Once a completed run has checkpointed, later executions restore
        from the checkpoint -- the measured resume run is the cost of
        recomputing a query the service has answered before.  When the
        caller holds a stale-but-certified cache entry for an earlier
        graph version (``repair_basis``), an incrementally maintainable
        program repairs it in place instead of running any engine.
        """
        if self._has_checkpoints(key):
            profile = self._resume_profiles.get(key)
            if profile is None:
                result = self._run_engine(key, seed, with_checkpointer=True)
                profile = ExecutionProfile(
                    key=key,
                    values=result.values,
                    duration=result.simulated_seconds or 0.0,
                    stop_reason=result.stop_reason,
                    resumed=True,
                    faults=result.faults.snapshot() if result.faults else {},
                )
                self._resume_profiles[key] = profile
                self.profiles[key + ("resume",)] = profile
            profile.uses += 1
            return profile
        profile = self.profiles.get(key + ("full",))
        if profile is None and repair_basis is not None:
            repaired = self._repair_profile(key, repair_basis)
            if repaired is not None:
                repaired.uses += 1
                return repaired
        if profile is None:
            result = self._run_engine(key, seed, with_checkpointer=True)
            profile = ExecutionProfile(
                key=key,
                values=result.values,
                duration=result.simulated_seconds or 0.0,
                stop_reason=result.stop_reason,
                resumed=False,
                faults=result.faults.snapshot() if result.faults else {},
            )
            self.profiles[key + ("full",)] = profile
        profile.uses += 1
        return profile

    # -- the serving loop ----------------------------------------------------
    def run(self, spec: Optional[WorkloadSpec] = None, seed: int = 7) -> ServeOutcome:
        spec = spec or WorkloadSpec()
        requests = generate_workload(spec, seed=seed)
        return self.serve(requests, spec, seed=seed)

    def serve(
        self, requests: list, spec: WorkloadSpec, seed: int = 7
    ) -> ServeOutcome:
        run = _ServingRun(self, requests, spec, seed)
        return run.execute()


class _ServingRun:
    """One serving run's mutable state (service objects stay reusable)."""

    def __init__(self, service: ServingService, requests, spec, seed):
        self.service = service
        self.config = service.config
        self.chaos = service.chaos
        self.obs = service.obs
        self.requests = requests
        self.spec = spec
        self.seed = seed
        self.rng = np.random.default_rng(seed * 7919 + 1)
        self.cache = ResultCache(self.config.freshness_ttl)
        self.now = 0.0
        self.graph_version = 1
        self.busy = 0
        self._events: list = []
        self._event_seq = 0
        self._runnable: list = []
        self._runnable_seq = 0
        self._parked: dict = {}  # engine -> [request, ...]
        self._states: dict = {}  # request id -> lifecycle state
        self.responses: dict = {}
        self.static_costs: dict = {}  # "program@vN" -> consulted estimate
        self.queue_depth: dict = {}  # tenant -> waiting-for-first-dispatch
        self.counters: dict = {
            "arrivals": 0,
            "admitted": 0,
            "shed": 0,
            "dispatches": 0,
            "attempts": 0,
            "attempt_failures": 0,
            "retries": 0,
            "cache_fresh_hits": 0,
            "stale_served": 0,
            "deadline_resolutions": 0,
            "executions_full": 0,
            "executions_resumed": 0,
            "executions_repaired": 0,
            "version_bumps": 0,
        }
        self.breakers = {
            engine: CircuitBreaker(engine, on_transition=self._on_breaker_transition)
            for engine in FAULT_TOLERANT_ENGINES
        }

    # -- plumbing ------------------------------------------------------------
    def _schedule(self, at: float, kind: str, payload=None) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (at, self._event_seq, kind, payload))

    def _make_runnable(self, request: Request) -> None:
        self._runnable_seq += 1
        heapq.heappush(
            self._runnable, (request.arrival, self._runnable_seq, request)
        )

    def _trace(self, kind: str, t: Optional[float] = None, **fields) -> None:
        if self.obs.enabled:
            self.obs.trace.emit(kind, t=self.now if t is None else t, **fields)

    def _inc(self, name: str, **labels) -> None:
        if self.obs.enabled:
            self.obs.metrics.inc(f"serve.{name}", **labels)

    def _on_breaker_transition(self, now, engine, old, new) -> None:
        if self.obs.enabled:
            self.obs.trace.emit(
                "serve.breaker", t=now, engine=engine, from_state=old, to=new
            )
            self.obs.metrics.inc("serve.breaker_transitions", engine=engine, to=new)
        if new == "open":
            breaker = self.breakers[engine]
            self._schedule(breaker.opened_at + breaker.reset_timeout, "wake", engine)
        else:
            # half-open or closed: parked requests may proceed
            self._release_parked(engine)

    def _release_parked(self, engine: str) -> None:
        for request in self._parked.pop(engine, []):
            if self._states.get(request.id) == "parked":
                self._states[request.id] = "queued"
                self._make_runnable(request)

    # -- terminal resolution ---------------------------------------------------
    def _resolve(
        self,
        request: Request,
        status: str,
        at: Optional[float] = None,
        **kwargs,
    ) -> None:
        if request.id in self.responses:
            raise RuntimeError(
                f"request {request.id} resolved twice ({status} after "
                f"{self.responses[request.id].status})"
            )
        resolved_at = self.now if at is None else at
        self._dequeue_accounting(request)
        response = Response(
            request_id=request.id,
            tenant=request.tenant,
            program=request.program,
            engine=request.engine,
            status=status,
            latency=max(0.0, resolved_at - request.arrival),
            resolved_at=resolved_at,
            attempts=request.attempts,
            **kwargs,
        )
        self.responses[request.id] = response
        self._states[request.id] = "resolved"
        self._trace(
            "serve.complete",
            t=resolved_at,
            request=request.id,
            tenant=request.tenant,
            status=status,
            latency=response.latency,
        )
        self._inc("completions", status=status, tenant=request.tenant)
        if self.obs.enabled and response.served:
            self.obs.metrics.observe(
                "serve.latency", response.latency, tenant=request.tenant
            )

    def _serve_stale(self, request: Request, entry: CacheEntry, detail: str) -> None:
        self.counters["stale_served"] += 1
        self._inc("cache_hits", kind="stale", tenant=request.tenant)
        self._resolve(
            request,
            OK_STALE,
            served_from="stale-cache",
            stale=True,
            stale_age=entry.age(self.now),
            graph_version=entry.graph_version,
            detail=detail,
            result_key=entry.key,
            values=entry.values,
        )

    def _degrade(self, request: Request, detail: str) -> None:
        """Deadline or failure path: stale answer if possible, else fail."""
        entry = self.cache.fallback(
            request.program, self.graph_version, request.params
        )
        if entry is not None:
            self._serve_stale(request, entry, detail)
            return
        if detail == "retries-exhausted":
            self._resolve(request, FAILED, detail=detail)
        else:
            self._resolve(request, TIMEOUT, detail=detail)

    # -- event handlers --------------------------------------------------------
    def _handle_arrival(self, request: Request) -> None:
        self.counters["arrivals"] += 1
        tenant = self.spec.tenant(request.tenant)
        depth = self.queue_depth.get(request.tenant, 0)
        self._trace("serve.arrive", request=request.id, tenant=request.tenant)
        if depth >= tenant.queue_capacity:
            self.counters["shed"] += 1
            self._inc("shed", tenant=request.tenant)
            self._trace(
                "serve.shed", request=request.id, tenant=request.tenant, depth=depth
            )
            self._resolve(request, SHED, detail="queue-full")
            return
        request.admitted = True
        self.counters["admitted"] += 1
        self._inc("admitted", tenant=request.tenant)
        self.queue_depth[request.tenant] = depth + 1
        if self.obs.enabled:
            self.obs.metrics.gauge(
                "serve.queue_depth", depth + 1, t=self.now, tenant=request.tenant
            )
        self._states[request.id] = "queued"
        self._make_runnable(request)
        # the deadline backstop: a queued/parked/retrying request is
        # resolved *at* its deadline, never silently after it
        self._schedule(request.deadline, "deadline", request)

    def _handle_deadline(self, request: Request) -> None:
        if self._states.get(request.id) in ("resolved", "executing"):
            # executing requests are allowed to finish; a late completion
            # resolves TIMEOUT on its own
            return
        self.counters["deadline_resolutions"] += 1
        self._degrade(request, "deadline")

    def _attempt_fails(self, engine: str) -> bool:
        if self.chaos is None:
            return False
        if self.chaos.outage_covers(engine, self.now):
            return True
        rate = self.chaos.attempt_failure_rate
        return rate > 0 and float(self.rng.random()) < rate

    def _dispatch(self, request: Request) -> bool:
        """Try to move one queued request forward.  True if an executor
        slot was consumed."""
        state = self._states.get(request.id)
        if state != "queued":
            return False
        if request.id not in self.responses and not request.admitted:
            raise RuntimeError("dispatching an unadmitted request")
        self._first_dispatch_accounting(request)
        if self.now >= request.deadline:
            self._degrade(request, "deadline")
            return False
        # fresh cache hit: answer immediately, no executor needed
        entry = self.cache.fresh(
            request.program, self.graph_version, request.params, self.now
        )
        if entry is not None:
            self.counters["cache_fresh_hits"] += 1
            self._inc("cache_hits", kind="fresh", tenant=request.tenant)
            # the lookup cost delays this response only -- advancing
            # self.now here would time-shift every other in-flight event
            self._resolve(
                request,
                OK,
                at=self.now + CACHE_COST,
                served_from="cache",
                graph_version=entry.graph_version,
                detail="cache",
                result_key=entry.key,
                values=entry.values,
            )
            return False
        breaker = self.breakers[request.engine]
        if not breaker.allows(self.now):
            stale = self.cache.fallback(
                request.program, self.graph_version, request.params
            )
            if stale is not None:
                self._serve_stale(request, stale, "breaker-open")
            else:
                self._states[request.id] = "parked"
                self._parked.setdefault(request.engine, []).append(request)
                self._trace(
                    "serve.park", request=request.id, engine=request.engine
                )
            return False
        # deadline-aware skip: when the cost of computing provably blows
        # the deadline, degrade right away.  A measured profile is exact;
        # before one exists the abstract-interpretation static estimate
        # (priced in the cost-model currency) stands in for it.
        profile = self._known_profile(request)
        if profile is not None:
            predicted, basis = profile.duration, "measured"
        else:
            try:
                predicted, basis = self._static_prediction(request), "static"
            except WalkBoundError as refusal:
                # the program's builder refuses this graph version
                # (RA351): no attempt could succeed, so none is made
                self._resolve(request, FAILED, detail=str(refusal))
                return False
        if self.now + predicted > request.deadline:
            stale = self.cache.fallback(
                request.program, self.graph_version, request.params
            )
            if stale is not None:
                self._serve_stale(request, stale, f"deadline-skip-{basis}")
                return False
        return self._start_attempt(request, breaker)

    def _first_dispatch_accounting(self, request: Request) -> None:
        if getattr(request, "_dispatched", False):
            return
        request._dispatched = True
        self.counters["dispatches"] += 1
        self._dequeue_accounting(request)

    def _dequeue_accounting(self, request: Request) -> None:
        """Give the tenant's admission slot back exactly once, however
        the request leaves the queue -- first dispatch, or a deadline
        backstop resolving it before it was ever dispatched."""
        if not request.admitted or getattr(request, "_dequeued", False):
            return
        request._dequeued = True
        depth = self.queue_depth.get(request.tenant, 1)
        self.queue_depth[request.tenant] = depth - 1
        if self.obs.enabled:
            self.obs.metrics.gauge(
                "serve.queue_depth", depth - 1, t=self.now, tenant=request.tenant
            )

    def _static_prediction(self, request: Request) -> float:
        """The static deadline price for ``request`` at the current graph
        version; the estimates actually consulted end up in the report."""
        seconds = self.service.predicted_duration(
            request.program, self.graph_version
        )
        label = f"{request.program}@v{self.graph_version}"
        if label not in self.static_costs:
            estimate = self.service.static_cost(
                request.program, self.graph_version
            )
            entry = estimate.to_dict()
            entry["est_seconds"] = seconds
            self.static_costs[label] = entry
            if self.obs.enabled:
                self.obs.metrics.gauge(
                    "serve.static_cost_est",
                    seconds,
                    t=self.now,
                    program=request.program,
                )
        return seconds

    def _known_profile(self, request: Request):
        key = (
            request.program,
            self.graph_version,
            request.params,
            request.engine,
        )
        if self.service._has_checkpoints(key):
            return self.service._resume_profiles.get(key)
        profile = self.service.profiles.get(key + ("full",))
        if profile is None:
            profile = self.service.profiles.get(key + ("repair",))
        return profile

    def _repair_basis(self, request: Request):
        """A stale certified entry from an *older* graph version that the
        delta subsystem may repair in place of a full engine run."""
        key = (
            request.program,
            self.graph_version,
            request.params,
            request.engine,
        )
        if key + ("full",) in self.service.profiles:
            return None
        if self.service._has_checkpoints(key):
            return None
        entry = self.cache.fallback(
            request.program, self.graph_version, request.params
        )
        if entry is not None and entry.graph_version < self.graph_version:
            return entry
        return None

    def _start_attempt(self, request: Request, breaker: CircuitBreaker) -> bool:
        request.attempts += 1
        self.counters["attempts"] += 1
        self._inc("attempts", engine=request.engine)
        breaker.on_attempt_start(self.now)
        profile = self.service._execute(
            (request.program, self.graph_version, request.params, request.engine),
            self.seed,
            repair_basis=self._repair_basis(request),
        )
        # memoised replays run no engine: only a profile's first use is
        # a real run (or a real repair), keeping these counters equal to
        # the report's per-profile engine_runs tallies
        if profile.uses == 1:
            if profile.repaired:
                self.counters["executions_repaired"] += 1
                self._inc("repairs", program=request.program)
            elif profile.resumed:
                self.counters["executions_resumed"] += 1
            else:
                self.counters["executions_full"] += 1
        failed = self._attempt_fails(request.engine)
        if failed:
            lo, hi = FAILED_ATTEMPT_FRACTION
            fraction = lo + (hi - lo) * float(self.rng.random())
            duration = fraction * profile.duration
        else:
            duration = profile.duration
        self._states[request.id] = "executing"
        self.busy += 1
        self._trace(
            "serve.dispatch",
            request=request.id,
            engine=request.engine,
            attempt=request.attempts,
            will_fail=failed,
            duration=duration,
        )
        self._schedule(
            self.now + duration, "complete", (request, profile, failed)
        )
        return True

    def _handle_complete(self, request: Request, profile, failed: bool) -> None:
        self.busy -= 1
        breaker = self.breakers[request.engine]
        if failed:
            self.counters["attempt_failures"] += 1
            self._inc("attempt_failures", engine=request.engine)
            self._trace(
                "serve.fail",
                request=request.id,
                engine=request.engine,
                attempt=request.attempts,
            )
            breaker.on_failure(self.now)
            self._after_failure(request)
            return
        breaker.on_success(self.now)
        # the execution was keyed on the graph version current at
        # dispatch; a bump landing while it was in flight must not
        # relabel the result, or cache.fresh() would serve old-graph
        # values as fresh answers for the new version
        version = profile.key[1]
        entry = None
        if profile.stop_reason in _CERTIFIED_STOPS:
            entry = CacheEntry(
                key=cache_key(request.program, version, request.params),
                values=profile.values,
                computed_at=self.now,
                graph_version=version,
                stop_reason=profile.stop_reason,
                engine=request.engine,
            )
            self.cache.put(entry)
        if self.now > request.deadline:
            # the work finished and warmed the cache, but the tenant's
            # deadline is blown: this request is a TIMEOUT
            self._resolve(request, TIMEOUT, detail="completed-after-deadline")
            return
        if profile.repaired:
            detail = "repaired"
        elif profile.resumed:
            detail = "resumed"
        else:
            detail = "computed"
        self._resolve(
            request,
            OK,
            served_from="compute",
            graph_version=version,
            detail=detail,
            result_key=entry.key if entry is not None else None,
            values=profile.values,
        )

    def _after_failure(self, request: Request) -> None:
        if request.attempts >= self.config.max_attempts:
            self._degrade(request, "retries-exhausted")
            return
        backoff = BACKOFF_BASE * BACKOFF_FACTOR ** (request.attempts - 1)
        backoff *= 1.0 + BACKOFF_JITTER * float(self.rng.random())
        retry_at = self.now + backoff
        if retry_at >= request.deadline:
            self._degrade(request, "deadline")
            return
        self.counters["retries"] += 1
        self._inc("retries", engine=request.engine)
        self._trace(
            "serve.retry",
            request=request.id,
            attempt=request.attempts,
            backoff=backoff,
        )
        self._states[request.id] = "waiting-retry"
        self._schedule(retry_at, "ready", request)

    def _handle_ready(self, request: Request) -> None:
        if self._states.get(request.id) in ("resolved", "executing"):
            return
        self._states[request.id] = "queued"
        self._make_runnable(request)

    def _handle_bump(self) -> None:
        self.graph_version += 1
        self.counters["version_bumps"] += 1
        self._trace("serve.version_bump", version=self.graph_version)

    def _pump(self) -> None:
        while self.busy < self.config.executors and self._runnable:
            _, _, request = heapq.heappop(self._runnable)
            if self._states.get(request.id) != "queued":
                continue
            self._dispatch(request)

    # -- the loop --------------------------------------------------------------
    def execute(self) -> ServeOutcome:
        for request in self.requests:
            self._schedule(request.arrival, "arrive", request)
        for bump_at in self.spec.version_bumps:
            self._schedule(bump_at, "bump", None)
        while self._events:
            at, _, kind, payload = heapq.heappop(self._events)
            self.now = max(self.now, at)
            if kind == "arrive":
                self._handle_arrival(payload)
            elif kind == "deadline":
                self._handle_deadline(payload)
            elif kind == "complete":
                self._handle_complete(*payload)
            elif kind == "ready":
                self._handle_ready(payload)
            elif kind == "wake":
                self.breakers[payload].poll(self.now)
                self._release_parked(payload)
            elif kind == "bump":
                self._handle_bump()
            self._pump()
        lost = [r.id for r in self.requests if r.id not in self.responses]
        if lost or self.busy:
            raise RuntimeError(
                f"serving loop lost requests: unresolved={lost}, busy={self.busy}"
            )
        responses = [self.responses[r.id] for r in self.requests]
        # the loop also drains deadline backstops of long-resolved
        # requests; the run's makespan is the last real resolution
        makespan = max((r.resolved_at for r in responses), default=0.0)
        return ServeOutcome(
            responses=responses,
            requests=self.requests,
            counters=dict(self.counters),
            breakers={
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
            profiles=dict(self.service.profiles),
            makespan=makespan,
            seed=self.seed,
            final_graph_version=self.graph_version,
            static_costs={
                label: self.static_costs[label]
                for label in sorted(self.static_costs)
            },
        )
