"""One repetition of one workload, run in a fresh interpreter.

``run.py`` starts this file as a child process with one JSON job on the
command line and reads one JSON result from the job's ``out`` path.  A
fresh interpreter per repetition means the program's own caches
(``load_dataset``, ``_analysis_for_source``, numpy warm-up) are cold
every time, as they are for a user of the CLI.

The stopwatch runs only around *setup* (process entry until the engine
or service is ready) and *solve* (the measured operation).  Everything
after it -- oracles, digests, the kernel-alone and observability legs
of a traced run -- is untimed.  The program is driven through its public
functions only; nothing in ``repro`` is edited.
"""

from __future__ import annotations

import time

_ENTERED = time.monotonic()

import contextlib
import dataclasses
import hashlib
import json
import resource
import statistics
import sys

from spans import Tracer

#: the paper's cluster: 16 workers, simulated, not spawned
WORKERS = 16

#: a traced repetition fails when named spans cover less of its wall
MIN_COVERAGE = 0.9

_NO_SPAN = contextlib.nullcontext()


class Repetition:
    """The stopwatch, the tracer and the verdicts of one repetition."""

    def __init__(self, job: dict):
        self.job = job
        self.tracer = Tracer() if job["traced"] else None
        self.failures: list = []
        self.layers: dict = {}
        self.ready_at = 0.0
        self.setup_s = 0.0
        self.solve_s = 0.0
        self.peak_rss_mb = 0.0
        self.covered_s = 0.0
        #: the compiled plan, for the untimed kernel-alone legs
        self.plan = None
        #: sssp-delta: every repair's latency, pooled by run.py
        self.repair_ms: list = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else _NO_SPAN

    def ready(self) -> None:
        """Setup ends: the engine or service is ready to run."""
        self.ready_at = time.monotonic()
        self.setup_s = self.ready_at - self.job["spawned_at"]

    def solved(self, solve_s: float = 0.0) -> None:
        """Solve ends; ``solve_s`` when it was timed piecewise."""
        self.solve_s = solve_s or time.monotonic() - self.ready_at
        # before validation allocates anything: ru_maxrss never goes down
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer:
            self.covered_s = self.tracer.covered()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @contextlib.contextmanager
    def watching_run(self, engine_cls):
        """Put the setup|solve boundary at ``engine_cls.run``, for a path
        that builds and runs its engine inside one public call."""
        original = engine_cls.run
        inherited = "run" not in vars(engine_cls)
        rep = self

        def run(engine):
            rep.plan = engine.plan
            rep.ready()
            with rep.span("distributed.run"):
                result = original(engine)
            rep.solved()
            return result

        engine_cls.run = run
        try:
            yield
        finally:
            if inherited:
                del engine_cls.run
            else:
                engine_cls.run = original


def values_digest(values: dict) -> str:
    """sha256 of the fixpoint at nine significant digits: blind to the
    last-bit noise of a reordered float sum, loud on anything else."""
    digest = hashlib.sha256()
    for key in sorted(values):
        digest.update(f"{key}\t{values[key]:.9g}\n".encode("ascii"))
    return digest.hexdigest()


def median_ms(samples: list) -> float:
    return 1000.0 * statistics.median(samples) if samples else 0.0


# -- batch workloads ----------------------------------------------------------


def shim_engine_layers(tracer: Tracer, backend: str) -> None:
    """Wrap the kernel contract, the shard build and the buffers for the
    duration of ``engine.run()``."""
    from repro.distributed.buffers import FixedBuffer
    from repro.distributed.sharding import ShardedRun
    from repro.runtime import KERNELS

    kernel = KERNELS[backend]
    tracer.wrap_method(ShardedRun, "__init__", "distributed.shard_build")
    tracer.wrap_method(kernel, "from_plan", "runtime.kernel_build")
    tracer.wrap_method(kernel, "apply_batch", "runtime.apply_batch", hot=True)
    tracer.wrap_method(kernel, "push", "runtime.push", hot=True)
    tracer.wrap_method(kernel, "push_many", "runtime.push_many", hot=True)
    tracer.wrap_method(kernel, "drain_all", "runtime.drain", hot=True)
    # AdaptiveBuffer.add calls FixedBuffer.add: one shim counts both once
    tracer.wrap_method(FixedBuffer, "add", "distributed.buffers.add", hot=True)
    tracer.wrap_method(FixedBuffer, "flush", "distributed.buffers.flush", hot=True)


def sync_batch(rep: Repetition, program: str, backend: str) -> dict:
    """``repro run PROGRAM --engine sync``: file to fixpoint on SyncEngine."""
    span = rep.span
    with span("cli.import"):
        from repro import ClusterConfig, SyncEngine, compile_plan, get_program
        from repro.graphs import read_edge_list
    if rep.tracer:
        with span("trace.install"):
            shim_engine_layers(rep.tracer, backend)
    with span("graphs.read"):
        graph = read_edge_list(rep.job["graph"]["path"])
    spec = get_program(program)
    with span("datalog.parse_analyze"):
        analysis = spec.analysis()
    with span("programs.build_database"):
        database = spec.build_database(graph)
    with span("engine.compile_plan"):
        plan = compile_plan(analysis, database)
    with span("distributed.engine_init"):
        engine = SyncEngine(plan, ClusterConfig(WORKERS), backend=backend)
    rep.plan = plan
    rep.ready()
    with span("distributed.run"):
        result = engine.run()
    rep.solved()
    return finish_batch(rep, spec, graph, result, backend)


def pagerank_sync(rep: Repetition) -> dict:
    exact = sync_batch(rep, "pagerank", "numpy")
    if rep.tracer:
        observability_leg(rep)
    return exact


def sssp_cold(rep: Repetition) -> dict:
    return sync_batch(rep, "sssp", "sparse")


def pagerank_unified(rep: Repetition) -> dict:
    """The paper's headline path: checker, then the unified engine."""
    span = rep.span
    backend = "numpy"
    with span("cli.import"):
        from repro import ClusterConfig, PowerLog, UnifiedEngine, get_program
        from repro.graphs import read_edge_list
    tracer = rep.tracer
    if tracer:
        with span("trace.install"):
            import repro.checker
            import repro.engine.plan
            from repro.programs.registry import ProgramSpec
            from repro.systems.base import DatalogSystem

            shim_engine_layers(tracer, backend)
            tracer.wrap_method(ProgramSpec, "analysis", "datalog.parse_analyze")
            tracer.wrap_function(repro.checker.check_analysis, "checker.check")
            # compile = build_database + compile_plan: its self time is the former
            tracer.wrap_method(DatalogSystem, "compile", "programs.build_database")
            tracer.wrap_function(repro.engine.plan.compile_plan, "engine.compile_plan")
            tracer.wrap_method(UnifiedEngine, "__init__", "distributed.engine_init")
    with span("graphs.read"):
        graph = read_edge_list(rep.job["graph"]["path"])
    spec = get_program("pagerank")
    with rep.watching_run(UnifiedEngine):
        result = PowerLog().run(spec, graph, ClusterConfig(WORKERS), backend=backend)
    return finish_batch(rep, spec, graph, result, backend)


WORK_COUNTERS = (
    "iterations", "fprime_applications", "combines", "updates",
    "messages", "message_tuples", "barriers",
)


def finish_batch(rep: Repetition, spec, graph, result, backend: str) -> dict:
    """Untimed: the deterministic outputs, the oracle, the layer table."""
    job = rep.job
    plan = rep.plan
    counters = result.counters.snapshot()
    exact = {
        "stop_reason": result.stop_reason,
        "simulated_s": result.simulated_seconds,
        "work": counters,
        "keys": len(result.values),
        "values_sha256": values_digest(result.values),
    }
    if result.stop_reason not in ("fixpoint", "epsilon"):
        rep.fail(f"stopped at {result.stop_reason}")
    validate_s = 0.0
    if job["validate"]:
        validate_s = check_against_oracle(rep, spec, graph, result)
    tracer = rep.tracer
    if tracer is None:
        return exact
    tracer.restore()

    from repro import MRAEvaluator

    def rounds(kernel_backend: str) -> float:
        started = time.perf_counter()
        alone = MRAEvaluator(plan, backend=kernel_backend).run()
        elapsed = time.perf_counter() - started
        if alone.stop_reason != result.stop_reason:
            rep.fail(f"{kernel_backend} kernel alone stopped at {alone.stop_reason}")
        return elapsed

    rounds_s = rounds(backend)
    python_rounds_s = rounds("python")
    busy, self_time, calls = tracer.busy, tracer.self_time, tracer.calls
    run_s = busy("distributed.run")
    compile_s = busy("engine.compile_plan")
    rep.layers.update({
        "graphs.read_s": busy("graphs.read"),
        "graphs.read_edges_per_s": job["graph"]["edges"] / busy("graphs.read"),
        "datalog.parse_analyze_s": busy("datalog.parse_analyze"),
        "checker.check_s": busy("checker.check"),
        "programs.build_database_s": self_time("programs.build_database"),
        "engine.compile_plan_s": compile_s,
        "engine.compile_us_per_edge": 1e6 * compile_s / plan.num_edges,
        "engine.plan_edges": plan.num_edges,
        "engine.plan_keys": len(plan.keys),
        "engine.validate_s": validate_s,
        "runtime.kernel_build_s": busy("runtime.kernel_build"),
        "runtime.rounds_s": rounds_s,
        "runtime.rounds_share": rounds_s / run_s,
        "runtime.kernel_speedup": python_rounds_s / rounds_s,
        "runtime.apply_batch_s": busy("runtime.apply_batch"),
        "runtime.apply_batch_self_s": self_time("runtime.apply_batch"),
        "runtime.apply_batch_calls": calls("runtime.apply_batch"),
        "runtime.push_s": busy("runtime.push"),
        "runtime.push_calls": calls("runtime.push"),
        "runtime.push_many_calls": calls("runtime.push_many"),
        "runtime.drain_s": busy("runtime.drain"),
        "distributed.shard_build_s": busy("distributed.shard_build"),
        "distributed.engine_init_s": busy("distributed.engine_init"),
        "distributed.run_s": run_s,
        "distributed.self_s": self_time("distributed.run"),
        "distributed.buffers.add_s": busy("distributed.buffers.add"),
        "distributed.buffers.add_calls": calls("distributed.buffers.add"),
        "distributed.buffers.flush_calls": calls("distributed.buffers.flush"),
        "distributed.host_us_per_fprime": 1e6 * run_s / counters["fprime_applications"],
        "distributed.host_us_per_message_tuple": 1e6 * run_s / counters["message_tuples"],
        "sim.simulated_s": result.simulated_seconds,
    })
    rep.layers.update({f"work.{name}": counters[name] for name in WORK_COUNTERS})
    return exact


def check_against_oracle(rep: Repetition, spec, graph, result) -> float:
    """sssp against Dijkstra, pagerank against a sparse power iteration
    (``dense_pagerank`` would build an n-by-n matrix); returns the time
    ``compare_results`` took."""
    from repro.engine.validate import compare_results

    if spec.name == "sssp":
        from repro.reference import dijkstra_sssp

        reference = dijkstra_sssp(graph)
    else:
        reference = sparse_pagerank(graph)
    started = time.perf_counter()
    comparison = compare_results(reference, result.values, spec.analysis().aggregate)
    elapsed = time.perf_counter() - started
    if not comparison.ok:
        rep.fail(f"{spec.name} disagrees with its oracle: {comparison.summary()}")
    return elapsed


def sparse_pagerank(graph) -> dict:
    """Fixpoint of ``r = 0.15 + 0.85 * M r`` (Program 2) by power
    iteration over the edge arrays."""
    import numpy as np

    n = graph.num_vertices
    src, dst = np.array(graph.edges, dtype=np.int64).T
    weight = 0.85 / np.bincount(src, minlength=n)[src]
    rank = np.full(n, 0.15)
    for _ in range(1000):
        following = 0.15 + np.bincount(dst, weights=weight * rank[src], minlength=n)
        settled = np.abs(following - rank).sum() < 1e-10
        rank = following
        if settled:
            break
    return dict(enumerate(rank.tolist()))


def observability_leg(rep: Repetition) -> None:
    """One extra pagerank-sync solve with ``repro.obs`` enabled over one
    with it disabled, both untraced, on the plan already compiled."""
    from repro import ClusterConfig, SyncEngine
    from repro.obs import Observability

    def solve(obs):
        engine = SyncEngine(rep.plan, ClusterConfig(WORKERS), backend="numpy", obs=obs)
        started = time.perf_counter()
        engine.run()
        return time.perf_counter() - started

    disabled = solve(None)
    with Observability() as obs:
        enabled = solve(obs)
        rep.layers["obs.trace_events"] = len(obs.trace.events)
    rep.layers["obs.overhead_ratio"] = enabled / disabled


# -- sssp-delta ---------------------------------------------------------------

#: the rotation: insert-only batches repair by ``frontier``, delete-only
#: and reweight batches by ``rederive``
DELTA_KINDS = ("insert_edges", "delete_edges", "update_weights")


def sssp_delta(rep: Repetition) -> dict:
    """``repro delta``: bootstrap, then repair after each of a stream of
    small batches, each repair timed on its own."""
    span = rep.span
    job = rep.job
    backend = "sparse"
    with span("cli.import"):
        from repro import MRAEvaluator, get_program
        from repro.delta import IncrementalEngine, random_delta
        from repro.graphs import read_edge_list
    tracer = rep.tracer
    if tracer:
        with span("trace.install"):
            import repro.engine.plan

            tracer.wrap_function(repro.engine.plan.compile_plan, "engine.compile_plan")
    with span("graphs.read"):
        graph = read_edge_list(job["graph"]["path"])
    with span("delta.engine_init"):
        engine = IncrementalEngine("sssp", graph, backend=backend)
    with span("delta.bootstrap"):
        engine.bootstrap()
    rep.ready()
    if tracer:
        import repro.delta.engine
        from repro.delta import MutableGraphView
        from repro.programs.registry import ProgramSpec

        tracer.wrap_method(MutableGraphView, "apply", "delta.view_apply")
        tracer.wrap_method(ProgramSpec, "plan", "delta.recompile")
        tracer.wrap_function(repro.delta.engine.repair_plan, "delta.repair_plan")
        tracer.wrap_function(repro.delta.engine.diff_plans, "delta.diff")

    latencies: dict = {}
    strategies: list = []
    work = dict.fromkeys(("fprime_applications", "combines", "updates"), 0)
    shape = {"frontier_size": 0, "reset_keys": 0, "ops": 0, "rounds": 0}
    for index in range(job["deltas"]):
        kind = DELTA_KINDS[index % len(DELTA_KINDS)]
        delta = random_delta(
            engine.view.graph, job["seed"] * 1000 + index, **{kind: job["delta_edges"]}
        )
        started = time.monotonic()
        with span("delta.apply"):
            repair = engine.apply(delta)
        latencies.setdefault(repair.strategy, []).append(time.monotonic() - started)
        strategies.append(repair.strategy)
        counters = repair.counters.snapshot()
        for name in work:
            work[name] += counters[name]
        shape["frontier_size"] += repair.frontier_size
        shape["reset_keys"] += repair.reset_keys
        shape["ops"] += repair.ops
        shape["rounds"] += counters["iterations"]
    every = [sample for samples in latencies.values() for sample in samples]
    rep.solved(sum(every))
    if tracer:
        tracer.restore()

    # the reference: the final graph from scratch, compile included
    spec = get_program("sssp")
    started = time.perf_counter()
    scratch = MRAEvaluator(spec.plan(engine.view.graph), backend=backend).run()
    scratch_s = time.perf_counter() - started
    if scratch.values != engine.values:
        rep.fail("repaired fixpoint differs from the from-scratch fixpoint")
    if job["validate"]:
        from repro.reference import dijkstra_sssp

        if dijkstra_sssp(engine.view.graph) != engine.values:
            rep.fail("repaired fixpoint differs from Dijkstra on the final graph")
    scratch_work = sum(scratch.counters.snapshot()[name] for name in work)
    exact = {
        "strategies": {name: strategies.count(name) for name in sorted(set(strategies))},
        "work": work,
        "repairs": shape,
        "scratch_work": scratch_work,
        "final_edges": engine.view.graph.num_edges,
        "values_sha256": values_digest(engine.values),
    }
    rep.repair_ms = [1000.0 * sample for sample in every]
    rep.layers.update({
        "delta.repair_p50_ms": median_ms(every),
        "delta.repair_p90_ms": 1000.0 * statistics.quantiles(every, n=10)[-1],
        "delta.frontier_p50_ms": median_ms(latencies.get("frontier", [])),
        "delta.rederive_p50_ms": median_ms(latencies.get("rederive", [])),
        "delta.strategy_frontier": strategies.count("frontier"),
        "delta.strategy_rederive": strategies.count("rederive"),
        "delta.strategy_recompute": strategies.count("recompute"),
        "delta.scratch_s": scratch_s,
        "delta.wall_ratio": statistics.median(every) / scratch_s,
        "delta.work_ratio": sum(work.values()) / len(every) / scratch_work,
    })
    if tracer:
        busy = tracer.busy
        rep.layers.update({
            "graphs.read_s": busy("graphs.read"),
            "graphs.read_edges_per_s": job["graph"]["edges"] / busy("graphs.read"),
            "engine.compile_plan_s": busy("engine.compile_plan"),
            "delta.bootstrap_s": busy("delta.bootstrap"),
            "delta.view_apply_s": busy("delta.view_apply"),
            "delta.recompile_s": busy("delta.recompile"),
            "delta.repair_plan_s": busy("delta.repair_plan"),
            "delta.diff_s": busy("delta.diff"),
        })
    return exact


# -- serve-mix ----------------------------------------------------------------

PROGRAM_MIX = (
    ("sssp", 0.4), ("pagerank", 0.3), ("dag_paths", 0.1),
    ("why_reach", 0.1), ("reach_prob", 0.1),
)

#: the result cache is keyed without the engine, so whichever engine a
#: key's first request names pays for it.  With the default sync/async
#: mix that coin decided, per pagerank key, between a 17 ms and a 250 ms
#: run and put a 15 % spread on solve_s across seeds.  sync/unified at
#: 160 requests per graph version keeps two engine families and lets
#: both reach every key on every seed (80 per version still missed one
#: key in six), so the work is a property of the size, not of the draw.
ENGINE_MIX = (("sync", 0.5), ("unified", 0.5))
ARRIVAL_RATE = 8.0

#: the seed of the service's own dice (attempt failures, backoff jitter,
#: per-run fault schedules); ``--seed`` draws the request stream only
SERVICE_SEED = 7


def serve_mix(rep: Repetition) -> dict:
    """``repro serve --chaos``: a seeded request stream against the service."""
    span = rep.span
    job = rep.job
    with span("cli.import"):
        from repro.serving import (
            ServeConfig, ServingService, WorkloadSpec, build_report,
            default_chaos, generate_workload, report_to_json,
        )
    tracer = rep.tracer
    if tracer:
        with span("trace.install"):
            import repro.analysis.absint
            import repro.delta.engine
            import repro.engine.plan
            from repro import AsyncEngine, SyncEngine

            tracer.wrap_function(repro.engine.plan.compile_plan, "engine.compile_plan")
            tracer.wrap_function(repro.delta.engine.repair_plan, "serving.repair")
            tracer.wrap_function(
                repro.analysis.absint.estimate_plan_cost, "analysis.static_cost"
            )
            tracer.wrap_method(SyncEngine, "run", "serving.engine_run")
            tracer.wrap_method(AsyncEngine, "run", "serving.engine_run")
    with span("serving.setup"):
        workload = WorkloadSpec(
            num_requests=job["requests"],
            arrival_rate=ARRIVAL_RATE,
            program_mix=PROGRAM_MIX,
            engine_mix=ENGINE_MIX,
        )
        requests = generate_workload(workload, job["seed"])
        # a graph mutation is ingested after every n-th request, so every
        # seed crosses the same number of versions
        every = job["per_version"]
        bumps = [request.arrival for request in requests[every::every]]
        workload = dataclasses.replace(workload, version_bumps=tuple(bumps))
        service = ServingService(ServeConfig(), chaos=default_chaos())
    rep.ready()
    with span("serving.run"):
        outcome = service.serve(requests, workload, seed=SERVICE_SEED)
    rep.solved()
    if tracer:
        tracer.restore()

    started = time.perf_counter()
    report = build_report(outcome, workload, service.config, chaos=service.chaos)
    report_json = report_to_json(report)
    report_build_s = time.perf_counter() - started
    statuses = report["status_counts"]
    answered = {response.request_id for response in outcome.responses}
    if len(outcome.responses) != len(requests) or len(answered) != len(requests):
        rep.fail(
            f"{len(requests)} requests, {len(outcome.responses)} responses, "
            f"{len(answered)} distinct"
        )
    if job["validate"]:
        check_served_answers(rep, outcome, service.config)
    exact = {
        "status_counts": statuses,
        "counters": outcome.counters,
        "makespan": outcome.makespan,
        "final_graph_version": outcome.final_graph_version,
        "report_sha256": hashlib.sha256(report_json.encode("utf-8")).hexdigest(),
    }
    rep.layers.update({
        "serving.report_build_s": report_build_s,
        "serving.engine_runs": outcome.counters["executions_full"]
        + outcome.counters["executions_resumed"],
        "serving.repairs": outcome.counters["executions_repaired"],
        "sim.simulated_s": outcome.makespan,
    })
    rep.layers.update({
        f"serving.status_{name.lower()}": count for name, count in statuses.items()
    })
    if tracer:
        busy = tracer.busy
        rep.layers.update({
            "serving.run_s": busy("serving.run"),
            "serving.self_s": tracer.self_time("serving.run"),
            "serving.engine_run_s": busy("serving.engine_run"),
            "serving.repair_s": busy("serving.repair"),
            "serving.compile_plan_s": busy("engine.compile_plan"),
            "engine.compile_plan_s": busy("engine.compile_plan"),
            "analysis.static_cost_s": busy("analysis.static_cost"),
            "serving.host_ms_per_request": 1000.0 * busy("serving.run") / len(requests),
        })
    return exact


def check_served_answers(rep: Repetition, outcome, config) -> None:
    """Every default-parameter engine run the service measured, redone
    fault-free on one node on the same graph version."""
    from repro import MRAEvaluator, get_program
    from repro.engine.validate import compare_results
    from repro.serving import serving_graph

    references: dict = {}
    for profile in outcome.profiles.values():
        program, version, params, engine = profile.key
        if params:
            continue
        spec = get_program(program)
        aggregate = spec.analysis().aggregate
        if (program, version) not in references:
            graph = serving_graph(
                program, version, config.graph_seed, config.delta_fraction
            )
            references[program, version] = MRAEvaluator(spec.plan(graph)).run().values
        reference = references[program, version]
        if aggregate.numeric_values:
            agreed = compare_results(reference, profile.values, aggregate).ok
        else:
            agreed = reference == profile.values
        if not agreed:
            rep.fail(f"{program}@v{version} on {engine} disagrees with MRAEvaluator")


WORKLOADS = {
    "pagerank-sync": pagerank_sync,
    "pagerank-unified": pagerank_unified,
    "sssp-cold": sssp_cold,
    "sssp-delta": sssp_delta,
    "serve-mix": serve_mix,
}


def main(argv: list) -> int:
    job = json.loads(argv[1])
    rep = Repetition(job)
    rep.layers["cli.startup_s"] = _ENTERED - job["spawned_at"]
    try:
        exact = WORKLOADS[job["workload"]](rep)
    finally:
        if rep.tracer:
            rep.tracer.restore()
    result = {
        "setup_s": rep.setup_s,
        "solve_s": rep.solve_s,
        "peak_rss_mb": rep.peak_rss_mb,
        "failures": rep.failures,
        "exact": exact,
        "layers": rep.layers,
        "repair_ms": rep.repair_ms,
    }
    if rep.tracer:
        coverage = (rep.layers["cli.startup_s"] + rep.covered_s) / (
            rep.setup_s + rep.solve_s
        )
        if coverage < MIN_COVERAGE:
            rep.fail(f"named spans cover {coverage:.0%} of the wall, under {MIN_COVERAGE:.0%}")
        rep.layers["cli.import_s"] = rep.tracer.busy("cli.import")
        rep.layers["trace.coverage"] = coverage
        result["totals"] = rep.tracer.totals
        rep.tracer.write_jsonl(job["trace_out"], job["workload"])
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
