"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``lint TARGETS...``     -- run the static analyzer (structure checks,
  lints, Theorem-1 pre-screen, Theorem-3 async certificate,
  communication shape) over Datalog files / library programs;
  ``--format json`` emits machine-readable reports, ``--gate async``
  fails uncertified programs, ``--gate overflow`` fails programs with a
  proven RA351 overflow risk; library programs compile against their
  default graph so the RA35x range certificate, the ``cost`` section
  and the cross-worker census are concrete;
* ``check FILE|PROGRAM``  -- run the automatic MRA condition checker on a
  Datalog source file (or a library program name); ``--smt2`` also emits
  the Figure-4 Z3 script;
* ``run PROGRAM``         -- execute a library program on a dataset
  stand-in under a chosen engine; a run that stops at the iteration
  limit instead of converging exits 2 (so does ``delta``);
* ``experiment NAME``     -- regenerate a paper table/figure, one of
  :data:`repro.bench.EXPERIMENTS`; ``--save`` writes the files the
  entry declares under ``benchmarks/results/``;
* ``delta PROGRAM``       -- apply a :class:`~repro.delta.GraphDelta`
  (a JSON file or a seeded random batch) to a dataset stand-in, repair
  the program's fixpoint incrementally, verify exactness against a
  from-scratch run and report the repair statistics;
* ``chaos``               -- run the fault-injection recovery harness:
  chaotic executions (crashes, drops, duplicates, reordering) must
  reach the same fixpoint as fault-free references;
* ``trace PROGRAM``       -- run with structured trace events enabled,
  print per-kind event counts, optionally write JSONL (``--out``) and
  inject faults (``--chaos``); under chaos the aggregated ``fault.*``
  events are checked against ``EvalResult.faults`` exactly;
* ``metrics PROGRAM``     -- run with the metrics registry enabled and
  render counters, histograms and per-worker time-series (e.g. the
  unified engine's ``beta(i,j)`` buffer sizes over simulated time);
  ``--chaos`` injects faults so the ``EvalResult.faults`` counters in
  the summary are populated;
* ``serve``               -- play a seeded multi-tenant workload through
  the serving layer (admission control, deadlines, retries, circuit
  breakers, stale-but-certified degradation); ``--chaos`` adds the
  default chaos plan, ``--acceptance`` runs the SLO acceptance harness,
  ``--format json`` emits the deterministic SLO report;
* ``programs``            -- list the registry's eighteen programs (the
  fourteen of Table 1 and four semiring families);
* ``datasets``            -- list the Table-2 dataset stand-ins.

Engine-running commands accept ``--backend`` to pick the vertex-runtime
kernel (default: ``REPRO_BACKEND``, else ``python``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.checker import check_analysis, emit_property2_script
from repro.datalog import analyze, parse_program
from repro.distributed import (
    ENGINES,
    FAULT_TOLERANT_ENGINES,
    ClusterConfig,
    build_engine,
)
from repro.graphs import (
    EdgeListError,
    compute_stats,
    dataset_names,
    load_dataset,
)
from repro.programs import PROGRAMS, get_program
from repro.programs.builders import WalkBoundError
from repro.runtime import (
    BACKEND_ENV_VAR,
    KERNELS,
    KernelUnavailableError,
)
from repro.systems import SYSTEMS


class Refusal(Exception):
    """A request the CLI will not carry out: :func:`main` prints it as
    one ``error:`` line on stderr and exits 2."""


def _read_target(target: str) -> tuple[str, str]:
    """A Datalog file path or a library program name, as ``(name, source)``."""
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            return os.path.splitext(os.path.basename(target))[0], handle.read()
    if target in PROGRAMS:
        return target, PROGRAMS[target].source
    raise Refusal(
        f"{target!r} is neither a file nor a library program "
        f"(library programs: {', '.join(PROGRAMS)})"
    )


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze_source

    worst = 0
    payloads = []
    for target in args.targets:
        name, source = _read_target(target)
        plan = None
        if name in PROGRAMS:
            # library programs always lint against their default graph:
            # the RA35x range certificate and the cost section need a
            # compiled plan to be concrete (file targets stay symbolic)
            from repro.distributed.chaos_harness import default_graph

            plan = PROGRAMS[name].plan(default_graph(name, seed=args.seed))
        report = analyze_source(source, name=name, workers=args.workers, plan=plan)
        if args.format == "json":
            payloads.append(report.to_dict())
        else:
            print(report.render_text())
        worst = max(worst, report.exit_code(gate=args.gate))
    if args.format == "json":
        document = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(document, indent=2))
    return worst


def cmd_check(args: argparse.Namespace) -> int:
    name, source = _read_target(args.target)
    analysis = analyze(parse_program(source, name=name))
    report = check_analysis(analysis)
    print(report.summary())
    print(f"  F' = {analysis.fprime!r}   (recursion variable {analysis.recursion_var!r})")
    print(f"  property 1: {report.property1.detail}")
    print(f"  property 2: {report.property2.detail}")
    if args.smt2:
        script = emit_property2_script(
            analysis.aggregate,
            analysis.fprime,
            analysis.recursion_var,
            analysis.domains,
            program_name=analysis.program.name,
        )
        with open(args.smt2, "w", encoding="utf-8") as handle:
            handle.write(script)
        print(f"  Z3 script written to {args.smt2}")
    return 0 if report.mra_satisfiable else 1


def _convergence_status(program: str, result) -> int:
    """0, or 2 (one line on stderr) for a run that hit the iteration limit."""
    if result.stop_reason != "iteration-limit":
        return 0
    print(
        f"error: {program} did not converge (stop=iteration-limit "
        f"after {result.counters.iterations} rounds)",
        file=sys.stderr,
    )
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    from repro.graphs import read_edge_list

    spec = get_program(args.program)
    if args.graph:
        graph = read_edge_list(args.graph)
    else:
        graph = load_dataset(args.dataset, args.scale)
    cluster = ClusterConfig(num_workers=args.workers)
    if args.engine == "powerlog":
        system = SYSTEMS["PowerLog"]
        print(system.decide(spec).summary())
        result = system.run(spec, graph, cluster, backend=args.backend)
    else:
        plan = spec.plan(graph)
        result = build_engine(args.engine, plan, cluster, backend=args.backend).run()
    print(
        f"{spec.title} on {graph.name} ({graph.num_vertices} vertices, "
        f"{graph.num_edges} edges), engine={result.engine or args.engine}, "
        f"backend={result.backend}"
    )
    print(
        f"  {len(result.values)} result keys, stop={result.stop_reason}, "
        f"simulated {result.simulated_seconds:.3f}s"
    )
    counters = result.counters.snapshot()
    print(
        f"  work: {counters['fprime_applications']} F' applications, "
        f"{counters['messages']} messages, {counters['barriers']} barriers"
    )
    if args.top:
        ranked = sorted(result.values.items(), key=lambda kv: kv[1])
        # a max or sum fold's best values are its largest, min's and top-k's smallest
        if spec.analysis().aggregate.fold_mode in ("max", "sum"):
            ranked = ranked[::-1]
        print(f"  top {args.top}:")
        for key, value in ranked[: args.top]:
            print(f"    {key}: {value}")
    return _convergence_status(args.program, result)


def cmd_experiment(args: argparse.Namespace) -> int:
    # imported here, not at module level: only this command pays for the
    # harness, and the table's names are checked here instead of by argparse
    from repro.bench import EXPERIMENTS

    experiment = EXPERIMENTS.get(args.name)
    if experiment is None:
        raise Refusal(
            f"unknown experiment {args.name!r} (choose from {', '.join(EXPERIMENTS)})"
        )
    report = experiment.run()
    print(report.text)
    if args.save:
        for path in experiment.save(report):
            print(f"[saved to {path}]")
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    from repro.datalog import incremental_source

    name, source = _read_target(args.target)
    analysis = analyze(parse_program(source, name=name))
    if not analysis.iterated:
        print(f"{analysis.program.name} is already in incremental form")
        return 0
    print("% equivalent incremental program (paper Program 2.b, section 3.3)")
    print(incremental_source(analysis))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.distributed.chaos_harness import (
        DEFAULT_PROGRAMS,
        format_matrix,
        run_matrix,
    )

    programs = args.programs or list(DEFAULT_PROGRAMS)
    engines = args.engines or ["sync", "async"]
    schedule_kwargs = {}
    if args.drop is not None:
        schedule_kwargs["drop_rate"] = args.drop
    if args.duplicate is not None:
        schedule_kwargs["duplicate_rate"] = args.duplicate
    if args.crash_at:
        schedule_kwargs["crash_fractions"] = tuple(args.crash_at)
    try:
        reports = run_matrix(
            programs=tuple(programs),
            engines=tuple(engines),
            num_workers=args.workers,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            schedule_kwargs=schedule_kwargs or None,
            backend=args.backend,
        )
    except ValueError as exc:
        raise Refusal(str(exc)) from exc
    agreed = all(report.agreed for report in reports)
    if args.format == "json":
        import json

        document = {
            "agreed": agreed,
            "seed": args.seed,
            "reports": [report.to_dict() for report in reports],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if agreed else 1
    print(format_matrix(reports))
    if args.verbose:
        for report in reports:
            print(f"\n{report.program} / {report.engine}: {report.schedule}")
            for key, value in sorted(report.stats.items()):
                if value:
                    print(f"  {key}: {value}")
    return 0 if agreed else 1


def _observed_graph(args: argparse.Namespace):
    """The graph a ``trace``/``metrics`` run uses.

    Defaults to the chaos harness's small per-program graph so a trace
    stays readable; ``--dataset`` switches to the Table-2 stand-ins.
    """
    from repro.distributed.chaos_harness import default_graph

    if args.dataset:
        return load_dataset(args.dataset, args.scale)
    return default_graph(args.program, seed=args.seed)


def _observed_cluster(args: argparse.Namespace, spec, graph) -> ClusterConfig:
    """The cluster a ``trace``/``metrics`` run uses: with ``--chaos``, a
    fault schedule whose crash lands during a fault-free reference run."""
    from repro.distributed.chaos_harness import schedule_for

    cluster = ClusterConfig(num_workers=args.workers)
    if not args.chaos:
        return cluster
    reference = build_engine(
        args.engine, spec.plan(graph), cluster, backend=args.backend
    ).run()
    schedule = schedule_for(
        reference.simulated_seconds, cluster.num_workers, seed=args.seed
    )
    print(f"fault schedule: {schedule.describe()}")
    return cluster.with_faults(schedule)


def _refuse_naive_chaos(args: argparse.Namespace) -> None:
    """Refuse ``--chaos`` on an engine that accepts no fault schedule."""
    if args.chaos and args.engine not in FAULT_TOLERANT_ENGINES:
        raise Refusal(
            f"--chaos needs an engine that accepts a fault schedule "
            f"({', '.join(FAULT_TOLERANT_ENGINES)}), not {args.engine}"
        )


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Observability, aggregate_fault_events

    _refuse_naive_chaos(args)
    spec = get_program(args.program)
    graph = _observed_graph(args)
    cluster = _observed_cluster(args, spec, graph)
    with Observability(trace_path=args.out) as obs:
        result = build_engine(
            args.engine, spec.plan(graph), cluster, obs=obs, backend=args.backend
        ).run()
    events = obs.trace.events
    print(
        f"{spec.title} on {graph.name}, engine={result.engine}, "
        f"stop={result.stop_reason}, simulated {result.simulated_seconds:.3f}s: "
        f"{len(events)} trace events"
    )
    for kind, count in sorted(obs.trace.counts_by_kind().items()):
        print(f"  {kind:24s} {count}")
    if args.out:
        print(f"[trace written to {args.out}]")
    if result.faults is not None:
        observed = aggregate_fault_events(events)
        expected = result.faults.snapshot()
        mismatched = {
            key: (observed.get(key, 0), value)
            for key, value in expected.items()
            if observed.get(key, 0) != value
        }
        if mismatched:
            print("FAULT EVENT MISMATCH (trace events vs EvalResult.faults):")
            for key, (got, want) in sorted(mismatched.items()):
                print(f"  {key}: events={got} counters={want}")
            return 1
        print(
            "fault events agree with EvalResult.faults "
            f"({sum(expected.values())} fault counts)"
        )
    return 0


def _print_estimates(title: str, rows: dict) -> None:
    """A section of the plan's static estimates, one line each by name."""
    print(title)
    for key, value in sorted(rows.items()):
        print(f"  {key:28s} {value:g}")


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.absint import estimate_plan_cost
    from repro.analysis.comm import estimate_plan_communication
    from repro.bench.charts import sparkline
    from repro.obs import Observability

    _refuse_naive_chaos(args)
    spec = get_program(args.program)
    graph = _observed_graph(args)
    cluster = _observed_cluster(args, spec, graph)
    plan = spec.plan(graph)
    obs = Observability()
    result = build_engine(
        args.engine, plan, cluster, obs=obs, backend=args.backend
    ).run()
    metrics = result.metrics
    print(
        f"{spec.title} on {graph.name}, engine={result.engine}, "
        f"stop={result.stop_reason}: {metrics!r}"
    )
    snapshot = metrics.snapshot()
    if snapshot["counters"]:
        print("counters (summed over labels):")
        totals: dict = {}
        for key, value in snapshot["counters"].items():
            name = key.split("{", 1)[0]
            totals[name] = totals.get(name, 0) + value
        for name, value in sorted(totals.items()):
            print(f"  {name:24s} {value:g}")
    for key, stats in snapshot["histograms"].items():
        print(
            f"histogram {key}: count={stats['count']} mean={stats['mean']:.2f} "
            f"min={stats['min']:g} max={stats['max']:g}"
        )
    comm = estimate_plan_communication(plan, cluster.num_workers)
    _print_estimates("communication shape (hash-partitioned plan):", {
        "comm_edges_total": comm.total_edges,
        "comm_edges_cross_worker": comm.cross_edges,
        "comm_cross_fraction": comm.cross_fraction,
        **{
            f"comm_out_messages{{worker={worker}}}": count
            for worker, count in enumerate(comm.per_worker_out)
        },
    })
    cost = estimate_plan_cost(plan)
    _print_estimates("static cost estimate (abstract interpretation):", {
        f"{name}{{program={cost.program}}}": value
        for name, value in (
            ("cost_supersteps_est", cost.supersteps),
            ("cost_work_est", cost.work),
            ("cost_peak_frontier_fraction", cost.peak_frontier_fraction),
            ("cost_seconds_est", cost.est_seconds()),
        )
    })
    series_found = False
    for labels, series in metrics.gauge_series("buffer.beta"):
        if not series_found:
            print("beta(i,j) over simulated time:")
            series_found = True
        pair = dict(labels)
        values = [value for _, value in series]
        print(
            f"  beta({pair.get('worker')},{pair.get('target')}) "
            f"{sparkline(values)}  "
            f"[{values[0]:.0f} -> {values[-1]:.0f}, {len(values)} adaptations]"
        )
    if not series_found and args.engine == "unified":
        print("(no buffer adaptations recorded)")
    faults = result.faults.snapshot() if result.faults is not None else {}
    nonzero = {key: value for key, value in faults.items() if value}
    if nonzero:
        print("fault counters (EvalResult.faults):")
        for key, value in sorted(nonzero.items()):
            print(f"  {key:24s} {value}")
    print(
        f"totals: {len(snapshot['counters'])} counter series, "
        f"{len(snapshot['histograms'])} histograms, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{sum(faults.values())} fault counts"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (
        ServeConfig,
        ServingService,
        WorkloadSpec,
        build_report,
        default_chaos,
        render_text,
        report_to_json,
        run_serve_acceptance,
    )

    spec = WorkloadSpec(
        num_requests=args.requests,
        arrival_rate=args.rate,
        burst_factor=args.burst_factor,
    )
    config = ServeConfig(
        executors=args.executors,
        workers=args.workers,
        freshness_ttl=args.freshness_ttl,
        backend=args.backend,
    )
    chaos = default_chaos() if args.chaos else None

    if args.acceptance:
        acceptance = run_serve_acceptance(
            spec=spec,
            config=config,
            chaos=chaos,
            seed=args.seed,
            checkpoint_root=args.checkpoint_dir,
        )
        report = dict(acceptance.report)
        report["acceptance"] = {
            "passed": acceptance.passed,
            "deterministic": acceptance.deterministic,
            "no_lost_requests": acceptance.no_lost_requests,
            "answer_agreement": acceptance.all_agreed,
            "breaker_visible": acceptance.breaker_visible,
            "engine_runs_checked": len(acceptance.agreements),
        }
        exit_code = 0 if acceptance.passed else 1
    else:
        service = ServingService(
            config, chaos=chaos, checkpoint_dir=args.checkpoint_dir
        )
        outcome = service.run(spec, seed=args.seed)
        report = build_report(outcome, spec, config, chaos=chaos)
        acceptance = None
        exit_code = 0

    payload = report_to_json(report)
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        print(render_text({k: v for k, v in report.items() if k != "acceptance"}))
        if acceptance is not None:
            print(acceptance.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        if args.format != "json":
            print(f"[SLO report written to {args.out}]")
    return exit_code


def cmd_delta(args: argparse.Namespace) -> int:
    from repro.delta import DeltaValidationError

    try:
        return _run_delta(args)
    except DeltaValidationError as exc:  # a malformed or inapplicable batch
        raise Refusal(str(exc)) from exc


def _run_delta(args: argparse.Namespace) -> int:
    import json

    from repro.bench.delta import work
    from repro.delta import GraphDelta, IncrementalEngine, random_delta
    from repro.engine import MRAEvaluator

    if not (args.file or args.inserts or args.deletes or args.updates):
        raise Refusal(
            "give a delta file or at least one of --inserts/--deletes/--updates"
        )
    spec = get_program(args.program)
    graph = load_dataset(args.dataset, args.scale).with_weights()

    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            delta = GraphDelta.from_json(handle.read())
    else:
        delta = random_delta(
            graph,
            seed=args.seed,
            insert_edges=args.inserts,
            delete_edges=args.deletes,
            update_weights=args.updates,
        )

    engine = IncrementalEngine(args.program, graph, backend=args.backend)
    engine.bootstrap()
    repair = engine.apply(delta)
    stats = repair.to_dict()

    scratch = MRAEvaluator(
        spec.plan(engine.view.graph), backend=args.backend
    ).run()
    if engine.values != scratch.values:
        raise SystemExit(
            "error: repaired fixpoint differs from recompute (bug)"
        )

    repair_work = work(repair.counters)
    recompute_work = work(scratch.counters)
    payload = {
        "program": args.program,
        "dataset": args.dataset,
        "scale": args.scale,
        "mode": engine.verdict.mode,
        "code": engine.verdict.code,
        "delta": delta.summary(),
        "repair": stats,
        "repair_work": repair_work,
        "recompute_work": recompute_work,
        "work_ratio": round(repair_work / recompute_work, 4)
        if recompute_work
        else None,
        "exact": True,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return _convergence_status(args.program, repair)

    summary = delta.summary()
    print(
        f"{spec.title} on {args.dataset}@{args.scale}: "
        f"incremental mode {engine.verdict.mode} ({engine.verdict.code})"
    )
    print(
        f"  delta: +{summary['insert_edges']} edges, "
        f"-{summary['delete_edges']} edges, "
        f"{summary['update_weights']} reweights, "
        f"+{summary['add_vertices']}/-{summary['remove_vertices']} vertices"
    )
    print(
        f"  repair: strategy={repair.strategy}, "
        f"frontier={repair.frontier_size}, reset={repair.reset_keys}, "
        f"rounds={repair.counters.iterations}, stop={repair.stop_reason}"
    )
    print(
        f"  work: repair {repair_work} vs recompute {recompute_work} "
        f"({payload['work_ratio']:.1%} of from-scratch, exact match verified)"
    )
    return _convergence_status(args.program, repair)


def cmd_programs(_: argparse.Namespace) -> int:
    from repro.aggregates import BUILTIN_AGGREGATES

    print(
        f"{'name':12s} {'title':24s} {'aggregator':10s} {'semiring':11s} "
        f"{'laws':22s} {'MRA sat.':8s} benchmarked"
    )
    for name, spec in PROGRAMS.items():
        semiring = BUILTIN_AGGREGATES[spec.aggregator].semiring
        print(
            f"{name:12s} {spec.title:24s} {spec.aggregator:10s} "
            f"{semiring.name if semiring else '-':11s} "
            f"{semiring.law_summary() if semiring else '-':22s} "
            f"{'yes' if spec.expected_mra else 'no':8s} "
            f"{'yes' if spec.benchmarked else ''}"
        )
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    for name in dataset_names():
        stats = compute_stats(load_dataset(name, args.scale))
        print(stats.row())
    return 0


def _add_backend(subparser) -> None:
    subparser.add_argument(
        "--backend",
        choices=sorted(KERNELS),
        help=(
            "execution kernel for the vertex runtime (default: the "
            f"{BACKEND_ENV_VAR} environment variable, else 'python'); "
            "'sparse' is an alias of 'numpy'"
        ),
    )


def _number(cast, accepts, expected: str):
    """An argparse ``type=``: parse with ``cast`` and reject what
    ``accepts`` refuses, so an out-of-range value is a usage error (one
    ``error:`` line, exit 2) instead of a traceback from wherever the
    value is first used -- or a run of something other than was asked."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_count = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(
    float, lambda v: 0 < v < float("inf"), "a positive finite number"
)
_non_negative_float = _number(
    float, lambda v: 0 <= v < float("inf"), "a non-negative finite number"
)
_probability = _number(float, lambda v: 0 <= v <= 1, "a probability in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PowerLog reproduction (SIGMOD 2020)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint", help="run the static analyzer over Datalog programs"
    )
    lint.add_argument(
        "targets",
        nargs="+",
        help="Datalog files and/or library program names",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"], dest="format"
    )
    lint.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        help="worker count for the communication-shape estimate",
    )
    lint.add_argument(
        "--gate",
        default="none",
        choices=["none", "async", "overflow"],
        help=(
            "'async' also fails programs without a Theorem-3 certificate; "
            "'overflow' fails programs with a proven RA351 overflow risk"
        ),
    )
    lint.add_argument("--seed", type=int, default=7)
    lint.set_defaults(func=cmd_lint)

    check = commands.add_parser("check", help="run the MRA condition checker")
    check.add_argument("target", help="Datalog file or library program name")
    check.add_argument("--smt2", help="also write the Figure-4 Z3 script here")
    check.set_defaults(func=cmd_check)

    run = commands.add_parser("run", help="execute a library program")
    run.add_argument("program", choices=sorted(PROGRAMS))
    run.add_argument("--dataset", default="livej", choices=dataset_names())
    run.add_argument(
        "--graph", help="run on a TSV edge-list file instead of a dataset"
    )
    run.add_argument(
        "--engine",
        default="powerlog",
        choices=["powerlog", *sorted(ENGINES)],
    )
    run.add_argument("--workers", type=_positive_int, default=16)
    run.add_argument("--scale", type=_positive_float, default=1.0)
    run.add_argument("--top", type=_count, default=0, help="print the top-N results")
    _add_backend(run)
    run.set_defaults(func=cmd_run)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", help="an entry of repro.bench.EXPERIMENTS")
    experiment.add_argument(
        "--save", action="store_true", help="persist under benchmarks/results/"
    )
    experiment.set_defaults(func=cmd_experiment)

    rewrite = commands.add_parser(
        "rewrite", help="emit the equivalent incremental program (Program 2.b)"
    )
    rewrite.add_argument("target", help="Datalog file or library program name")
    rewrite.set_defaults(func=cmd_rewrite)

    delta = commands.add_parser(
        "delta",
        help="apply a graph delta and repair the fixpoint incrementally",
    )
    delta.add_argument("program", choices=sorted(PROGRAMS))
    delta.add_argument("--dataset", default="livej", choices=dataset_names())
    delta.add_argument("--scale", type=_positive_float, default=0.25)
    delta.add_argument(
        "--file", help="JSON GraphDelta file (see GraphDelta.to_json)"
    )
    delta.add_argument(
        "--inserts", type=_count, default=0, help="random edges to insert"
    )
    delta.add_argument(
        "--deletes", type=_count, default=0, help="random edges to delete"
    )
    delta.add_argument(
        "--updates", type=_count, default=0, help="random weights to update"
    )
    delta.add_argument("--seed", type=int, default=7)
    delta.add_argument("--format", choices=["text", "json"], default="text")
    _add_backend(delta)
    delta.set_defaults(func=cmd_delta)

    chaos = commands.add_parser(
        "chaos", help="run the fault-injection recovery harness"
    )
    chaos.add_argument(
        "--programs",
        nargs="*",
        choices=sorted(PROGRAMS),
        help="programs to subject to faults (default: sssp dag_paths pagerank)",
    )
    chaos.add_argument(
        "--engines",
        nargs="*",
        choices=FAULT_TOLERANT_ENGINES,
        help="engines to run (default: sync async)",
    )
    chaos.add_argument("--workers", type=_positive_int, default=4)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--drop", type=_probability, help="message drop probability (default 0.02)"
    )
    chaos.add_argument(
        "--duplicate",
        type=_probability,
        help="duplicate-delivery probability (default 0.01)",
    )
    chaos.add_argument(
        "--crash-at",
        type=_non_negative_float,
        nargs="*",
        help="crash times as fractions of the fault-free duration (default 0.35)",
    )
    chaos.add_argument(
        "--checkpoint-dir",
        help="enable disk checkpoints for the chaotic runs in this directory",
    )
    chaos.add_argument(
        "-v", "--verbose", action="store_true", help="print per-run fault counters"
    )
    chaos.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="'json' emits the machine-readable ChaosReport list",
    )
    _add_backend(chaos)
    chaos.set_defaults(func=cmd_chaos)

    def _obs_common(subparser, default_engine):
        subparser.add_argument("program", choices=sorted(PROGRAMS))
        subparser.add_argument(
            "--engine", default=default_engine, choices=sorted(ENGINES)
        )
        subparser.add_argument(
            "--dataset",
            choices=dataset_names(),
            help="run on a Table-2 stand-in instead of the small default graph",
        )
        subparser.add_argument("--scale", type=_positive_float, default=1.0)
        subparser.add_argument("--workers", type=_positive_int, default=4)
        subparser.add_argument("--seed", type=int, default=7)
        _add_backend(subparser)

    trace = commands.add_parser(
        "trace", help="run a program with structured trace events enabled"
    )
    _obs_common(trace, "unified")
    trace.add_argument(
        "--chaos",
        action="store_true",
        help="inject faults and check fault events against EvalResult.faults",
    )
    trace.add_argument("--out", help="write the trace as JSONL to this file")
    trace.set_defaults(func=cmd_trace)

    metrics = commands.add_parser(
        "metrics", help="run a program and render its metrics registry"
    )
    _obs_common(metrics, "unified")
    metrics.add_argument(
        "--chaos",
        action="store_true",
        help="inject faults so EvalResult.faults counters are populated",
    )
    metrics.set_defaults(func=cmd_metrics)

    serve = commands.add_parser(
        "serve",
        help="play a multi-tenant workload through the serving layer",
    )
    serve.add_argument(
        "--requests", type=_count, default=100, help="workload size (default 100)"
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--rate",
        type=_positive_float,
        default=4.0,
        help="mean arrival rate in requests per simulated second",
    )
    serve.add_argument(
        "--burst-factor",
        type=_positive_float,
        default=7.0,
        help="arrival-rate multiplier during the burst window",
    )
    serve.add_argument(
        "--executors",
        type=_positive_int,
        default=1,
        help="concurrent engine-execution slots",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        help="simulated workers per execution",
    )
    serve.add_argument(
        "--freshness-ttl",
        type=_non_negative_float,
        default=1.5,
        help="cache entries older than this are recomputed (simulated s)",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="serve under the default chaos plan (attempt failures, a "
        "sync-backend outage, engine-level drops and duplicates)",
    )
    serve.add_argument(
        "--acceptance",
        action="store_true",
        help="run the SLO acceptance harness (determinism, no lost "
        "requests, degraded-answer agreement) and fail on violations",
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="persist engine checkpoints here; recomputations resume "
        "from them instead of recomputing cold",
    )
    serve.add_argument(
        "--format", default="text", choices=["text", "json"], dest="format"
    )
    serve.add_argument("--out", help="also write the JSON SLO report here")
    _add_backend(serve)
    serve.set_defaults(func=cmd_serve)

    programs = commands.add_parser(
        "programs", help="list the 14 Table-1 programs and 4 semiring families"
    )
    programs.set_defaults(func=cmd_programs)

    datasets = commands.add_parser("datasets", help="list dataset stand-ins")
    datasets.add_argument("--scale", type=_positive_float, default=1.0)
    datasets.set_defaults(func=cmd_datasets)

    return parser


def main(argv=None) -> int:
    """Run one command.  A refusal -- a bad target, input file or option
    combination, an engine that will not take the program -- is one
    ``error:`` line on stderr and exit 2; exit 1 is a verdict (``check``
    unsatisfiable, a ``chaos``/``trace`` mismatch, a wrong repair)."""
    from repro.analysis import AsyncIneligibleError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        Refusal,
        AsyncIneligibleError,
        EdgeListError,
        KernelUnavailableError,
        WalkBoundError,
    ) as exc:
        # one line: a diagnostic's hint follows its message after a "; "
        message = "; ".join(line.strip() for line in str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
