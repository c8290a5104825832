"""Experiment runners for every table and figure in the paper.

Each ``run_*`` function executes the experiment on the simulated cluster
and returns an :class:`ExperimentReport` (structured rows + formatted
text).  Results are checked against the single-node MRA reference during
the run; a cell whose engine misses it fails the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from repro.bench.paper_data import (
    PAPER_FIGURE1,
    PAPER_FIGURE10_CLAIMS,
    PAPER_SPEEDUP_CLAIMS,
    PAPER_TABLE2,
)
from repro.bench.charts import grouped_bar_chart, sparkline
from repro.bench.report import format_table
from repro.checker import emit_property2_script
from repro.distributed import ClusterConfig, build_engine
from repro.distributed.buffers import BufferPolicy
from repro.engine import MRAEvaluator, NaiveEvaluator, SemiNaiveEvaluator, compare_results
from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult
from repro.graphs import compute_stats, dataset_names, load_dataset
from repro.graphs.generators import random_dag, rmat
from repro.obs import Observability
from repro.programs import PROGRAMS, benchmark_programs
from repro.systems import SYSTEMS, PowerLog


@dataclass
class ExperimentReport:
    """Rows plus formatted text for one experiment.

    ``artifacts`` holds the files saved beside ``<name>.txt``, by path
    relative to ``benchmarks/results/`` (Table 1's SMT-LIB scripts, the
    delta bench's JSON baseline).
    """

    name: str
    rows: list[dict]
    text: str
    notes: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    def __str__(self):
        return self.text


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------
@lru_cache(maxsize=128)
def _plan(program: str, dataset: str, scale: float) -> CompiledPlan:
    graph = load_dataset(dataset, scale)
    return PROGRAMS[program].plan(graph)


@lru_cache(maxsize=128)
def _reference_values(program: str, dataset: str, scale: float):
    return MRAEvaluator(_plan(program, dataset, scale)).run().values


def _seconds(
    result: EvalResult, program: str, dataset: str, scale: float, label: str
) -> float:
    """A run's simulated seconds; a run whose values miss the reference
    fixpoint fails the experiment instead of timing a wrong answer."""
    reference = _reference_values(program, dataset, scale)
    aggregate = PROGRAMS[program].analysis().aggregate
    comparison = compare_results(reference, result.values, aggregate)
    if not comparison.ok:
        raise AssertionError(
            f"{program} on {dataset} @ {scale:g}, {label}: missed the reference "
            f"fixpoint ({comparison.summary()}) -- its seconds would be bogus"
        )
    return result.simulated_seconds if result.simulated_seconds is not None else 0.0


def _run_grid(grid: dict, program: str, dataset: str, scale: float) -> dict:
    """Seconds per label of a ``label -> (ENGINES name, options)`` grid."""
    plan = _plan(program, dataset, scale)
    cluster = ClusterConfig()
    return {
        label: _seconds(
            build_engine(engine, plan, cluster, **options).run(),
            program, dataset, scale, label,
        )
        for label, (engine, options) in grid.items()
    }


def _figure(name: str, title: str, rows: list, notes: list, series: list) -> ExperimentReport:
    """Table, notes, and grouped bars with one group per program/dataset."""
    chart = grouped_bar_chart(
        [{**row, "cell": f"{row['program']}/{row['dataset']}"} for row in rows],
        "cell",
        series,
    )
    text = f"{title}\n{format_table(rows)}\n" + "\n".join(notes) + "\n\n" + chart
    return ExperimentReport(name, rows, text, notes)


# --------------------------------------------------------------------------
# Figure 1 -- motivation: sync vs async flip across workloads
# --------------------------------------------------------------------------
def run_figure1(scale: float = 1.0) -> ExperimentReport:
    """SociaLite (sync) vs Myria (async): neither consistently wins."""
    cases = [
        ("sssp", "livej"),
        ("pagerank", "livej"),
        ("sssp", "wiki"),
        ("sssp", "arabic"),
    ]
    rows = []
    for program, dataset in cases:
        graph = load_dataset(dataset, scale)
        spec = PROGRAMS[program]
        measured = {}
        for system_name in ("SociaLite", "Myria"):
            result = SYSTEMS[system_name].run(spec, graph)
            measured[system_name] = _seconds(
                result, program, dataset, scale, system_name
            )
        paper = PAPER_FIGURE1[(program, dataset)]
        rows.append(
            {
                "workload": f"{program}/{dataset}",
                "SociaLite(s)": measured["SociaLite"],
                "Myria(s)": measured["Myria"],
                "winner": min(measured, key=measured.get),
                "paper SociaLite": paper["SociaLite"],
                "paper Myria": paper["Myria"],
                "paper winner": min(paper, key=paper.get),
            }
        )
    matches = sum(1 for r in rows if r["winner"] == r["paper winner"])
    notes = [f"winner agreement with paper: {matches}/{len(rows)} workloads"]
    chart = grouped_bar_chart(
        [
            {"workload": r["workload"], "SociaLite": r["SociaLite(s)"], "Myria": r["Myria(s)"]}
            for r in rows
        ],
        "workload",
        ["SociaLite", "Myria"],
    )
    text = (
        "Figure 1 -- SociaLite (sync) vs Myria (async)\n"
        + format_table(rows)
        + "\n"
        + "\n".join(notes)
        + "\n\n"
        + chart
    )
    return ExperimentReport("figure1", rows, text, notes)


# --------------------------------------------------------------------------
# Table 1 -- automatic condition check on every registry program
# --------------------------------------------------------------------------
def run_table1(emit_scripts: bool = False) -> ExperimentReport:
    """MRA satisfiability of every registry program + engine routing.

    With ``emit_scripts`` the report's artifacts carry each program's
    Figure-4 Property-2 script as ``smtlib/<program>.smt2``.
    """
    rows = []
    scripts: dict[str, str] = {}
    for name, spec in PROGRAMS.items():
        analysis = spec.analysis()
        decision = PowerLog.decide(spec)
        report = decision.report
        expected = "yes" if spec.expected_mra else "no"
        verdict = "yes" if report.mra_satisfiable else "no"
        rows.append(
            {
                "program": spec.title,
                "MRA sat.": verdict,
                "paper": expected,
                "aggregator": spec.aggregator,
                "P2 method": report.property2.method,
                "engine": decision.engine,
            }
        )
        if emit_scripts:
            scripts[f"smtlib/{name}.smt2"] = emit_property2_script(
                analysis.aggregate,
                analysis.fprime,
                analysis.recursion_var,
                analysis.domains,
                program_name=name,
            )
    agreement = sum(1 for r in rows if r["MRA sat."] == r["paper"])
    notes = [f"Table-1 agreement: {agreement}/{len(rows)} programs"]
    text = (
        "Table 1 -- MRA condition check\n"
        + format_table(rows)
        + "\n"
        + "\n".join(notes)
    )
    return ExperimentReport("table1", rows, text, notes, scripts)


# --------------------------------------------------------------------------
# Table 2 -- datasets
# --------------------------------------------------------------------------
def run_table2(scale: float = 1.0) -> ExperimentReport:
    """Dataset stand-ins next to the paper's real datasets."""
    rows = []
    for name in dataset_names():
        stats = compute_stats(load_dataset(name, scale))
        paper = PAPER_TABLE2[name]
        rows.append(
            {
                "dataset": paper["paper_name"],
                "paper V": paper["vertices"],
                "paper E": paper["edges"],
                "repro V": stats.num_vertices,
                "repro E": stats.num_edges,
                "avg deg": round(stats.avg_degree, 1),
                "skew": round(stats.degree_skew, 1),
                "ecc(0)": stats.eccentricity_from_0,
            }
        )
    text = "Table 2 -- datasets (paper vs synthetic stand-ins)\n" + format_table(rows)
    return ExperimentReport("table2", rows, text)


# --------------------------------------------------------------------------
# Figure 9 -- overall system comparison
# --------------------------------------------------------------------------
def run_figure9(
    programs: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> ExperimentReport:
    """PowerLog vs SociaLite / Myria / BigDatalog on the six algorithms."""
    programs = list(programs or benchmark_programs())
    datasets = list(datasets or dataset_names())
    system_names = ["SociaLite", "Myria", "BigDatalog", "PowerLog"]
    rows = []
    speedups: dict[str, list[float]] = {p: [] for p in programs}
    for program in programs:
        spec = PROGRAMS[program]
        for dataset in datasets:
            graph = load_dataset(dataset, scale)
            cell: dict = {"program": program, "dataset": dataset}
            times: dict[str, float] = {}
            for system_name in system_names:
                system = SYSTEMS[system_name]
                if not system.supports(spec):
                    cell[system_name] = None
                    continue
                seconds = _seconds(
                    system.run(spec, graph), program, dataset, scale, system_name
                )
                cell[system_name] = seconds
                times[system_name] = seconds
            powerlog_time = times.get("PowerLog")
            if powerlog_time:
                for system_name, seconds in times.items():
                    if system_name != "PowerLog" and seconds:
                        speedups[program].append(seconds / powerlog_time)
            rows.append(cell)
    notes = []
    for program in programs:
        if not speedups[program]:
            continue
        low, high = min(speedups[program]), max(speedups[program])
        claim = PAPER_SPEEDUP_CLAIMS.get(program)
        claim_text = f" (paper: {claim[0]}x-{claim[1]}x)" if claim else ""
        notes.append(
            f"{program}: PowerLog speedup {low:.1f}x-{high:.1f}x{claim_text}"
        )
    return _figure(
        "figure9",
        "Figure 9 -- overall comparison (simulated seconds, log-scale bars)",
        rows,
        notes,
        system_names,
    )


# --------------------------------------------------------------------------
# Figure 10 -- performance gain decomposition
# --------------------------------------------------------------------------
_GRAPH_BASELINE = {
    "cc": "PowerGraph",
    "sssp": "PowerGraph",
    "pagerank": "Maiter",
    "adsorption": "Maiter",
    "katz": "Maiter",
    "bp": "Prom",
}

_ASYNC_BETA64 = {"buffer_policy": BufferPolicy(initial_beta=64, adaptive=False)}

#: label -> (ENGINES name, options)
_FIGURE10_GRID = {
    "naive+sync": ("naive", {}),
    "mra+sync": ("sync", {}),
    "mra+async": ("async", _ASYNC_BETA64),
    "mra+sync-async": ("unified", {}),
}


def run_figure10(
    programs: Optional[Sequence[str]] = None,
    datasets: Sequence[str] = ("wiki", "web", "arabic"),
    scale: float = 1.0,
) -> ExperimentReport:
    """Naive+Sync vs MRA x {sync, async, sync-async} vs graph engines."""
    programs = list(programs or benchmark_programs())
    rows = []
    gains: dict[tuple[str, str], list[float]] = {}
    for program in programs:
        spec = PROGRAMS[program]
        baseline_system = SYSTEMS[_GRAPH_BASELINE[program]]
        for dataset in datasets:
            graph = load_dataset(dataset, scale)
            cell: dict = {
                "program": program,
                "dataset": dataset,
                **_run_grid(_FIGURE10_GRID, program, dataset, scale),
            }
            naive_seconds = cell["naive+sync"]
            if naive_seconds:
                for label in ("mra+sync", "mra+async", "mra+sync-async"):
                    gains.setdefault((program, label), []).append(
                        naive_seconds / cell[label]
                    )
            graph_result = baseline_system.run(spec, graph)
            cell["graph-engine"] = _seconds(
                graph_result, program, dataset, scale, baseline_system.name
            )
            cell["graph-engine sys"] = baseline_system.name
            rows.append(cell)
    notes = []
    for program in programs:
        for label in ("mra+sync", "mra+sync-async"):
            values = gains.get((program, label))
            if not values:
                continue
            claim = PAPER_FIGURE10_CLAIMS.get(program, {}).get(label)
            claim_text = f" (paper: {claim[0]}x-{claim[1]}x)" if claim else ""
            notes.append(
                f"{program} {label}: gain over naive+sync "
                f"{min(values):.1f}x-{max(values):.1f}x{claim_text}"
            )
    return _figure(
        "figure10",
        "Figure 10 -- gain from MRA evaluation and sync-async execution",
        rows,
        notes,
        [*_FIGURE10_GRID, "graph-engine"],
    )


# --------------------------------------------------------------------------
# Figure 11 -- unified sync-async vs AAP
# --------------------------------------------------------------------------
_FIGURE11_GRID = {
    "sync": ("sync", {}),
    "async": ("async", _ASYNC_BETA64),
    "aap": ("aap", {}),
    "sync-async": ("unified", {}),
}


def run_figure11(
    datasets: Sequence[str] = ("wiki", "web", "arabic"),
    scale: float = 1.0,
) -> ExperimentReport:
    """Sync / Async / AAP / Sync-Async on SSSP and PageRank."""
    rows = []
    wins = 0
    for program in ("sssp", "pagerank"):
        for dataset in datasets:
            cell: dict = {
                "program": program,
                "dataset": dataset,
                **_run_grid(_FIGURE11_GRID, program, dataset, scale),
            }
            cell["best"] = best = min(_FIGURE11_GRID, key=cell.get)
            wins += best == "sync-async"
            rows.append(cell)
    notes = [f"sync-async best on {wins}/{len(rows)} cells (paper: all)"]
    return _figure(
        "figure11", "Figure 11 -- unified sync-async vs AAP", rows, notes, [*_FIGURE11_GRID]
    )


# --------------------------------------------------------------------------
# Extension: adaptive buffer ablation (section 5.3)
# --------------------------------------------------------------------------
def run_buffer_ablation(
    programs: Sequence[str] = ("sssp", "pagerank"),
    datasets: Sequence[str] = ("livej", "arabic"),
    scale: float = 1.0,
    observe: bool = False,
) -> ExperimentReport:
    """Fixed small / fixed large / adaptive message buffers.

    With ``observe=True`` the adaptive run carries an
    :class:`repro.obs.Observability` and the report appends per-worker
    ``beta(i,j)`` time-series sparklines -- the paper's section 5.3 knob
    made visible.  Observability never touches the simulation's RNG or
    clock, so the measured seconds are identical either way.
    """
    cluster = ClusterConfig()
    rows = []
    beta_sections: list[str] = []
    for program in programs:
        for dataset in datasets:
            plan = _plan(program, dataset, scale)
            configs = {
                "beta=4": BufferPolicy(initial_beta=4, adaptive=False),
                "beta=64": BufferPolicy(initial_beta=64, adaptive=False),
                "beta=1024": BufferPolicy(initial_beta=1024, adaptive=False),
                "adaptive": BufferPolicy(adaptive=True),
            }
            cell: dict = {"program": program, "dataset": dataset}
            for label, policy in configs.items():
                obs = Observability() if observe and label == "adaptive" else None
                result = build_engine(
                    "unified", plan, cluster, buffer_policy=policy, obs=obs
                ).run()
                cell[label] = _seconds(result, program, dataset, scale, label)
                cell[f"{label} msgs"] = result.counters.messages
                if obs is not None and result.metrics is not None:
                    lines = [f"beta(i,j) over time -- {program}/{dataset}:"]
                    for labels, series in result.metrics.gauge_series("buffer.beta"):
                        pair = dict(labels)
                        values = [value for _, value in series]
                        lines.append(
                            f"  beta({pair.get('worker')},{pair.get('target')}) "
                            f"{sparkline(values)}  "
                            f"[{values[0]:.0f} -> {values[-1]:.0f}, "
                            f"{len(values)} adaptations]"
                        )
                    if len(lines) > 1:
                        beta_sections.append("\n".join(lines))
            rows.append(cell)
    text = "Adaptive buffer ablation (section 5.3)\n" + format_table(rows)
    if beta_sections:
        text += "\n\n" + "\n\n".join(beta_sections)
    return ExperimentReport("buffer_ablation", rows, text)


# --------------------------------------------------------------------------
# Extension: importance-threshold ablation (section 5.4)
# --------------------------------------------------------------------------
def run_priority_ablation(
    programs: Sequence[str] = ("pagerank", "katz", "adsorption"),
    datasets: Sequence[str] = ("livej", "arabic"),
    scale: float = 1.0,
) -> ExperimentReport:
    """The section 5.4 sum optimisation: with vs without the threshold."""
    cluster = ClusterConfig()
    rows = []
    for program in programs:
        for dataset in datasets:
            plan = _plan(program, dataset, scale)
            with_threshold = build_engine("unified", plan, cluster).run()
            without = build_engine("unified", plan, cluster, importance_threshold=0.0).run()
            rows.append(
                {
                    "program": program,
                    "dataset": dataset,
                    "with(s)": _seconds(
                        with_threshold, program, dataset, scale, "with threshold"
                    ),
                    "without(s)": _seconds(
                        without, program, dataset, scale, "without threshold"
                    ),
                    "with F'": with_threshold.counters.fprime_applications,
                    "without F'": without.counters.fprime_applications,
                    "work saved": (
                        f"{100 * (1 - with_threshold.counters.fprime_applications / max(1, without.counters.fprime_applications)):.0f}%"
                    ),
                }
            )
    text = "Importance-threshold ablation (section 5.4)\n" + format_table(rows)
    return ExperimentReport("priority_ablation", rows, text)


# --------------------------------------------------------------------------
# Extension: worker-count scaling
# --------------------------------------------------------------------------
def run_worker_scaling(
    programs: Sequence[str] = ("sssp", "pagerank"),
    dataset: str = "livej",
    worker_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    scale: float = 1.0,
) -> ExperimentReport:
    """Simulated-time scaling of the unified engine with cluster size.

    Not a paper figure (the paper fixes 16 workers); a reproduction
    extension that doubles as a regression guard on the simulator's
    scaling behaviour (compute divides across workers, coordination
    costs do not).
    """
    rows = []
    for program in programs:
        plan = _plan(program, dataset, scale)
        row: dict = {"program": program, "dataset": dataset}
        for workers in worker_counts:
            result = build_engine("unified", plan, ClusterConfig(num_workers=workers)).run()
            row[f"{workers}w"] = _seconds(result, program, dataset, scale, f"{workers}w")
        base = row[f"{worker_counts[0]}w"]
        row["speedup"] = f"{base / row[f'{worker_counts[-1]}w']:.1f}x"
        rows.append(row)
    text = "Worker-count scaling (unified engine)\n" + format_table(rows)
    return ExperimentReport("worker_scaling", rows, text)


# --------------------------------------------------------------------------
# Extension: single-node engine micro-comparison on all programs
# --------------------------------------------------------------------------
def _check_micro(program: str, label: str, mra, result, aggregate) -> None:
    """Fail the micro-comparison when ``result`` misses MRA's fixpoint:
    its work counters would be those of a wrong answer."""
    comparison = compare_results(mra.values, result.values, aggregate)
    if not comparison.ok:
        raise AssertionError(
            f"{program}: {label} misses MRA's fixpoint ({comparison.summary()})"
        )


def run_engine_micro() -> ExperimentReport:
    """Naive vs semi-naive vs MRA work counters on every program."""
    vertex_graph = rmat(80, 400, seed=21, name="micro")
    dag = random_dag(60, 200, seed=22, name="micro-dag")
    pair_graph = rmat(16, 48, seed=23, name="micro-pair")
    graph_for = {
        "sssp": vertex_graph,
        "cc": vertex_graph,
        "pagerank": vertex_graph,
        "adsorption": vertex_graph,
        "katz": vertex_graph,
        "bp": pair_graph,
        "dag_paths": dag,
        "cost": dag,
        "viterbi": dag,
        "simrank": pair_graph,
        "lca": vertex_graph,
        "apsp": pair_graph,
    }
    rows = []
    for program, graph in graph_for.items():
        spec = PROGRAMS[program]
        analysis = spec.analysis()
        db = spec.build_database(graph)
        naive = NaiveEvaluator(analysis, db).run()
        plan = spec.plan(graph)
        mra = MRAEvaluator(plan).run()
        _check_micro(program, "naive", mra, naive, analysis.aggregate)
        row = {
            "program": program,
            "naive bindings": naive.counters.bindings_produced,
            "naive iters": naive.counters.iterations,
            "mra F'": mra.counters.fprime_applications,
            "mra iters": mra.counters.iterations,
        }
        if analysis.aggregate.is_idempotent:
            semi = SemiNaiveEvaluator(analysis, db).run()
            _check_micro(program, "semi-naive", mra, semi, analysis.aggregate)
            row["semi-naive bindings"] = semi.counters.bindings_produced
        rows.append(row)
    text = "Single-node engine micro-comparison\n" + format_table(rows)
    return ExperimentReport("engine_micro", rows, text)
