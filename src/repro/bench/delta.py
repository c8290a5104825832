"""Incremental-repair vs recompute benchmark for ``repro.delta``.

Applies insert-only deltas sized at 0.1%, 1% and 10% of the dataset's
edges to the RA320 programs (``sssp``, ``cc``), repairs the standing
fixpoint with :meth:`repro.delta.IncrementalEngine.apply` and re-evaluates the
mutated graph from scratch with the MRA evaluator.  Exactness is
asserted *while* measuring -- the repaired fixpoint must equal the
recomputed one bit for bit, otherwise the speedup is meaningless.

The measurement of record is engine work (``fprime_applications +
combines + updates`` from :class:`~repro.engine.result.WorkCounters`),
never wall-clock: work counters are deterministic per (graph, delta,
backend), so the committed baseline
``benchmarks/results/BENCH_delta.json`` is byte-stable across hosts
(ratios rounded to 9 decimals, no wall-clock column).
The guarded claim: at delta sizes <= 1% the repair does at most
``WORK_RATIO_CEILING`` of the recompute work.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.bench.harness import ExperimentReport
from repro.bench.report import format_table
from repro.delta import IncrementalEngine, random_delta
from repro.engine.mra import MRAEvaluator
from repro.graphs import load_dataset
from repro.programs import PROGRAMS

#: insert-only delta sizes as a fraction of the dataset's edge count
DELTA_FRACTIONS = (0.001, 0.01, 0.1)

#: repairs at delta sizes <= 1% must do at most this fraction of the
#: from-scratch work (the "measurably less" acceptance criterion)
WORK_RATIO_CEILING = 0.5

#: RA320 programs exercised by default (insert-only frontier repairs)
DELTA_PROGRAMS = ("sssp", "cc")


def work(counters) -> int:
    """The deterministic work measure: F' applications + combines + updates."""
    return (
        counters.fprime_applications + counters.combines + counters.updates
    )


def run_delta_bench(
    scale: float = 0.25,
    dataset: str = "livej",
    programs: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = DELTA_FRACTIONS,
    seed: int = 7,
) -> ExperimentReport:
    """Repair-vs-recompute rows for every (program, delta fraction).

    Each row records both work counts (deterministic, the contract) and
    their ratio; the report's ``BENCH_delta.json`` artifact is the same
    rows as the committed JSON baseline.
    """
    programs = list(programs or DELTA_PROGRAMS)
    graph = load_dataset(dataset, scale).with_weights()
    rows = []
    for program in programs:
        spec = PROGRAMS[program]
        for fraction in fractions:
            engine = IncrementalEngine(spec, graph)
            engine.bootstrap()
            inserts = max(1, int(graph.num_edges * fraction))
            delta = random_delta(
                graph, seed=seed, insert_edges=inserts
            )
            repair = engine.apply(delta)
            scratch = MRAEvaluator(spec.plan(engine.view.graph)).run()

            if repair.values != scratch.values:
                raise AssertionError(
                    f"{program} @ {fraction:.1%}: repaired fixpoint "
                    "differs from recompute -- speedup would be bogus"
                )
            repair_work = work(repair.counters)
            scratch_work = work(scratch.counters)
            rows.append(
                {
                    "program": program,
                    "dataset": dataset,
                    "scale": scale,
                    "delta_fraction": fraction,
                    "delta_edges": len(delta.insert_edges),
                    "strategy": repair.strategy,
                    "repair_work": repair_work,
                    "recompute_work": scratch_work,
                    "work_ratio": round(repair_work / scratch_work, 9),
                    "fixpoint_matches": True,
                }
            )
    notes = [
        f"work = fprime_applications + combines + updates (deterministic); "
        f"ceiling {WORK_RATIO_CEILING} applies at fractions <= 1%",
    ]
    for row in rows:
        notes.append(
            f"{row['program']} @ {row['delta_fraction']:.1%} "
            f"({row['delta_edges']} edges): {row['strategy']} repair did "
            f"{row['work_ratio']:.1%} of the recompute work"
        )
    text = (
        "Incremental repair vs recompute -- insert-only deltas\n"
        + format_table(rows)
        + "\n"
        + "\n".join(notes)
    )
    baseline = {
        "benchmark": "delta",
        "work_ratio_ceiling": WORK_RATIO_CEILING,
        "delta_fractions": list(fractions),
        "programs": programs,
        "rows": rows,
    }
    return ExperimentReport(
        "delta", rows, text, notes,
        {"BENCH_delta.json": json.dumps(baseline, indent=2) + "\n"},
    )
