"""Kernel backend benchmark: the python reference vs the array kernel.

Times the MRA inner loop (the hot path every engine delegates to a
:class:`repro.runtime.Kernel`) under both registered backends on the
same compiled plans, asserts the fixpoints agree *bit for bit* while
timing, and records the deterministic work rows as the committed
baseline ``benchmarks/results/BENCH_kernels.json``.

One acceptance floor is guarded: the array kernel (``numpy``) beats the
pure-Python reference loop by >= ``SPEEDUP_FLOOR`` at scale >= 0.5 on
the dense-frontier programs *and* on the selective-aggregate programs
(``sssp``, ``cc``) whose frontiers collapse after the first supersteps
-- vectorisation must pay on the former, frontier compaction plus
columnar CSR packing on the latter.

The committed baseline is **byte-stable**: wall-clock seconds and host
library versions never enter it, only work counters (deterministic per
graph/program/backend) and the boolean floor verdict; floats are
rounded to 9 decimals.  Re-running the bench on any host therefore
never dirties the checked-in file unless the work actually changed.
The wall-clock ratios live in the report text and in the bench-gate's
fresh measurement, not in git.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional, Sequence

from repro.bench.harness import ExperimentReport
from repro.bench.report import format_table
from repro.engine.mra import MRAEvaluator
from repro.graphs import load_dataset
from repro.programs import PROGRAMS
from repro.runtime import available_backends, get_kernel, numpy_version

#: acceptance floor for the array kernel over the python reference
SPEEDUP_FLOOR = 3.0

#: programs whose frontiers stay dense enough for vectorization to pay
DENSE_PROGRAMS = ("pagerank", "katz", "adsorption")
#: selective-aggregate programs whose frontiers collapse after the first
#: supersteps -- where frontier compaction has to pay instead
SPARSE_PROGRAMS = ("sssp", "cc")
#: the four semiring families (boolean, counting, k-tropical, Viterbi)
#: ride along at their fixture graphs rather than the scaled dataset:
#: path counting needs an acyclic input whose multiplicity products stay
#: below 2^53 (float64 exactness), so their rows pin work counters and
#: per-backend agreement, not speedup floors
SEMIRING_PROGRAMS = ("why_reach", "path_count", "kpaths", "reach_prob")
#: scale recorded on the fixture-graph semiring rows (they do not vary
#: with the dataset scale knob)
SEMIRING_ROW_SCALE = 1.0
#: dataset scale of the committed baseline's floor rows
BASELINE_SCALE = 1.0

BASELINE_PATH = os.path.join("benchmarks", "results", "BENCH_kernels.json")


def _round9(value):
    """Round floats (recursively) to 9 decimals for byte-stable JSON."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _round9(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(inner) for inner in value]
    return value


def _time_run(plan_factory, backend: str, repeats: int):
    """Best-of-``repeats`` wall time of one full MRA run; fresh plan each
    time so per-plan kernel caches (CSR packing) are paid, not hidden."""
    best = None
    result = None
    for _ in range(repeats):
        plan = plan_factory()
        started = time.perf_counter()
        result = MRAEvaluator(plan, backend=backend).run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _bench_program(
    program: str, graph, dataset: str, scale: float, backends, repeats: int
) -> tuple[list, dict]:
    """One program on one graph under every backend that supports it.

    Returns the report rows and ``backend -> seconds``; raises if a
    backend's fixpoint or work counters differ from the first one's.
    """
    spec = PROGRAMS[program]
    probe_plan = spec.plan(graph)
    rows = []
    seconds_by_backend = {}
    reference = None
    for backend in backends:
        # kpaths' KTuple carrier is refused by the float64 array kernel,
        # so its rows cover only the python backend
        if not get_kernel(backend).supports_plan(probe_plan):
            continue
        seconds, result = _time_run(lambda: spec.plan(graph), backend, repeats)
        counters = result.counters.snapshot()
        if reference is None:
            reference = (result.values, counters)
        elif result.values != reference[0]:
            raise AssertionError(
                f"{program}@{scale}: backend {backend!r} "
                "fixpoint differs from the reference backend"
            )
        elif counters != reference[1]:
            raise AssertionError(
                f"{program}@{scale}: backend {backend!r} "
                "work counters differ from the reference backend"
            )
        seconds_by_backend[backend] = seconds
        rows.append(
            {
                "program": program,
                "dataset": dataset,
                "scale": scale,
                "backend": backend,
                "seconds": round(seconds, 6),
                "iterations": result.counters.iterations,
                "work": {
                    "combines": counters["combines"],
                    "updates": counters["updates"],
                    "fprime_applications": counters["fprime_applications"],
                },
                "fixpoint_matches": True,
            }
        )
    return rows, seconds_by_backend


def run_kernel_bench(
    scale: float = 0.25,
    speedup_scale: float = 1.0,
    dataset: str = "livej",
    programs: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> ExperimentReport:
    """Both backends on every program at both scales.

    Returns an :class:`ExperimentReport` whose rows carry the backend
    and the deterministic work counters; the report's ``speedups``
    attribute maps programs to their python/numpy ratio at the larger
    scale (``check_scale``).
    """
    from repro.distributed.chaos_harness import default_graph

    programs = list(programs or (*DENSE_PROGRAMS, *SPARSE_PROGRAMS))
    backends = available_backends()
    scales = sorted({scale, max(scale, speedup_scale)})
    check_scale = max(scales)
    rows = []
    speedups = {}
    for current_scale in scales:
        graph = load_dataset(dataset, current_scale)
        for program in programs:
            program_rows, seconds = _bench_program(
                program, graph, dataset, current_scale, backends, repeats
            )
            rows.extend(program_rows)
            if current_scale == check_scale and "numpy" in seconds:
                speedups[program] = round(
                    seconds["python"] / seconds["numpy"], 2
                )
    # semiring-family rows: fixture graphs, same bit-exactness contract
    for program in SEMIRING_PROGRAMS:
        graph = default_graph(program, seed=7)
        program_rows, _ = _bench_program(
            program, graph, graph.name, SEMIRING_ROW_SCALE, backends, repeats
        )
        rows.extend(program_rows)

    notes = [
        f"backends: {', '.join(backends)}; numpy {numpy_version() or 'absent'}",
    ]
    for program, ratio in speedups.items():
        notes.append(
            f"{program}@{check_scale}: numpy {ratio:.1f}x over python "
            f"(floor {SPEEDUP_FLOOR:.0f}x)"
        )
    text = (
        "Kernel backends -- MRA inner loop, python vs numpy\n"
        + format_table(rows)
        + "\n"
        + "\n".join(notes)
    )
    report = ExperimentReport("kernels", rows, text, notes)
    report.speedups = speedups  # type: ignore[attr-defined]
    report.check_scale = check_scale  # type: ignore[attr-defined]
    return report


def kernel_floors_met(report: ExperimentReport) -> dict[str, bool]:
    """The acceptance-floor verdict for ``report`` (committed)."""
    speedups = getattr(report, "speedups", {})
    return {
        "numpy_3x": bool(speedups)
        and all(
            speedups.get(program, 0.0) >= SPEEDUP_FLOOR
            for program in (*DENSE_PROGRAMS, *SPARSE_PROGRAMS)
        ),
    }


def write_kernel_baseline(report: ExperimentReport, path: str = BASELINE_PATH) -> str:
    """Persist the committed JSON baseline for the CI bench gate.

    Byte-stable by construction: wall-clock columns and library
    versions are dropped, only the deterministic work rows and the
    boolean floor verdict remain (floats rounded to 9 decimals).
    """
    stable_rows = [
        {key: value for key, value in row.items() if key != "seconds"}
        for row in report.rows
    ]
    payload = {
        "benchmark": "kernels",
        "backends": available_backends(),
        "speedup_floor": SPEEDUP_FLOOR,
        "dense_programs": list(DENSE_PROGRAMS),
        "sparse_programs": list(SPARSE_PROGRAMS),
        "semiring_programs": list(SEMIRING_PROGRAMS),
        "floors_met": kernel_floors_met(report),
        "rows": stable_rows,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_round9(payload), handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
