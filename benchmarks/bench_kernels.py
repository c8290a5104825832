"""Kernel backend comparison: the runtime layer's acceptance benchmark.

Runs both registered kernel backends (python, numpy) over the dense-
and sparse-frontier programs at the smoke scale *and* at the floor
scale, asserts bit-identical fixpoints and work counters while timing,
and writes the committed byte-stable baseline
``benchmarks/results/BENCH_kernels.json`` (work counters and the floor
verdict only -- never wall seconds or library versions).

One qualitative claim is guarded: the array kernel beats the
pure-Python reference loop by >= 3x at scale >= 0.5, on dense-frontier
MRA (pagerank, katz, adsorption) and on the selective-aggregate
programs (sssp, cc) whose per-superstep frontiers collapse.
"""

from repro.bench.kernels import (
    BASELINE_SCALE,
    DENSE_PROGRAMS,
    SEMIRING_PROGRAMS,
    SPARSE_PROGRAMS,
    SPEEDUP_FLOOR,
    kernel_floors_met,
    run_kernel_bench,
    write_kernel_baseline,
)
from repro.runtime import HAVE_NUMPY, available_backends


def test_kernel_backends(benchmark, bench_scale, save_report):
    report = benchmark.pedantic(
        lambda: run_kernel_bench(
            scale=min(bench_scale, 0.5),
            speedup_scale=max(bench_scale, 0.5),
        ),
        rounds=1,
        iterations=1,
    )
    save_report(report)
    # the committed baseline holds the floor-scale rows; smoke runs at
    # smaller scales must not churn it
    if report.check_scale >= BASELINE_SCALE:
        path = write_kernel_baseline(report)
        print(f"[baseline saved to {path}]")

    backends = available_backends()
    assert "python" in backends
    # every row records its backend and the deterministic work triple
    for row in report.rows:
        assert row["backend"] in backends
        assert row["fixpoint_matches"]
        assert set(row["work"]) == {
            "combines",
            "updates",
            "fprime_applications",
        }

    if not HAVE_NUMPY:
        return
    assert backends == ["python", "numpy"]
    for program in (*DENSE_PROGRAMS, *SPARSE_PROGRAMS):
        assert report.speedups[program] >= SPEEDUP_FLOOR, (
            f"{program}: numpy kernel only {report.speedups[program]:.1f}x "
            f"over python (floor {SPEEDUP_FLOOR:.0f}x)"
        )
    assert kernel_floors_met(report) == {"numpy_3x": True}
    # the four semiring families each produced rows for every backend
    # that supports their carrier; kpaths' KTuple rows must exclude the
    # float64 array kernel
    for program in SEMIRING_PROGRAMS:
        row_backends = {
            row["backend"] for row in report.rows if row["program"] == program
        }
        if program == "kpaths":
            assert row_backends == {"python"}
        else:
            assert row_backends == set(backends)
