"""CI perf-regression gate over the committed benchmark baselines.

Reruns the kernel and delta benchmarks fresh, then compares them
against the committed byte-stable baselines
(``benchmarks/results/BENCH_kernels.json`` and ``BENCH_delta.json``):

* every deterministic ``work.*`` counter (and iteration count) must
  match its committed value **exactly** -- work counters do not have
  noise, so any drift is a real behaviour change;
* the wall-clock speedup floor (numpy >= 3x over python, on the
  dense-frontier programs and on sssp/cc) must hold within a tolerance
  band: a fresh ratio below ``floor * (1 - tolerance)`` fails the gate,
  so CI machines slower than the baseline host get slack but a genuine
  perf regression does not.

The full comparison is written as a JSON diff artifact (``--out``) for
upload; the process exits 1 on any regression.

Usage::

    python tools/bench_gate.py [--out benchmarks/results/bench-gate-diff.json]
                               [--tolerance 0.15] [--repeats 3]
                               [--skip-delta]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

KERNELS_BASELINE = os.path.join("benchmarks", "results", "BENCH_kernels.json")
DELTA_BASELINE = os.path.join("benchmarks", "results", "BENCH_delta.json")
DEFAULT_OUT = os.path.join("benchmarks", "results", "bench-gate-diff.json")

#: fresh speedup ratios may undershoot the floor by this fraction
#: before the gate fails (CI hosts are slower and noisier than the
#: baseline host; work counters get no band -- they are deterministic)
DEFAULT_TOLERANCE = 0.15


def _row_key(row: dict) -> tuple:
    return (row["program"], row["scale"], row["backend"])


def compare_kernel_rows(baseline: dict, fresh_rows: list) -> list:
    """Exact comparison of the deterministic columns, row by row.

    Rows are matched on (program, scale, backend); rows present only on
    one side (e.g. the numpy backend on a leg without numpy) are
    skipped, mismatched counters are reported.
    """
    fresh_by_key = {_row_key(row): row for row in fresh_rows}
    mismatches = []
    for row in baseline["rows"]:
        fresh = fresh_by_key.get(_row_key(row))
        if fresh is None:
            continue
        for column in ("iterations", "work", "fixpoint_matches"):
            if row[column] != fresh[column]:
                mismatches.append(
                    {
                        "program": row["program"],
                        "scale": row["scale"],
                        "backend": row["backend"],
                        "column": column,
                        "baseline": row[column],
                        "fresh": fresh[column],
                    }
                )
    return mismatches


def check_speedup_floors(
    baseline: dict, report, tolerance: float
) -> list:
    """The numpy/python floor with the tolerance band; failure records."""
    floor = baseline["speedup_floor"]
    bar = floor * (1.0 - tolerance)
    failures = []
    for program in (*baseline["dense_programs"], *baseline["sparse_programs"]):
        measured = report.speedups.get(program)
        if measured is None or measured < bar:
            failures.append(
                {
                    "program": program,
                    "ratio": "numpy/python",
                    "measured": measured,
                    "floor": floor,
                    "tolerance": tolerance,
                    "bar": round(bar, 4),
                }
            )
    return failures


def _stable_delta_rows(rows: list) -> list:
    return [
        {k: v for k, v in row.items() if not k.endswith("_seconds")}
        for row in rows
    ]


def compare_delta_rows(baseline: dict, fresh_rows: list) -> list:
    """The delta baseline is fully deterministic: exact row equality."""
    mismatches = []
    fresh_stable = _stable_delta_rows(fresh_rows)
    for row, fresh in zip(baseline["rows"], fresh_stable):
        if row != fresh:
            mismatches.append({"baseline": row, "fresh": fresh})
    if len(baseline["rows"]) != len(fresh_stable):
        mismatches.append(
            {
                "baseline": f"{len(baseline['rows'])} rows",
                "fresh": f"{len(fresh_stable)} rows",
            }
        )
    return mismatches


def run_gate(
    tolerance: float = DEFAULT_TOLERANCE,
    repeats: int = 3,
    skip_delta: bool = False,
) -> dict:
    """Rerun both benches and diff them against the committed baselines."""
    from repro.bench.delta import run_delta_bench
    from repro.bench.kernels import run_kernel_bench

    with open(KERNELS_BASELINE, encoding="utf-8") as handle:
        kernels_baseline = json.load(handle)

    scales = sorted({row["scale"] for row in kernels_baseline["rows"]})
    report = run_kernel_bench(
        scale=min(scales), speedup_scale=max(scales), repeats=repeats
    )
    diff = {
        "kernels": {
            "baseline": KERNELS_BASELINE,
            "scales": scales,
            "counter_mismatches": compare_kernel_rows(
                kernels_baseline, report.rows
            ),
            "speedup_failures": check_speedup_floors(
                kernels_baseline, report, tolerance
            ),
            "measured_speedups": {"numpy_over_python": report.speedups},
        }
    }

    if not skip_delta:
        with open(DELTA_BASELINE, encoding="utf-8") as handle:
            delta_baseline = json.load(handle)
        delta_report = run_delta_bench(scale=0.25)
        diff["delta"] = {
            "baseline": DELTA_BASELINE,
            "row_mismatches": compare_delta_rows(
                delta_baseline, delta_report.rows
            ),
        }

    diff["ok"] = (
        not diff["kernels"]["counter_mismatches"]
        and not diff["kernels"]["speedup_failures"]
        and not diff.get("delta", {}).get("row_mismatches")
    )
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--skip-delta", action="store_true")
    args = parser.parse_args(argv)

    diff = run_gate(
        tolerance=args.tolerance,
        repeats=args.repeats,
        skip_delta=args.skip_delta,
    )

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(diff, handle, indent=2)
        handle.write("\n")

    kernels = diff["kernels"]
    print(f"bench-gate: diff written to {args.out}")
    print(
        f"  kernel counters: {len(kernels['counter_mismatches'])} mismatch(es)"
    )
    for miss in kernels["counter_mismatches"]:
        print(
            f"    {miss['program']}@{miss['scale']}/{miss['backend']} "
            f"{miss['column']}: {miss['baseline']} -> {miss['fresh']}"
        )
    print(
        f"  speedup floors:  {len(kernels['speedup_failures'])} failure(s)"
    )
    for fail in kernels["speedup_failures"]:
        print(
            f"    {fail['program']} {fail['ratio']}: {fail['measured']} "
            f"< {fail['bar']} (floor {fail['floor']} - {fail['tolerance']:.0%})"
        )
    if "delta" in diff:
        print(
            f"  delta rows:      "
            f"{len(diff['delta']['row_mismatches'])} mismatch(es)"
        )
    print(f"  verdict: {'PASS' if diff['ok'] else 'FAIL'}")
    return 0 if diff["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
