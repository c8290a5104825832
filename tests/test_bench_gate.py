"""The CI perf-regression gate (``tools/bench_gate.py``).

The gate's comparison logic is exercised here against the *committed*
baselines without rerunning the benchmarks (CI runs the full gate; this
suite pins the pass/fail semantics cheaply): identical rows pass,
injected counter drift fails, speedup ratios get a tolerance band and
nothing else, and rows for backends absent on this host are skipped
rather than failed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)

KERNELS = REPO / bench_gate.KERNELS_BASELINE
DELTA = REPO / bench_gate.DELTA_BASELINE


@pytest.fixture
def kernels_baseline():
    return json.loads(KERNELS.read_text())


@pytest.fixture
def delta_baseline():
    return json.loads(DELTA.read_text())


def _copy_rows(baseline):
    return json.loads(json.dumps(baseline["rows"]))


class FakeReport:
    def __init__(self, speedups):
        self.speedups = speedups


def floor_programs(baseline):
    return [*baseline["dense_programs"], *baseline["sparse_programs"]]


class TestCommittedBaselines:
    """The checked-in files satisfy the gate's own invariants."""

    def test_kernel_baseline_is_byte_stable_shape(self, kernels_baseline):
        # no wall-clock or host-library columns may be committed
        assert "numpy_version" not in kernels_baseline
        for row in kernels_baseline["rows"]:
            assert "seconds" not in row
            assert "numpy" not in row
            assert set(row["work"]) == {
                "combines",
                "updates",
                "fprime_applications",
            }

    def test_kernel_baseline_floors_met(self, kernels_baseline):
        assert kernels_baseline["floors_met"] == {"numpy_3x": True}
        assert kernels_baseline["speedup_floor"] == 3.0
        assert set(kernels_baseline["sparse_programs"]) == {"sssp", "cc"}

    def test_kernel_baseline_has_two_backends(self, kernels_baseline):
        assert kernels_baseline["backends"] == ["python", "numpy"]
        backends = {row["backend"] for row in kernels_baseline["rows"]}
        assert backends == {"python", "numpy"}
        # every floor program has a row per backend at every scale
        for program in floor_programs(kernels_baseline):
            rows = [
                row
                for row in kernels_baseline["rows"]
                if row["program"] == program
            ]
            assert {row["backend"] for row in rows} == backends

    def test_counters_identical_across_backends(self, kernels_baseline):
        by_cell = {}
        for row in kernels_baseline["rows"]:
            cell = (row["program"], row["scale"])
            by_cell.setdefault(cell, []).append(
                (row["iterations"], row["work"])
            )
        for cell, entries in by_cell.items():
            assert all(entry == entries[0] for entry in entries), cell

    def test_slo_report_is_the_schema_the_code_emits(self):
        # regenerate with `make serve-bench` when the schema moves
        from repro.serving import SLO_REPORT_SCHEMA

        report = json.loads(
            (REPO / "benchmarks" / "results" / "serve-slo.json").read_text()
        )
        assert report["schema"] == SLO_REPORT_SCHEMA

    def test_delta_baseline_is_byte_stable_shape(self, delta_baseline):
        for row in delta_baseline["rows"]:
            assert not any(key.endswith("_seconds") for key in row)


class TestKernelComparison:
    def test_identical_rows_pass(self, kernels_baseline):
        rows = _copy_rows(kernels_baseline)
        assert bench_gate.compare_kernel_rows(kernels_baseline, rows) == []

    def test_injected_counter_regression_fails(self, kernels_baseline):
        rows = _copy_rows(kernels_baseline)
        rows[0]["work"]["combines"] += 1
        mismatches = bench_gate.compare_kernel_rows(kernels_baseline, rows)
        assert len(mismatches) == 1
        assert mismatches[0]["column"] == "work"

    def test_injected_iteration_drift_fails(self, kernels_baseline):
        rows = _copy_rows(kernels_baseline)
        rows[-1]["iterations"] += 1
        mismatches = bench_gate.compare_kernel_rows(kernels_baseline, rows)
        assert [m["column"] for m in mismatches] == ["iterations"]

    def test_missing_backend_rows_are_skipped(self, kernels_baseline):
        # a leg without numpy has no numpy rows; that is not a regression
        rows = [
            row
            for row in _copy_rows(kernels_baseline)
            if row["backend"] != "numpy"
        ]
        assert bench_gate.compare_kernel_rows(kernels_baseline, rows) == []


class TestSpeedupFloors:
    def test_floors_met_within_band_pass(self, kernels_baseline):
        report = FakeReport({p: 10.0 for p in floor_programs(kernels_baseline)})
        assert bench_gate.check_speedup_floors(
            kernels_baseline, report, 0.15
        ) == []

    def test_band_gives_slack_below_floor(self, kernels_baseline):
        # 2.7 >= 3.0 * (1 - 0.15): inside the band, not a regression
        report = FakeReport({p: 2.7 for p in floor_programs(kernels_baseline)})
        assert bench_gate.check_speedup_floors(
            kernels_baseline, report, 0.15
        ) == []

    def test_regression_outside_band_fails(self, kernels_baseline):
        speedups = {p: 10.0 for p in kernels_baseline["dense_programs"]}
        speedups.update({p: 2.0 for p in kernels_baseline["sparse_programs"]})
        failures = bench_gate.check_speedup_floors(
            kernels_baseline, FakeReport(speedups), 0.15
        )
        assert {f["program"] for f in failures} == set(
            kernels_baseline["sparse_programs"]
        )
        assert {f["ratio"] for f in failures} == {"numpy/python"}

    def test_missing_measurement_fails(self, kernels_baseline):
        speedups = {p: 10.0 for p in kernels_baseline["dense_programs"]}
        failures = bench_gate.check_speedup_floors(
            kernels_baseline, FakeReport(speedups), 0.15
        )
        assert {f["program"] for f in failures} == set(
            kernels_baseline["sparse_programs"]
        )


class TestDeltaComparison:
    def test_identical_rows_pass(self, delta_baseline):
        rows = json.loads(json.dumps(delta_baseline["rows"]))
        assert bench_gate.compare_delta_rows(delta_baseline, rows) == []

    def test_fresh_seconds_are_ignored(self, delta_baseline):
        rows = json.loads(json.dumps(delta_baseline["rows"]))
        for row in rows:
            row["repair_seconds"] = 123.456
        assert bench_gate.compare_delta_rows(delta_baseline, rows) == []

    def test_injected_work_regression_fails(self, delta_baseline):
        rows = json.loads(json.dumps(delta_baseline["rows"]))
        rows[0]["repair_work"] *= 2
        assert len(
            bench_gate.compare_delta_rows(delta_baseline, rows)
        ) == 1
