"""Integration tests for the experiment runners (reduced scale).

``repro experiment NAME --save`` runs the full grids, and
``tests/test_paper_claims.py`` checks the committed results; these
tests run the slow runners' code paths on quarter-scale datasets or a
single cell so regressions in the harness surface in the unit suite,
quickly.  Figure 1 is fast enough to rerun whole at full scale in
``tests/test_committed_baselines.py``.
"""

import math


from repro.bench import (
    run_buffer_ablation,
    run_figure9,
    run_figure10,
    run_figure11,
    run_priority_ablation,
    run_worker_scaling,
)
from repro.bench.report import write_report

SCALE = 0.25


class TestFigure9Runner:
    def test_single_cell(self):
        report = run_figure9(
            programs=["sssp"], datasets=["flickr"], scale=SCALE
        )
        row = report.rows[0]
        assert row["PowerLog"] > 0
        assert row["SociaLite"] > 0
        assert "speedup" in report.notes[0]

    def test_unsupported_systems_dashed(self):
        report = run_figure9(
            programs=["katz"], datasets=["flickr"], scale=SCALE
        )
        row = report.rows[0]
        assert row["Myria"] is None and row["BigDatalog"] is None
        assert row["SociaLite"] > 0


class TestFigure10Runner:
    def test_single_program(self):
        report = run_figure10(
            programs=["sssp"], datasets=("flickr",), scale=SCALE
        )
        row = report.rows[0]
        assert row["naive+sync"] > row["mra+sync-async"]
        assert row["graph-engine sys"] == "PowerGraph"


class TestFigure11Runner:
    def test_chart_included(self):
        report = run_figure11(datasets=("flickr",), scale=SCALE)
        assert "sync-async" in report.text
        assert "#" in report.text  # the bar chart


class TestAblationRunners:
    def test_buffer_ablation(self):
        report = run_buffer_ablation(
            programs=("sssp",), datasets=("flickr",), scale=SCALE
        )
        row = report.rows[0]
        assert row["beta=4 msgs"] >= row["beta=1024 msgs"]

    def test_priority_ablation(self):
        report = run_priority_ablation(
            programs=("pagerank",), datasets=("flickr",), scale=SCALE
        )
        row = report.rows[0]
        assert row["with F'"] <= row["without F'"]

    def test_worker_scaling(self):
        # at quarter scale the graph is tiny and communication overheads
        # can beat parallelism, so only assert structure and correctness
        report = run_worker_scaling(
            programs=("sssp",), worker_counts=(1, 4), dataset="flickr", scale=SCALE
        )
        row = report.rows[0]
        assert not math.isnan(row["1w"]) and not math.isnan(row["4w"])
        assert row["speedup"].endswith("x")


class TestReportPersistence:
    def test_write_report_creates_file(self, tmp_path, monkeypatch):
        import repro.bench.report as report_module

        monkeypatch.setattr(report_module, "RESULTS_DIR", str(tmp_path))
        path = write_report("unit-test", "hello\nworld")
        with open(path) as handle:
            assert handle.read() == "hello\nworld\n"
