"""ASCII chart rendering."""


from repro.bench import bar_chart, grouped_bar_chart, sparkline
from repro.bench.charts import _TICKS


class TestBarChart:
    def test_linear_proportions(self):
        text = bar_chart({"a": 10.0, "b": 5.0}, width=40)
        lines = text.splitlines()
        bars = {line.split()[0]: line.count("#") for line in lines}
        assert bars["a"] == 40
        assert bars["b"] == 20

    def test_log_scale_compresses(self):
        text = bar_chart({"x": 1.0, "y": 1000.0}, width=40, log_scale=True)
        bars = {line.split()[0]: line.count("#") for line in text.splitlines()}
        # on a linear axis x would be invisible; on log it keeps a stub
        assert bars["x"] >= 1
        assert bars["y"] == 40

    def test_log_scale_falls_back_within_one_decade(self):
        text = bar_chart({"x": 0.95, "y": 1.0}, width=40, log_scale=True)
        bars = {line.split()[0]: line.count("#") for line in text.splitlines()}
        assert bars["x"] >= 30  # linear, not collapsed to a stub

    def test_nan_marked_as_wrong(self):
        text = bar_chart({"ok": 1.0, "bad": float("nan")})
        assert "(wrong result)" in text

    def test_title_and_units(self):
        text = bar_chart({"a": 2.0}, title="T", unit="ms")
        assert text.startswith("T")
        assert "2ms" in text

    def test_empty(self):
        assert "(no data)" in bar_chart({"a": float("nan")})


class TestGroupedBarChart:
    def test_one_block_per_row(self):
        rows = [
            {"dataset": "livej", "A": 1.0, "B": 2.0},
            {"dataset": "wiki", "A": 3.0, "B": 4.0},
        ]
        text = grouped_bar_chart(rows, "dataset", ["A", "B"], title="fig")
        assert text.count("livej") == 1 and text.count("wiki") == 1

    def test_missing_series_skipped(self):
        rows = [{"dataset": "livej", "A": 1.0, "B": None}]
        text = grouped_bar_chart(rows, "dataset", ["A", "B"])
        assert "B" not in text.replace("livej", "")


class TestSparkline:
    def test_length_bounded(self):
        assert len(sparkline(list(range(1, 200)), width=60)) == 60

    def test_short_series_kept(self):
        assert len(sparkline([1.0, 2.0, 3.0], width=60)) == 3

    def test_monotone_decay_renders_decreasing_levels(self):
        ticks = sparkline([1000.0, 100.0, 10.0, 1.0])
        levels = [_TICKS.index(ch) for ch in ticks]
        assert levels == sorted(levels, reverse=True)
        assert ticks[0] != ticks[-1]

    def test_zeros_render_as_blank(self):
        assert sparkline([0.0, 0.0]) == "  "

    def test_empty(self):
        assert sparkline([]) == "(empty)"


class TestConvergenceChart:
    """The per-round convergence trace every engine records."""

    def test_trace_is_recorded_by_all_engines(self):
        from repro.distributed import AsyncEngine, SyncEngine, UnifiedEngine
        from repro.engine import MRAEvaluator
        from repro.graphs import rmat
        from repro.programs import PROGRAMS

        plan = PROGRAMS["pagerank"].plan(rmat(40, 160, seed=3))
        for engine in (
            MRAEvaluator(plan),
            SyncEngine(plan),
            AsyncEngine(plan),
            UnifiedEngine(plan),
        ):
            result = engine.run()
            assert result.trace, engine
            # delta magnitudes decay towards the stopping threshold
            deltas = [d for _, d in result.trace]
            assert deltas[-1] < deltas[0]
