"""Benchmark harness: regenerates every table and figure of the paper.

Each experiment has a runner returning structured rows plus a formatter
that prints them in the paper's layout.  ``EXPERIMENTS`` names them all
with the files each saves; ``repro experiment NAME --save`` is the one
writer of ``benchmarks/results/``.  ``paper_data`` embeds the numbers
and prose claims from the paper so every report shows paper-vs-measured
side by side.
"""

from repro.bench.report import fixed_point, format_table, write_report
from repro.bench.charts import bar_chart, grouped_bar_chart, sparkline
from repro.bench.paper_data import (
    PAPER_FIGURE1,
    PAPER_SPEEDUP_CLAIMS,
    PAPER_TABLE2,
    PAPER_FIGURE10_CLAIMS,
)
from repro.bench.harness import (
    run_figure1,
    run_table1,
    run_table2,
    run_figure9,
    run_figure10,
    run_figure11,
    run_buffer_ablation,
    run_priority_ablation,
    run_engine_micro,
    run_worker_scaling,
)
from repro.bench.delta import run_delta_bench
from repro.bench.experiments import EXPERIMENTS, Experiment

__all__ = [
    "format_table",
    "fixed_point",
    "bar_chart",
    "grouped_bar_chart",
    "sparkline",
    "write_report",
    "PAPER_FIGURE1",
    "PAPER_SPEEDUP_CLAIMS",
    "PAPER_TABLE2",
    "PAPER_FIGURE10_CLAIMS",
    "run_figure1",
    "run_table1",
    "run_table2",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_buffer_ablation",
    "run_priority_ablation",
    "run_engine_micro",
    "run_worker_scaling",
    "run_delta_bench",
    "EXPERIMENTS",
    "Experiment",
]
