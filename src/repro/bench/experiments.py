"""The experiment table: every paper artifact and the run that writes it.

``repro experiment NAME`` runs one entry and prints its report;
``--save`` also writes the files the entry declares under
``benchmarks/results/``.  That is the directory's only writer, and
``make results-drift`` reruns every entry and fails when a committed
file moves or an uncommitted one appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.bench.delta import run_delta_bench
from repro.bench.harness import (
    ExperimentReport,
    run_buffer_ablation,
    run_engine_micro,
    run_figure1,
    run_figure9,
    run_figure10,
    run_figure11,
    run_priority_ablation,
    run_table1,
    run_table2,
    run_worker_scaling,
)
from repro.bench.report import write_report
from repro.programs import PROGRAMS


@dataclass(frozen=True)
class Experiment:
    """A runner, its arguments, and the files its report saves.

    ``saves`` lists paths relative to ``benchmarks/results/``: the
    report's ``<name>.txt`` plus each of its ``artifacts``.
    """

    runner: Callable[..., ExperimentReport]
    saves: tuple[str, ...]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def run(self) -> ExperimentReport:
        return self.runner(**self.kwargs)

    def save(self, report: ExperimentReport) -> list[str]:
        """Write ``report``'s files, which must be exactly ``saves``."""
        files = {f"{report.name}.txt": report.text, **report.artifacts}
        if set(files) != set(self.saves):
            raise RuntimeError(
                f"{report.name} produced {sorted(files)}, "
                f"the experiment table declares {sorted(self.saves)}"
            )
        return [write_report(path, content) for path, content in files.items()]


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(
        run_table1,
        ("table1.txt", *(f"smtlib/{name}.smt2" for name in PROGRAMS)),
        {"emit_scripts": True},
    ),
    "table2": Experiment(run_table2, ("table2.txt",)),
    "figure1": Experiment(run_figure1, ("figure1.txt",)),
    "figure9": Experiment(run_figure9, ("figure9.txt",)),
    "figure10": Experiment(run_figure10, ("figure10.txt",)),
    "figure11": Experiment(run_figure11, ("figure11.txt",)),
    "buffers": Experiment(run_buffer_ablation, ("buffer_ablation.txt",)),
    "priority": Experiment(run_priority_ablation, ("priority_ablation.txt",)),
    "micro": Experiment(run_engine_micro, ("engine_micro.txt",)),
    "scaling": Experiment(run_worker_scaling, ("worker_scaling.txt",)),
    "delta": Experiment(run_delta_bench, ("delta.txt", "BENCH_delta.json")),
}
