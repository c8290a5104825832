"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure, writes the formatted
report under ``benchmarks/results/`` and asserts the qualitative claims
("who wins") hold.  ``REPRO_BENCH_SCALE`` scales the dataset stand-ins
(default 1.0); simulated seconds are the measurement of record, the
pytest-benchmark wall times merely record harness cost.
"""

from __future__ import annotations

import os

import pytest


def pytest_benchmark_update_machine_info(config, machine_info):
    """Stamp the runtime backend into every benchmark result JSON."""
    import numpy

    from repro.runtime import resolve_backend

    machine_info["repro_backend"] = resolve_backend(None)
    machine_info["repro_numpy"] = numpy.__version__


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture
def save_report():
    from repro.bench import write_report

    def _save(report) -> str:
        path = write_report(report.name, report.text)
        print(f"\n{report.text}\n[report saved to {path}]")
        return path

    return _save
