"""The committed benchmark artifacts still match the code that writes them.

``repro experiment NAME --save`` writes every paper artifact under
``benchmarks/results/``; ``make results-drift`` reruns the whole
experiment table and fails on any change.  The fast entries rerun here
too, through the CLI into a scratch results directory, and must write
exactly the files the table declares, byte for byte.

``benchmarks/results/BENCH_delta.json`` holds only deterministic work
rows, so any drift there is a behaviour change of the repair path (or
of the counters it is priced in), not noise.

``benchmarks/results/serve-slo.json`` is the serving layer's SLO report
under the default chaos plan, on the simulated clock; a rerun the way
``make serve-bench`` writes it must match it byte for byte too.
"""

import json
from pathlib import Path

import pytest

import repro.bench.report as report_module
from repro.bench import EXPERIMENTS
from repro.cli import main

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"
DELTA = RESULTS / "BENCH_delta.json"


def _save_and_compare(name, directory, monkeypatch, capsys):
    monkeypatch.setattr(report_module, "RESULTS_DIR", str(directory))
    assert main(["experiment", name, "--save"]) == 0, capsys.readouterr().err
    written = sorted(
        path.relative_to(directory).as_posix()
        for path in directory.rglob("*")
        if path.is_file()
    )
    assert written == sorted(EXPERIMENTS[name].saves)
    for path in written:
        assert (directory / path).read_text() == (RESULTS / path).read_text(), (
            f"{RESULTS / path} no longer matches `repro experiment {name} --save`"
        )


@pytest.mark.parametrize("name", ["table1", "table2", "micro", "figure1"])
def test_saved_experiment_matches_the_committed_files(
    name, tmp_path, monkeypatch, capsys
):
    _save_and_compare(name, tmp_path, monkeypatch, capsys)


def test_delta_baseline_matches_a_rerun(tmp_path, monkeypatch, capsys):
    # delta.txt and BENCH_delta.json come from one run
    _save_and_compare("delta", tmp_path, monkeypatch, capsys)


def test_delta_baseline_is_byte_stable_shape():
    for row in json.loads(DELTA.read_text())["rows"]:
        assert not any(key.endswith("_seconds") for key in row)


def test_slo_report_matches_a_rerun(tmp_path, capsys):
    from repro.cli import main

    fresh = tmp_path / "serve-slo.json"
    argv = ["serve", "--chaos", "--acceptance", "--out", str(fresh),
            "--checkpoint-dir", str(tmp_path / "serve-ckpt")]
    assert main(argv) == 0, capsys.readouterr().out
    assert fresh.read_text() == (RESULTS / "serve-slo.json").read_text(), (
        f"{RESULTS / 'serve-slo.json'} no longer matches `make serve-bench`"
    )


def test_slo_report_is_the_schema_the_code_emits():
    # regenerate with `make serve-bench` when the schema moves
    from repro.serving import SLO_REPORT_SCHEMA

    report = json.loads((RESULTS / "serve-slo.json").read_text())
    assert report["schema"] == SLO_REPORT_SCHEMA
