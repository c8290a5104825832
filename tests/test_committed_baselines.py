"""The committed benchmark baselines still match the code that writes them.

``benchmarks/results/BENCH_delta.json`` holds only deterministic work
rows, so a rerun at the baseline's scale must write it byte for byte:
any drift is a behaviour change of the repair path (or of the
counters it is priced in), not noise.  Regenerate intentionally with
``make bench`` (``benchmarks/bench_delta.py``).

``benchmarks/results/serve-slo.json`` is the serving layer's SLO report
under the default chaos plan, on the simulated clock; a rerun the way
``make serve-bench`` writes it must match it byte for byte too.
"""

import json
from pathlib import Path

from repro.bench.delta import run_delta_bench, write_delta_baseline

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"
DELTA = RESULTS / "BENCH_delta.json"


def test_delta_baseline_matches_a_rerun(tmp_path):
    fresh = write_delta_baseline(run_delta_bench(scale=0.25), tmp_path / "delta.json")
    assert Path(fresh).read_text() == DELTA.read_text(), (
        f"{DELTA} no longer matches run_delta_bench(scale=0.25)"
    )


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
