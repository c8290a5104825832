"""The paper's qualitative claims hold on the committed result tables.

Every table under ``benchmarks/results/`` is the full-scale output of
``repro experiment NAME --save``, held to the code by ``make
results-drift``, so checking the claims on the committed files checks
them on the full grids at no run cost.  A regenerated table that breaks
a claim fails here.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro.bench.delta import WORK_RATIO_CEILING
from repro.graphs import dataset_names
from repro.programs import PROGRAMS, benchmark_programs

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"


def read_table(name: str) -> list[dict]:
    """The rows of the ``format_table`` table in ``<name>.txt``.

    The dash row under the header gives the column spans.  A row is a
    line as long as the dash row and blank in every gap between columns;
    the first line that is not one (a note, a blank line, a chart) ends
    the table.  ``-`` reads as ``None``, a number as a float.
    """
    lines = (RESULTS / f"{name}.txt").read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if re.fullmatch(r"-+( +-+)*", line))
    starts = [match.start() for match in re.finditer(r"-+", lines[rule])]
    spans = list(zip(starts, starts[1:] + [len(lines[rule])]))
    header = [lines[rule - 1][start:end].strip() for start, end in spans]
    rows = []
    for line in lines[rule + 1:]:
        if len(line) != len(lines[rule]) or any(
            line[start - 2:start] != "  " for start in starts[1:]
        ):
            break
        rows.append(
            {column: _value(line[start:end].strip())
             for column, (start, end) in zip(header, spans)}
        )
    return rows


def _value(cell: str):
    if cell == "-":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def _finite(row: dict, columns) -> None:
    for column in columns:
        assert not math.isnan(row[column]), (column, row)


def test_table1_verdicts_match_the_registry():
    rows = read_table("table1")
    assert len(rows) == len(PROGRAMS)
    satisfiable = sum(spec.expected_mra for spec in PROGRAMS.values())
    verdicts = [row["MRA sat."] for row in rows]
    assert verdicts.count("yes") == satisfiable
    assert verdicts.count("no") == len(PROGRAMS) - satisfiable
    for row in rows:
        assert row["MRA sat."] == row["paper"], row
        # every satisfiable program is routed to the unified engine (Figure 2)
        expected = "unified sync-async" if row["MRA sat."] == "yes" else "sync"
        assert row["engine"] == expected, row
    scripts = sorted(path.name for path in (RESULTS / "smtlib").iterdir())
    assert scripts == sorted(f"{name}.smt2" for name in PROGRAMS)


def test_table2_keeps_the_papers_size_order():
    rows = read_table("table2")
    assert len(rows) == len(dataset_names())
    paper_edges = [row["paper E"] for row in rows]
    assert paper_edges == sorted(paper_edges)
    for row in rows:
        assert row["repro V"] > 0 and row["repro E"] > 0


def test_figure1_winners_flip():
    winners = {}
    for row in read_table("figure1"):
        _finite(row, ("SociaLite(s)", "Myria(s)"))
        winners[row["workload"]] = min(
            ("SociaLite", "Myria"), key=lambda system: row[f"{system}(s)"]
        )
    # neither system wins everywhere: the paper's motivating point
    assert len(set(winners.values())) > 1, winners
    # the two unambiguous paper cells agree
    assert winners["sssp/livej"] == "SociaLite"
    assert winners["pagerank/livej"] == "Myria"


#: PowerLog losses the paper leaves room for (section 6.3): SociaLite's
#: delta-stepping SSSP beats it on ClueWeb09, and its CC speed-up starts
#: at 1.1x, a near tie
FIGURE9_ALLOWED_LOSSES = {"cc": 1, "sssp": 2}


@pytest.mark.parametrize("program", benchmark_programs())
def test_figure9_powerlog_wins_but_the_documented_exceptions(program):
    rows = [row for row in read_table("figure9") if row["program"] == program]
    assert len(rows) == len(dataset_names())
    losses = []
    for row in rows:
        competitors = [
            row[system] for system in ("SociaLite", "Myria", "BigDatalog")
            if row[system] is not None
        ]
        _finite(row, ["PowerLog"])
        assert not any(math.isnan(seconds) for seconds in competitors), row
        if row["PowerLog"] > min(competitors):
            losses.append(row)
        if program == "pagerank":
            # non-monotonic: MRA evaluation beats naive re-evaluation > 3x
            assert row["SociaLite"] / row["PowerLog"] > 3.0, row
    assert len(losses) <= FIGURE9_ALLOWED_LOSSES.get(program, 0), losses


FIGURE10_MODES = ("mra+sync", "mra+async", "mra+sync-async")


def test_figure10_gain_ordering():
    rows = read_table("figure10")
    assert len(rows) == 3 * len(benchmark_programs())
    for row in rows:
        _finite(row, ("naive+sync", *FIGURE10_MODES, "graph-engine"))
        # MRA evaluation beats naive evaluation in every mode (section 6.4)
        for mode in FIGURE10_MODES:
            assert row["naive+sync"] > row[mode], (mode, row)
        # sync-async is best or within a near-tie band of the best mode
        best = min(row[mode] for mode in FIGURE10_MODES)
        assert row["mra+sync-async"] <= best * 1.25, row
        # graph engines land between naive and the unified engine
        assert row["graph-engine"] < row["naive+sync"], row
        assert row["graph-engine"] >= row["mra+sync-async"] * 0.9, row


def test_figure11_sync_async_best_everywhere():
    rows = read_table("figure11")
    assert len(rows) == 6  # {sssp, pagerank} x {wiki, web, arabic}
    for row in rows:
        _finite(row, ("sync", "async", "aap", "sync-async"))
        # section 6.5: "on all datasets, our sync-async engine shows the
        # best performance"
        assert row["best"] == "sync-async", row
        assert row["sync-async"] <= min(row["sync"], row["async"], row["aap"]), row
        # AAP never collapses to the worse of pure sync and pure async
        assert row["aap"] <= max(row["sync"], row["async"]) * 1.05, row


def test_adaptive_buffers_near_the_best_fixed_beta():
    rows = read_table("buffer_ablation")
    assert len(rows) == 4  # {sssp, pagerank} x {livej, arabic}
    fixed = ("beta=4", "beta=64", "beta=1024")
    for row in rows:
        _finite(row, (*fixed, "adaptive"))
        # section 5.3: adaptive within 40% of the best fixed beta, untuned
        assert row["adaptive"] <= min(row[label] for label in fixed) * 1.4, row
    # tiny buffers visibly inflate message counts somewhere
    assert any(row["beta=4 msgs"] > 2 * row["beta=1024 msgs"] for row in rows)


def test_importance_threshold_saves_work():
    rows = read_table("priority_ablation")
    assert len(rows) == 6  # {pagerank, katz, adsorption} x {livej, arabic}
    savings = []
    for row in rows:
        assert row["with F'"] <= row["without F'"], row
        savings.append(1 - row["with F'"] / max(1, row["without F'"]))
    # section 5.4: a headline optimisation for sum programs
    assert max(savings) > 0.05, savings


def test_32_workers_beat_one_by_3x():
    rows = read_table("worker_scaling")
    assert len(rows) == 2  # sssp, pagerank on livej
    for row in rows:
        _finite(row, [column for column in row if column.endswith("w")])
        assert row["1w"] / row["32w"] > 3.0, row


def test_semi_naive_beats_naive_on_selective_programs():
    rows = {row["program"]: row for row in read_table("engine_micro")}
    assert len(rows) == 12
    for name in ("sssp", "cc", "viterbi", "lca", "apsp"):
        assert rows[name]["semi-naive bindings"] <= rows[name]["naive bindings"], name


def test_small_deltas_repair_in_a_fraction_of_the_recompute_work():
    baseline = json.loads((RESULTS / "BENCH_delta.json").read_text())
    rows = baseline["rows"]
    assert len(rows) == len(baseline["programs"]) * len(baseline["delta_fractions"])
    for row in rows:
        assert row["fixpoint_matches"], row
        # insert-only deltas on RA320 programs take the frontier path
        assert row["strategy"] == "frontier", row
        assert row["repair_work"] < row["recompute_work"], row
        if row["delta_fraction"] <= 0.01:
            assert row["work_ratio"] <= WORK_RATIO_CEILING, row
