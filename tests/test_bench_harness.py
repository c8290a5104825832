"""Benchmark harness: runners, formatting, paper-claim bookkeeping."""



from repro.bench import (
    PAPER_FIGURE1,
    PAPER_SPEEDUP_CLAIMS,
    format_grid,
    format_table,
    run_engine_micro,
    run_table1,
    run_table2,
)


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_missing_cells(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_grid(self):
        cells = {("r1", "c1"): 1.5, ("r1", "c2"): 2.0}
        text = format_grid(cells, ["r1"], ["c1", "c2"], title="T")
        assert text.startswith("T")
        assert "1.50s" in text

    def test_float_rendering(self):
        text = format_table([{"v": 1234.5}, {"v": 3.14159}, {"v": 0.001234}])
        assert "1234" in text and "3.14" in text and "0.001" in text


class TestTable1Runner:
    def test_full_agreement(self):
        report = run_table1()
        assert len(report.rows) == 18
        assert all(row["MRA sat."] == row["paper"] for row in report.rows)
        assert "18/18" in report.text

    def test_scripts_emitted_on_request(self):
        report = run_table1(emit_scripts=True)
        scripts = report.artifacts
        assert len(scripts) == 18
        assert "(check-sat)" in scripts["smtlib/pagerank.smt2"]


class TestTable2Runner:
    def test_rows_cover_all_datasets(self):
        report = run_table2()
        assert [row["dataset"] for row in report.rows] == [
            "Flickr", "LiveJournal", "Orkut", "ClueWeb09", "Wiki-link",
            "Arabic-2005",
        ]

    def test_paper_sizes_included(self):
        report = run_table2()
        arabic = report.rows[-1]
        assert arabic["paper E"] == 639_999_458
        assert arabic["repro E"] < arabic["paper E"]


class TestEngineMicroRunner:
    def test_covers_all_twelve_satisfiable_programs(self):
        report = run_engine_micro()
        assert len(report.rows) == 12

    def test_mra_saves_work_on_selective_programs(self):
        from repro.programs import PROGRAMS

        report = run_engine_micro()
        for row in report.rows:
            aggregate = PROGRAMS[row["program"]].analysis().aggregate
            if not aggregate.is_idempotent:
                continue
            # for min/max programs MRA's pruned propagation must not
            # exceed naive evaluation's repeated full joins
            assert row["mra F'"] <= row["naive bindings"], row["program"]


class TestPaperData:
    def test_figure1_winners(self):
        livej_sssp = PAPER_FIGURE1[("sssp", "livej")]
        assert livej_sssp["SociaLite"] < livej_sssp["Myria"]
        livej_pr = PAPER_FIGURE1[("pagerank", "livej")]
        assert livej_pr["Myria"] < livej_pr["SociaLite"]

    def test_speedup_claims_cover_benchmarked_programs(self):
        assert set(PAPER_SPEEDUP_CLAIMS) == {
            "cc", "sssp", "pagerank", "adsorption", "katz", "bp",
        }
        assert all(low < high for low, high in PAPER_SPEEDUP_CLAIMS.values())
