"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestNumericFlags:
    """An out-of-range number is a usage error -- argparse's one
    ``error:`` line and exit 2 -- not a traceback from wherever the value
    is first used, and not a silent run of something else."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # positive worker / executor counts (were ValueError tracebacks)
            (["run", "sssp", "--workers", "0"], "a positive integer"),
            (["run", "sssp", "--workers", "-2"], "a positive integer"),
            (["lint", "sssp", "--workers", "0"], "a positive integer"),
            (["chaos", "--workers", "0"], "a positive integer"),
            (["trace", "sssp", "--workers", "0"], "a positive integer"),
            (["serve", "--workers", "0"], "a positive integer"),
            (["serve", "--executors", "0"], "a positive integer"),
            # non-negative counts (a traceback, or silently another run)
            (["serve", "--requests", "-5"], "a non-negative integer"),
            (["run", "sssp", "--top", "-3"], "a non-negative integer"),
            (["delta", "sssp", "--inserts", "-3"], "a non-negative integer"),
            (["delta", "sssp", "--deletes", "-1"], "a non-negative integer"),
            (["delta", "sssp", "--updates", "-1"], "a non-negative integer"),
            # positive finite scales and rates (were silently accepted)
            (["run", "sssp", "--scale", "-1"], "a positive finite number"),
            (["run", "sssp", "--scale", "0"], "a positive finite number"),
            (["run", "sssp", "--scale", "nan"], "a positive finite number"),
            (["run", "sssp", "--scale", "inf"], "a positive finite number"),
            (["delta", "sssp", "--scale", "0"], "a positive finite number"),
            (["metrics", "sssp", "--scale", "-1"], "a positive finite number"),
            (["datasets", "--scale", "0"], "a positive finite number"),
            (["serve", "--rate", "0"], "a positive finite number"),
            (["serve", "--burst-factor", "-1"], "a positive finite number"),
            (["serve", "--freshness-ttl", "-1"], "a non-negative finite number"),
            # chaos probabilities and crash times
            (["chaos", "--drop", "1.5"], "a probability in [0, 1]"),
            (["chaos", "--duplicate", "-0.1"], "a probability in [0, 1]"),
            (["chaos", "--crash-at", "-0.5"], "a non-negative finite number"),
            # still not a number at all
            (["run", "sssp", "--workers", "many"], "a positive integer"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, argv, expected, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("repro " + argv[0] + ": error: argument")
        assert f"expected {expected}, got {argv[-1]!r}" in err
        assert "Traceback" not in err

    def test_boundary_values_are_accepted(self):
        parse = build_parser().parse_args
        assert parse(["run", "sssp", "--workers", "1", "--top", "0"]).workers == 1
        assert parse(["run", "sssp", "--scale", "1e-3"]).scale == 0.001
        assert parse(["serve", "--requests", "0", "--freshness-ttl", "0"]).requests == 0
        chaos = parse(["chaos", "--drop", "0", "--duplicate", "1", "--crash-at", "0", "1.5"])
        assert (chaos.drop, chaos.duplicate, chaos.crash_at) == (0.0, 1.0, [0.0, 1.5])
        assert parse(["delta", "sssp", "--seed", "-7"]).seed == -7


class TestCheck:
    def test_library_program_passes(self, capsys):
        assert main(["check", "sssp"]) == 0
        out = capsys.readouterr().out
        assert "MRA sat. = yes" in out

    def test_failing_program_exits_nonzero(self, capsys):
        assert main(["check", "gcn"]) == 1
        assert "MRA sat. = no" in capsys.readouterr().out

    def test_datalog_file(self, tmp_path, capsys):
        source = tmp_path / "reach.dl"
        source.write_text(
            "reach(X, v) :- X = 0, v = 1.\n"
            "reach(Y, sum[v1]) :- reach(X, v), edge(X, Y, w), "
            "v1 = 0.1 * v, {sum[dv] < 0.001}.\n"
        )
        assert main(["check", str(source)]) == 0
        assert "linear-homogeneous" in capsys.readouterr().out

    def test_smt2_emission(self, tmp_path, capsys):
        out_file = tmp_path / "check.smt2"
        main(["check", "pagerank", "--smt2", str(out_file)])
        assert "(check-sat)" in out_file.read_text()

    def test_unknown_target(self):
        with pytest.raises(SystemExit, match="neither a file nor"):
            main(["check", "no-such-thing"])


class TestRun:
    def test_run_powerlog(self, capsys):
        assert main(["run", "sssp", "--dataset", "flickr"]) == 0
        out = capsys.readouterr().out
        assert "SSSP on flickr" in out
        assert "simulated" in out

    def test_run_explicit_engine_with_top(self, capsys):
        assert main([
            "run", "cc", "--dataset", "flickr", "--engine", "sync", "--top", "2",
        ]) == 0
        assert "top 2" in capsys.readouterr().out

    def test_run_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["run", "sssp", "--dataset", "imagenet"])

    @pytest.mark.parametrize("backend", ("auto", "jit"))
    def test_run_rejects_removed_backends(self, backend, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "sssp", "--backend", backend])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ("python", "numpy", "sparse"))
    def test_run_accepts_two_kernels_and_the_alias(self, backend):
        args = build_parser().parse_args(["run", "sssp", "--backend", backend])
        assert args.backend == backend


class TestListing:
    def test_programs(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "GCN-Forward" in out and "SSSP" in out
        # the listing names each program's semiring and its law summary
        assert "k-tropical" in out and "⊕-idem,ordered" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "arabic" in out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "18/18" in out

    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Arabic-2005" in capsys.readouterr().out

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'figure99'")
        assert "table1" in err

    def test_importing_the_cli_leaves_the_harness_out(self):
        # only `repro experiment` pays for importing repro.bench
        import subprocess
        import sys

        code = "import sys, repro.cli; print('repro.bench' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


class TestRunOnUserGraph:
    def test_graph_file_option(self, tmp_path, capsys):
        from repro.graphs import rmat, write_edge_list

        path = tmp_path / "mine.tsv"
        write_edge_list(rmat(30, 120, seed=2, name="mine"), path)
        assert main(["run", "cc", "--graph", str(path), "--engine", "sync"]) == 0
        out = capsys.readouterr().out
        assert "CC on mine" in out

    def test_malformed_graph_is_a_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\t2.5\n1\t2\tnan\n")
        assert main(["run", "sssp", "--graph", str(path), "--engine", "sync"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:2: weight 'nan' is not finite\n"
        assert "Traceback" not in captured.out + captured.err

    def test_malformed_delta_is_a_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"update_weights": [[0, 1, NaN]]}')
        argv = ["delta", "sssp", "--dataset", "flickr", "--file", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: update_weights: weight nan in [0, 1, nan] is not finite\n"
        )
        # well-formed but inapplicable: the same exit, the same shape
        path.write_text('{"delete_edges": [[0, 0]]}')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: delete_edges: edge (0, 0) does not exist (dangling delete)\n"
        )
        assert "Traceback" not in captured.out + captured.err

    def test_non_convergence_is_a_nonzero_exit(self, tmp_path, capsys):
        # min over a negative cycle (1 -> 2 -> 1 sums to -2) never settles
        path = tmp_path / "negative-cycle.tsv"
        path.write_text("# vertices 3\n0\t1\t1\n1\t2\t-3\n2\t1\t1\n")
        assert main(["run", "sssp", "--graph", str(path), "--engine", "sync"]) == 2
        captured = capsys.readouterr()
        assert "stop=iteration-limit" in captured.out
        assert captured.err == (
            "error: sssp did not converge "
            "(stop=iteration-limit after 10000 rounds)\n"
        )


class TestEngineNames:
    @pytest.mark.parametrize("command", ["trace", "metrics"])
    def test_naive_chaos_is_refused_before_anything_runs(self, command, capsys):
        assert main([command, "sssp", "--engine", "naive", "--chaos"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --chaos needs an engine that accepts a fault schedule "
            "(sync, async, unified, aap), not naive\n"
        )
        # no reference run, so no fault schedule was printed
        assert captured.out == ""

    def test_every_surface_reads_the_registry(self):
        from repro.distributed import ENGINES, FAULT_TOLERANT_ENGINES

        parse = build_parser().parse_args
        for name in ENGINES:
            assert parse(["run", "sssp", "--engine", name]).engine == name
            assert parse(["trace", "sssp", "--engine", name]).engine == name
        assert parse(["chaos", "--engines", *FAULT_TOLERANT_ENGINES]).engines == list(
            FAULT_TOLERANT_ENGINES
        )
        with pytest.raises(SystemExit):
            parse(["chaos", "--engines", "naive"])

    def test_fault_tolerant_set_is_what_the_engines_accept(self):
        from repro.distributed import ENGINES, FAULT_TOLERANT_ENGINES, ClusterConfig
        from repro.distributed.chaos import FaultSchedule
        from repro.distributed.chaos_harness import default_graph
        from repro.programs import PROGRAMS

        plan = PROGRAMS["sssp"].plan(default_graph("sssp", seed=7))
        cluster = ClusterConfig(num_workers=2).with_faults(FaultSchedule(drop_rate=0.1))
        for name, build in ENGINES.items():
            if name in FAULT_TOLERANT_ENGINES:
                build(plan, cluster)
            else:
                with pytest.raises(ValueError, match="fault injection"):
                    build(plan, cluster)

    def test_naive_metrics_carry_the_plan_gauges(self, capsys):
        assert main(["metrics", "sssp", "--engine", "naive"]) == 0
        out = capsys.readouterr().out
        assert "communication shape" in out
        assert "static cost estimate" in out
