"""The static analyzer: diagnostics, passes, pre-screen and certificates."""

import json

import pytest

from repro.aggregates import BUILTIN_AGGREGATES
from repro.analysis import (
    CODES,
    AnalysisReport,
    AsyncIneligibleError,
    Severity,
    analyze_source,
    build_graph,
    certify_async,
    communication_shape,
    error,
    estimate_plan_communication,
    match_pattern,
    prescreen,
    reachable_from,
    recursive_components,
    require_async_certified,
    strata,
    strongly_connected_components,
    warning,
)
from repro.checker import check_source
from repro.datalog import analyze, parse_program
from repro.distributed.chaos_harness import default_graph
from repro.expr.terms import Add, Call, Const, Div, Mul, Neg, Var
from repro.programs.registry import PROGRAMS

SSSP = """
d(X, v) :- X = 0, v = 0.
d(Y, min[dy]) :- d(X, dx), edge(X, Y, w), dy = dx + w.
"""

PAGERANK = """
rank(X, v) :- vertex(X), v = 0.15.
rank(Y, sum[r1]) :- rank(X, r), edge(X, Y), deg(X, n), r1 = 0.85 * r / n,
    {sum[delta] < 0.001}.
"""


def report_for(source, name="program"):
    return analyze_source(source, name=name)


def codes_of(report):
    return [d.code for d in report.diagnostics]


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            error("RA999", "no such code")

    def test_render_includes_code_and_span(self):
        d = error("RA104", "non-linear recursion", line=3, column=7)
        assert "RA104" in d.render()
        assert ":3:7" in d.render()

    def test_report_sorts_errors_first(self):
        report = AnalysisReport(program="p")
        report.add(warning("RA204", "later"))
        report.add(error("RA104", "first"))
        report.finish()
        assert [d.code for d in report.diagnostics] == ["RA104", "RA204"]

    def test_exit_codes(self):
        clean = AnalysisReport(program="p").finish()
        assert clean.exit_code() == 0
        warned = AnalysisReport(program="p")
        warned.add(warning("RA310", "not certified"))
        warned.finish()
        assert warned.exit_code() == 0
        assert warned.exit_code(gate="async") == 1
        failed = AnalysisReport(program="p")
        failed.add(error("RA104", "boom"))
        failed.finish()
        assert failed.exit_code() == 1

    def test_code_table_is_stable(self):
        for code, title in CODES.items():
            assert code.startswith("RA")
            assert title
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank


class TestDependencyGraph:
    def test_edges_and_edb(self):
        graph = build_graph(parse_program(SSSP, name="sssp"))
        assert graph.edges["d"] == ["d", "edge"]
        assert graph.defined() == ["d"]
        assert "edge" in graph.edb()

    def test_scc_mutual_recursion(self):
        graph = build_graph(
            parse_program("p(X, v) :- q(X, v).\nq(X, v) :- p(X, v), e(X, Y).", name="pq")
        )
        components = strongly_connected_components(graph)
        assert ["p", "q"] in [sorted(c) for c in components]
        assert sorted(recursive_components(graph)[0]) == ["p", "q"]

    def test_self_loop_is_recursive(self):
        graph = build_graph(parse_program(SSSP, name="sssp"))
        assert recursive_components(graph) == [["d"]]

    def test_strata_bottom_up(self):
        graph = build_graph(parse_program(SSSP, name="sssp"))
        layers = strata(graph)
        assert layers[-1] == ["d"]
        flat = [p for layer in layers for p in layer]
        assert flat.index("edge") < flat.index("d")

    def test_reachable_from(self):
        graph = build_graph(parse_program(SSSP, name="sssp"))
        assert reachable_from(graph, "d") == {"d", "edge"}


class TestStructure:
    def test_clean_program(self):
        report = report_for(SSSP)
        assert report.ok

    def test_no_recursive_rule(self):
        report = report_for("p(X, v) :- e(X, v).")
        assert "RA101" in codes_of(report)

    def test_mutual_recursion_with_aggregate(self):
        report = report_for("p(X, min[v]) :- q(X, v).\nq(X, v) :- p(X, v), e(X, _).")
        assert "RA102" in codes_of(report)
        assert "RA110" in codes_of(report)

    def test_nonlinear_recursion(self):
        report = report_for(
            "p(X, v) :- X = 0, v = 0.\n"
            "p(Y, min[v1]) :- p(X, v), p(Z, u), e(X, Z, Y), v1 = v + u."
        )
        assert "RA104" in codes_of(report)

    def test_no_aggregate_head(self):
        report = report_for("p(X, v) :- X = 0, v = 0.\np(Y, v) :- p(X, v), e(X, Y).")
        assert "RA105" in codes_of(report)

    def test_aggregate_not_last(self):
        report = report_for(
            "p(X, v) :- X = 0, v = 0.\np(min[v1], Y) :- p(X, v), e(X, Y), v1 = v."
        )
        assert "RA106" in codes_of(report)
        # not double-reported as a head-key problem too
        assert "RA108" not in codes_of(report)


class TestLints:
    def test_unbound_head_variable(self):
        report = report_for("best(X, cost) :- start(X, c).\nbest(Y, min[d]) :- best(X, d), e(X, Y).")
        assert "RA201" in codes_of(report)
        assert not report.ok

    def test_equality_chain_binds(self):
        # v bound through a chain of definitions rooted in an atom
        report = report_for(
            "p(X, v) :- start(X, a), b = a + 1, v = b * 2.\n"
            "p(Y, min[v1]) :- p(X, v), e(X, Y), v1 = v."
        )
        assert "RA201" not in codes_of(report)

    def test_unused_predicate_warns(self):
        report = report_for(SSSP + "orphan(X, v) :- island(X, v).\n")
        assert "RA202" in codes_of(report)

    def test_duplicate_rule_warns(self):
        report = report_for(SSSP + "d(Y, min[dy]) :- d(X, dx), edge(X, Y, w), dy = dx + w.\n")
        assert "RA203" in codes_of(report)

    def test_singleton_variable_warns(self):
        report = report_for(
            "p(X, v) :- start(X, v), extra(X, unused).\n"
            "p(Y, min[v1]) :- p(X, v), e(X, Y), v1 = v."
        )
        assert "RA204" in codes_of(report)

    def test_termination_delta_exempt_from_singleton(self):
        report = report_for(PAGERANK, name="pagerank")
        assert "RA204" not in codes_of(report)
        assert report.ok


class TestPreScreenPatterns:
    MIN = BUILTIN_AGGREGATES["min"]
    SUM = BUILTIN_AGGREGATES["sum"]

    def test_identity(self):
        assert match_pattern(self.MIN, Var("x"), "x", {}) == "identity"
        assert match_pattern(self.SUM, Var("x"), "x", {}) == "identity"

    def test_shift_selective_only(self):
        shift = Add(Var("x"), Var("w"))
        assert match_pattern(self.MIN, shift, "x", {}) == "shift"
        assert match_pattern(self.SUM, shift, "x", {}) is None

    def test_scale_nonneg_needs_sign(self):
        scaled = Mul(Const(0.5), Var("x"))
        assert match_pattern(self.MIN, scaled, "x", {}) == "scale-nonneg"
        negated = Mul(Const(-0.5), Var("x"))
        assert match_pattern(self.MIN, negated, "x", {}) is None
        unknown = Mul(Var("w"), Var("x"))  # w's sign unknown without assume
        assert match_pattern(self.MIN, unknown, "x", {}) is None

    def test_linear_homogeneous_additive(self):
        fprime = Div(Mul(Const(0.85), Var("x")), Var("n"))
        assert match_pattern(self.SUM, fprime, "x", {}) == "linear-homogeneous"
        assert match_pattern(self.SUM, Neg(Var("x")), "x", {}) == "linear-homogeneous"

    def test_calls_are_rejected(self):
        fprime = Mul(Call("relu", (Var("w"),)), Var("x"))
        assert match_pattern(self.SUM, fprime, "x", {}) is None

    def test_shift_plus_var_twice_rejected(self):
        assert match_pattern(self.MIN, Add(Var("x"), Var("x")), "x", {}) is None

    def test_prescreen_verdicts(self):
        assert prescreen(analyze(parse_program(SSSP, name="sssp"))).pattern == "shift"
        assert prescreen(PROGRAMS["cc"].analysis()).pattern == "identity"
        assert prescreen(PROGRAMS["pagerank"].analysis()).pattern == "linear-homogeneous"
        assert prescreen(PROGRAMS["viterbi"].analysis()).pattern == "scale-nonneg"
        assert not prescreen(PROGRAMS["gcn"].analysis()).eligible


class TestPreScreenSoundness:
    """The load-bearing invariant: prescreen-eligible implies checker-provable.

    An unsound pre-screen would let the async engines run a program the
    checker refutes, so every registry program is regression-tested.
    """

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_never_whitelists_what_the_checker_refutes(self, name):
        spec = PROGRAMS[name]
        verdict = prescreen(spec.analysis())
        if verdict.eligible:
            assert check_source(spec.source, name=name).mra_satisfiable


class TestAsyncCertification:
    def test_certified_via_prescreen(self):
        cert = certify_async(PROGRAMS["sssp"].analysis())
        assert cert.eligible
        assert cert.method == "prescreen(shift)"
        assert cert.diagnostic.code == "RA311"

    def test_refused_with_diagnostic(self):
        cert = certify_async(PROGRAMS["gcn"].analysis())
        assert not cert.eligible
        assert cert.diagnostic.code == "RA310"
        assert "synchronous engine" in cert.diagnostic.hint

    def test_require_raises(self):
        with pytest.raises(AsyncIneligibleError) as excinfo:
            require_async_certified(PROGRAMS["commnet"].analysis())
        assert excinfo.value.certificate.diagnostic.code == "RA310"

    def test_async_engine_refuses_uncertified_plan(self):
        from repro.distributed import AsyncEngine, ClusterConfig

        plan = PROGRAMS["gcn"].plan(default_graph("gcn"))
        with pytest.raises(AsyncIneligibleError) as excinfo:
            AsyncEngine(plan, ClusterConfig(num_workers=4))
        assert excinfo.value.certificate.diagnostic.code == "RA310"

    def test_async_engine_carries_certificate(self):
        from repro.distributed import AsyncEngine, ClusterConfig

        plan = PROGRAMS["sssp"].plan(default_graph("sssp"))
        engine = AsyncEngine(plan, ClusterConfig(num_workers=4))
        assert engine.async_certificate.eligible


class TestCheckerFastPath:
    def test_prescreen_fast_path_method(self):
        report = check_source(PROGRAMS["sssp"].source, name="sssp")
        assert report.mra_satisfiable
        assert report.property2.method == "structural:prescreen(shift)"

    def test_residue_still_goes_through_prover(self):
        report = check_source(PROGRAMS["gcn"].source, name="gcn")
        assert not report.mra_satisfiable


class TestCommunication:
    def test_cross_worker_shape(self):
        shapes = communication_shape(analyze(parse_program(SSSP, name="sssp")))
        assert len(shapes) == 1
        assert not shapes[0].co_partitionable
        assert shapes[0].source_keys == ("X",)
        assert shapes[0].dest_keys == ("Y",)

    def test_co_partitionable_shape(self):
        source = (
            "p(X, v) :- start(X, v).\n"
            "p(X, sum[v1]) :- p(X, v), f(X, w), v1 = v * w, {sum[d] < 0.001}.\n"
        )
        shapes = communication_shape(analyze(parse_program(source, name="local")))
        assert shapes[0].co_partitionable

    def test_exact_plan_census(self):
        plan = PROGRAMS["sssp"].plan(default_graph("sssp"))
        estimate = estimate_plan_communication(plan, num_workers=4)
        assert estimate.total_edges == sum(len(v) for v in plan.out_edges.values())
        assert 0 < estimate.cross_edges <= estimate.total_edges
        assert estimate.cross_fraction == estimate.cross_edges / estimate.total_edges
        assert sum(estimate.per_worker_out) == estimate.cross_edges


class TestPipelineReports:
    def test_registry_programs_lint_clean(self):
        for name, spec in PROGRAMS.items():
            report = analyze_source(spec.source, name=name)
            assert report.ok, f"{name}: {codes_of(report)}"
            # RA310 (async-ineligible) and RA342 (⊗ outside the certified
            # pattern table) flag the same two neural programs by design
            assert not [d for d in report.diagnostics if d.severity is Severity.WARNING
                        and d.code not in ("RA310", "RA342")], name

    def test_syntax_error_is_a_diagnostic(self):
        report = report_for("p(X, v) :- ???")
        assert codes_of(report)[0] in {"RA001", "RA002"}
        assert not report.ok

    def test_theorem_sections_populated(self):
        report = report_for(SSSP, name="sssp")
        assert report.theorem1["eligible"]
        assert report.theorem3["eligible"]
        assert report.theorem3["method"] == "prescreen(shift)"

    def test_json_roundtrip(self):
        payload = json.loads(json.dumps(report_for(SSSP, name="sssp").to_dict()))
        assert payload["program"] == "sssp"
        assert payload["theorem3"]["eligible"]
