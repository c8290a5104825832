"""The automatic MRA condition checker: prover, refuter, reports."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import MEAN, MIN, SUM, get_aggregate
from repro.checker import (
    Status,
    check_analysis,
    check_source,
    refute_property1,
    refute_property2,
)
from repro.checker.prover import prove_property1, prove_property2
from repro.expr import Interval, evaluate, var
from repro.programs import PROGRAMS


class TestTable1:
    """The headline reproduction: 12 of the paper's 14 programs pass,
    2 fail (Table 1); the 4 semiring-family extensions all pass."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_verdict_matches_paper(self, name):
        spec = PROGRAMS[name]
        report = check_analysis(spec.analysis())
        assert report.mra_satisfiable == spec.expected_mra

    def test_sixteen_pass_two_fail(self):
        verdicts = [
            check_analysis(spec.analysis()).mra_satisfiable
            for spec in PROGRAMS.values()
        ]
        assert sum(verdicts) == 16 and len(verdicts) == 18

    @pytest.mark.parametrize(
        "name", [n for n, s in PROGRAMS.items() if s.expected_mra]
    )
    def test_positives_are_structurally_proved(self, name):
        """Positives must be proofs, not merely unrefuted (Z3's 'unsat')."""
        report = check_analysis(PROGRAMS[name].analysis())
        assert report.property2.status is Status.PROVED
        assert report.property2.method.startswith("structural")

    @pytest.mark.parametrize(
        "name", [n for n, s in PROGRAMS.items() if not s.expected_mra]
    )
    def test_negatives_carry_counterexamples(self, name):
        report = check_analysis(PROGRAMS[name].analysis())
        assert report.property2.status is Status.REFUTED
        assert report.property2.counterexample is not None


class TestProperty1:
    def test_predefined_operators_proved(self):
        for name in ("min", "max", "sum", "count"):
            result = prove_property1(get_aggregate(name))
            assert result is not None and result.holds

    def test_mean_not_provable(self):
        assert prove_property1(MEAN) is None

    def test_mean_refuted_with_witness(self):
        witness = refute_property1(MEAN)
        assert witness is not None
        a = witness.inputs.get("a")
        b = witness.inputs.get("b")
        c = witness.inputs.get("c")
        # verify the counterexample actually violates associativity
        assert MEAN.combine(MEAN.combine(a, b), c) != MEAN.combine(
            a, MEAN.combine(b, c)
        )

    def test_sum_not_refutable(self):
        assert refute_property1(SUM) is None


class TestProperty2Prover:
    def test_min_with_monotone_fprime(self):
        result = prove_property2(MIN, var("x") + var("w"), "x", {})
        assert result is not None and result.holds

    def test_sum_with_linear_fprime(self):
        result = prove_property2(SUM, var("x") * var("w"), "x", {})
        assert result is not None and result.holds

    def test_sum_with_affine_fprime_not_proved(self):
        # x + w is not additive: sum over paths would double-count w
        assert prove_property2(SUM, var("x") + var("w"), "x", {}) is None

    def test_min_needs_domains_for_scaling(self):
        expr = var("x") * var("w")
        assert prove_property2(MIN, expr, "x", {}) is None
        domains = {"w": Interval(0.0, 1.0)}
        result = prove_property2(MIN, expr, "x", domains)
        assert result is not None and result.holds


class TestProperty2Refuter:
    def test_sum_affine_refuted(self):
        witness = refute_property2(SUM, var("x") + var("w"), "x", {})
        assert witness is not None

    def test_gcn_counterexample_is_genuine(self):
        analysis = PROGRAMS["gcn"].analysis()
        witness = refute_property2(
            SUM, analysis.fprime, analysis.recursion_var, analysis.domains
        )
        assert witness is not None
        # replay the witness: g(f(g(x,y))) must differ from g(f(x), f(y))
        inputs = dict(witness.inputs)
        x = inputs.pop("x", None)
        y = inputs.pop("y", None)
        if x is not None and y is not None:
            env = dict(inputs)

            def f(value):
                env[analysis.recursion_var] = value
                return evaluate(analysis.fprime, env)

            assert f(x + y) != f(x) + f(y)

    def test_pagerank_not_refuted(self):
        analysis = PROGRAMS["pagerank"].analysis()
        witness = refute_property2(
            SUM, analysis.fprime, analysis.recursion_var, analysis.domains
        )
        assert witness is None

    def test_min_with_decreasing_fprime_refuted(self):
        witness = refute_property2(MIN, -var("x"), "x", {})
        assert witness is not None


class TestCheckSource:
    def test_end_to_end_positive(self, sssp_source):
        report = check_source(sssp_source, name="sssp")
        assert report.mra_satisfiable
        assert "yes" in report.summary()

    def test_end_to_end_negative(self):
        source = (
            "gcn(Y, sum[g1]) :- gcn(X, g), a(X, Y, w), para(p), "
            "g1 = relu(g * p) * w."
        )
        report = check_source(source, name="gcn")
        assert not report.mra_satisfiable


class TestRefuterSoundness:
    """Random linear programs must never be refuted (they satisfy P2)."""

    @settings(deadline=None, max_examples=10)
    @given(
        coefficient=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    )
    def test_linear_sum_programs_never_refuted(self, coefficient):
        fprime = var("x") * float(coefficient)
        assert refute_property2(SUM, fprime, "x", {}) is None

    @settings(deadline=None, max_examples=10)
    @given(
        shift=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    )
    def test_shifted_min_programs_never_refuted(self, shift):
        fprime = var("x") + float(shift)
        assert refute_property2(MIN, fprime, "x", {}) is None


class TestUnknownVerdict:
    """Properties the prover cannot decide and the refuter cannot break.

    A cubic is genuinely monotone, but outside the structural fragment;
    like Z3 answering 'unknown', the checker must stay conservative and
    reject the program rather than guess.
    """

    def test_cubic_min_program_is_unknown(self):
        source = """
        p(X, v) :- X = 0, v = 1.
        p(Y, min[v1]) :- p(X, v), edge(X, Y), v1 = v * v * v.
        """
        report = check_source(source, name="cubic")
        assert report.property2.status is Status.UNKNOWN
        assert not report.mra_satisfiable

    def test_unknown_routes_to_naive(self):
        from repro.systems import PowerLog
        from repro.programs import ProgramSpec
        from repro.programs.builders import plain_graph_db

        source = """
        p(X, v) :- X = 0, v = 1.
        p(Y, min[v1]) :- p(X, v), edge(X, Y), v1 = v * v * v.
        """
        spec = ProgramSpec(
            name="cubic", title="Cubic", source=source, aggregator="min",
            expected_mra=False, build_database=plain_graph_db,
        )
        decision = PowerLog().decide(spec)
        assert decision.evaluation == "naive"

    def test_mean_program_fails_property1(self):
        source = """
        p(X, v) :- X = 0, v = 1.
        p(Y, mean[v1]) :- p(X, v), edge(X, Y), v1 = v.
        """
        report = check_source(source, name="averaging")
        assert report.property1.status is Status.REFUTED
        assert report.property1.counterexample is not None
        assert not report.mra_satisfiable
