"""Checker report objects."""


from repro.checker import CheckReport, PropertyResult, Status, check_analysis


def make_result(status: Status, name: str = "property2") -> PropertyResult:
    return PropertyResult(
        property_name=name, status=status, method="test", detail="d"
    )


class TestPropertyResult:
    def test_holds_only_when_proved(self):
        assert make_result(Status.PROVED).holds
        assert not make_result(Status.REFUTED).holds
        assert not make_result(Status.UNKNOWN).holds


class TestCheckReport:
    def _report(self, p1: Status, p2: Status, decomposable: bool = True):
        return CheckReport(
            program_name="p",
            aggregate_name="sum",
            fprime_repr="f",
            recursion_var="x",
            property1=make_result(p1, "property1"),
            property2=make_result(p2),
            decomposable=decomposable,
        )

    def test_satisfiable_requires_both_properties(self):
        assert self._report(Status.PROVED, Status.PROVED).mra_satisfiable
        assert not self._report(Status.PROVED, Status.REFUTED).mra_satisfiable
        assert not self._report(Status.REFUTED, Status.PROVED).mra_satisfiable
        assert not self._report(Status.PROVED, Status.UNKNOWN).mra_satisfiable

    def test_decomposability_required(self):
        assert not self._report(
            Status.PROVED, Status.PROVED, decomposable=False
        ).mra_satisfiable

    def test_summary_mentions_verdict_and_method(self):
        summary = self._report(Status.PROVED, Status.PROVED).summary()
        assert "yes" in summary and "test" in summary


class TestMultiBodyCheck:
    def test_failing_secondary_body_rejects_program(self):
        """Property 2 must hold for *every* recursive body."""
        from repro.datalog import analyze, parse_program

        source = """
        p(X, v) :- X = 0, v = 1.
        p(Y, sum[v1]) :- p(X, v), edge(X, Y, w), v1 = 0.1 * v;
            :- p(Z, v), other(Z, Y), v1 = relu(v), {sum[dv] < 0.001}.
        """
        report = check_analysis(analyze(parse_program(source, name="mixed")))
        assert not report.mra_satisfiable
        assert report.property2.status is Status.REFUTED

    def test_all_bodies_passing_accepts(self):
        from repro.datalog import analyze, parse_program

        source = """
        p(X, v) :- X = 0, v = 1.
        p(Y, sum[v1]) :- p(X, v), edge(X, Y, w), v1 = 0.1 * v;
            :- p(Z, v), other(Z, Y), v1 = 0.2 * v, {sum[dv] < 0.001}.
        """
        report = check_analysis(analyze(parse_program(source, name="mixed-ok")))
        assert report.mra_satisfiable

