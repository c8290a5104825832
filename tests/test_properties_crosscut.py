"""Cross-cutting property-based tests over randomly generated inputs.

These exercise the central theorems end-to-end on random instances:

* Theorem 1: MRA evaluation equals naive evaluation on random graphs and
  random (checker-approved) programs;
* Theorem 3: asynchronous execution reaches the synchronous fixpoint for
  any interleaving the simulator produces under random seeds;
* checker soundness: every verdict agrees with a brute-force numeric
  comparison of one naive vs one MRA run.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import check_analysis
from repro.datalog import analyze, parse_program
from repro.distributed import AsyncEngine, ClusterConfig, SyncEngine
from repro.engine import Database, MRAEvaluator, NaiveEvaluator, compile_plan
from repro.graphs import rmat
from repro.programs.builders import weighted_graph_db

relaxed = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_weighted_db(seed: int) -> Database:
    graph = rmat(20, 70, seed=seed)
    return weighted_graph_db(graph)


class TestTheorem1OnRandomPrograms:
    """Randomly parameterised linear programs: MRA must equal naive."""

    @relaxed
    @given(
        seed=st.integers(0, 9999),
        scale_num=st.integers(1, 9),
    )
    def test_random_sum_program(self, seed, scale_num):
        scale = Fraction(scale_num, 100)  # keep the recursion contractive
        source = f"""
        score(X, v) :- X = 0, v = 1.
        score(Y, sum[v1]) :- score(X, v), edge(X, Y, w), v1 = v * {float(scale)} / w,
            {{sum[dv] < 0.0001}}.
        """
        analysis = analyze(parse_program(source, name="random-sum"))
        db = random_weighted_db(seed)
        naive = NaiveEvaluator(analysis, db).run()
        mra = MRAEvaluator(compile_plan(analysis, db)).run()
        for key, value in naive.values.items():
            assert mra.values[key] == pytest.approx(value, abs=1e-3)

    @relaxed
    @given(
        seed=st.integers(0, 9999),
        offset=st.integers(0, 5),
    )
    def test_random_min_program(self, seed, offset):
        source = f"""
        best(X, v) :- X = 0, v = 0.
        best(Y, min[v1]) :- best(X, v), edge(X, Y, w), v1 = v + w + {offset}.
        """
        analysis = analyze(parse_program(source, name="random-min"))
        db = random_weighted_db(seed)
        naive = NaiveEvaluator(analysis, db).run()
        mra = MRAEvaluator(compile_plan(analysis, db)).run()
        assert naive.values == mra.values


class TestCheckerSoundnessEndToEnd:
    """A checker 'yes' must imply naive == MRA on a concrete instance."""

    PROGRAMS = {
        "linear": (
            """
            p(X, v) :- X = 0, v = 1.
            p(Y, sum[v1]) :- p(X, v), edge(X, Y, w), v1 = 0.002 * v * w,
                {sum[dv] < 0.0001}.
            """,
            True,
        ),
        "affine-sum": (
            """
            p(X, v) :- X = 0, v = 1.
            p(Y, sum[v1]) :- p(X, v), edge(X, Y, w), v1 = 0.01 * v + 0.0001 * w,
                {sum[dv] < 0.0001}.
            """,
            False,  # constant part inside F' breaks additivity
        ),
        "monotone-min": (
            """
            p(X, v) :- X = 0, v = 0.
            p(Y, min[v1]) :- p(X, v), edge(X, Y, w), v1 = v + w.
            """,
            True,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_verdict(self, name):
        source, expected = self.PROGRAMS[name]
        report = check_analysis(analyze(parse_program(source, name=name)))
        assert report.mra_satisfiable == expected

    @pytest.mark.parametrize(
        "name", [n for n, (_, ok) in PROGRAMS.items() if ok]
    )
    def test_positive_verdicts_hold_numerically(self, name):
        source, _ = self.PROGRAMS[name]
        analysis = analyze(parse_program(source, name=name))
        db = random_weighted_db(77)
        naive = NaiveEvaluator(analysis, db).run()
        mra = MRAEvaluator(compile_plan(analysis, db)).run()
        for key, value in naive.values.items():
            assert mra.values[key] == pytest.approx(value, abs=1e-3)


class TestTheorem3OnRandomSchedules:
    """Different cluster seeds produce different event interleavings; the
    async fixpoint must be identical each time (min) or within epsilon."""

    @relaxed
    @given(cluster_seed=st.integers(0, 9999))
    def test_sssp_schedule_independence(self, cluster_seed):
        from repro.programs import PROGRAMS

        graph = rmat(30, 120, seed=5)
        plan = PROGRAMS["sssp"].plan(graph)
        reference = MRAEvaluator(plan).run().values
        cluster = ClusterConfig(num_workers=5, seed=cluster_seed)
        result = AsyncEngine(plan, cluster).run()
        assert result.values == reference

    @relaxed
    @given(
        cluster_seed=st.integers(0, 9999),
        workers=st.integers(1, 12),
    )
    def test_worker_count_independence(self, cluster_seed, workers):
        from repro.programs import PROGRAMS

        graph = rmat(30, 120, seed=6)
        plan = PROGRAMS["cc"].plan(graph)
        reference = MRAEvaluator(plan).run().values
        cluster = ClusterConfig(num_workers=workers, seed=cluster_seed)
        sync_result = SyncEngine(plan, cluster).run()
        async_result = AsyncEngine(plan, cluster).run()
        assert sync_result.values == reference
        assert async_result.values == reference
