"""Property suite for :mod:`repro.analysis.absint`.

The soundness contract of the abstract interpreter: the static bound
must *dominate* the concrete fixpoint.  Whatever values any kernel
backend computes, every one of them lies inside the proven interval
(or under the proven magnitude for non-numeric carriers), with no
runtime saturation or clamping involved.  The suite checks that
contract over every registry program on its default graph, and -- via
hypothesis -- over seeded random graphs the analyzer has never seen.

The cost domain is pinned the same way: ``recommended_backend`` must
name the frontier shape (``sparse`` | ``numpy`` for dense) of the
sparse- and dense-frontier programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    FLOAT64_EXACT_LIMIT,
    analyze_plan_range,
    analyze_symbolic_range,
    counting_walk_bound,
    estimate_plan_cost,
    summarize_plan,
)
from repro.datalog import analyze, parse_program
from repro.distributed.chaos_harness import default_graph
from repro.engine import MRAEvaluator
from repro.graphs.generators import random_dag, rmat
from repro.programs import PROGRAMS
from repro.runtime import KERNELS


#: programs whose frontiers stay dense, and selective ones whose
#: frontiers collapse after the first supersteps
DENSE_PROGRAMS = ("pagerank", "katz", "adsorption")
SPARSE_PROGRAMS = ("sssp", "cc")


def plan_for(name, seed=7):
    return PROGRAMS[name].plan(default_graph(name, seed=seed))


def backends_for(plan):
    """python always; numpy wherever its carrier assumptions hold."""
    out = ["python"]
    if KERNELS["numpy"].supports_plan(plan):
        out.append("numpy")
    return out


def assert_dominates(plan, verdict, values, tag):
    """Every concrete value lies inside the abstract certificate."""
    if not verdict.bounded:
        return
    semiring = plan.analysis.aggregate.semiring
    if verdict.magnitude_only:
        for key, value in values.items():
            mag = float(semiring.value_magnitude(value))
            assert mag <= verdict.magnitude, (tag, key, mag, verdict.magnitude)
    else:
        for key, value in values.items():
            concrete = float(value)
            assert verdict.lo <= concrete <= verdict.hi, (
                tag,
                key,
                concrete,
                (verdict.lo, verdict.hi),
            )


class TestBoundDominatesRegistry:
    """The certificate holds for all 18 programs on both backends."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bound_dominates_concrete_fixpoint(self, name):
        plan = plan_for(name)
        verdict = analyze_plan_range(plan)
        # the registry ships no overflow: the gate in CI relies on it
        assert verdict.code in ("RA350", "RA352"), (name, verdict.detail)
        for backend in backends_for(plan):
            values = MRAEvaluator(plan, backend=backend).run().values
            assert_dominates(plan, verdict, values, (name, backend))

    @pytest.mark.parametrize("name", ["sssp", "cc", "path_count", "dag_paths"])
    def test_known_bounded_programs_certify_ra350(self, name):
        verdict = analyze_plan_range(plan_for(name))
        assert verdict.code == "RA350", (name, verdict.detail)
        assert verdict.bounded and verdict.float64_exact
        assert verdict.magnitude < FLOAT64_EXACT_LIMIT

    def test_verdict_serialises_the_bound(self):
        verdict = analyze_plan_range(plan_for("sssp"))
        payload = verdict.to_dict()
        assert payload["bound"] == [verdict.lo, verdict.hi]
        assert payload["code"] == "RA350"
        assert payload["float64_exact"] is True


class TestBoundDominatesRandomGraphs:
    """Hypothesis: dominance on graphs the analyzer has never seen."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(8, 48),
        m=st.integers(8, 120),
    )
    def test_additive_dag_counting(self, seed, n, m):
        graph = random_dag(n, max(n, m), seed=seed)
        plan = PROGRAMS["dag_paths"].plan(graph)
        verdict = analyze_plan_range(plan)
        for backend in backends_for(plan):
            values = MRAEvaluator(plan, backend=backend).run().values
            assert_dominates(plan, verdict, values, ("dag_paths", seed, backend))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(8, 48),
        m=st.integers(8, 160),
    )
    def test_selective_shortest_paths(self, seed, n, m):
        graph = rmat(n, max(n, m), seed=seed)
        plan = PROGRAMS["sssp"].plan(graph)
        verdict = analyze_plan_range(plan)
        assert verdict.code == "RA350", verdict.detail
        for backend in backends_for(plan):
            values = MRAEvaluator(plan, backend=backend).run().values
            assert_dominates(plan, verdict, values, ("sssp", seed, backend))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_epsilon_terminated_pagerank(self, seed):
        graph = rmat(40, 140, seed=seed)
        plan = PROGRAMS["pagerank"].plan(graph)
        verdict = analyze_plan_range(plan)
        for backend in backends_for(plan):
            values = MRAEvaluator(plan, backend=backend).run().values
            assert_dominates(plan, verdict, values, ("pagerank", seed, backend))


def symbolic_verdict(source, name="probe"):
    return analyze_symbolic_range(analyze(parse_program(source, name=name)))


class TestSymbolicClassification:
    """RA35x from program text alone (the file-based lint path)."""

    def test_multiplicative_growth_is_ra351(self):
        verdict = symbolic_verdict(
            "assume m >= 2.\n"
            "paths(X, c) :- seed(X, c).\n"
            "paths(Y, sum[cy]) :- paths(X, c), edge(X, Y, m), cy = c * m.\n"
        )
        assert verdict.code == "RA351"
        assert not verdict.bounded and verdict.method == "symbolic"

    def test_always_improving_shift_is_ra351(self):
        verdict = symbolic_verdict(
            "best(X, d) :- seed(X, d).\n"
            "best(Y, max[dy]) :- best(X, d), edge(X, Y, w), dy = d + 1.\n"
        )
        assert verdict.code == "RA351"

    def test_shift_against_the_fold_is_inconclusive(self):
        # min-fold with a +w shift only improves while new keys appear:
        # no growth proof without a graph, so the verdict stays open
        verdict = symbolic_verdict(
            "cost(0, d) :- d = 0.\n"
            "cost(Y, min[dy]) :- cost(X, dx), edge(X, Y, w), dy = dx + w.\n"
        )
        assert verdict.code == "RA352"
        assert not verdict.bounded

    def test_assume_domain_can_rescue_the_coefficient(self):
        # the same multiplicative recursion with factors capped below
        # one cannot be proven divergent symbolically
        verdict = symbolic_verdict(
            "assume m <= 0.5.\n"
            "assume m >= 0.\n"
            "mass(X, c) :- seed(X, c).\n"
            "mass(Y, sum[cy]) :- mass(X, c), edge(X, Y, m), cy = c * m.\n"
        )
        assert verdict.code == "RA352"


class TestCountingWalkBound:
    """The builder-facing exact walk-count certificate."""

    def test_exact_on_a_diamond(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)]
        # walks into 2: 0->2 (x1) plus 0->1->2 (x2 * x3) = 7
        assert counting_walk_bound(edges) == 7.0

    def test_source_count_is_the_floor(self):
        assert counting_walk_bound([], initial=4.0) == 4.0

    def test_unreachable_edges_do_not_inflate(self):
        assert counting_walk_bound([(5, 6, 100.0)]) == 1.0

    def test_rejects_non_forward_edges(self):
        with pytest.raises(ValueError):
            counting_walk_bound([(1, 0, 1.0)])
        with pytest.raises(ValueError):
            counting_walk_bound([(2, 2, 1.0)])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(3, 16),
        mult=st.integers(1, 3),
    )
    def test_dominates_every_vertex_count(self, seed, n, mult):
        graph = random_dag(n, 3 * n, seed=seed)
        edges = [(s, d, float(mult)) for s, d in graph.edges if s < d]
        bound = counting_walk_bound(edges)
        # recompute per-vertex counts independently and compare
        counts = {0: 1.0}
        for src, dst, m in sorted(edges):
            if src in counts:
                counts[dst] = counts.get(dst, 0.0) + counts[src] * m
        assert bound == max(counts.values())


class TestCostDomain:
    """The cardinality/frontier domain and its backend recommendation."""

    def test_summary_counts_match_the_plan(self):
        plan = plan_for("sssp")
        summary = summarize_plan(plan)
        assert summary.num_keys == len(plan.keys)
        assert summary.num_edges == sum(
            len(edges) for edges in plan.out_edges.values()
        )
        assert summary.max_out_degree >= 1
        assert 0.0 < summary.peak_frontier_fraction <= 1.0
        assert summary.depth == len(summary.levels)

    def test_selective_frontier_recommends_sparse(self):
        cost = estimate_plan_cost(plan_for("sssp"))
        assert cost.recommended_backend == "sparse"
        assert cost.supersteps >= 1
        assert cost.work > 0

    def test_dense_fixpoint_recommends_numpy(self):
        cost = estimate_plan_cost(plan_for("pagerank"))
        assert cost.recommended_backend == "numpy"
        assert cost.supersteps >= 1

    @pytest.mark.parametrize("name", sorted(DENSE_PROGRAMS + SPARSE_PROGRAMS))
    def test_recommendation_names_the_frontier_shape(self, name):
        want = "sparse" if name in SPARSE_PROGRAMS else "numpy"
        assert estimate_plan_cost(plan_for(name)).recommended_backend == want

    def test_est_seconds_prices_in_cost_model_currency(self):
        from repro.distributed.cluster import CostModel

        cost = estimate_plan_cost(plan_for("sssp"))
        barrier_only = CostModel().with_overrides(
            tuple_cost=0.0, barrier_cost=1.0, job_overhead=0.0
        )
        assert cost.est_seconds(barrier_only) == float(cost.supersteps)
        work_only = CostModel().with_overrides(
            tuple_cost=1.0, barrier_cost=0.0, job_overhead=0.0
        )
        assert cost.est_seconds(work_only, workers=2) == pytest.approx(
            cost.work / 2
        )

    def test_supersteps_track_graph_depth(self):
        from repro.graphs.generators import chain

        shallow = estimate_plan_cost(PROGRAMS["sssp"].plan(chain(5)))
        deep = estimate_plan_cost(PROGRAMS["sssp"].plan(chain(40)))
        assert deep.supersteps > shallow.supersteps
