"""Unit coverage for the array kernel (``numpy``, alias ``sparse``).

The equivalence suite (``test_kernel_equivalence``) proves end-to-end
bit-exactness across engines; this module pins the mechanisms that
exactness rests on, one by one: the type-exact edge columns that are
the compiled plan's only edge storage (and the adjacency view derived
from them), the CSR packer producing *content-identical* structures to
a per-edge walk of that view, the fused initial-delta path (values and dict
insertion order), batch-push order equivalence against repeated scalar
pushes, delta-stepping's threshold takes and checkpoint
round-trips -- plus the registry facts around the one class: the
``sparse`` alias and the degradation of carriers it refuses.
"""

from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.distributed import Checkpointer, ClusterConfig
from repro.distributed.chaos_harness import default_graph
from repro.distributed.sharding import ShardedRun
from repro.distributed.sync_engine import SyncEngine
from repro.distributed.unified import UnifiedEngine
from repro.engine import MRAEvaluator
from repro.engine.mra import compute_initial_delta
from repro.engine.plan import EdgeColumns
from repro.obs import Observability
from repro.programs import PROGRAMS
from repro.runtime import (
    BACKEND_ENV_VAR,
    KERNELS,
    available_backends,
    get_kernel,
    resolve_backend,
    resolve_backend_for_plan,
)
from repro.runtime.numpy_kernel import _fold_codes
from tests.reference_matcher import reference_bindings

ALL_PROGRAMS = sorted(PROGRAMS)


def plan_for(program: str, seed: int = 7):
    return PROGRAMS[program].plan(default_graph(program, seed=seed))


def array_plan_for(program: str, seed: int = 7):
    """Compile a plan, skipping programs the array kernel refuses."""
    plan = plan_for(program, seed=seed)
    if not get_kernel("numpy").supports_plan(plan):
        pytest.skip(f"array kernel refuses {program}'s semiring carrier")
    return plan


class TestOneArrayKernel:
    """``numpy`` and ``sparse`` name one class; other names are gone."""

    def test_sparse_is_an_alias(self):
        assert KERNELS["sparse"] is KERNELS["numpy"]
        assert set(KERNELS) == {"python", "numpy", "sparse"}
        assert resolve_backend("sparse") == "numpy"
        assert get_kernel("numpy") is get_kernel("numpy")
        # one kernel, listed once
        assert available_backends() == ["python", "numpy"]

    @pytest.mark.parametrize("program", ("sssp", "pagerank"))
    def test_both_names_give_identical_results(self, program):
        graph = default_graph(program, seed=7)
        cluster = ClusterConfig(num_workers=4)
        runs = {
            name: SyncEngine(
                PROGRAMS[program].plan(graph), cluster, backend=name
            ).run()
            for name in ("numpy", "sparse")
        }
        assert runs["sparse"].backend == "numpy"
        assert runs["sparse"] == runs["numpy"]

    def test_env_alias_resolves(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        assert resolve_backend(None) == "numpy"

    @pytest.mark.parametrize("name", ("auto", "jit"))
    def test_removed_names_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)

    def test_numeric_preference_resolves_unchanged(self):
        plan = plan_for("sssp")
        assert resolve_backend_for_plan(plan, "numpy") == "numpy"
        assert resolve_backend_for_plan(plan, "sparse") == "numpy"

    def test_metrics_label_numpy_version_under_either_name(self):
        for name in ("numpy", "sparse"):
            obs = Observability()
            MRAEvaluator(plan_for("sssp"), obs=obs, backend=name).run()
            (key,) = [
                k
                for k in obs.metrics.snapshot()["counters"]
                if k.startswith("runtime.backend_runs")
            ]
            assert "backend=numpy" in key and f"numpy_version={np.__version__}" in key


class TestRefusedCarrierDegrades:
    """kpaths (topk over KTuple) runs on the python kernel whatever the
    preference says, with the fixpoint the python backend computes."""

    ENGINES = {
        "mra": lambda plan, backend: MRAEvaluator(plan, backend=backend),
        "sync": lambda plan, backend: SyncEngine(
            plan, ClusterConfig(num_workers=4), backend=backend
        ),
        "unified": lambda plan, backend: UnifiedEngine(
            plan, ClusterConfig(num_workers=4), backend=backend
        ),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_kpaths_resolves_to_python(self, engine, monkeypatch):
        build = self.ENGINES[engine]
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        reference = build(plan_for("kpaths"), "python").run()
        by_argument = build(plan_for("kpaths"), "numpy").run()
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        by_environment = build(plan_for("kpaths"), None).run()
        for run in (by_argument, by_environment):
            assert run.backend == "python"
            assert run == reference


def two_body_plan():
    """The Program-2.b PageRank of ``test_analyzer`` (a join body and a
    self body) compiled on a small graph.  Its self body re-adds every
    delta, so runs are capped at a dozen rounds: the point is that two
    bodies go through the same packer and kernels, not the fixpoint."""
    from repro.datalog import analyze, parse_program
    from repro.engine.plan import compile_plan
    from repro.engine.termination import TerminationSpec
    from repro.graphs import rmat
    from repro.programs.builders import plain_graph_db
    from tests.test_analyzer import TestMultipleRecursiveBodies

    analysis = analyze(
        parse_program(TestMultipleRecursiveBodies.SOURCE, name="pagerank-2b")
    )
    return compile_plan(
        analysis,
        plain_graph_db(rmat(25, 110, seed=7)),
        termination=TerminationSpec.from_analysis(analysis, max_iterations=12),
    )


def _exact(value):
    """``value`` with its exact type (and bits: repr tells -0.0 from 0.0)."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return (type(value), repr(value))


def _adjacency_of(columns_seq):
    """What ``plan.out_edges`` must be, spelled out one edge at a time."""
    expected: dict = {}
    for columns in columns_seq:
        for j in range(len(columns)):
            params = tuple(col[j] for col in columns.param_cols)
            expected.setdefault(columns.srcs[j], []).append(
                (columns.dsts[j], params, columns.fn)
            )
    return expected


class TestEdgeColumns:
    """The plan's edges are columns; the adjacency is a view of them."""

    @pytest.mark.parametrize("program", ALL_PROGRAMS)
    def test_every_compiled_plan_carries_columns(self, program):
        plan = plan_for(program)
        assert plan.edge_columns is not None
        assert len(plan.edge_columns) == len(plan.fprime_fns)
        total = sum(len(columns) for columns in plan.edge_columns)
        assert total == plan.num_edges
        # the derived adjacency view holds every edge exactly once
        assert total == sum(len(edges) for edges in plan.out_edges.values())

    @staticmethod
    def _stored(plan):
        (columns,) = plan.edge_columns
        return sorted(zip(columns.srcs, columns.dsts, *columns.param_cols))

    def test_columns_match_out_edges_content(self):
        """The edge content, checked against the input graph: the view
        ``out_edges`` is derived from the columns, so comparing the two
        would prove nothing."""
        graph = default_graph("sssp", seed=7)
        assert self._stored(PROGRAMS["sssp"].plan(graph)) == sorted(
            set(graph.weighted_edges())
        )

        graph = default_graph("cc", seed=7)
        symmetrised = set(graph.edges) | {(v, u) for u, v in graph.edges}
        assert self._stored(PROGRAMS["cc"].plan(graph)) == sorted(symmetrised)

        graph = default_graph("pagerank", seed=7)
        successors: dict = {}
        for u, v in graph.edges:
            successors.setdefault(u, set()).add(v)
        assert self._stored(PROGRAMS["pagerank"].plan(graph)) == sorted(
            (u, v, len(targets))
            for u, targets in successors.items()
            for v in targets
        )

    @pytest.mark.parametrize("program", ALL_PROGRAMS)
    def test_view_values_keep_the_matcher_types(self, program, monkeypatch):
        """Every edge reachable through ``plan.edges_from`` carries
        values ``type()``-identical, element by element, to what an
        independent matcher -- the tuple-at-a-time reference -- binds for
        it on the same join: no column coerces (``4`` stays an int)."""
        import repro.engine.plan as plan_module

        match_columns = plan_module.match_columns
        bound: list[list] = []  # one list of bindings per recursive body

        def recording(
            atoms, db, overrides=None, counters=None, iterated_predicate=None
        ):
            assert overrides is None  # a from-scratch compile joins whole relations
            bound.append(
                [
                    dict(binding)
                    for binding in reference_bindings(
                        atoms, db, iterated_predicate=iterated_predicate
                    )
                ]
            )
            return match_columns(
                atoms, db, counters=counters, iterated_predicate=iterated_predicate
            )

        monkeypatch.setattr(plan_module, "match_columns", recording)
        plan = plan_for(program)
        analysis = plan.analysis
        assert len(bound) == len(plan.fprime_fns)

        def scalar(values):
            return values[0] if len(values) == 1 else values

        for spec, fn, bindings in zip(analysis.recursions, plan.fprime_fns, bound):
            key_names = (*spec.source_keys, *analysis.key_vars)
            # broadcast bodies (apsp) bind some key variables outside
            # the matcher and emit one edge per value for each binding
            keyed = all(name in bindings[0] for name in key_names)

            def row(src, dst, params):
                return _exact((src, dst) + params if keyed else params)

            expected = Counter(
                row(
                    scalar(tuple(b.get(n) for n in spec.source_keys)),
                    scalar(tuple(b.get(n) for n in analysis.key_vars)),
                    tuple(b[n] for n in spec.fprime_params),
                )
                for b in bindings
            )
            actual = Counter(
                row(src, dst, params)
                for src in plan.out_edges
                for dst, params, edge_fn in plan.edges_from(src)
                if edge_fn is fn
            )
            fanout, rest = divmod(sum(actual.values()), len(bindings))
            assert rest == 0 and (fanout == 1 or not keyed)
            assert actual == Counter(
                {edge: count * fanout for edge, count in expected.items()}
            )

    def test_exact_int_and_float_weights_survive(self):
        """``2**53 + 1`` is not a float64 and ``0.5`` is not an int: a
        column holding both demotes to a list and keeps each exact, so
        the python kernel computes with the numbers the user wrote."""
        from repro.graphs.graph import Graph

        big = 2**53 + 1
        graph = Graph(3, [(0, 1), (0, 2)], weights=[big, 0.5])
        plan = PROGRAMS["sssp"].plan(graph)
        (columns,) = plan.edge_columns
        (weights,) = columns.param_cols
        assert isinstance(weights, list)
        assert sorted(map(repr, weights)) == sorted(map(repr, (big, 0.5)))
        values = MRAEvaluator(plan, backend="python").run().values
        assert {k: repr(v) for k, v in values.items()} == {
            0: "0", 1: repr(big), 2: "0.5"
        }
        # all-int weights stay a typed column, still exact past 2**53
        graph = Graph(3, [(0, 1), (0, 2)], weights=[big, 3])
        plan = PROGRAMS["sssp"].plan(graph)
        assert plan.edge_columns[0].param_cols[0].typecode == "q"
        assert MRAEvaluator(plan, backend="python").run().values[1] == big

    def test_int_weights_print_as_ints(self):
        # array('d') columns used to turn sssp's int weights into floats
        plan = plan_for("sssp")
        (columns,) = plan.edge_columns
        assert columns.param_cols[0].typecode == "q"
        values = MRAEvaluator(plan, backend="python").run().values
        assert {type(v) for v in values.values()} == {int}

    def test_bool_is_not_an_int(self):
        columns = EdgeColumns(lambda x, w: x, [0, 1], [1, 0], ([True, False],))
        assert columns.param_cols[0] == [True, False]
        assert type(columns.param_cols[0][0]) is bool

    def test_int_keys_use_typed_storage(self):
        from array import array

        plan = plan_for("sssp")
        (columns,) = plan.edge_columns
        assert isinstance(columns.srcs, array)
        assert isinstance(columns.dsts, array)
        for col in columns.param_cols:
            assert isinstance(col, array)

    def test_tuple_keys_demote_to_lists(self):
        # apsp keys are (source, vertex) pairs: array('q') cannot hold
        # them, so the key columns demote while parameters stay typed
        plan = plan_for("apsp")
        (columns,) = plan.edge_columns
        assert isinstance(columns.srcs, list)
        assert isinstance(columns.dsts, list)

    def test_demotion_preserves_earlier_values(self):
        columns = EdgeColumns(
            lambda x, w: x + w, [0, (7, 8)], [1, 2], ([2.5, 3.5],)
        )
        assert list(columns.srcs) == [0, (7, 8)]
        assert list(columns.dsts) == [1, 2]
        assert list(columns.param_cols[0]) == [2.5, 3.5]
        assert len(columns) == 2

    def test_view_order_single_body(self):
        """Sources in first-emission order, each source's edges in
        emission order: the fold order the python kernel relies on."""
        plan = plan_for("sssp")
        assert list(plan.out_edges.items()) == list(
            _adjacency_of(plan.edge_columns).items()
        )

    def test_view_order_two_bodies(self):
        """Body-major, then emission: a source's edges from the first
        recursive body precede its edges from the second."""
        plan = two_body_plan()
        first, second = plan.edge_columns
        assert len(first) and len(second)
        assert plan.num_edges == len(first) + len(second)
        assert list(plan.out_edges.items()) == list(
            _adjacency_of((first, second)).items()
        )
        shared = next(src for src in first.srcs if src in set(second.srcs))
        bodies = [
            plan.fprime_fns.index(fn) for _dst, _params, fn in plan.edges_from(shared)
        ]
        assert bodies == sorted(bodies) and set(bodies) == {0, 1}

    def test_array_kernel_never_builds_the_view(self):
        plan = plan_for("sssp")
        SyncEngine(plan, ClusterConfig(num_workers=4), backend="numpy").run()
        assert "out_edges" not in vars(plan)
        MRAEvaluator(plan, backend="python").run()
        assert "out_edges" in vars(plan)


def per_edge_csr(plan):
    """The reference CSR: walk ``plan.edges_from`` edge by edge.

    Returns ``(indptr, edst, efn, erow, groups)`` with ``groups`` a list
    of ``(fn, [params tuple, ...])`` numbered in first-use order.
    """
    from repro.runtime.python_kernel import plan_key_order

    order = plan_key_order(plan)
    indptr, edst, efn, erow = [0], [], [], []
    fn_ids: dict = {}
    groups: list = []
    for key in plan._kernel_keys_sorted:
        edges = plan.edges_from(key)
        indptr.append(indptr[-1] + len(edges))
        for dst, params, fn in edges:
            fid = fn_ids.setdefault(fn, len(groups))
            if fid == len(groups):
                groups.append((fn, []))
            edst.append(order[dst])
            efn.append(fid)
            erow.append(len(groups[fid][1]))
            groups[fid][1].append(params)
    return indptr, edst, efn, erow, groups


def assert_csr_matches_walk(plan):
    from repro.runtime.csr import plan_csr

    packed = plan_csr(plan)
    indptr, edst, efn, erow, groups = per_edge_csr(plan)
    assert packed.n == len(plan.keys)
    assert packed.keys_sorted == plan._kernel_keys_sorted
    assert packed.indptr.tolist() == indptr
    assert packed.edst.tolist() == edst
    assert packed.erow.tolist() == erow
    # the packer numbers groups by recursive body, the walk by first
    # use: equal up to that renumbering (the identity for one body)
    body_of = [plan.fprime_fns.index(fn) for fn, _rows in groups]
    assert packed.efn.tolist() == [body_of[fid] for fid in efn]
    for (fn, rows), body in zip(groups, body_of):
        group = packed.groups[body]
        assert group.fn is fn
        assert len(group.raw_params) == len(rows)
        for j, row in enumerate(rows):
            assert tuple(group.raw_params[j]) == row
            assert [type(v) for v in group.raw_params[j]] == [type(v) for v in row]
        try:
            ref_cols = [
                np.asarray(col, dtype=np.float64) for col in zip(*rows)
            ]
        except (TypeError, ValueError):
            assert group.cols is None
            continue
        if group.cols is not None:
            for col, ref_col in zip(group.cols, ref_cols):
                assert np.array_equal(col, ref_col)
    return packed


class TestCSRPacking:
    """The columnar packer's CSR == a per-edge walk's, exactly."""

    @pytest.mark.parametrize("program", ALL_PROGRAMS)
    def test_content_identical_to_per_edge_walk(self, program):
        packed = assert_csr_matches_walk(array_plan_for(program))
        assert len(packed.groups) == 1
        assert not packed.efn.any()

    def test_two_body_plan_takes_the_same_packer(self):
        plan = two_body_plan()
        packed = assert_csr_matches_walk(plan)
        assert len(packed.groups) == 2
        assert sorted(set(packed.efn.tolist())) == [0, 1]

    def test_single_body_plans_take_the_columnar_path(self):
        from repro.runtime.csr import _ColumnRows, plan_csr

        (group,) = plan_csr(plan_for("sssp")).groups
        assert isinstance(group.raw_params, _ColumnRows)

    def test_cached_on_the_plan(self):
        from repro.runtime.csr import plan_csr

        plan = plan_for("sssp")
        csr = plan_csr(plan)
        assert plan_csr(plan) is csr
        assert get_kernel("numpy").from_plan(plan)._csr is csr


class TestInitialDelta:
    """The fused ΔX¹ equals the section-3.3 reference, order included."""

    @pytest.mark.parametrize("program", ALL_PROGRAMS)
    def test_values_and_insertion_order(self, program):
        plan = array_plan_for(program)
        fused = get_kernel("numpy").initial_delta(plan)
        reference = compute_initial_delta(plan)
        assert fused == reference
        # dict insertion order is observable state downstream (push
        # order seeds arrival sequences); it must match too
        assert list(fused) == list(reference)

    @pytest.mark.parametrize("seed", (1, 2, 3, 11))
    def test_order_stable_across_seeds(self, seed):
        plan = plan_for("cc", seed=seed)
        fused = get_kernel("numpy").initial_delta(plan)
        reference = compute_initial_delta(plan)
        assert list(fused.items()) == list(reference.items())


#: one plan per fold the array kernel implements (min, max, sum)
INGEST_PROGRAMS = ("sssp", "viterbi", "pagerank")

#: tenths: their float sums round differently in every order, so a fold
#: that misplaces one tuple shows in the last bit
_delta_values = st.integers(min_value=-400, max_value=400).map(
    lambda tenths: tenths / 10
)
#: the additive fold also draws -0.0, which a fold seeded at +0.0 loses
#: (min/max do not: which of 0.0 and -0.0 they keep is unspecified)
_sum_values = _delta_values | st.just(-0.0)


class TestPushMany:
    """Batch ingest == repeated scalar pushes, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_any_pending_state_matches_repeated_push(self, data):
        """From any prior pending state -- entries pushed, some fetched
        away again -- ``push_many`` over batches with repeated keys leaves
        what one python ``push`` per tuple leaves, and the pending
        minimum and a threshold take agree with python's."""
        program = data.draw(st.sampled_from(INGEST_PROGRAMS))
        plan = plan_for(program)
        # few keys: repeats and already-pending hits in every example
        keys = sorted(plan.keys)[:10]
        values = _sum_values if program == "pagerank" else _delta_values
        pairs = st.lists(st.tuples(st.sampled_from(keys), values), max_size=25)
        prior = data.draw(pairs)
        fetched = data.draw(st.lists(st.sampled_from(keys), max_size=4))
        batches = data.draw(st.lists(pairs, min_size=1, max_size=3))
        threshold = data.draw(_delta_values)

        kernels = {}
        for backend in ("python", "numpy"):
            kernel = get_kernel(backend).from_plan(plan)
            for key, value in prior:
                kernel.push(key, value)
            for key in fetched:
                kernel.fetch_and_reset(key)
            kernels[backend] = kernel
        kernels["numpy"].push_many(*batches)
        for batch in batches:
            for key, value in batch:
                kernels["python"].push(key, value)

        def pending_bits(kernel):
            return [(k, v.hex()) for k, v in kernel.intermediate.items()]

        python, numpy = kernels["python"], kernels["numpy"]
        assert pending_bits(numpy) == pending_bits(python)
        assert numpy.counters.combines == python.counters.combines
        assert numpy.pending_count() == python.pending_count()
        assert numpy.pending_min() == python.pending_min()
        assert list(numpy.take_pending_below(threshold).items()) == list(
            python.take_pending_below(threshold).items()
        )
        assert pending_bits(numpy) == pending_bits(python)

    def test_sum_of_negative_zeros_keeps_its_sign(self):
        """-0.0 + -0.0 is -0.0; only a slot whose every input is -0.0
        folds to it, on the bincount fold and on the in-place one."""
        folded = _fold_codes(
            "sum",
            np.array([0, 1, 1, 2, 2, 3]),
            np.array([-0.0, -0.0, -0.0, -0.0, 0.0, 1.5]),
            5,
        )
        assert [value.hex() for value in folded.tolist()] == [
            (-0.0).hex(), (-0.0).hex(), (0.0).hex(), (1.5).hex(), (0.0).hex()
        ]
        plan = plan_for("pagerank")
        key = sorted(plan.keys)[0]
        for backend in ("python", "numpy"):
            kernel = get_kernel(backend).from_plan(plan)
            kernel.push_many([(key, -0.0)], [(key, -0.0)])
            assert kernel.intermediate[key].hex() == (-0.0).hex(), backend

    def _pair_batch(self, plan, count):
        keys = sorted(plan.initial)
        batch = []
        for j in range(count):
            key = keys[j % len(keys)]
            batch.append((key, float(5 + (j * 7) % 13)))
        return batch

    @pytest.mark.parametrize("count", (3, 40))
    def test_matches_scalar_pushes(self, count):
        plan = plan_for("sssp")
        kernel_cls = get_kernel("numpy")
        batch = self._pair_batch(plan, count)

        batched = kernel_cls.from_plan(plan)
        batched.push_many(batch)
        scalar = kernel_cls.from_plan(plan)
        for key, value in batch:
            scalar.push(key, value)

        assert batched.intermediate == scalar.intermediate
        assert list(batched.intermediate) == list(scalar.intermediate)
        assert batched.pending_count() == scalar.pending_count()
        assert (
            batched.counters.snapshot() == scalar.counters.snapshot()
        )

    def test_matches_python_backend(self):
        plan = plan_for("sssp")
        batch = self._pair_batch(plan, 40)
        kernels = {}
        for backend in ("python", "numpy"):
            kernel = get_kernel(backend).from_plan(plan)
            kernel.push_many(batch)
            kernels[backend] = kernel
        assert (
            kernels["numpy"].intermediate
            == kernels["python"].intermediate
        )
        assert list(kernels["numpy"].intermediate) == list(
            kernels["python"].intermediate
        )

    def test_batched_then_stepped_reaches_reference_fixpoint(self):
        from repro.engine import MRAEvaluator

        plan = plan_for("sssp")
        kernel = get_kernel("numpy").from_plan(plan)
        kernel.push_many(compute_initial_delta(plan).items())
        for _ in range(10_000):
            if not kernel.step().changed and not kernel.has_pending():
                break
        reference = MRAEvaluator(plan_for("sssp"), backend="python").run()
        assert kernel.result() == reference.values


class TestBuckets:
    """Delta-stepping drains one bucket -- the pending deltas at most
    ``width`` above the smallest -- per step; ``pending_min`` and
    ``take_pending_below`` give the same values in the same dict order
    as the python reference, bucket by bucket.  Each bucket then runs as
    a one-shard superstep, ``cluster_round(deltas=[taken])`` and
    ``cluster_ingest`` -- the path delta-stepping runs."""

    @pytest.mark.parametrize("width", (0.5, 2.0, 7.0))
    @pytest.mark.parametrize("program", ("sssp", "cc"))
    def test_bucketed_drain_matches_python(self, program, width):
        plan = plan_for(program)
        kernels = {}
        owners = {}
        for backend in ("python", "numpy"):
            kernel_cls = get_kernel(backend)
            kernel = kernel_cls.from_plan(plan)
            kernel.push_many(compute_initial_delta(plan).items())
            kernels[backend] = kernel
            owners[backend] = kernel_cls.owner_table(plan, dict.fromkeys(plan.keys, 0))

        rounds = 0
        while kernels["python"].has_pending():
            assert kernels["numpy"].has_pending()
            floor = kernels["python"].pending_min()
            assert kernels["numpy"].pending_min() == floor
            threshold = floor + width
            taken = {
                backend: kernel.take_pending_below(threshold)
                for backend, kernel in kernels.items()
            }
            assert taken["numpy"] == taken["python"]
            assert list(taken["numpy"]) == list(taken["python"])
            for backend, kernel in kernels.items():
                kernel_cls = type(kernel)
                _, sends = kernel_cls.cluster_round(
                    [kernel], owners[backend], 1, deltas=[taken[backend]]
                )
                kernel_cls.cluster_ingest([kernel], [list(sends.values())])
            rounds += 1
            assert rounds < 10_000
        assert not kernels["numpy"].has_pending()
        assert kernels["numpy"].result() == kernels["python"].result()


class TestCheckpointRoundtrip:
    @pytest.fixture
    def plan(self):
        return plan_for("sssp")

    def test_sharded_checkpoint_restores_numpy_shards(self, plan, tmp_path):
        state = ShardedRun(plan, ClusterConfig(num_workers=4), backend="numpy")
        state.seed_initial_delta()
        state.checkpoint(Checkpointer(tmp_path), "np-run")

        fresh = ShardedRun(plan, ClusterConfig(num_workers=4), backend="numpy")
        assert fresh.restore(Checkpointer(tmp_path), "np-run")
        for original, restored in zip(state.shards, fresh.shards):
            assert original.accumulated == restored.accumulated
            assert original.intermediate == restored.intermediate

    def test_cross_backend_checkpoint_interchange(self, plan, tmp_path):
        """A checkpoint written by one backend restores under the other."""
        state = ShardedRun(plan, ClusterConfig(num_workers=2), backend="python")
        state.seed_initial_delta()
        state.checkpoint(Checkpointer(tmp_path), "interchange")

        other = ShardedRun(plan, ClusterConfig(num_workers=2), backend="numpy")
        assert other.restore(Checkpointer(tmp_path), "interchange")
        for original, restored in zip(state.shards, other.shards):
            assert original.accumulated == restored.accumulated
            assert original.intermediate == restored.intermediate

    def test_restore_rebuilds_frontier_count_and_order(self, plan):
        """snapshot/restore: the restored kernel drains exactly like the
        one it was copied from."""
        kernel_cls = get_kernel("numpy")
        kernel = kernel_cls.from_plan(plan)
        kernel.push_many(compute_initial_delta(plan).items())
        kernel.fetch_and_reset(next(iter(kernel.intermediate)))  # a stale entry
        restored = kernel_cls.from_plan(plan, initial={})
        restored.restore(kernel.snapshot())
        assert restored.pending_count() == kernel.pending_count()
        assert restored.pending_min() == kernel.pending_min()
        threshold = kernel.pending_min() + 2.0
        taken = kernel.take_pending_below(threshold)
        assert list(restored.take_pending_below(threshold).items()) == list(
            taken.items()
        )
        assert restored.intermediate == kernel.intermediate
