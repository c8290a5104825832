"""A BSP superstep on the array kernel is one pass over the stacked
shards, bit for bit the per-shard loop it stands for.

``NumpyKernel.cluster_round``/``cluster_ingest`` run against the base
class's loop (``Kernel.cluster_round``/``cluster_ingest`` driving the
python kernel's per-shard operations, the reference) on twin clusters
built and driven alike.  Compared: every worker's
``changed``/``ops``/``magnitude`` bits, every payload in order by
``float.hex``, each shard's accumulated and pending entries in their
orders, the work counters, and the deltas a delta-stepping superstep
takes; on the array side, that each shard's live count is its pending
mask's.  The last class drives the base-class path alone -- the python
kernel, no numpy -- to the single-node fixpoint.
"""

import random
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.analysis.frontier import classify_frontier
from repro.distributed import ClusterConfig
from repro.distributed.chaos_harness import default_graph
from repro.distributed.fault import Checkpointer
from repro.distributed.sharding import ShardedRun
from repro.engine import MRAEvaluator
from repro.graphs import Graph
from repro.programs import PROGRAMS
from repro.runtime import numpy_kernel
from repro.runtime.numpy_kernel import Columns, NumpyKernel
from tests.test_runtime_kernels import _deterministic_graph

#: the registry programs the array kernel holds
ARRAY_PROGRAMS = tuple(
    name for name in sorted(PROGRAMS) if NumpyKernel.supports_plan(PROGRAMS[name].analysis())
)
#: the ones whose RA330 verdict admits delta-stepping
DELTA_STEPPING = tuple(
    name for name in ARRAY_PROGRAMS
    if classify_frontier(PROGRAMS[name].analysis()).delta_stepping
)
WORKERS = (1, 2, 3, 7, 16)

#: the twins' backends: the base class's loop over the python kernel's
#: per-shard operations, and the array pass
BACKENDS = ("python", "numpy")


def _bits(value) -> str:
    return float(value).hex()


@lru_cache(maxsize=None)
def _plan(program):
    return PROGRAMS[program].plan(default_graph(program, seed=7))


def _shard_state(shard) -> dict:
    """A shard's entries by ``float.hex``, in the orders its dicts keep."""
    return {
        "accumulated": [(k, _bits(v)) for k, v in shard.accumulated.items()],
        "pending": [(k, _bits(v)) for k, v in shard.intermediate.items()],
        "pending_count": shard.pending_count(),
    }


def _payload(payload, keys) -> list:
    """Either kernel's payload as ``(key, bits)`` pairs, in order;
    ``keys`` names the array kernel's key codes."""
    if isinstance(payload, Columns):
        payload = zip(map(keys.__getitem__, payload.codes.tolist()), payload.vals.tolist())
    return [(key, _bits(value)) for key, value in payload]


def _check_frontier(run) -> None:
    """The array kernel's live count is its pending mask's."""
    if run.backend == "numpy":
        for shard in run.shards:
            assert shard._pend_live == int(shard._pend_has.sum())


def _route(sends: dict, workers: int, chaos) -> list:
    """The inboxes an exchange fills: in pair order, or -- ``chaos`` a
    seeded ``Random`` -- with payloads dropped, doubled and reordered."""
    inboxes = [[] for _ in range(workers)]
    for (_sender, target), payload in sends.items():
        copies = 1 if chaos is None else chaos.choice((0, 1, 1, 2))
        inboxes[target].extend([payload] * copies)
    if chaos is not None:
        for inbox in inboxes:
            chaos.shuffle(inbox)
    return inboxes


class Twins:
    """Two clusters in one state: ``runs[0]`` steps by the loop on the
    python kernel, ``runs[1]`` by the array pass."""

    def __init__(self, plan, workers, width=None):
        self.workers = workers
        self.width = width
        self.runs = [
            ShardedRun(plan, ClusterConfig(num_workers=workers), backend=backend)
            for backend in BACKENDS
        ]
        for run in self.runs:
            run.seed_initial_delta()
        self.keys = self.runs[1].shards[0]._keys
        #: per array shard after the last round: entries left stale in
        #: its raw arrival order (reading ``intermediate`` compacts it)
        self.stale = []

    def each(self, act) -> None:
        for run in self.runs:
            act(run)

    def state(self, run) -> dict:
        return {
            "shards": [_shard_state(shard) for shard in run.shards],
            "counters": run.counters.snapshot(),
        }

    def superstep(self, chaos_seed=None) -> dict:
        """One superstep on both; asserts they agree and returns what
        was observed."""
        seen = []
        for run in self.runs:
            deltas = None
            if self.width is not None:
                threshold = min(s.pending_min() for s in run.shards) + self.width
                deltas = [shard.take_pending_below(threshold) for shard in run.shards]
            results, sends = run.kernel_cls.cluster_round(
                run.shards, run.owner_table, self.workers, deltas
            )
            if run.backend == "numpy":
                self.stale = [len(s._pend_order) - s._pend_live for s in run.shards]
            _check_frontier(run)
            observed = {
                "deltas": None if deltas is None else [
                    [(k, _bits(v)) for k, v in batch.items()] for batch in deltas
                ],
                "results": [(r.changed, r.ops, _bits(r.magnitude)) for r in results],
                "sends": [(pair, _payload(p, self.keys)) for pair, p in sends.items()],
                "after_round": self.state(run),
            }
            chaos = None if chaos_seed is None else random.Random(chaos_seed)
            run.kernel_cls.cluster_ingest(run.shards, _route(sends, self.workers, chaos))
            _check_frontier(run)
            observed["after_ingest"] = self.state(run)
            seen.append(observed)
        assert seen[0] == seen[1]
        return seen[0]


def _values(fold):
    # tenths round differently in every order; -0.0 only where it has one
    # meaning (min/max of 0.0 and -0.0 is whichever came first)
    tenths = st.integers(min_value=-400, max_value=400).map(lambda t: t / 10)
    return tenths | st.just(-0.0) if fold == "sum" else tenths


class TestArrayPassIsTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_clusters_and_pending_states(self, data):
        """Registry programs x W in {1, 2, 3, 7, 16} x random pending
        states (pushes to any shard, fetched keys leaving stale order
        entries) x fault-free and chaotic deliveries, delta-stepping
        where RA330 admits it, and edge passes cut into runs of a few
        edges as well as whole (the test graphs are small)."""
        run_edges = data.draw(st.sampled_from((1, 16, numpy_kernel._RUN_EDGES)))
        with patch.object(numpy_kernel, "_RUN_EDGES", run_edges):
            self._random_superstep(data)

    def _random_superstep(self, data):
        program = data.draw(st.sampled_from(ARRAY_PROGRAMS))
        plan = _plan(program)
        workers = data.draw(st.sampled_from(WORKERS))
        width = None
        if program in DELTA_STEPPING and data.draw(st.booleans()):
            width = data.draw(st.sampled_from((1.0, 10.0)))
        twins = Twins(plan, workers, width)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            twins.superstep()
        keys = sorted(plan.keys)
        shard = st.integers(min_value=0, max_value=workers - 1)
        pushes = data.draw(st.lists(
            st.tuples(shard, st.sampled_from(keys), _values(plan.aggregate.fold_mode)),
            max_size=30,
        ))
        fetched = data.draw(st.lists(st.tuples(shard, st.sampled_from(keys)), max_size=5))

        def perturb(run):
            for worker, key, value in pushes:
                run.shards[worker].push(key, value)
            for worker, key in fetched:
                run.shards[worker].fetch_and_reset(key)

        twins.each(perturb)
        for _ in range(2):
            chaotic = data.draw(st.booleans())
            twins.superstep(data.draw(st.integers(0, 2**16)) if chaotic else None)

    def test_a_worker_with_nothing_pending(self):
        twins = Twins(_plan("sssp"), 3)

        def only_worker_zero(run):
            for shard in run.shards:
                shard.drain_all()
            run.shards[0].push(min(run.shard_keys[0]), 1.0)

        twins.each(only_worker_zero)
        seen = twins.superstep()
        assert seen["results"][0][1] > 0
        assert seen["results"][1:] == [(0, 0, _bits(0.0))] * 2
        assert all(sender == 0 for (sender, _), _ in seen["sends"])

    def test_a_worker_with_only_stale_pending_entries(self):
        """A fetched key leaves a stale arrival entry behind; a worker
        with nothing live skips its round and keeps the entry, as the
        loop does."""
        twins = Twins(_plan("viterbi"), 3)

        def fetched(run):
            key = min(run.shard_keys[0])
            run.shards[0].push(key, 0.0)
            run.shards[0].fetch_and_reset(key)

        twins.each(fetched)
        twins.superstep()
        assert twins.stale[0] == 1

    def test_every_worker_sends_to_one_key(self):
        # a star: every vertex's only edge points at vertex 0
        n = 40
        star = Graph(n, [(v, 0) for v in range(1, n)] + [(0, 1)], [1] * n, name="star")
        twins = Twins(PROGRAMS["pagerank"].plan(star), 7)
        hub = twins.runs[1].owner[0]
        seen = twins.superstep()
        senders = sorted(sender for (sender, target), _ in seen["sends"] if target == hub)
        assert senders == list(range(7))

    def test_negative_zero_sums(self):
        """-0.0 deltas on keys with no value: F' keeps the sign, each
        sender's fold of -0.0s is -0.0, and so is the receiver's."""
        twins = Twins(_plan("pagerank"), 4)

        def negative_zeros(run):
            for worker, shard in enumerate(run.shards):
                shard.drain_all()
                shard.accumulated = {}
                for key in sorted(run.shard_keys[worker]):
                    shard.push(key, -0.0)

        twins.each(negative_zeros)
        seen = twins.superstep()
        values = [v for _, pairs in seen["sends"] for _, v in pairs]
        assert values and set(values) == {_bits(-0.0)}
        pending = [v for shard in seen["after_ingest"]["shards"] for _, v in shard["pending"]]
        assert pending and set(pending) == {_bits(-0.0)}

    def test_a_shard_reseated_after_restore(self):
        twins = Twins(_plan("sssp"), 4)
        twins.superstep()
        snaps = [run.shards[1].snapshot() for run in twins.runs]
        twins.superstep()
        evicted = twins.runs[1].shards[1]
        stack = evicted._stack
        for run, snap in zip(twins.runs, snaps):
            fresh = run.blank_shard(1)
            fresh.restore(snap)
            run.shards[1] = fresh
            # in place: a seated shard stays in its row
            run.shards[2].restore(run.shards[2].snapshot())
        assert twins.runs[1].shards[2]._stack is stack
        twins.superstep()
        seated = twins.runs[1].shards[1]
        assert seated._stack is stack and evicted._stack is None
        for name in ("_acc", "_acc_has", "_pend", "_pend_has", "_seq"):
            assert not _shares(getattr(evicted, name), getattr(seated, name))
        twins.superstep()

    def test_a_failed_restore_leaves_the_live_rows_alone(self, tmp_path):
        """Scratch kernels are seated only by the next cluster call, so a
        checkpoint set that turns out unreadable half-way never touches
        the live rows."""
        twins = Twins(_plan("cc"), 4)
        twins.superstep()
        for index, run in enumerate(twins.runs):
            checkpointer = Checkpointer(tmp_path / str(index))
            run.checkpoint(checkpointer, "run")
            (tmp_path / str(index) / "run.shard3.json").write_text("{torn")
            before = twins.state(run)
            with pytest.warns(RuntimeWarning, match="unreadable"):
                assert not run.restore(checkpointer, "run")
            assert twins.state(run) == before
        twins.superstep()


def _shares(a, b) -> bool:
    return np.shares_memory(a, b)


class TestBasePath:
    """The reference loop on the python kernel."""

    def test_supersteps_reach_the_single_node_fixpoint(self):
        plan = PROGRAMS["sssp"].plan(_deterministic_graph())
        workers = 3
        state = ShardedRun(
            plan, ClusterConfig(num_workers=workers, speed_jitter=0), backend="python"
        )
        state.seed_initial_delta()
        kernel_cls = state.kernel_cls
        for _ in range(200):
            if not state.total_pending():
                break
            results, sends = kernel_cls.cluster_round(
                state.shards, state.owner_table, workers
            )
            assert len(results) == workers and all(r.out == () for r in results)
            assert list(sends) == sorted(sends)
            for (_, target), payload in sends.items():
                assert payload and all(state.owner[key] == target for key, _ in payload)
            kernel_cls.cluster_ingest(state.shards, _route(sends, workers, None))
        assert not state.total_pending()
        assert state.merged_values() == MRAEvaluator(plan, backend="python").run().values
