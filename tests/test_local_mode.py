"""The asynchronous path, a set at a time == a key at a time, bit for bit.

Three layers, each against the loop it replaced:

* **the local round** -- ``apply_batch(keys=batch)`` on the python
  kernel and ``window_local`` over a one-shard cluster on the array
  kernel, against the key-at-a-time bodies kept in
  ``tests/reference_local.py``: accumulated and pending values by
  ``float.hex``, their orders, the array kernel's live arrival order and
  stamps, the work counters, and the returned payload + ``offsets``
  against the oracle's ``emit`` log.  Each batch is one a window
  selects: pending keys in arrival order, those at or above an
  importance threshold when one is given, at most as many as the batch
  holds;
* **the send side** -- ``SendSide.fill`` on both kernels' classes
  against the buffer as it was: one ``add(key, value)`` per contribution
  with a flush check after each;
* **the engine** -- deliveries parked in an inbox are ingested exactly
  once whatever stops or rolls back the run.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.distributed import (
    AdaptiveBuffer,
    BufferPolicy,
    ClusterConfig,
    FixedBuffer,
    UnifiedEngine,
)
from repro.distributed.buffers import ALPHA, R
from repro.distributed.chaos_harness import default_graph, schedule_for
from repro.distributed.sharding import ShardedRun
from repro.engine.result import WorkCounters
from repro.graphs import Graph
from repro.programs import PROGRAMS
from repro.runtime import get_kernel
from repro.runtime.numpy_kernel import NumpyKernel, _pair_columns
from tests.reference_local import numpy_apply_local, python_apply_local

#: one program per fold the array kernel implements
FOLD_PROGRAMS = {"min": "sssp", "max": "viterbi", "sum": "pagerank"}

#: tenths: their float sums round differently in every order
_tenths = st.integers(min_value=-400, max_value=400).map(lambda t: t / 10)


def _values(fold):
    # -0.0 only where it has one meaning: min/max of (0.0, -0.0) is
    # whichever the implementation saw first
    return _tenths | st.just(-0.0) if fold == "sum" else _tenths


def _bits(value) -> str:
    return float(value).hex()


def _plan(fold, n, edges, weights):
    return PROGRAMS[FOLD_PROGRAMS[fold]].plan(
        Graph(n, list(edges), list(weights), name="local-mode")
    )


# -- the local round ----------------------------------------------------------


class Shards:
    """Four kernels over one partition in one state: each backend's
    kernel, and a twin the key-at-a-time oracle runs on."""

    def __init__(self, plan, owned, accumulated, pushes, fetched):
        self.kernels = {}
        for name in ("python", "numpy", "python-oracle", "numpy-oracle"):
            kernel = get_kernel(name.split("-")[0]).from_plan(
                plan, keys=owned, counters=WorkCounters(), initial={}
            )
            kernel.accumulated = dict(accumulated)
            for key, value in pushes:
                kernel.push(key, value)
            for key in fetched:
                kernel.fetch_and_reset(key)
            self.kernels[name] = kernel

    def select(self, limit, threshold=None):
        """The batch a window selects with ``limit`` and ``threshold``."""
        return self.kernels["python-oracle"].select_pending(threshold, False, limit)

    def run(self, batch, threshold=None):
        """Run ``batch`` everywhere -- the array kernel selects it itself;
        returns name -> what is observable."""
        seen = {}
        for name, kernel in self.kernels.items():
            if name.endswith("oracle"):
                log = []
                reference = (
                    python_apply_local if name.startswith("python") else numpy_apply_local
                )
                result = reference(
                    kernel, list(batch),
                    lambda dst, value, ops: log.append((dst, _bits(value), ops)),
                )
            elif name == "python":
                result = kernel.apply_batch(keys=list(batch))
                log = [
                    (dst, _bits(value), ops)
                    for (dst, value), ops in zip(result.out, result.offsets)
                ]
            else:
                outcomes = NumpyKernel.window_local(
                    [kernel], {0: []}, {0: len(batch)}, threshold
                )
                taken, result = outcomes[0]
                assert taken == len(batch)
                log = []
                if len(result.out):
                    log = [
                        (kernel._keys[code], _bits(value), ops)
                        for code, value, ops in zip(
                            result.out.codes.tolist(),
                            result.out.vals.tolist(),
                            result.offsets.tolist(),
                        )
                    ]
                assert all(type(ops) is int for _, _, ops in log)
            seen[name] = {
                "result": (result.changed, _bits(result.magnitude), result.ops),
                "emitted": log,
                "accumulated": [(k, _bits(v)) for k, v in kernel.accumulated.items()],
                "pending": [(k, _bits(v)) for k, v in kernel.intermediate.items()],
                "counters": kernel.counters.snapshot(),
                "pending_count": kernel.pending_count(),
            }
        return seen

    def assert_agree(self, batch, threshold=None):
        """``batch`` -- which must be the one a window selects -- run
        everywhere, agreeing; returns what the oracle shows."""
        assert self.select(len(batch), threshold) == list(batch)
        seen = self.run(batch, threshold)
        oracle = seen["python-oracle"]
        for name in ("numpy-oracle", "python", "numpy"):
            assert seen[name] == oracle, name
        # the array kernel's order state: the window rewrites the raw
        # arrival order without the stale entries the oracle leaves
        new, old = self.kernels["numpy"], self.kernels["numpy-oracle"]
        live = new._pend_indices()
        assert live == old._pend_indices()
        assert new._acc_order == old._acc_order
        assert new._pend_live == old._pend_live
        assert new._seq_next == old._seq_next
        assert new._seq[live].tolist() == old._seq[live].tolist()
        return oracle


@st.composite
def partitions(draw):
    fold = draw(st.sampled_from(sorted(FOLD_PROGRAMS)))
    n = draw(st.integers(min_value=3, max_value=8))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=24, unique=True))
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges))
    )
    plan = _plan(fold, n, edges, weights)
    keys = sorted(plan.keys)
    owned = draw(st.none() | st.sets(st.sampled_from(keys), min_size=1))
    mine = keys if owned is None else sorted(owned)
    pairs = st.lists(st.tuples(st.sampled_from(mine), _values(fold)), max_size=20)
    accumulated = dict(draw(pairs))
    pushes = draw(pairs)
    fetched = draw(st.lists(st.sampled_from(mine), max_size=3))
    return Shards(plan, owned, accumulated, pushes, fetched)


class TestLocalRound:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_batch_matches_the_key_at_a_time_oracle(self, data):
        """Random small plans x ownership x accumulated/pending states
        (their arrival order is the pushes') x batch sizes and importance
        thresholds, two batches in a row (the second starts from the
        order the first left)."""
        shards = data.draw(partitions())
        for _ in range(2):
            threshold = data.draw(st.sampled_from((None, 0.0, 0.5, 5.0)))
            pending = shards.select(None, threshold)
            if not pending:
                return
            size = data.draw(st.integers(min_value=1, max_value=len(pending)))
            shards.assert_agree(pending[:size], threshold)

    # the named cases run on one shard owning 0..3 of a 6-vertex graph
    OWNED = {0, 1, 2, 3}

    def _shards(self, fold, edges, accumulated, pushes, owned=OWNED, weights=None):
        plan = _plan(fold, 6, edges, weights or [1] * len(edges))
        return Shards(plan, owned & set(plan.keys), accumulated, pushes, ())

    @pytest.mark.parametrize("order", ([0, 1, 2], [2, 1, 0]))
    def test_chain_is_gauss_seidel(self, order):
        """0 -> 1 -> 2 on one shard: in batch order [0, 1, 2] each key
        is fetched *after* its predecessor raised it, so the last one
        absorbs the whole chain; reversed, nothing is forwarded in time
        and the contributions stay pending.  The keys arrive in batch
        order."""
        deltas = {0: 1.0, 1: 0.1, 2: 0.01}
        shards = self._shards(
            "sum", [(0, 1), (1, 2), (2, 4)], {}, [(key, deltas[key]) for key in order]
        )
        seen = shards.assert_agree(order)
        accumulated = dict(seen["accumulated"])
        if order == [0, 1, 2]:
            assert accumulated[1] == _bits(0.1 + 0.85 * 1.0)
            assert accumulated[2] == _bits(0.01 + 0.85 * (0.1 + 0.85 * 1.0))
            assert seen["pending"] == []
        else:
            assert accumulated[2] == _bits(0.01)
            # key 1 forwards (to 2) before key 0 does (to 1)
            assert [key for key, _ in seen["pending"]] == [2, 1]

    def test_in_batch_contribution_stops_a_source(self):
        """Key 1's delta is cancelled exactly by key 0's contribution, so
        it does not change and none of its edges is applied -- a one-shot
        round would have propagated its stale delta."""
        shards = self._shards(
            "sum", [(0, 1), (1, 2), (1, 4)], {1: 0.5}, [(0, 1.0), (1, -0.85)]
        )
        seen = shards.assert_agree([0, 1])
        assert seen["result"][0] == 1  # only key 0 changed
        assert seen["emitted"] == [] and seen["pending"] == []

    def test_in_batch_contribution_starts_a_source(self):
        """min: key 1's own delta does not improve it, key 0's does."""
        shards = self._shards(
            "min", [(0, 1), (1, 4)], {1: 4.0}, [(0, 1.0), (1, 10.0)],
            weights=[1, 1],
        )
        seen = shards.assert_agree([0, 1])
        assert dict(seen["accumulated"])[1] == _bits(2.0)
        assert seen["emitted"] == [(4, _bits(3.0), 4)]

    def test_self_loop_is_pushed_not_folded(self):
        """A key's contribution to itself arrives after its fetch: it is
        a fresh pending entry, at the end of the arrival order."""
        shards = self._shards(
            "sum", [(0, 0), (0, 1)], {}, [(0, 1.0), (1, 0.5)]
        )
        seen = shards.assert_agree([0, 1])
        assert seen["pending"] == [(0, _bits(0.85 * 1.0 / 2))]

    def test_destination_outside_the_batch_combines_in_place(self):
        """An owned destination that is pending but was not selected
        (below the importance threshold) keeps its place in the arrival
        order and takes the contribution as a combine."""
        shards = self._shards(
            "sum", [(0, 1), (0, 2)], {}, [(1, 1e-9), (0, 1.0), (2, 2e-9)]
        )
        seen = shards.assert_agree([0], threshold=1e-6)
        assert [key for key, _ in seen["pending"]] == [1, 2]
        assert seen["counters"]["combines"] == 2

    def test_offsets_count_unchanged_keys(self):
        """ops_so_far is fetched keys + applied edges: key 1 does not
        change (min, no improvement) yet moves every later offset."""
        shards = self._shards(
            "min", [(0, 4), (1, 5), (2, 4), (2, 5)],
            {1: 1.0}, [(0, 1.0), (1, 7.0), (2, 2.0)],
            weights=[1, 1, 1, 1],
        )
        seen = shards.assert_agree([0, 1, 2])
        assert [ops for _, _, ops in seen["emitted"]] == [2, 5, 6]
        assert seen["result"][2] == 6


# -- the send side -------------------------------------------------------------


class ScalarBuffer:
    """The buffer as it was: one ``add(key, value)`` per contribution."""

    def __init__(self, policy, combine):
        self.combine = combine
        self.policy = policy
        self.beta = policy.initial_beta
        self.pending = {}
        self.window_updates = 0
        self.window_start = 0.0

    def add(self, key, value):
        if key in self.pending:
            self.pending[key] = self.combine(self.pending[key], value)
        else:
            self.pending[key] = value
        self.window_updates += 1

    def flush(self, now):
        payload, self.pending = self.pending, {}
        # AdaptiveBuffer.observe_flush, verbatim
        if self.policy.adaptive and now - self.window_start > 0:
            pace = self.window_updates / (now - self.window_start)
            threshold = self.beta / self.policy.tau
            if pace > R * threshold or pace < threshold / R:
                self.beta = min(
                    self.policy.max_beta,
                    max(self.policy.min_beta, ALPHA * self.policy.tau * pace),
                )
            self.window_start = now
            self.window_updates = 0
        return list(payload.items())


def _send_sides(plan, owner, parts):
    sides = {}
    for backend in ("python", "numpy"):
        kernel_cls = get_kernel(backend)
        sides[backend] = kernel_cls.send_side(
            plan, kernel_cls.owner_table(plan, owner), parts
        )
    return sides


def _payload_bits(plan, payload):
    if isinstance(payload, list):
        return [(key, _bits(value)) for key, value in payload]
    keys = sorted(plan.keys)
    return [
        (keys[code], _bits(value))
        for code, value in zip(payload.codes.tolist(), payload.vals.tolist())
    ]


def _as_out(backend, plan, pairs):
    if backend == "python":
        return list(pairs)
    return _pair_columns({key: i for i, key in enumerate(sorted(plan.keys))}, pairs)


def drive(plan, owner, parts, policy, events, offsets=None):
    """Feed ``events`` (lists of ``(key, value)``) through the old scalar
    loop and through ``fill`` on both send sides; returns per leg
    the flush log ``(event, target, ops_so_far, beta after, payload)``
    and the final buffer states.  ``offsets`` gives each contribution's
    ``ops_so_far`` (default: its 1-based index); event ``k``'s
    contribution at ``ops`` happens at time ``k + ops / 1000``."""
    combine = plan.aggregate.combine
    legs = {}
    if offsets is None:
        offsets = [list(range(1, len(event) + 1)) for event in events]

    scalar = {t: ScalarBuffer(policy, combine) for t in range(1, parts)}
    log = []
    for number, event in enumerate(events):
        for ops, (key, value) in zip(offsets[number], event):
            buffer = scalar[owner[key]]
            buffer.add(key, value)
            if len(buffer.pending) >= buffer.beta:
                payload = buffer.flush(now=number + ops / 1000)
                log.append((number, owner[key], ops, buffer.beta, _payload_bits(plan, payload)))
    legs["scalar"] = (
        log,
        {
            t: (_payload_bits(plan, list(b.pending.items())), len(b.pending), b.window_updates, b.beta)
            for t, b in scalar.items()
        },
    )

    for backend, side in _send_sides(plan, owner, parts).items():
        make = (
            (lambda t: AdaptiveBuffer(policy, side, t))
            if policy.adaptive
            else (lambda t: FixedBuffer(policy.initial_beta, policy.tau, side, t))
        )
        buffers = {t: make(t) for t in range(1, parts)}
        log = []
        for number, event in enumerate(events):
            column = offsets[number]
            if backend == "numpy":
                column = np.array(column, dtype=np.int64)
            for target, buffer, ops in side.fill(
                buffers, _as_out(backend, plan, event), column
            ):
                now = number + ops / 1000
                payload = buffer.flush(now)
                buffer.observe_flush(now)
                log.append((number, target, ops, buffer.beta, _payload_bits(plan, payload)))
        legs[backend] = (
            log,
            {
                t: (
                    _payload_bits(plan, side.peek(t)),
                    b.pending_count,
                    getattr(b, "_window_updates", None),
                    b.beta,
                )
                for t, b in buffers.items()
            },
        )
    if not policy.adaptive:
        for t, state in legs["scalar"][1].items():
            legs["scalar"][1][t] = state[:2] + (None,) + state[3:]
    return legs


class TestSendSide:
    PLAN = _plan("sum", 16, [(v, (v + 1) % 16) for v in range(16)], [1] * 16)
    #: worker 0 sends; key k belongs to target k % 4, or 1 (so target 1
    #: owns 0, 1, 4, 5, 8, 9, 12, 13)
    OWNER = {key: key % 4 if key % 4 > 1 else 1 for key in range(16)}

    def _agree(self, policy, events, owner=OWNER, offsets=None):
        legs = drive(self.PLAN, owner, 4, policy, events, offsets)
        assert legs["python"] == legs["scalar"]
        assert legs["numpy"] == legs["scalar"]
        return legs["scalar"]

    @settings(max_examples=150, deadline=None)
    @given(
        beta=st.sampled_from((1.0, 2.0, 3.0, 4.5, 64.0)),
        adaptive=st.booleans(),
        events=st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=15), _tenths | st.just(-0.0)),
                max_size=40,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_chunked_add_equals_repeated_add(self, beta, adaptive, events):
        """Payload order and values, ``pending_count``, the pace window
        and every mid-batch flush (which target, at which contribution,
        with which payload, adapting ``beta`` to what) are those of one
        ``add`` per contribution -- duplicates inside and across chunks,
        buffers that fill several times in one event."""
        policy = BufferPolicy(
            initial_beta=beta, tau=0.5, min_beta=1.0, max_beta=16.0, adaptive=adaptive
        )
        self._agree(policy, events)

    def test_fills_on_the_exact_contribution(self):
        policy = BufferPolicy(initial_beta=3.0, adaptive=False)
        # duplicates of two keys never fill a buffer of three
        log, state = self._agree(policy, [[(1, 1.0), (5, 1.0), (1, 2.0), (5, 0.5)]])
        assert log == [] and state[1][1] == 2
        # the third distinct key does, at its own contribution, and the
        # one after it starts the next buffer
        log, state = self._agree(
            policy, [[(1, 1.0), (5, 1.0), (1, 2.0), (4, 7.0), (5, 3.0)]]
        )
        assert log == [
            (0, 1, 4, 3.0, [(1, _bits(3.0)), (5, _bits(1.0)), (4, _bits(7.0))])
        ]
        assert state[1][:2] == ([(5, _bits(3.0))], 1)
        # two keys buffered by an earlier event + one fresh == beta
        log, _ = self._agree(
            policy, [[(1, 1.0), (5, 1.0)], [(5, 1.0), (4, 1.0), (1, 9.0)]]
        )
        assert [(event, target, ops) for event, target, ops, _, _ in log] == [(1, 1, 2)]

    def test_beta_adapts_three_times_inside_one_batch(self):
        """beta 2 -> 6 (two updates in a blink) -> 1 (six over a long
        stretch of unchanged keys) -> 6 again, each flush deciding when
        the next one falls."""
        policy = BufferPolicy(
            initial_beta=2.0, tau=0.5, min_beta=1.0, max_beta=6.0, adaptive=True
        )
        keys = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        offsets = [1, 2, 1000, 2000, 3000, 4000, 5000, 6000, 6001]
        log, _ = self._agree(
            policy,
            [[(key, 1.0) for key in keys]],
            owner={key: 1 for key in range(16)},
            offsets=[offsets],
        )
        assert [(ops, beta) for _, _, ops, beta, _ in log] == [
            (2, 6.0), (6000, 1.0), (6001, 6.0)
        ]

    def test_targets_fill_in_emission_order(self):
        """Three targets fill during one event: the flushes come in the
        order their filling contributions were emitted, not by target."""
        policy = BufferPolicy(initial_beta=2.0, adaptive=False)
        event = [(1, 1.0), (2, 1.0), (3, 1.0), (6, 1.0), (7, 1.0), (5, 1.0)]
        log, _ = self._agree(policy, [event])
        assert [(target, ops) for _, target, ops, _, _ in log] == [(2, 4), (3, 5), (1, 6)]

    def test_restart_pairs_come_back_as_a_payload(self):
        """A recovery replay stages plain ``(key, value)`` pairs; what a
        send side hands out is a payload ``push_many`` ingests as such
        (a dict would iterate as bare keys)."""
        pairs = [(1, 1.0), (5, 2.0), (1, 4.0), (2, 8.0)]
        for backend, side in _send_sides(self.PLAN, self.OWNER, 4).items():
            side.fold(pairs)
            kernel = get_kernel(backend).from_plan(self.PLAN, initial={})
            kernel.push_many(side.take(1), side.take(2))
            assert kernel.intermediate == {1: 5.0, 5: 2.0, 2: 8.0}
            assert list(kernel.intermediate) == [1, 5, 2]
            assert len(side.take(1)) == 0


# -- the engine ----------------------------------------------------------------


def _counting_engine(monkeypatch, kernel_cls):
    """A UnifiedEngine that tallies delivered tuples, a tally of the
    tuples ingested outside ``apply_batch`` and the seeding -- by
    ``push_many`` or as a lookahead window's inboxes: nothing but inbox
    drains -- and one of the tuples the seeding's ``cluster_ingest``
    took."""
    tally = SimpleNamespace(
        delivered=0, ingested=0, seeded=0, inside=False, seeding=False,
        windowed=False,
    )

    class Engine(UnifiedEngine):
        def _observe_delivery(self, worker, payload_size):
            tally.delivered += payload_size

    push_many = kernel_cls.push_many
    cluster_ingest = kernel_cls.cluster_ingest
    window_local = kernel_cls.window_local

    def counting_push_many(self, *batches):
        if not (tally.inside or tally.seeding or tally.windowed):
            tally.ingested += sum(len(batch) for batch in batches)
        return push_many(self, *batches)

    def counting_window_local(cls, shards, inboxes, *args):
        # what it ingests is counted here, not by a push_many inside
        tally.ingested += sum(
            len(batch) for inbox in inboxes.values() for batch in inbox
        )
        tally.windowed = True
        try:
            return window_local(shards, inboxes, *args)
        finally:
            tally.windowed = False

    def counting_cluster_ingest(cls, shards, inboxes):
        if tally.seeding:
            tally.seeded += sum(len(batch) for inbox in inboxes for batch in inbox)
        return cluster_ingest(shards, inboxes)

    def flagging(cls, name, flag):
        original = getattr(cls, name)

        def flagged(*args, **kwargs):
            setattr(tally, flag, True)
            try:
                return original(*args, **kwargs)
            finally:
                setattr(tally, flag, False)

        monkeypatch.setattr(cls, name, flagged)

    monkeypatch.setattr(kernel_cls, "push_many", counting_push_many)
    monkeypatch.setattr(
        kernel_cls, "cluster_ingest", classmethod(counting_cluster_ingest)
    )
    monkeypatch.setattr(
        kernel_cls, "window_local", classmethod(counting_window_local)
    )
    flagging(kernel_cls, "apply_batch", "inside")
    flagging(ShardedRun, "seed_initial_delta", "seeding")
    return Engine, tally


class TestInboxIsDrained:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_payloads_parked_at_an_epsilon_stop_are_counted(self, backend, monkeypatch):
        """pagerank stops on epsilon with messages delivered but their
        receivers not yet processing again: ``combines`` must include
        them, as it did when every delivery was pushed on arrival."""
        Engine, tally = _counting_engine(monkeypatch, get_kernel(backend))
        plan = PROGRAMS["pagerank"].plan(default_graph("pagerank", seed=7))
        result = Engine(plan, ClusterConfig(num_workers=4), backend=backend).run()
        assert result.stop_reason == "epsilon"
        assert tally.delivered > 0
        assert tally.seeded == len(get_kernel(backend).initial_delta(plan))
        assert tally.ingested == tally.delivered

    @pytest.mark.chaos
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_payloads_parked_at_a_rollback_are_counted(self, backend, monkeypatch):
        """A crash rolls every worker back; what their inboxes held is
        superseded by the snapshot but was delivered, so it is ingested
        (counted) first, not cleared."""
        plan = PROGRAMS["pagerank"].plan(default_graph("pagerank", seed=7))
        cluster = ClusterConfig(num_workers=4)
        reference = UnifiedEngine(plan, cluster, backend=backend).run()
        schedule = schedule_for(reference.simulated_seconds, 4, seed=11)
        Engine, tally = _counting_engine(monkeypatch, get_kernel(backend))
        plan = PROGRAMS["pagerank"].plan(default_graph("pagerank", seed=7))
        result = Engine(plan, cluster.with_faults(schedule), backend=backend).run()
        assert result.faults.rollbacks > 0
        assert tally.seeded == len(get_kernel(backend).initial_delta(plan))
        assert tally.ingested == tally.delivered
