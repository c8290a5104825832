"""A lookahead window on the array kernel is one pass over the stacked
shards, bit for bit the per-shard loop it stands for.

``NumpyKernel.window_local`` runs against the base class's loop
(``Kernel.window_local`` driving the python kernel's ``push_many``,
``select_pending`` and ``apply_batch(keys=...)``, the reference) on twin
clusters built and driven alike, over programs x cluster sizes x batch
limits x importance thresholds x random pending states, each window's
foreign contributions delivered to the next.  Compared: every member's
outcome (``None``, or the batch size and the ``changed``/``ops``/
``magnitude`` bits), its foreign payload by ``float.hex`` and its
emission offsets, each shard's accumulated and pending entries in their
orders, and the work counters.

The last class runs the engines through windows that hold the situations
the window argument has to get right, and holds each run to its entry in
``tests/golden/async_runs.json`` -- pinned when the engines still ran one
process event at a time.
"""

import heapq
import json
from functools import lru_cache
from unittest.mock import patch

import pytest

from hypothesis import given, settings, strategies as st

from repro.distributed import AAPEngine, ClusterConfig, async_engine
from repro.distributed.chaos_harness import default_graph
from repro.distributed.sharding import ShardedRun
from repro.obs import Observability
from repro.programs import PROGRAMS
from repro.runtime.numpy_kernel import Columns, NumpyKernel
from tests.test_async_golden import GOLDEN_PATH, _build, _digest, case_id
from tests.test_cluster_round import (
    ARRAY_PROGRAMS,
    BACKENDS,
    WORKERS,
    _bits,
    _check_frontier,
    _payload,
    _shard_state,
    _values,
)

LIMITS = (None, 1, 3, 5, 30)
THRESHOLDS = (None, 0.0, 0.01, 0.5)


@lru_cache(maxsize=None)
def _plan(program):
    return PROGRAMS[program].plan(default_graph(program, seed=7))


def _outcome(outcome, keys):
    if outcome is None:
        return None
    taken, result = outcome
    out = result.out
    return {
        "taken": taken,
        "result": (result.changed, result.ops, _bits(result.magnitude)),
        "out": _payload(out, keys) if len(out) else (),
        "offsets": [int(x) for x in result.offsets] if len(result.offsets) else (),
    }


class Twins:
    """Two clusters in one state: ``runs[0]`` runs windows by the loop on
    the python kernel, ``runs[1]`` by the stacked pass."""

    def __init__(self, plan, workers):
        self.plan = plan
        self.workers = workers
        self.runs = [
            ShardedRun(plan, ClusterConfig(num_workers=workers), backend=backend)
            for backend in BACKENDS
        ]
        for run in self.runs:
            run.seed_initial_delta()
        self.keys = self.runs[1].shards[0]._keys
        #: per run, per worker: foreign payloads earlier windows sent it
        self.parked = [[[] for _ in range(workers)] for _ in self.runs]

    def each(self, act) -> None:
        for run in self.runs:
            act(run)

    def state(self, run) -> dict:
        return {
            "shards": [_shard_state(shard) for shard in run.shards],
            "counters": run.counters.snapshot(),
        }

    def window(self, members, limits, threshold=None, best_first=False, extra=None) -> dict:
        """One window of ``members`` on both, each ingesting what earlier
        windows sent it (plus ``extra[w]``, a list of payloads); asserts
        they agree, routes the foreign payloads and returns the
        outcomes."""
        extra = extra or {}
        seen = []
        for run, parked in zip(self.runs, self.parked):
            inboxes = {w: parked[w] + list(extra.get(w, ())) for w in members}
            for w in members:
                parked[w] = []
            outcomes = run.kernel_cls.window_local(
                run.shards, inboxes, {w: limits[w] for w in members}, threshold, best_first,
            )
            assert sorted(outcomes) == sorted(members)
            _check_frontier(run)
            seen.append({
                "outcomes": {w: _outcome(outcomes[w], self.keys) for w in sorted(members)},
                "state": self.state(run),
            })
            self._route(run, parked, outcomes)
        assert seen[0] == seen[1]
        return seen[1]["outcomes"]

    def _route(self, run, parked, outcomes) -> None:
        # senders ascending: the loop keys its outcomes in inbox order,
        # the stacked pass in worker order
        for outcome in map(outcomes.get, sorted(outcomes)):
            if outcome is None or not len(outcome[1].out):
                continue
            out = outcome[1].out
            if isinstance(out, Columns):
                owners = [run.owner[self.keys[code]] for code in out.codes.tolist()]
            else:
                owners = [run.owner[key] for key, _ in out]
            for target in sorted(set(owners)):
                rows = [i for i, owner in enumerate(owners) if owner == target]
                if isinstance(out, Columns):
                    parked[target].append(Columns(out.codes[rows], out.vals[rows]))
                else:
                    parked[target].append([out[i] for i in rows])


class TestStackedWindowIsTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_windows(self, data):
        """Registry programs x W in {1, 2, 3, 7, 16} x random pending
        states (pushes to a shard's own keys -- the only ones an engine
        ever leaves pending there --, fetched keys leaving stale order
        entries) x a few windows of random members, each with its own
        batch limit, ingesting what earlier windows sent it and random
        ``(key, value)`` payloads for its keys."""
        program = data.draw(st.sampled_from(ARRAY_PROGRAMS))
        plan = _plan(program)
        workers = data.draw(st.sampled_from(WORKERS))
        twins = Twins(plan, workers)
        owned = [sorted(keys) for keys in twins.runs[0].shard_keys]
        shard = st.sampled_from([w for w in range(workers) if owned[w]])
        value = _values(plan.aggregate.fold_mode)

        def pair(worker):
            return st.tuples(st.sampled_from(owned[worker]), value)

        pushes = data.draw(st.lists(
            shard.flatmap(lambda w: st.tuples(st.just(w), pair(w))), max_size=30
        ))
        fetched = data.draw(st.lists(
            shard.flatmap(lambda w: st.tuples(st.just(w), st.sampled_from(owned[w]))),
            max_size=5,
        ))

        def perturb(run):
            for worker, (key, delta) in pushes:
                run.shards[worker].push(key, delta)
            for worker, key in fetched:
                run.shards[worker].fetch_and_reset(key)

        twins.each(perturb)
        best_first = plan.aggregate.is_idempotent
        threshold = None if best_first else data.draw(st.sampled_from(THRESHOLDS))
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            members = data.draw(st.sets(shard, min_size=1))
            limits = {w: data.draw(st.sampled_from(LIMITS)) for w in sorted(members)}
            extra = {
                w: [data.draw(st.lists(pair(w), min_size=1, max_size=6))]
                for w in sorted(members) if data.draw(st.booleans())
            }
            twins.window(members, limits, threshold, best_first, extra)

    def test_an_all_below_threshold_member_takes_nothing(self):
        """Everything worker 1 holds is below the importance threshold:
        an empty batch, its pending entries left as they were, while
        worker 0 runs a batch in the same pass."""
        twins = Twins(_plan("pagerank"), 3)

        def small(run):
            run.shards[1].drain_all()
            for key in sorted(run.shard_keys[1])[:4]:
                run.shards[1].push(key, 1e-3)

        twins.each(small)
        before = _shard_state(twins.runs[1].shards[1])
        outcomes = twins.window({0, 1}, {0: None, 1: None}, threshold=0.01)
        assert outcomes[0]["taken"] > 0
        assert outcomes[1] == {"taken": 0, "result": (0, 0, _bits(0.0)), "out": (), "offsets": ()}
        assert _shard_state(twins.runs[1].shards[1]) == before

    def test_a_member_with_nothing_pending(self):
        twins = Twins(_plan("sssp"), 4)
        twins.each(lambda run: run.shards[2].drain_all())
        outcomes = twins.window({1, 2}, {1: 5, 2: 5}, best_first=True)
        assert outcomes[2] is None and outcomes[1]["taken"] == 5

    def test_a_member_with_only_stale_pending_entries(self):
        twins = Twins(_plan("viterbi"), 3)

        def fetched(run):
            run.shards[0].drain_all()
            key = min(run.shard_keys[0])
            run.shards[0].push(key, 0.0)
            run.shards[0].fetch_and_reset(key)

        twins.each(fetched)
        outcomes = twins.window({0, 2}, {0: None, 2: 3}, best_first=True)
        assert outcomes[0] is None

    def test_a_worker_in_consecutive_windows(self):
        """A worker's second event runs in a later window, after the
        first one's payloads reached their owners."""
        twins = Twins(_plan("pagerank"), 7)
        for _ in range(4):
            twins.window(set(range(7)), dict.fromkeys(range(7), 3), threshold=0.0)
        assert any(twins.parked[1])

    def test_one_member_per_limit(self):
        twins = Twins(_plan("katz"), 5)
        twins.window(set(range(5)), dict(enumerate(LIMITS)), threshold=0.01)


# -- the engines ---------------------------------------------------------------


class Watch:
    """The engine's event queue and windows, recorded: every popped event
    in order, and per window the instant it opened at, its members with
    their batch limits, the limits ``_batch_limit`` read at that instant,
    the non-timer events queued less than one latency later and the
    outcomes."""

    def __init__(self, engine):
        self.engine = engine
        self.latency = engine.cluster.cost.message_latency
        self.popped = []
        self.windows = []
        self.heap = None

    def heappush(self, heap, event):
        if event[2] != "timer":
            self.heap = heap
        heapq.heappush(heap, event)

    def heappop(self, heap):
        event = heapq.heappop(heap)
        self.popped.append(event)
        return event

    def window_local(self, window_local, shards, inboxes, limits, *args):
        opened = self.popped[-1][0]
        outcomes = window_local(shards, inboxes, limits, *args)
        self.windows.append({
            "at": opened,
            "limits": dict(limits),
            "current": {w: self.engine._batch_limit(w) for w in limits},
            "queued": sorted(e for e in self.heap if e[0] < opened + self.latency),
            "outcomes": outcomes,
        })
        return outcomes

    # -- the situations --------------------------------------------------------
    def tied_deliveries(self) -> int:
        """Members whose event shares its instant with a delivery to them
        queued in the window (the sequence numbers decide which of the
        two comes first, and so the member's inbox)."""
        count = 0
        for window in self.windows:
            queued = window["queued"]
            for at, _, kind, data in queued:
                if kind == "process" and data in window["limits"]:
                    count += any(
                        k == "deliver" and d[0] == data and t == at for t, _, k, d in queued
                    )
        return count

    def master_cuts(self) -> int:
        """Windows a master event closed before a queued process event."""
        count = 0
        for window in self.windows:
            kinds = [kind for _, _, kind, _ in window["queued"]]
            if "master" in kinds and "process" in kinds[kinds.index("master"):]:
                count += 1
        return count

    def empty_batches(self) -> int:
        return sum(
            1 for window in self.windows for outcome in window["outcomes"].values()
            if outcome is not None and not outcome[0]
        )

    def second_events(self) -> int:
        """Members with another process event less than one latency after
        the window opened: it runs in a later window."""
        count = 0
        for window in self.windows:
            start, stop = window["at"], window["at"] + self.latency
            for member in window["limits"]:
                count += sum(
                    1 for at, _, kind, data in self.popped
                    if kind == "process" and data == member and start <= at < stop
                ) > 1
        return count

    def limit_switches(self) -> int:
        """Members whose limit at their event's turn differs from the one
        their engine held when the window opened."""
        return sum(
            1 for window in self.windows for w, limit in window["limits"].items()
            if limit != window["current"][w]
        )


#: a cluster whose clock is exact binary arithmetic (equal speeds, no
#: stretch, power-of-two costs), so events of different workers land on
#: the same instant and the sequence numbers decide their order
LOCKSTEP = ClusterConfig(num_workers=7, speed_jitter=0.0, transient_jitter=0.0).with_cost(
    tuple_cost=2.0**-17,
    message_latency=2.0**-10,
    tuple_net_cost=2.0**-20,
    message_cpu_cost=2.0**-14,
)
#: pagerank on AAPEngine over :data:`LOCKSTEP`, numpy, pinned when the
#: engine still ran one process event at a time
LOCKSTEP_DIGEST = {
    "stop": "epsilon", "fprime": 101814, "combines": 24532, "messages": 1974,
    "events": 2003,
    "sha256": "8ca3a3436a7e5d4a1d48fad4877100626300f165f15a4a112fabecb6f820094a",
}


def _engine(case, obs):
    if case == "lockstep":
        plan = PROGRAMS["pagerank"].plan(default_graph("pagerank", seed=7))
        return AAPEngine(plan, LOCKSTEP, backend="numpy", obs=obs)
    return _build(*case, obs=obs)


def _watched(case):
    """``case`` (a golden case, or ``"lockstep"``) run with a
    :class:`Watch`.  Returns the digest and the watch."""
    obs = Observability()
    engine = _engine(case, obs)
    watch = Watch(engine)
    window_local = NumpyKernel.window_local
    queue = type("queue", (), {
        "heappush": staticmethod(watch.heappush),
        "heappop": staticmethod(watch.heappop),
    })
    with patch.object(async_engine, "heapq", queue), patch.object(
        NumpyKernel, "window_local",
        classmethod(lambda cls, *args: watch.window_local(window_local, *args)),
    ):
        digest = _digest(engine.run(), obs)
    return digest, watch


def _expected(case) -> dict:
    if case == "lockstep":
        return LOCKSTEP_DIGEST
    return json.loads(GOLDEN_PATH.read_text())[case_id(*case)]


#: per situation: a run that holds it
SITUATIONS = {
    "tied_deliveries": "lockstep",
    "master_cuts": ("pagerank", 7, "unified", 4, None, "numpy"),
    "empty_batches": ("pagerank", 7, "unified", 4, None, "numpy"),
    "second_events": ("sssp", 7, "async", 4, None, "numpy"),
    "limit_switches": ("sssp", 7, "aap", 4, None, "numpy"),
}


class TestWindowsInTheEngine:
    @pytest.mark.parametrize("situation", sorted(SITUATIONS))
    def test_a_run_holding_it_matches_the_per_event_run(self, situation):
        case = SITUATIONS[situation]
        expected = _expected(case)
        digest, watch = _watched(case)
        assert getattr(watch, situation)() > 0
        assert digest == expected
