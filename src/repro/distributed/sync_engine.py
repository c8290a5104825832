"""Synchronous (BSP) distributed execution.

One superstep applies ``F'`` on every worker, exchanges messages, then
crosses a global barrier before ``G`` results feed the next superstep --
the strict ``G ∘ F'`` sequence of the paper's section 4.

Two modes, one superstep loop (:meth:`SyncEngine.run`); the mode picks
only the superstep body:

* ``incremental`` -- MRA/semi-naive: only pending deltas are processed.
  With ``delta_stepping`` (selective aggregates), each superstep only
  relaxes pending deltas within the current bucket, the Meyer-Sanders
  optimisation the paper credits for SociaLite's SSSP win on ClueWeb09.
* ``naive`` -- full recomputation: every superstep, every key pushes
  ``F'(x)`` along all its edges and every key is rebuilt from scratch,
  the per-iteration re-join cost of SociaLite/Myria on non-monotonic
  programs.

An incremental superstep is one ``Kernel.cluster_round`` over every
shard and one ``Kernel.cluster_ingest`` of every inbox; the engine keeps
the exchange and prices it worker by worker.  Superstep time = slowest
worker's compute (including message CPU and bandwidth) + one exchange
latency + barrier + optional per-job overhead.

Fault injection (``cluster.faults``) reuses the BSP structure: the
barrier is the natural ack point, so a dropped inter-worker payload is
queued for retransmission with exponential *superstep* backoff,
duplicated deliveries are deduplicated by per-sender sequence numbers
(additive aggregates) or absorbed by ``g`` (idempotent ones), and
scheduled crashes fire at barriers -- recovering via single-shard
checkpoint restore plus boundary replay (idempotent) or a coordinated
rollback to the latest barrier snapshot (additive).  Incremental mode
only; naive mode recomputes everything each superstep and has no delta
state worth protecting.  The sequence numbers and the duplicate rule are
the :class:`~repro.distributed.chaos.DeliveryLedger` the asynchronous
engine keeps too; only the transport (superstep backoff here, ack
timeouts there) is this engine's own.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.distributed.chaos import DeliveryLedger, injector_for
from repro.distributed.cluster import ClusterConfig
from repro.distributed.sharding import ShardedRun
from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult
from repro.engine.termination import TerminationSpec, TerminationTracker
from repro.obs import ensure_obs


class SyncEngine:
    """BSP execution of a compiled plan on the simulated cluster."""

    #: modes that refuse a fault schedule (the registry derives its
    #: fault-tolerant engines from this)
    FAULT_FREE_MODES = ("naive",)

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Optional[ClusterConfig] = None,
        mode: str = "incremental",
        delta_stepping: bool = False,
        delta_width: float = 10.0,
        termination: Optional[TerminationSpec] = None,
        checkpointer=None,
        checkpoint_every: int = 0,
        run_name: str = "sync-run",
        obs=None,
        backend: Optional[str] = None,
    ):
        if mode not in ("incremental", "naive"):
            raise ValueError(f"unknown mode {mode!r}")
        if delta_stepping:
            from repro.analysis.frontier import classify_frontier

            verdict = classify_frontier(plan.analysis)
            if not verdict.delta_stepping:
                raise ValueError(
                    "delta stepping requires a selective, numeric, monotone "
                    f"program (RA330); {plan.name} is {verdict.code}: "
                    f"{verdict.detail}"
                )
        if checkpoint_every and checkpointer is None:
            raise ValueError("checkpoint_every requires a checkpointer")
        faults = (cluster or ClusterConfig()).faults
        if mode in self.FAULT_FREE_MODES and faults is not None and not faults.is_null():
            raise ValueError("fault injection requires incremental mode")
        self.plan = plan
        self.cluster = cluster or ClusterConfig()
        self.mode = mode
        self.delta_stepping = delta_stepping
        self.delta_width = delta_width
        self.termination = termination or plan.termination
        self.engine_name = f"{mode}+sync"
        #: optional fault tolerance (paper Figure 6): every
        #: ``checkpoint_every`` supersteps, all MonoTable shards are
        #: persisted; a rerun with the same ``run_name`` resumes from the
        #: latest checkpoint instead of the initial delta.
        self.checkpointer = checkpointer
        self.checkpoint_every = checkpoint_every
        self.run_name = run_name
        self.obs = ensure_obs(obs)
        self.backend = backend

    def run(self) -> EvalResult:
        """Supersteps until the termination tracker stops them.  The mode
        picks the superstep body (:class:`_IncrementalRounds` or
        :class:`_NaiveRounds`); the barrier that closes every superstep
        -- stretch, superstep time, counters, the ``engine.superstep``
        event -- and the run's epilogue are the same for both."""
        cluster = self.cluster
        cost = cluster.cost
        obs = self.obs
        state = ShardedRun(self.plan, cluster, backend=self.backend)
        counters = state.counters
        chaos = injector_for(cluster, obs)
        if self.mode == "incremental":
            rounds = _IncrementalRounds(self, state, chaos)
        else:
            rounds = _NaiveRounds(self, state)
        tracker = TerminationTracker(self.termination)
        draw_transient = cluster.transient_stream(salt=rounds.salt)
        simulated = 0.0
        stop = None
        while stop is None:
            compute_seconds, changed, total_delta, messages, cross = (
                rounds.superstep(simulated)
            )
            counters.messages += messages
            counters.message_tuples += cross
            counters.barriers += 1
            counters.iterations += 1

            stretched = [c * draw_transient() for c in compute_seconds]
            if chaos is not None:
                stretched = [
                    c * chaos.slowdown(worker, simulated)
                    for worker, c in enumerate(stretched)
                ]
            superstep = (
                max(stretched)
                + (cost.message_latency if cross else 0.0)
                + cost.barrier_cost
                + cost.job_overhead
            )
            simulated += superstep
            if obs.enabled:
                obs.trace.emit(
                    "engine.superstep",
                    t=simulated,
                    dur=superstep,
                    round=counters.iterations,
                    changed=changed,
                    delta=total_delta,
                    messages=messages,
                    tuples=cross,
                )
                obs.metrics.observe("superstep.seconds", superstep)
                obs.metrics.inc("superstep.count")

            simulated = rounds.after_barrier(simulated)
            tracker.record(changed, total_delta)
            stop = tracker.stop_reason()
            if stop is not None and not rounds.settled(stop):
                stop = None

        return state.finish(
            obs,
            stop_reason=stop,
            simulated_seconds=simulated,
            engine=rounds.engine_name,
            trace=tracker.history,
            chaos=chaos,
            values=rounds.values(),
        )


class _IncrementalRounds:
    """MRA/semi-naive supersteps: one ``Kernel.cluster_round`` over the
    pending deltas (or, delta-stepping, the current bucket's), an
    exchange through the chaos layer when a fault schedule is set, and
    one ``Kernel.cluster_ingest``.  Checkpoints, snapshots and crash
    recovery happen after the barrier."""

    #: the transient-stretch stream this mode draws from
    salt = 1

    def __init__(self, engine: SyncEngine, state: ShardedRun, chaos):
        self.engine = engine
        self.state = state
        self.chaos = chaos
        self.obs = engine.obs
        self.cost = engine.cluster.cost
        self.num_workers = engine.cluster.num_workers
        self.engine_name = engine.engine_name + (
            "+delta-step" if engine.delta_stepping else ""
        )
        state.resume_or_seed(engine.checkpointer, engine.run_name, "sync", self.obs)
        self.selective = state.plan.aggregate.is_idempotent
        #: whether the last barrier ran a recovery
        self.crashed = False
        if chaos is not None:
            #: the barrier doubles as the ack point
            self.ledger = DeliveryLedger(self.num_workers, chaos, self.selective)
            #: (sender, target) -> {seq: {"payload", "attempt", "wait"}}
            self.retrans_queue: dict = {}
            self.remaining_crashes = sorted(
                engine.cluster.faults.crashes, key=lambda crash: crash.at
            )
            self.snapshot_every = engine.checkpoint_every or 4
            #: a barrier plus the retransmit queues is the complete global
            #: state, so any barrier snapshot is globally consistent
            self.snapshot = self._take_snapshot() if not self.selective else None

    def values(self) -> dict:
        return self.state.merged_values()

    def superstep(self, simulated: float) -> tuple:
        state, chaos, cost = self.state, self.chaos, self.cost
        num_workers = self.num_workers
        shards = state.shards
        deltas = None
        if self.engine.delta_stepping:
            threshold = (
                min((shard.pending_min() for shard in shards), default=math.inf)
                + self.engine.delta_width
            )
            deltas = [shard.take_pending_below(threshold) for shard in shards]

        # one round over every shard; sends[sender, target] -> that
        # pair's payload this superstep
        results, sends = state.kernel_cls.cluster_round(
            shards, state.owner_table, num_workers, deltas
        )
        compute_seconds = [0.0] * num_workers
        changed = 0
        total_delta = 0.0
        for worker, round_result in enumerate(results):
            changed += round_result.changed
            total_delta += round_result.magnitude
            compute_seconds[worker] += (
                round_result.ops * cost.tuple_cost / state.speeds[worker]
            )

        # exchange: chaos decides which payloads reach a receiver's
        # inbox and in what order; senders pay per-message CPU
        inboxes: list[list] = [[] for _ in range(num_workers)]
        cross = 0
        messages = 0
        if chaos is not None:
            # retransmit pass: queued unacked payloads whose backoff
            # expired retry before this superstep's fresh traffic
            retrans_queue = self.retrans_queue
            for (sender, target), queued in list(retrans_queue.items()):
                for seq, entry in list(queued.items()):
                    entry["wait"] -= 1
                    if entry["wait"] > 0:
                        continue
                    chaos.record(
                        "retransmits",
                        t=simulated,
                        sender=sender,
                        target=target,
                        seq=seq,
                        attempt=entry["attempt"],
                    )
                    messages += 1
                    cross += len(entry["payload"])
                    compute_seconds[sender] += (
                        cost.message_cpu_cost
                        + len(entry["payload"]) * cost.tuple_net_cost
                    ) / state.speeds[sender]
                    if self._transmit(
                        sender, target, seq, entry["payload"], inboxes, simulated
                    ):
                        del queued[seq]
                    else:
                        entry["attempt"] += 1
                        entry["wait"] = min(2 ** entry["attempt"], 8)
                        self._trace_backoff(sender, target, seq, entry, simulated)
                if not queued:
                    del retrans_queue[(sender, target)]
        sent = [0] * num_workers
        for (sender, target), payload in sends.items():
            if target == sender:
                inboxes[target].append(payload)
                continue
            messages += 1
            sent[sender] += len(payload)
            if chaos is None:
                inboxes[target].append(payload)
                continue
            seq = self.ledger.stamp(sender, target)
            if not self._transmit(sender, target, seq, payload, inboxes, simulated):
                entry = {"payload": payload, "attempt": 1, "wait": 1}
                self.retrans_queue.setdefault((sender, target), {})[seq] = entry
                self._trace_backoff(sender, target, seq, entry, simulated)
        for sender, sent_tuples in enumerate(sent):
            cross += sent_tuples
            compute_seconds[sender] += (
                (1 if sent_tuples else 0) * cost.message_cpu_cost
                + sent_tuples * cost.tuple_net_cost
            ) / state.speeds[sender]
        # one ingest: every receiver's inbox, folded in arrival order
        state.kernel_cls.cluster_ingest(shards, inboxes)
        return compute_seconds, changed, total_delta, messages, cross

    def after_barrier(self, simulated: float) -> float:
        """Checkpoint, snapshot and run the crashes due by ``simulated``;
        returns the clock once their recoveries are paid."""
        engine, state, chaos, obs = self.engine, self.state, self.chaos, self.obs
        iterations = state.counters.iterations
        if engine.checkpoint_every and iterations % engine.checkpoint_every == 0:
            state.checkpoint(engine.checkpointer, engine.run_name)
            if obs.enabled:
                obs.trace.emit(
                    "ckpt.write", t=simulated, run=engine.run_name, round=iterations
                )
        self.crashed = False
        if chaos is None:
            return simulated
        if not self.selective and iterations % self.snapshot_every == 0:
            self.snapshot = self._take_snapshot()
            chaos.record("checkpoints", t=simulated, round=iterations)

        while self.remaining_crashes and self.remaining_crashes[0].at <= simulated:
            crash = self.remaining_crashes.pop(0)
            chaos.record("crashes", t=crash.at, worker=crash.worker)
            self.crashed = True
            simulated += crash.restart_after
            if self.selective:
                simulated += self._recover_shard(crash.worker, simulated)
            else:
                # coordinated rollback: additive deltas replayed from
                # live state would double count, so every worker
                # returns to the latest barrier snapshot
                chaos.record("rollbacks", t=simulated, worker=crash.worker)
                chaos.record("recoveries", t=simulated, worker=crash.worker)
                for w, shard_snap in enumerate(self.snapshot["shards"]):
                    state.shards[w].restore(shard_snap)
                self.retrans_queue.clear()
                self.retrans_queue.update(
                    {
                        pair: {seq: dict(entry) for seq, entry in queued.items()}
                        for pair, queued in self.snapshot["retrans"].items()
                    }
                )
                self.ledger.restore(self.snapshot["ledger"])
        return simulated

    def settled(self, stop: str) -> bool:
        """Whether the tracker's ``stop`` is real: no delta-stepping work
        deferred, no lost delta awaiting retransmission, no recovery that
        just reset state."""
        if stop == "fixpoint" and self.state.total_pending():
            return False
        if self.chaos is not None and stop in ("fixpoint", "epsilon"):
            return not (self.crashed or self.retrans_queue)
        return True

    # -- the chaos layer's transport ------------------------------------------
    def _transmit(
        self, sender: int, target: int, seq: int, payload, inboxes, now: float
    ) -> bool:
        """One attempt on the wire; False when the payload was lost."""
        chaos = self.chaos
        if chaos.drops(sender, target, now):
            chaos.record(
                "dropped_messages", t=now, sender=sender, target=target, seq=seq
            )
            return False
        if self.ledger.admit(sender, target, seq, now):
            inboxes[target].append(payload)
        if chaos.duplicates():
            chaos.record(
                "duplicated_messages", t=now, sender=sender, target=target, seq=seq
            )
            if self.ledger.admit(sender, target, seq, now):
                inboxes[target].append(payload)
        return True

    def _trace_backoff(self, sender, target, seq, entry: dict, now: float) -> None:
        if self.obs.enabled:
            self.obs.trace.emit(
                "net.backoff",
                t=now,
                sender=sender,
                target=target,
                seq=seq,
                attempt=entry["attempt"],
                wait_supersteps=entry["wait"],
            )

    def _take_snapshot(self) -> dict:
        return {
            "shards": [s.snapshot() for s in self.state.shards],
            "retrans": {
                pair: {seq: dict(entry) for seq, entry in queued.items()}
                for pair, queued in self.retrans_queue.items()
            },
            "ledger": self.ledger.snapshot(),
        }

    def _recover_shard(self, worker: int, now: float) -> float:
        """Single-shard recovery for idempotent aggregates.

        Restore the crashed shard from its latest checkpoint (or reseed
        from ``X⁰`` + ``ΔX¹`` when none is readable), then replay
        boundary contributions: every live peer re-derives the deltas it
        feeds the crashed shard from its *accumulated* column, and the
        restored worker replays all of its own out-edges because its
        pre-crash sends may be lost.  Sound only because ``g`` absorbs
        re-delivered deltas for idempotent aggregates (Theorem 3).
        Returns the simulated seconds the replay costs.
        """
        engine, state, obs = self.engine, self.state, self.obs
        self.chaos.record("recoveries", t=now, worker=worker)
        restored = state.recover_shard(
            engine.checkpointer, engine.run_name, worker, "sync", obs
        )
        if engine.checkpointer is not None and obs.enabled:
            obs.trace.emit(
                "ckpt.restore", t=now, run=engine.run_name, worker=worker,
                restored=restored,
            )
        # the crashed worker's retransmit buffers and dedup memory died
        # with it; replay regenerates everything those entries carried
        for pair in [p for p in self.retrans_queue if p[0] == worker]:
            del self.retrans_queue[pair]
        self.ledger.forget(worker)
        replay_ops = [0] * self.num_workers
        for peer, target, dst, contribution in state.replay(worker):
            state.shards[target].push(dst, contribution)
            replay_ops[peer] += 1
        total_replayed = sum(replay_ops)
        if total_replayed:
            self.chaos.record("replayed_tuples", t=now, n=total_replayed, worker=worker)
        state.counters.fprime_applications += total_replayed
        if not any(replay_ops):
            return 0.0
        return max(
            ops * self.cost.tuple_cost / state.speeds[peer]
            for peer, ops in enumerate(replay_ops)
        )


class _NaiveRounds:
    """Full recomputation: every superstep, every key pushes ``F'(x)``
    along all its edges and every key is rebuilt from its base, its
    constant and its inbox.  No fault schedule reaches it
    (:class:`SyncEngine` refuses one)."""

    salt = 2

    def __init__(self, engine: SyncEngine, state: ShardedRun):
        self.state = state
        self.cost = engine.cluster.cost
        self.num_workers = engine.cluster.num_workers
        self.engine_name = engine.engine_name
        # current values start at X⁰; every superstep rebuilds all of them
        self.current: dict = dict(state.plan.initial)

    def values(self) -> dict:
        return self.current

    def after_barrier(self, simulated: float) -> float:
        return simulated

    def settled(self, stop: str) -> bool:
        return True

    def superstep(self, simulated: float) -> tuple:
        state, cost, num_workers = self.state, self.cost, self.num_workers
        plan = state.plan
        counters = state.counters
        aggregate = plan.aggregate
        combine = aggregate.combine
        owner = state.owner
        values = self.current
        inboxes: list[dict] = [dict() for _ in range(num_workers)]
        compute_seconds = [0.0] * num_workers
        ops_by_worker = [0] * num_workers
        pair_tuples = [[0] * num_workers for _ in range(num_workers)]
        # push phase: every key with a value sends F'(x) on all edges
        for src, dst, contribution in state.kernel_cls.full_contributions(
            plan, values
        ):
            worker = owner[src]
            ops_by_worker[worker] += 1
            target = owner[dst]
            pair_tuples[worker][target] += 1
            inbox = inboxes[target]
            if dst in inbox:
                inbox[dst] = combine(inbox[dst], contribution)
                counters.combines += 1
            else:
                inbox[dst] = contribution
        counters.fprime_applications += sum(ops_by_worker)
        # per sender: tuples and messages to the other workers
        sent = [sum(row) - row[w] for w, row in enumerate(pair_tuples)]
        sent_msgs = [
            sum(1 for t, n in enumerate(row) if n and t != w)
            for w, row in enumerate(pair_tuples)
        ]

        # rebuild phase: every key recomputed from base, C and inbox
        next_values: dict = {}
        rebuild_ops = [0] * num_workers
        # Iterated programs (``rank(i+1, ...)``) materialise a fresh
        # iteration-indexed table every superstep while the old ones
        # remain as facts, so iteration k additionally scans/manages
        # k * |keys| accumulated tuples -- the cost that makes naive
        # evaluation of non-monotonic programs collapse at scale
        # (sections 1 and 6.3).
        if plan.analysis.iterated:
            iteration_number = counters.iterations + 1
            for worker in range(num_workers):
                rebuild_ops[worker] += (
                    iteration_number
                    * len(state.shard_keys[worker])
                    * int(cost.join_scan_factor)
                )
        for worker in range(num_workers):
            inbox = inboxes[worker]
            for key in state.shard_keys[worker]:
                pieces = []
                base = plan.initial.get(key)
                if base is not None:
                    pieces.append(base)
                constant = plan.constants.get(key)
                if constant is not None:
                    pieces.append(constant)
                incoming = inbox.get(key)
                if incoming is not None:
                    pieces.append(incoming)
                rebuild_ops[worker] += 1
                if not pieces:
                    continue
                result = pieces[0]
                for piece in pieces[1:]:
                    result = combine(result, piece)
                next_values[key] = result
        for worker in range(num_workers):
            # each edge binding pays the relational join probes that
            # naive evaluation re-runs every iteration, plus the
            # result-table rebuild
            compute_seconds[worker] = (
                ops_by_worker[worker]
                * (cost.tuple_cost + cost.join_scan_factor * cost.scan_cost)
                + rebuild_ops[worker] * cost.scan_cost
                + sent_msgs[worker] * cost.message_cpu_cost
                + sent[worker] * cost.tuple_net_cost
            ) / state.speeds[worker]

        changed = 0
        total_delta = 0.0
        for key, value in next_values.items():
            old = values.get(key)
            if old is None:
                changed += 1
                total_delta += aggregate.delta_magnitude(value)
            elif value != old:
                changed += 1
                # an invertible ⊕'s change is the difference; an
                # idempotent one's is the semiring's distance (KTuple
                # has no subtraction)
                tmp = None if aggregate.is_idempotent else value - old
                total_delta += aggregate.change_magnitude(value, old, tmp)
        changed += sum(1 for key in values if key not in next_values)
        counters.updates += changed
        self.current = next_values
        return compute_seconds, changed, total_delta, sum(sent_msgs), sum(sent)
