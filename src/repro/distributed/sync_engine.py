"""Synchronous (BSP) distributed execution.

One superstep applies ``F'`` on every worker, exchanges messages, then
crosses a global barrier before ``G`` results feed the next superstep --
the strict ``G ∘ F'`` sequence of the paper's section 4.

Two modes:

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
from repro.obs import ensure_obs, record_run


class SyncEngine:
    """BSP execution of a compiled plan on the simulated cluster."""

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
        if mode == "naive" and faults is not None and not faults.is_null():
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
        if self.mode == "incremental":
            return self._run_incremental()
        return self._run_naive()

    # -- incremental (MRA / semi-naive) mode -----------------------------------
    def _run_incremental(self) -> EvalResult:
        plan = self.plan
        cluster = self.cluster
        cost = cluster.cost
        obs = self.obs
        state = ShardedRun(plan, cluster, backend=self.backend)
        state.resume_or_seed(self.checkpointer, self.run_name, "sync", obs)
        counters = state.counters
        shards = state.shards
        kernel_cls = state.kernel_cls
        num_workers = cluster.num_workers

        chaos = injector_for(cluster, obs)
        selective = plan.aggregate.is_idempotent
        if chaos is not None:
            #: the barrier doubles as the ack point
            ledger = DeliveryLedger(num_workers, chaos, selective)
            #: (sender, target) -> {seq: {"payload", "attempt", "wait"}}
            retrans_queue: dict = {}
            remaining_crashes = sorted(
                cluster.faults.crashes, key=lambda crash: crash.at
            )
            snapshot_every = self.checkpoint_every or 4

            def arrive(sender: int, target: int, seq: int, payload) -> None:
                if ledger.admit(sender, target, seq, simulated):
                    inboxes[target].append(payload)

            def transmit(sender: int, target: int, seq: int, payload) -> bool:
                """One attempt on the wire; False when the payload was lost."""
                if chaos.drops(sender, target, simulated):
                    chaos.record(
                        "dropped_messages",
                        t=simulated,
                        sender=sender,
                        target=target,
                        seq=seq,
                    )
                    return False
                arrive(sender, target, seq, payload)
                if chaos.duplicates():
                    chaos.record(
                        "duplicated_messages",
                        t=simulated,
                        sender=sender,
                        target=target,
                        seq=seq,
                    )
                    arrive(sender, target, seq, payload)
                return True

            def trace_backoff(sender: int, target: int, seq: int, entry: dict):
                if obs.enabled:
                    obs.trace.emit(
                        "net.backoff",
                        t=simulated,
                        sender=sender,
                        target=target,
                        seq=seq,
                        attempt=entry["attempt"],
                        wait_supersteps=entry["wait"],
                    )

            def take_snapshot() -> dict:
                return {
                    "shards": [s.snapshot() for s in shards],
                    "retrans": {
                        pair: {
                            seq: dict(entry) for seq, entry in queued.items()
                        }
                        for pair, queued in retrans_queue.items()
                    },
                    "ledger": ledger.snapshot(),
                }

            #: a barrier plus the retransmit queues is the complete global
            #: state, so any barrier snapshot is globally consistent
            snapshot = take_snapshot() if not selective else None

        tracker = TerminationTracker(self.termination)
        draw_transient = cluster.transient_stream(salt=1)
        simulated = 0.0
        stop = None
        while stop is None:
            deltas = None
            if self.delta_stepping:
                threshold = self._bucket_threshold(shards)
                deltas = [shard.take_pending_below(threshold) for shard in shards]

            # one round over every shard; sends[sender, target] -> that
            # pair's payload this superstep
            results, sends = kernel_cls.cluster_round(
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
                        if transmit(sender, target, seq, entry["payload"]):
                            del queued[seq]
                        else:
                            entry["attempt"] += 1
                            entry["wait"] = min(2 ** entry["attempt"], 8)
                            trace_backoff(sender, target, seq, entry)
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
                seq = ledger.stamp(sender, target)
                if not transmit(sender, target, seq, payload):
                    entry = {"payload": payload, "attempt": 1, "wait": 1}
                    retrans_queue.setdefault((sender, target), {})[seq] = entry
                    trace_backoff(sender, target, seq, entry)
            for sender, sent_tuples in enumerate(sent):
                cross += sent_tuples
                compute_seconds[sender] += (
                    (1 if sent_tuples else 0) * cost.message_cpu_cost
                    + sent_tuples * cost.tuple_net_cost
                ) / state.speeds[sender]
            # one ingest: every receiver's inbox, folded in arrival order
            kernel_cls.cluster_ingest(shards, inboxes)
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

            if (
                self.checkpoint_every
                and counters.iterations % self.checkpoint_every == 0
            ):
                state.checkpoint(self.checkpointer, self.run_name)
                if obs.enabled:
                    obs.trace.emit(
                        "ckpt.write",
                        t=simulated,
                        run=self.run_name,
                        round=counters.iterations,
                    )
            if (
                chaos is not None
                and not selective
                and counters.iterations % snapshot_every == 0
            ):
                snapshot = take_snapshot()
                chaos.record("checkpoints", t=simulated, round=counters.iterations)

            crashed = False
            if chaos is not None:
                while remaining_crashes and remaining_crashes[0].at <= simulated:
                    crash = remaining_crashes.pop(0)
                    chaos.record("crashes", t=crash.at, worker=crash.worker)
                    crashed = True
                    simulated += crash.restart_after
                    if selective:
                        simulated += self._recover_shard(
                            crash.worker, state, chaos, ledger, retrans_queue, simulated
                        )
                    else:
                        # coordinated rollback: additive deltas replayed from
                        # live state would double count, so every worker
                        # returns to the latest barrier snapshot
                        chaos.record("rollbacks", t=simulated, worker=crash.worker)
                        chaos.record("recoveries", t=simulated, worker=crash.worker)
                        for w, shard_snap in enumerate(snapshot["shards"]):
                            shards[w].restore(shard_snap)
                        retrans_queue.clear()
                        retrans_queue.update(
                            {
                                pair: {
                                    seq: dict(entry)
                                    for seq, entry in queued.items()
                                }
                                for pair, queued in snapshot["retrans"].items()
                            }
                        )
                        ledger.restore(snapshot["ledger"])

            pending = state.total_pending()
            tracker.record(changed, total_delta)
            stop = tracker.stop_reason()
            if stop == "fixpoint" and pending:
                stop = None  # delta-stepping deferred work remains
            if chaos is not None and stop in ("fixpoint", "epsilon"):
                if crashed or retrans_queue:
                    # lost deltas are still awaiting retransmission, or a
                    # recovery just reset state: convergence is not real yet
                    stop = None

        result = EvalResult(
            values=state.merged_values(),
            stop_reason=stop,
            counters=counters,
            simulated_seconds=simulated,
            engine=self.engine_name + ("+delta-step" if self.delta_stepping else ""),
            trace=tracker.history,
            faults=chaos.stats if chaos is not None else None,
            backend=state.backend,
        )
        record_run(obs, result)
        state.record_plan_metrics(obs)
        return result

    def _recover_shard(
        self, worker, state, chaos, ledger, retrans_queue, now=None
    ) -> float:
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
        chaos.record("recoveries", t=now, worker=worker)
        restored = state.recover_shard(
            self.checkpointer, self.run_name, worker, "sync", self.obs
        )
        if self.checkpointer is not None and self.obs.enabled:
            self.obs.trace.emit(
                "ckpt.restore", t=now, run=self.run_name, worker=worker,
                restored=restored,
            )
        # the crashed worker's retransmit buffers and dedup memory died
        # with it; replay regenerates everything those entries carried
        for pair in [p for p in retrans_queue if p[0] == worker]:
            del retrans_queue[pair]
        ledger.forget(worker)
        shards = state.shards
        cost = self.cluster.cost
        counters = state.counters
        replay_ops = [0] * self.cluster.num_workers
        for peer, target, dst, contribution in state.replay(worker):
            shards[target].push(dst, contribution)
            replay_ops[peer] += 1
        total_replayed = sum(replay_ops)
        if total_replayed:
            chaos.record("replayed_tuples", t=now, n=total_replayed, worker=worker)
        counters.fprime_applications += total_replayed
        if not any(replay_ops):
            return 0.0
        return max(
            ops * cost.tuple_cost / state.speeds[peer]
            for peer, ops in enumerate(replay_ops)
        )

    def _bucket_threshold(self, shards) -> float:
        smallest = min(
            (shard.pending_min() for shard in shards), default=math.inf
        )
        return smallest + self.delta_width

    # -- naive mode ------------------------------------------------------------
    def _run_naive(self) -> EvalResult:
        plan = self.plan
        cluster = self.cluster
        cost = cluster.cost
        state = ShardedRun(plan, cluster, backend=self.backend)
        counters = state.counters
        aggregate = plan.aggregate
        combine = aggregate.combine
        owner = state.owner
        num_workers = cluster.num_workers

        # current values start at X⁰; every superstep rebuilds all of them
        values: dict = dict(plan.initial)
        tracker = TerminationTracker(self.termination)
        draw_transient = cluster.transient_stream(salt=2)
        # Iterated programs (``rank(i+1, ...)``) materialise a fresh
        # iteration-indexed table every superstep while the old ones
        # remain as facts, so iteration k additionally scans/manages
        # k * |keys| accumulated tuples -- the cost that makes naive
        # evaluation of non-monotonic programs collapse at scale
        # (sections 1 and 6.3).
        iterated = plan.analysis.iterated
        simulated = 0.0
        stop = None
        while stop is None:
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
            cross = sum(
                pair_tuples[s][t]
                for s in range(num_workers)
                for t in range(num_workers)
                if s != t
            )
            messages = sum(
                1
                for s in range(num_workers)
                for t in range(num_workers)
                if s != t and pair_tuples[s][t]
            )

            # rebuild phase: every key recomputed from base, C and inbox
            next_values: dict = {}
            rebuild_ops = [0] * num_workers
            if iterated:
                # accumulated iteration-indexed history on each worker
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
                sent = sum(
                    pair_tuples[worker][t]
                    for t in range(num_workers)
                    if t != worker
                )
                sent_msgs = sum(
                    1
                    for t in range(num_workers)
                    if t != worker and pair_tuples[worker][t]
                )
                # each edge binding pays the relational join probes that
                # naive evaluation re-runs every iteration, plus the
                # result-table rebuild
                compute_seconds[worker] = (
                    ops_by_worker[worker]
                    * (cost.tuple_cost + cost.join_scan_factor * cost.scan_cost)
                    + rebuild_ops[worker] * cost.scan_cost
                    + sent_msgs * cost.message_cpu_cost
                    + sent * cost.tuple_net_cost
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
            values = next_values

            counters.messages += messages
            counters.message_tuples += cross
            counters.barriers += 1
            counters.iterations += 1
            stretched = [c * draw_transient() for c in compute_seconds]
            superstep = (
                max(stretched)
                + (cost.message_latency if cross else 0.0)
                + cost.barrier_cost
                + cost.job_overhead
            )
            simulated += superstep
            if self.obs.enabled:
                self.obs.trace.emit(
                    "engine.superstep",
                    t=simulated,
                    dur=superstep,
                    round=counters.iterations,
                    changed=changed,
                    delta=total_delta,
                    messages=messages,
                    tuples=cross,
                )
                self.obs.metrics.observe("superstep.seconds", superstep)
                self.obs.metrics.inc("superstep.count")

            tracker.record(changed, total_delta)
            stop = tracker.stop_reason()

        result = EvalResult(
            values=values,
            stop_reason=stop,
            counters=counters,
            simulated_seconds=simulated,
            engine=self.engine_name,
            trace=tracker.history,
            backend=state.backend,
        )
        record_run(self.obs, result)
        return result
