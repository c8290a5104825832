"""Asynchronous distributed execution (paper section 4, Definition 2).

A deterministic discrete-event simulation: workers process pending
MonoTable deltas in batches whenever they have work, without barriers;
updates for remote keys accumulate in per-destination message buffers
that flush by size (``beta``) or age (``tau``); a master event fires
every ``termination_interval`` simulated seconds and applies the
section 5.4 termination check (global fixpoint, or the change of the
global aggregation result dropping below the program's epsilon).

Because every update flows through the aggregate's ``combine``, any
interleaving produces the fixpoint of Theorem 3 -- tests check async
results against the synchronous reference bit-for-bit (min/max) or to
float tolerance (sum).

Simulated time is the event clock: worker busy time is measured work
(tuples, message CPU, bandwidth) divided by per-worker speed; message
delivery is delayed by latency plus payload bandwidth.

What moves between those events is the kernels' *payloads*
(:mod:`repro.runtime.base`): a worker's process event ingests its
inbox, selects its batch and runs it; the batch's foreign contributions
come back as one payload with the ``ops_so_far`` each was emitted at;
the worker's :class:`~repro.runtime.SendSide` folds them into its flush
buffers and reports the ones that fill mid-batch, which are flushed at
the instant their last update was computed; a delivered payload is
parked in the receiver's inbox until the receiver's next process event
ingests it (the drain rule).  The kernel half of the process events --
ingest, select, apply -- runs a *lookahead window* at a time: at a
process event without a precomputed outcome, one ``Kernel.window_local``
call runs it together with the first process event of every other
worker that lands less than one message latency later, before any event
that reads or writes a shard (the argument is in
:mod:`repro.runtime.base`).  Everything else stays one event at a time
in queue order.  The loop never looks inside a payload and never asks
which kernel made it.

Fault injection (``cluster.faults``, see :mod:`repro.distributed.chaos`)
wires failure into the same event clock:

* every message carries a per-destination sequence number and is held in
  a :class:`~repro.distributed.buffers.RetransmitBuffer` until acked;
  drops and partitions are recovered by exponential-backoff
  retransmission, duplicates are absorbed by ``g``-combining (idempotent
  aggregates) or suppressed by per-sender sequence dedup (additive
  ones) -- the :class:`~repro.distributed.chaos.DeliveryLedger` the sync
  engine keeps too;
* scheduled worker crashes lose all volatile state; recovery restores
  the shard from its latest :class:`~repro.distributed.fault.Checkpointer`
  checkpoint (or reseeds it from the constant part ``C``) and replays
  boundary deltas from the live workers' accumulated columns -- sound
  for idempotent aggregates, where re-derivation is absorbed.  For
  non-idempotent aggregates a crash instead triggers a coordinated
  rollback to the latest globally consistent snapshot, because replayed
  sums would double count (DESIGN.md, "Fault model and recovery
  guarantees");
* periodic event-clock checkpoints (``checkpoint_interval`` simulated
  seconds) extend the sync engine's Figure-6 checkpointing to the
  asynchronous engine, both on disk (when a checkpointer is given) and
  as the in-memory snapshots the rollback path restores.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.distributed.buffers import (
    AdaptiveBuffer,
    BufferPolicy,
    FixedBuffer,
    RetransmitBuffer,
)
from repro.distributed.chaos import DeliveryLedger, injector_for
from repro.distributed.cluster import ClusterConfig
from repro.distributed.sharding import ShardedRun
from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult
from repro.engine.termination import TerminationSpec, TerminationTracker
from repro.obs import ensure_obs


class AsyncEngine:
    """Event-driven asynchronous MRA execution."""

    engine_name = "mra+async"

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Optional[ClusterConfig] = None,
        buffer_policy: Optional[BufferPolicy] = None,
        batch_size: Optional[int] = None,
        importance_threshold: Optional[float] = None,
        termination: Optional[TerminationSpec] = None,
        checkpointer=None,
        checkpoint_interval: float = 0.0,
        run_name: str = "async-run",
        obs=None,
        backend: Optional[str] = None,
    ):
        # Theorem-3 gate: asynchronous evaluation only converges to the
        # synchronous fixpoint for MRA-satisfiable programs, so refuse
        # uncertified ones up front (with the RA310 diagnostic) instead
        # of silently computing wrong answers under message reordering.
        from repro.analysis.asynccert import require_async_certified

        self.async_certificate = require_async_certified(plan.analysis)
        self.obs = ensure_obs(obs)
        self.backend = backend
        self.plan = plan
        self.cluster = cluster or ClusterConfig()
        self.buffer_policy = buffer_policy or BufferPolicy(adaptive=False)
        #: keys processed per scheduling event.  Small batches mean eager
        #: (highly asynchronous) processing: a key re-propagates for every
        #: partial contribution, which multiplies work for additive
        #: aggregates.  ``None`` sweeps the whole shard per event -- keys
        #: accumulate all contributions that arrived since the last sweep
        #: before propagating once, sync-like work without barriers.
        self.batch_size = batch_size
        self.importance_threshold = importance_threshold
        self.termination = termination or plan.termination
        #: optional fault tolerance: every ``checkpoint_interval``
        #: simulated seconds each shard is persisted; a rerun with the
        #: same ``run_name`` resumes from the checkpoint, and crash
        #: recovery restores from it mid-run.
        self.checkpointer = checkpointer
        self.checkpoint_interval = checkpoint_interval
        self.run_name = run_name

    # -- extension hooks --------------------------------------------------------
    def _make_buffer(self, side, worker: int, target: int):
        """The flush buffer ``worker`` keeps for ``target``, over the
        worker's send side."""
        if self.buffer_policy.adaptive:
            buffer = AdaptiveBuffer(self.buffer_policy, side, target)
            obs = self.obs
            if obs.enabled:
                def on_adapt(now, old, new, pace, _w=worker, _t=target):
                    obs.trace.emit(
                        "buffer.beta", t=now, worker=_w, target=_t,
                        old=old, new=new, pace=pace,
                    )
                    obs.metrics.gauge("buffer.beta", new, t=now, worker=_w, target=_t)
                    obs.metrics.inc("buffer.adaptations", worker=_w, target=_t)

                buffer.on_adapt = on_adapt
            return buffer
        return FixedBuffer(
            self.buffer_policy.initial_beta, self.buffer_policy.tau, side, target
        )

    def _batch_limit(self, worker: int) -> Optional[int]:
        """Per-worker batch size; AAP overrides this dynamically."""
        return self.batch_size

    def _batch_limit_after(self, worker: int, delivered: list) -> Optional[int]:
        """``_batch_limit(worker)`` once the payloads ``delivered`` have
        reached it (``_observe_delivery``): what a worker's process event
        runs under when a lookahead window runs it ahead."""
        return self._batch_limit(worker)

    def _observe_delivery(self, worker: int, payload_size: int) -> None:
        """Hook: AAP's mode switching watches in-message volume."""

    def _observe_processing(self, worker: int, processed: int) -> None:
        """Hook: AAP's mode switching watches own progress."""

    # -- main event loop ----------------------------------------------------------
    def run(self) -> EvalResult:
        plan = self.plan
        cluster = self.cluster
        cost = cluster.cost
        obs = self.obs
        num_workers = cluster.num_workers
        state = ShardedRun(plan, cluster, backend=self.backend)
        state.resume_or_seed(self.checkpointer, self.run_name, "async", obs)
        counters = state.counters
        shards = state.shards
        speeds = state.speeds
        selective = plan.aggregate.is_idempotent

        chaos = injector_for(cluster, obs)
        # one-shard restore + Theorem-3 replay is sound for idempotent
        # aggregates only; additive ones roll every worker back
        rollback_recovery = not selective
        checkpoint_interval = self.checkpoint_interval
        if checkpoint_interval <= 0 and (
            chaos is not None or self.checkpointer is not None
        ):
            checkpoint_interval = cost.termination_interval

        #: per worker: what its flush buffers hold, and the buffers
        sends = [state.send_side() for _ in range(num_workers)]
        buffers = [
            {
                target: self._make_buffer(sends[w], w, target)
                for target in range(num_workers)
                if target != w
            }
            for w in range(num_workers)
        ]
        #: per worker: delivered payloads not yet ingested (the drain
        #: rule: ``ingest`` before anything reads the pending column)
        inbox: list[list] = [[] for _ in range(num_workers)]
        #: per worker: the kernel half of its queued process event, run
        #: ahead with a lookahead window (``Kernel.window_local``)
        ahead: dict = {}
        #: per worker: how many buffers hold updates, and a lower bound on
        #: their last flush times -- None once unknown (a fill or a
        #: restore since the last full scan)
        held = [0] * num_workers
        oldest: list = [None] * num_workers
        busy_until = [0.0] * num_workers
        scheduled = [False] * num_workers
        inflight = 0
        progress_magnitude = 0.0
        progress_updates = 0

        # -- chaos state (all unused on the fault-free path) -------------------
        if chaos is not None:
            down = [False] * num_workers
            ledger = DeliveryLedger(num_workers, chaos, selective)
            retrans = [
                {target: RetransmitBuffer() for target in range(num_workers) if target != w}
                for w in range(num_workers)
            ]
            remaining_crashes = sorted(
                cluster.faults.crashes, key=lambda crash: crash.at
            )
        else:
            down = retrans = ledger = None
            remaining_crashes = []

        #: the event queue, ordered ``(time, seq)``: buffer timers -- the
        #: most numerous queued events (their chains overlap), and ones
        #: no window needs to see -- in a heap of their own, everything
        #: else in ``heap``
        heap: list = []
        timers: list = []
        sequence = itertools.count()

        def schedule(time: float, kind: str, data=None):
            heapq.heappush(
                timers if kind == "timer" else heap,
                (time, next(sequence), kind, data),
            )

        def schedule_worker(worker: int, time: float):
            if chaos is not None and down[worker]:
                return
            if not scheduled[worker]:
                scheduled[worker] = True
                schedule(max(time, busy_until[worker]), "process", worker)

        # -- transmission: the only way a payload crosses workers ---------------
        def transmit(worker: int, target: int, payload, send_time: float):
            nonlocal inflight
            counters.messages += 1
            counters.message_tuples += len(payload)
            if chaos is None:
                schedule(send_time + cost.message_latency, "deliver", (target, payload))
                inflight += 1
                return
            seq = ledger.stamp(worker, target)
            rbuffer = retrans[worker][target]
            rbuffer.track(seq, payload)
            schedule(send_time + rbuffer.timeout(1), "rto", (worker, target, seq, 1))
            launch(worker, target, seq, payload, send_time)

        def launch(sender: int, target: int, seq: int, payload, send_time: float):
            """One transmission attempt, with its injected fate."""
            nonlocal inflight
            if down[target] or chaos.drops(sender, target, send_time):
                chaos.record(
                    "dropped_messages",
                    t=send_time,
                    sender=sender,
                    target=target,
                    seq=seq,
                )
                return
            delay = cost.message_latency + chaos.extra_latency()
            schedule(send_time + delay, "deliver", (target, payload, sender, seq))
            inflight += 1
            if chaos.duplicates():
                chaos.record(
                    "duplicated_messages",
                    t=send_time,
                    sender=sender,
                    target=target,
                    seq=seq,
                )
                schedule(
                    send_time + delay + chaos.extra_latency(),
                    "deliver",
                    (target, payload, sender, seq),
                )
                inflight += 1

        for worker in range(num_workers):
            if shards[worker].has_pending():
                schedule_worker(worker, worker * 1e-6)
        schedule(cost.termination_interval, "master", None)
        if checkpoint_interval > 0:
            schedule(checkpoint_interval, "ckpt", None)
        for crash in remaining_crashes:
            schedule(crash.at, "crash", crash)

        tracker = TerminationTracker(self.termination)
        draw_transient = cluster.transient_stream(salt=3)
        prev_global: Optional[float] = None
        stop: Optional[str] = None
        now = 0.0
        last_activity = 0.0

        def ingest(worker: int) -> None:
            """Fold everything ``worker`` has received into its shard, in
            arrival order."""
            parked = inbox[worker]
            if parked:
                shards[worker].push_many(*parked)
                parked.clear()

        def ingest_all() -> None:
            for worker in range(num_workers):
                ingest(worker)

        def flush_buffer(worker: int, target: int, buffer, at: float, reason: str) -> float:
            """Flush one buffer at ``at`` and send its payload; returns
            the sender CPU the message cost."""
            payload = buffer.flush(at)
            buffer.observe_flush(at)
            if obs.enabled:
                obs.trace.emit(
                    "buffer.flush", t=at, worker=worker, target=target,
                    size=len(payload), reason=reason,
                )
                obs.metrics.inc("buffer.flushes", worker=worker)
                obs.metrics.observe("buffer.flush_size", len(payload))
            send_cpu = (
                cost.message_cpu_cost + len(payload) * cost.tuple_net_cost
            ) / speeds[worker]
            transmit(worker, target, payload, at + send_cpu)
            return send_cpu

        def flush_ready_buffers(worker: int, time: float) -> float:
            """Flush every buffer that is full or stale; returns new time.

            The scan is skipped while nothing can be due: after a full
            scan no held buffer is at ``beta`` until the next fill or
            restore, and none is stale while ``time - oldest < tau`` --
            float subtraction rounds monotonically, so no later last
            flush time passes ``should_flush`` either."""
            bound = oldest[worker]
            if bound is not None and time - bound < self.buffer_policy.tau:
                return time
            count = 0
            low = math.inf
            for target, buffer in buffers[worker].items():
                if buffer.pending_count:
                    if buffer.should_flush(time):
                        time += flush_buffer(worker, target, buffer, time, "ready")
                    else:
                        count += 1
                        if buffer.last_flush_time < low:
                            low = buffer.last_flush_time
            held[worker] = count
            oldest[worker] = low
            return time

        def schedule_timer_if_buffered(worker: int, time: float) -> None:
            if held[worker]:
                schedule(time + self.buffer_policy.tau, "timer", worker)

        #: what a window runs through besides timers (which only flush
        #: send buffers): events that touch no shard -- a fault-free
        #: delivery only parks a payload; under fault injection the
        #: ledger decides at its turn whether a delivery is admitted
        transparent = ("process",) if chaos is not None else ("process", "deliver")

        def open_window(worker: int, time: float) -> None:
            """Run the kernel half of ``worker``'s process event at
            ``time`` ahead, together with the first process event of every
            other worker that falls before ``time + message_latency`` and
            before the first event that touches a shard; each of those
            ingests the deliveries queued before it as well.

            Such an event is queued already, or -- for an idle worker --
            it is the one the first delivery to it will queue, at
            ``max(delivery, busy_until)`` and after every queued event of
            that instant."""
            horizon = time + cost.message_latency
            inboxes = {worker: inbox[worker]}
            limits = {worker: self._batch_limit(worker)}
            # (a window of one when the next event is past the horizon or
            # closes the window)
            if heap and heap[0][0] < horizon and heap[0][2] in transparent:
                #: per worker not in the window yet: the deliveries
                #: queued for it so far, and when an idle one's event is
                early: dict = {}
                wakes: dict = {}
                for at, _, kind, data in sorted([e for e in heap if e[0] < horizon]):
                    if kind not in transparent:
                        horizon = at
                        break
                    if kind == "deliver":
                        target, payload = data
                        if target not in inboxes and target not in ahead:
                            early.setdefault(target, []).append((at, payload))
                            if not scheduled[target] and target not in wakes:
                                wakes[target] = max(at, busy_until[target])
                    elif kind == "process" and data not in inboxes and data not in ahead:
                        if chaos is not None and down[data]:
                            continue
                        join(inboxes, limits, data, early.pop(data, []))
                for target, wake in wakes.items():
                    if wake < horizon:
                        join(inboxes, limits, target, [
                            (at, payload) for at, payload in early[target] if at <= wake
                        ])
            ahead.update(
                state.kernel_cls.window_local(
                    shards, inboxes, limits, self.importance_threshold, selective
                )
            )
            for member in inboxes:
                if inbox[member]:
                    inbox[member] = []

        def join(inboxes: dict, limits: dict, worker: int, delivered: list) -> None:
            """Add ``worker`` to a window: its inbox is what is parked
            plus the ``(time, payload)`` deliveries before its event."""
            payloads = [payload for _, payload in delivered]
            inboxes[worker] = inbox[worker] + payloads
            limits[worker] = self._batch_limit_after(worker, payloads)

        def handle_process(worker: int, time: float) -> None:
            nonlocal progress_magnitude, progress_updates
            scheduled[worker] = False
            if chaos is not None and down[worker]:
                return
            # the ingest, the batch and its round: selective aggregates
            # process best-first, additive ones in arrival order,
            # deferring deltas below the importance threshold (section
            # 5.4) while any larger one exists
            if worker not in ahead:
                open_window(worker, time)
            outcome = ahead.pop(worker)
            if outcome is None:
                return  # nothing pending
            taken, batch_result = outcome
            if not taken:
                # everything pending is below the importance threshold;
                # idle until new deliveries make some delta important --
                # but buffered remote updates must still age out.
                finish = flush_ready_buffers(worker, time)
                busy_until[worker] = finish
                schedule_timer_if_buffered(worker, finish)
                return
            # foreign contributions go to the send buffers; one that
            # fills is flushed mid-batch, at the instant its last update
            # was computed -- the size knob beta is exactly the
            # communication frequency the unified engine adapts
            # (section 5.3)
            send_cpu_total = 0.0
            if len(batch_result.out):
                oldest[worker] = None
                for target, buffer, ops_so_far in sends[worker].fill(
                    buffers[worker], batch_result.out, batch_result.offsets
                ):
                    moment = time + ops_so_far * cost.tuple_cost / speeds[worker]
                    send_cpu_total += flush_buffer(
                        worker, target, buffer, moment, "full"
                    )
            ops = batch_result.ops
            progress_magnitude += batch_result.magnitude
            progress_updates += batch_result.changed
            self._observe_processing(worker, taken)
            stretch = draw_transient()
            if chaos is not None:
                stretch *= chaos.slowdown(worker, time)
            compute = (
                ops * cost.tuple_cost * stretch / speeds[worker]
                + send_cpu_total
            )
            finish = flush_ready_buffers(worker, time + compute)

            busy_until[worker] = finish
            if shards[worker].has_pending():
                schedule_worker(worker, finish)
            else:
                schedule_timer_if_buffered(worker, finish)

        def handle_deliver(data, time: float) -> None:
            nonlocal inflight
            inflight -= 1
            if chaos is None:
                target, payload = data
            else:
                target, payload, sender, seq = data
                if down[target]:
                    # lost on a dead worker; the sender's rto re-sends it
                    chaos.record(
                        "dropped_messages", t=time, sender=sender, target=target, seq=seq
                    )
                    return
                # ack the delivery (acks can be lost too; the rto covers it)
                if chaos.drops(target, sender, time):
                    chaos.record(
                        "dropped_messages",
                        t=time,
                        sender=target,
                        target=sender,
                        seq=seq,
                        ack=True,
                    )
                else:
                    schedule(time + cost.message_latency, "ack", (sender, target, seq))
                if not ledger.admit(sender, target, seq, time):
                    return
            if target not in ahead:  # else its window ingested it already
                inbox[target].append(payload)
            self._observe_delivery(target, len(payload))
            schedule_worker(target, time)

        def handle_ack(data, time: float) -> None:
            sender, target, seq = data
            if down[sender]:
                return  # the sender's retransmit state died with it
            retrans[sender][target].ack(seq)
            if obs.enabled:
                obs.trace.emit("net.ack", t=time, sender=sender, target=target, seq=seq)

        def handle_rto(data, time: float) -> None:
            sender, target, seq, attempt = data
            if down[sender]:
                return
            rbuffer = retrans[sender][target]
            payload = rbuffer.get(seq)
            if payload is None:
                return  # acked in the meantime
            chaos.record(
                "retransmits", t=time, sender=sender, target=target, seq=seq,
                attempt=attempt,
            )
            launch(sender, target, seq, payload, time)
            next_timeout = rbuffer.timeout(attempt + 1)
            if obs.enabled:
                obs.trace.emit(
                    "net.backoff", t=time, sender=sender, target=target, seq=seq,
                    attempt=attempt + 1, timeout=next_timeout,
                )
            schedule(
                time + next_timeout,
                "rto",
                (sender, target, seq, attempt + 1),
            )

        # -- checkpoints and the two recovery strategies ------------------------
        latest_snapshot: list = [None]

        def take_snapshot() -> dict:
            ingest_all()
            return {
                "shards": [s.snapshot() for s in shards],
                "buffers": [
                    {t: b.snapshot() for t, b in worker_buffers.items()}
                    for worker_buffers in buffers
                ],
                "retrans": [
                    {t: dict(r.unacked) for t, r in worker_retrans.items()}
                    for worker_retrans in retrans
                ],
                "ledger": ledger.snapshot(),
                "progress": (progress_updates, progress_magnitude, prev_global),
            }

        if chaos is not None and rollback_recovery:
            latest_snapshot[0] = take_snapshot()

        def handle_ckpt(time: float) -> None:
            if chaos is not None and any(down):
                # a shard is a hole right now; try again next interval
                schedule(time + checkpoint_interval, "ckpt", None)
                return
            if self.checkpointer is not None:
                ingest_all()
                state.checkpoint(self.checkpointer, self.run_name)
                if obs.enabled:
                    obs.trace.emit("ckpt.write", t=time, run=self.run_name)
            if chaos is not None:
                if rollback_recovery:
                    latest_snapshot[0] = take_snapshot()
                chaos.record("checkpoints", t=time)
            schedule(time + checkpoint_interval, "ckpt", None)

        def handle_crash(crash, time: float) -> None:
            worker = crash.worker
            remaining_crashes.remove(crash)
            if down[worker]:
                return  # already dead; the scheduled crash is moot
            chaos.record("crashes", t=time, worker=worker)
            if rollback_recovery:
                rollback(time, crash.restart_after)
                return
            down[worker] = True
            scheduled[worker] = False
            busy_until[worker] = time
            # everything volatile dies: shard, send buffers, retransmit
            # state, dedup state (what it had received still counts as
            # combined: work counters are never rolled back)
            ingest(worker)
            for buffer in buffers[worker].values():
                buffer.flush(time)
            oldest[worker] = None
            for rbuffer in retrans[worker].values():
                rbuffer.clear()
            ledger.forget(worker)
            state.shards[worker] = state.blank_shard(worker)
            schedule(time + crash.restart_after, "restart", worker)

        def handle_restart(worker: int, time: float) -> None:
            """Local recovery: checkpoint (or ``C``) restore + Theorem-3 replay."""
            down[worker] = False
            restored_shard = state.recover_shard(
                self.checkpointer, self.run_name, worker, "async", obs
            )
            if obs.enabled:
                obs.trace.emit(
                    "ckpt.restore",
                    t=time,
                    run=self.run_name,
                    worker=worker,
                    restored=restored_shard,
                )
            chaos.record("recoveries", t=time, worker=worker)
            # every live worker re-derives the deltas that cross the
            # crashed worker's boundary from its *accumulated* column;
            # re-delivery is absorbed by g-combining (idempotent
            # aggregates only -- additive ones take the rollback path)
            live = [peer for peer in range(num_workers) if not down[peer]]
            replay_ops = dict.fromkeys(live, 0)
            #: per peer: its own contributions, and the foreign ones with
            #: their targets in first-occurrence (= transmission) order
            local: dict[int, list] = {peer: [] for peer in live}
            foreign: dict[int, list] = {peer: [] for peer in live}
            targets: dict[int, dict] = {peer: {} for peer in live}
            for peer, target, dst, contribution in state.replay(worker, live):
                replay_ops[peer] += 1
                if target == peer:
                    local[peer].append((dst, contribution))
                else:
                    foreign[peer].append((dst, contribution))
                    targets[peer][target] = None
            for peer in live:
                if local[peer]:
                    inbox[peer].append(local[peer])
                ops = replay_ops[peer]
                if ops:
                    chaos.record(
                        "replayed_tuples", t=time, n=ops, peer=peer, worker=worker
                    )
                    counters.fprime_applications += ops
                    send_time = (
                        max(time, busy_until[peer])
                        + ops * cost.tuple_cost / speeds[peer]
                    )
                    busy_until[peer] = send_time
                    # one message per target, outside the flush buffers
                    side = state.send_side()
                    side.fold(foreign[peer])
                    for target in targets[peer]:
                        transmit(peer, target, side.take(target), send_time)
                if shards[peer].has_pending() or inbox[peer]:
                    schedule_worker(peer, max(time, busy_until[peer]))

        def rollback(time: float, restart_after: float) -> None:
            """Coordinated recovery: every worker returns to the latest
            globally consistent snapshot; the clock keeps moving forward."""
            nonlocal inflight, progress_updates, progress_magnitude, prev_global
            chaos.record("recoveries", t=time)
            chaos.record("rollbacks", t=time)
            snap = latest_snapshot[0]
            resume = time + restart_after
            for w, shard_snap in enumerate(snap["shards"]):
                ingest(w)
                shards[w].restore(shard_snap)
            for w, snap_buffers in enumerate(snap["buffers"]):
                for t, buffer_snap in snap_buffers.items():
                    buffers[w][t].restore(buffer_snap)
                oldest[w] = None
            for w, snap_retrans in enumerate(snap["retrans"]):
                for t, unacked in snap_retrans.items():
                    retrans[w][t].unacked = dict(unacked)
            ledger.restore(snap["ledger"])
            progress_updates, progress_magnitude, prev_global = snap["progress"]
            # every queued event refers to pre-rollback state: wipe the
            # future and rebuild it from the restored state
            heap.clear()
            timers.clear()
            inflight = 0
            for w in range(num_workers):
                scheduled[w] = False
                busy_until[w] = resume
                down[w] = False
            for w in range(num_workers):
                for t, rbuffer in retrans[w].items():
                    for seq in rbuffer.unacked:
                        schedule(resume + rbuffer.timeout(1), "rto", (w, t, seq, 1))
                if shards[w].has_pending():
                    schedule_worker(w, resume)
                if any(b.pending_count for b in buffers[w].values()):
                    schedule(resume + self.buffer_policy.tau, "timer", w)
            for crash in remaining_crashes:
                schedule(max(crash.at, resume), "crash", crash)
            if checkpoint_interval > 0:
                schedule(resume + checkpoint_interval, "ckpt", None)
            schedule(resume + cost.termination_interval, "master", None)

        def handle_timer(worker: int, time: float) -> None:
            if chaos is not None and down[worker]:
                return
            finish = flush_ready_buffers(worker, time)
            schedule_timer_if_buffered(worker, finish)

        def net_quiet() -> bool:
            """No lost-but-unacked deltas and no dead workers."""
            if chaos is None:
                return True
            if any(down):
                return False
            return not any(
                rbuffer.pending
                for worker_retrans in retrans
                for rbuffer in worker_retrans.values()
            )

        def quiescent() -> bool:
            if inflight:
                return False
            if not net_quiet():
                return False
            if any(inbox) or any(shard.has_pending() for shard in shards):
                return False
            return not any(
                buffer.pending_count
                for worker_buffers in buffers
                for buffer in worker_buffers.values()
            )

        idle_checks = 0
        while (heap or timers) and stop is None:
            queue = heap if not timers or (heap and heap[0] < timers[0]) else timers
            now, _, kind, data = heapq.heappop(queue)
            if kind == "process":
                handle_process(data, now)
                last_activity = max(last_activity, busy_until[data])
            elif kind == "deliver":
                handle_deliver(data, now)
                last_activity = max(last_activity, now)
            elif kind == "timer":
                handle_timer(data, now)
            elif kind == "ack":
                handle_ack(data, now)
            elif kind == "rto":
                handle_rto(data, now)
            elif kind == "ckpt":
                handle_ckpt(now)
            elif kind == "crash":
                handle_crash(data, now)
                last_activity = max(last_activity, now)
            elif kind == "restart":
                handle_restart(data, now)
                last_activity = max(last_activity, now)
            elif kind == "master":
                if quiescent():
                    counters.iterations += 1
                    stop = "fixpoint"
                    break
                buffered = any(
                    buffer.pending_count
                    for worker_buffers in buffers
                    for buffer in worker_buffers.values()
                )
                # "idle" requires genuinely nothing in flight anywhere:
                # no messages travelling, no worker scheduled, no updates
                # sitting in a send buffer waiting for its timer, and --
                # under fault injection -- no unacked message awaiting a
                # retransmit and no crashed worker awaiting restart.
                all_idle = (
                    inflight == 0
                    and not any(scheduled)
                    and not buffered
                    and net_quiet()
                )
                if progress_updates == 0 and not all_idle:
                    # workers are mid-burst (or only deliveries landed):
                    # the accumulation column has not moved since the
                    # last check, so comparing two identical snapshots
                    # would fake convergence.  Wait for the clock to
                    # catch up with the busy workers.
                    idle_checks += 1
                    if idle_checks > self.termination.max_iterations:
                        stop = "iteration-limit"
                        break
                    schedule(now + cost.termination_interval, "master", None)
                    continue
                idle_checks = 0
                counters.iterations += 1
                tracker.record(progress_updates, progress_magnitude)
                if obs.enabled:
                    obs.trace.emit(
                        "engine.epoch",
                        t=now,
                        engine=self.engine_name,
                        round=counters.iterations,
                        changed=progress_updates,
                        delta=progress_magnitude,
                    )
                progress_updates = 0
                progress_magnitude = 0.0
                current_global = state.global_accumulation()
                epsilon_reached = (
                    self.termination.epsilon is not None
                    and prev_global is not None
                    and net_quiet()
                    and self.termination.epsilon_met(abs(current_global - prev_global))
                )
                if epsilon_reached or (
                    all_idle and self.termination.epsilon is not None
                ):
                    # either genuine convergence, or only sub-threshold
                    # deferred residue remains (section 5.4)
                    stop = "epsilon"
                    break
                prev_global = current_global
                if tracker.iterations >= self.termination.max_iterations:
                    stop = "iteration-limit"
                    break
                schedule(now + cost.termination_interval, "master", None)

        if stop is None:
            # the heap drained before a master event observed quiescence
            stop = "fixpoint" if quiescent() else "iteration-limit"
        # a fixpoint is reached when the last work event finishes, not when
        # the master's periodic check happens to observe it
        finished_at = last_activity if stop == "fixpoint" else now
        # a delivery counts as combined work whether or not its receiver
        # got to process again before the run stopped
        ingest_all()

        return state.finish(
            obs,
            stop_reason=stop,
            simulated_seconds=finished_at,
            engine=self.engine_name,
            trace=tracker.history,
            chaos=chaos,
        )
