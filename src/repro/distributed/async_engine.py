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

One :meth:`AsyncEngine.run` is one :class:`_AsyncRun`: the object holds
everything the run changes -- the event queue, the per-worker buffers,
inboxes and clocks, the progress since the last master check, the
fault machinery -- and has one method per event kind (``process``,
``deliver``, ``timer``, ``ack``, ``rto``, ``ckpt``, ``crash``,
``restart``, ``master``), dispatched from one table.  The engine object
keeps only its settings and the policy hooks (``_batch_limit``,
``_observe_delivery``, ...) through which the unified and AAP engines
differ; AAP's adaptive counts live on the run (``received``,
``processed``, ``limits``), so running one engine twice runs it the
same way twice.

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
from functools import partial
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
        #: the run in progress, which the hooks read
        self._run: Optional[_AsyncRun] = None

    # -- extension hooks --------------------------------------------------------
    def _make_buffer(self, side, worker: int, target: int):
        """The flush buffer ``worker`` keeps for ``target``, over the
        worker's send side."""
        policy = self.buffer_policy
        if policy.adaptive:
            on_adapt = (
                partial(self._trace_adapt, worker, target) if self.obs.enabled else None
            )
            return AdaptiveBuffer(policy, side, target, on_adapt)
        return FixedBuffer(policy.initial_beta, policy.tau, side, target)

    def _trace_adapt(self, worker: int, target: int, now, old, new, pace) -> None:
        """An adaptive buffer's ``on_adapt``: its ``beta`` moved."""
        obs = self.obs
        obs.trace.emit(
            "buffer.beta", t=now, worker=worker, target=target,
            old=old, new=new, pace=pace,
        )
        obs.metrics.gauge("buffer.beta", new, t=now, worker=worker, target=target)
        obs.metrics.inc("buffer.adaptations", worker=worker, target=target)

    def _batch_limit(self, worker: int) -> Optional[int]:
        """Per-worker batch size; AAP moves it (``_AsyncRun.limits``)."""
        return self._run.limits[worker]

    def _batch_limit_after(self, worker: int, delivered: list) -> Optional[int]:
        """``_batch_limit(worker)`` once the payloads ``delivered`` have
        reached it (``_observe_delivery``): what a worker's process event
        runs under when a lookahead window runs it ahead."""
        return self._batch_limit(worker)

    def _observe_delivery(self, worker: int, payload_size: int) -> None:
        """Hook: AAP's mode switching watches in-message volume."""

    def _observe_processing(self, worker: int, processed: int) -> None:
        """Hook: AAP's mode switching watches own progress."""

    def run(self) -> EvalResult:
        self._run = _AsyncRun(self)
        try:
            return self._run.execute()
        finally:
            # no engine <-> run cycle: the run's state is freed on return
            self._run = None


class _AsyncRun:
    """The state of one :meth:`AsyncEngine.run` and its event handlers.

    Every handler takes the event's ``(data, time)``; only ``master``
    returns anything, the reason the run stops (or ``None``)."""

    #: the kinds of queued event, each the name of its handler
    EVENT_KINDS = (
        "process", "deliver", "timer", "ack", "rto", "ckpt", "crash", "restart", "master",
    )

    def __init__(self, engine: AsyncEngine):
        self.engine = engine
        plan = engine.plan
        cluster = engine.cluster
        self.cost = cost = cluster.cost
        self.obs = obs = engine.obs
        self.num_workers = num_workers = cluster.num_workers
        self.state = state = ShardedRun(plan, cluster, backend=engine.backend)
        state.resume_or_seed(engine.checkpointer, engine.run_name, "async", obs)
        self.counters = state.counters
        self.shards = shards = state.shards
        self.speeds = state.speeds
        self.selective = plan.aggregate.is_idempotent
        self.tau = engine.buffer_policy.tau

        self.chaos = chaos = injector_for(cluster, obs)
        # one-shard restore + Theorem-3 replay is sound for idempotent
        # aggregates only; additive ones roll every worker back
        self.rollback_recovery = not self.selective
        checkpoint_interval = engine.checkpoint_interval
        if checkpoint_interval <= 0 and (
            chaos is not None or engine.checkpointer is not None
        ):
            checkpoint_interval = cost.termination_interval
        self.checkpoint_interval = checkpoint_interval

        #: per worker: what its flush buffers hold, and the buffers
        self.sends = [state.send_side() for _ in range(num_workers)]
        self.buffers = [
            {
                target: engine._make_buffer(self.sends[w], w, target)
                for target in range(num_workers)
                if target != w
            }
            for w in range(num_workers)
        ]
        #: per worker: delivered payloads not yet ingested (the drain
        #: rule: ``ingest`` before anything reads the pending column)
        self.inbox: list[list] = [[] for _ in range(num_workers)]
        #: per worker: the kernel half of its queued process event, run
        #: ahead with a lookahead window (``Kernel.window_local``)
        self.ahead: dict = {}
        #: per worker: how many buffers hold updates, and a lower bound on
        #: their last flush times -- None once unknown (a fill or a
        #: restore since the last full scan)
        self.held = [0] * num_workers
        self.oldest: list = [None] * num_workers
        self.busy_until = [0.0] * num_workers
        self.scheduled = [False] * num_workers
        #: per worker: its batch limit, the tuples delivered to it and the
        #: keys it processed (what AAP's mode switch reads and moves)
        self.limits = [engine.batch_size] * num_workers
        self.received = [0] * num_workers
        self.processed = [0] * num_workers
        self.inflight = 0
        self.progress_magnitude = 0.0
        self.progress_updates = 0
        #: crashed and not yet restarted (never set on a fault-free run)
        self.down = [False] * num_workers

        # -- fault machinery (a fault-free run keeps no retransmit state) ----
        if chaos is not None:
            self.ledger = DeliveryLedger(num_workers, chaos, self.selective)
            self.retrans = [
                {target: RetransmitBuffer() for target in range(num_workers) if target != w}
                for w in range(num_workers)
            ]
            self.remaining_crashes = sorted(
                cluster.faults.crashes, key=lambda crash: crash.at
            )
        else:
            self.ledger = None
            self.retrans = [{} for _ in range(num_workers)]
            self.remaining_crashes = []

        #: the event queue, ordered ``(time, seq)``: buffer timers -- the
        #: most numerous queued events (their chains overlap), and ones
        #: no window needs to see -- in a heap of their own, everything
        #: else in ``heap``
        self.heap: list = []
        self.timers: list = []
        self.sequence = itertools.count()
        #: what a window runs through besides timers (which only flush
        #: send buffers): events that touch no shard -- a fault-free
        #: delivery only parks a payload; under fault injection the
        #: ledger decides at its turn whether a delivery is admitted
        self.transparent = ("process",) if chaos is not None else ("process", "deliver")

        for worker in range(num_workers):
            if shards[worker].has_pending():
                self.schedule_worker(worker, worker * 1e-6)
        self.schedule(cost.termination_interval, "master", None)
        if checkpoint_interval > 0:
            self.schedule(checkpoint_interval, "ckpt", None)
        for crash in self.remaining_crashes:
            self.schedule(crash.at, "crash", crash)

        self.tracker = TerminationTracker(engine.termination)
        self.draw_transient = cluster.transient_stream(salt=3)
        self.prev_global: Optional[float] = None
        self.last_activity = 0.0
        #: master checks in a row that found the workers mid-burst
        self.idle_checks = 0
        #: the latest globally consistent state (rollback recovery only)
        self.snapshot = (
            self.take_snapshot() if chaos is not None and self.rollback_recovery else None
        )

    # -- the event loop ---------------------------------------------------------
    def execute(self) -> EvalResult:
        handlers = {kind: getattr(self, kind) for kind in self.EVENT_KINDS}
        heap, timers = self.heap, self.timers
        heappop = heapq.heappop
        stop: Optional[str] = None
        now = 0.0
        while (heap or timers) and stop is None:
            queue = heap if not timers or (heap and heap[0] < timers[0]) else timers
            now, _, kind, data = heappop(queue)
            stop = handlers[kind](data, now)

        if stop is None:
            # the heap drained before a master event observed quiescence
            stop = "fixpoint" if self.quiescent(self.buffered()) else "iteration-limit"
        # a fixpoint is reached when the last work event finishes, not when
        # the master's periodic check happens to observe it
        finished_at = self.last_activity if stop == "fixpoint" else now
        # a delivery counts as combined work whether or not its receiver
        # got to process again before the run stopped
        self.ingest_all()

        return self.state.finish(
            self.obs,
            stop_reason=stop,
            simulated_seconds=finished_at,
            engine=self.engine.engine_name,
            trace=self.tracker.history,
            chaos=self.chaos,
        )

    def schedule(self, time: float, kind: str, data=None) -> None:
        heapq.heappush(
            self.timers if kind == "timer" else self.heap,
            (time, next(self.sequence), kind, data),
        )

    def schedule_worker(self, worker: int, time: float) -> None:
        if self.down[worker]:
            return
        scheduled = self.scheduled
        if not scheduled[worker]:
            scheduled[worker] = True
            self.schedule(max(time, self.busy_until[worker]), "process", worker)

    # -- transmission: the only way a payload crosses workers -------------------
    def transmit(self, worker: int, target: int, payload, send_time: float) -> None:
        counters = self.counters
        counters.messages += 1
        counters.message_tuples += len(payload)
        if self.chaos is None:
            self.schedule(send_time + self.cost.message_latency, "deliver", (target, payload))
            self.inflight += 1
            return
        seq = self.ledger.stamp(worker, target)
        rbuffer = self.retrans[worker][target]
        rbuffer.track(seq, payload)
        self.schedule(send_time + rbuffer.timeout(1), "rto", (worker, target, seq, 1))
        self.launch(worker, target, seq, payload, send_time)

    def launch(self, sender: int, target: int, seq: int, payload, send_time: float) -> None:
        """One transmission attempt, with its injected fate."""
        chaos = self.chaos
        if self.down[target] or chaos.drops(sender, target, send_time):
            chaos.record(
                "dropped_messages", t=send_time, sender=sender, target=target, seq=seq
            )
            return
        delay = self.cost.message_latency + chaos.extra_latency()
        self.schedule(send_time + delay, "deliver", (target, payload, sender, seq))
        self.inflight += 1
        if chaos.duplicates():
            chaos.record(
                "duplicated_messages", t=send_time, sender=sender, target=target, seq=seq
            )
            self.schedule(
                send_time + delay + chaos.extra_latency(), "deliver",
                (target, payload, sender, seq),
            )
            self.inflight += 1

    def ingest(self, worker: int) -> None:
        """Fold everything ``worker`` has received into its shard, in
        arrival order."""
        parked = self.inbox[worker]
        if parked:
            self.shards[worker].push_many(*parked)
            parked.clear()

    def ingest_all(self) -> None:
        for worker in range(self.num_workers):
            self.ingest(worker)

    def flush_buffer(self, worker: int, target: int, buffer, at: float, reason: str) -> float:
        """Flush one buffer at ``at`` and send its payload; returns
        the sender CPU the message cost."""
        payload = buffer.flush(at)
        buffer.observe_flush(at)
        obs = self.obs
        if obs.enabled:
            obs.trace.emit(
                "buffer.flush", t=at, worker=worker, target=target,
                size=len(payload), reason=reason,
            )
            obs.metrics.inc("buffer.flushes", worker=worker)
            obs.metrics.observe("buffer.flush_size", len(payload))
        cost = self.cost
        send_cpu = (
            cost.message_cpu_cost + len(payload) * cost.tuple_net_cost
        ) / self.speeds[worker]
        self.transmit(worker, target, payload, at + send_cpu)
        return send_cpu

    def flush_ready_buffers(self, worker: int, time: float) -> float:
        """Flush every buffer that is full or stale; returns new time.

        The scan is skipped while nothing can be due: after a full
        scan no held buffer is at ``beta`` until the next fill or
        restore, and none is stale while ``time - oldest < tau`` --
        float subtraction rounds monotonically, so no later last
        flush time passes ``should_flush`` either."""
        bound = self.oldest[worker]
        if bound is not None and time - bound < self.tau:
            return time
        count = 0
        low = math.inf
        for target, buffer in self.buffers[worker].items():
            if buffer.pending_count:
                if buffer.should_flush(time):
                    time += self.flush_buffer(worker, target, buffer, time, "ready")
                else:
                    count += 1
                    if buffer.last_flush_time < low:
                        low = buffer.last_flush_time
        self.held[worker] = count
        self.oldest[worker] = low
        return time

    def schedule_timer_if_buffered(self, worker: int, time: float) -> None:
        if self.held[worker]:
            self.schedule(time + self.tau, "timer", worker)

    def buffered(self) -> bool:
        """Whether any send buffer holds updates."""
        return any(
            buffer.pending_count
            for worker_buffers in self.buffers
            for buffer in worker_buffers.values()
        )

    # -- lookahead windows ------------------------------------------------------
    def open_window(self, worker: int, time: float) -> None:
        """Run the kernel half of ``worker``'s process event at
        ``time`` ahead, together with the first process event of every
        other worker that falls before ``time + message_latency`` and
        before the first event that touches a shard; each of those
        ingests the deliveries queued before it as well.

        Such an event is queued already, or -- for an idle worker --
        it is the one the first delivery to it will queue, at
        ``max(delivery, busy_until)`` and after every queued event of
        that instant."""
        heap, ahead, inbox = self.heap, self.ahead, self.inbox
        transparent = self.transparent
        horizon = time + self.cost.message_latency
        inboxes = {worker: inbox[worker]}
        limits = {worker: self.engine._batch_limit(worker)}
        # (a window of one when the next event is past the horizon or
        # closes the window)
        if heap and heap[0][0] < horizon and heap[0][2] in transparent:
            scheduled, busy_until, down = self.scheduled, self.busy_until, self.down
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
                    if down[data]:
                        continue
                    self.join(inboxes, limits, data, early.pop(data, []))
            for target, wake in wakes.items():
                if wake < horizon:
                    self.join(inboxes, limits, target, [
                        (at, payload) for at, payload in early[target] if at <= wake
                    ])
        ahead.update(
            self.state.kernel_cls.window_local(
                self.shards, inboxes, limits, self.engine.importance_threshold,
                self.selective,
            )
        )
        for member in inboxes:
            if inbox[member]:
                inbox[member] = []

    def join(self, inboxes: dict, limits: dict, worker: int, delivered: list) -> None:
        """Add ``worker`` to a window: its inbox is what is parked
        plus the ``(time, payload)`` deliveries before its event."""
        payloads = [payload for _, payload in delivered]
        inboxes[worker] = self.inbox[worker] + payloads
        limits[worker] = self.engine._batch_limit_after(worker, payloads)

    # -- the event handlers -----------------------------------------------------
    def process(self, worker: int, time: float) -> None:
        self.scheduled[worker] = False
        if not self.down[worker]:
            self.run_batch(worker, time)
        self.last_activity = max(self.last_activity, self.busy_until[worker])

    def run_batch(self, worker: int, time: float) -> None:
        # the ingest, the batch and its round: selective aggregates
        # process best-first, additive ones in arrival order,
        # deferring deltas below the importance threshold (section
        # 5.4) while any larger one exists
        ahead = self.ahead
        if worker not in ahead:
            self.open_window(worker, time)
        outcome = ahead.pop(worker)
        if outcome is None:
            return  # nothing pending
        taken, batch_result = outcome
        if not taken:
            # everything pending is below the importance threshold;
            # idle until new deliveries make some delta important --
            # but buffered remote updates must still age out.
            finish = self.flush_ready_buffers(worker, time)
            self.busy_until[worker] = finish
            self.schedule_timer_if_buffered(worker, finish)
            return
        # foreign contributions go to the send buffers; one that
        # fills is flushed mid-batch, at the instant its last update
        # was computed -- the size knob beta is exactly the
        # communication frequency the unified engine adapts
        # (section 5.3)
        cost = self.cost
        speed = self.speeds[worker]
        send_cpu_total = 0.0
        if len(batch_result.out):
            self.oldest[worker] = None
            for target, buffer, ops_so_far in self.sends[worker].fill(
                self.buffers[worker], batch_result.out, batch_result.offsets
            ):
                moment = time + ops_so_far * cost.tuple_cost / speed
                send_cpu_total += self.flush_buffer(worker, target, buffer, moment, "full")
        self.progress_magnitude += batch_result.magnitude
        self.progress_updates += batch_result.changed
        self.processed[worker] += taken
        self.engine._observe_processing(worker, taken)
        stretch = self.draw_transient()
        if self.chaos is not None:
            stretch *= self.chaos.slowdown(worker, time)
        compute = batch_result.ops * cost.tuple_cost * stretch / speed + send_cpu_total
        finish = self.flush_ready_buffers(worker, time + compute)

        self.busy_until[worker] = finish
        if self.shards[worker].has_pending():
            self.schedule_worker(worker, finish)
        else:
            self.schedule_timer_if_buffered(worker, finish)

    def deliver(self, data, time: float) -> None:
        self.last_activity = max(self.last_activity, time)
        self.inflight -= 1
        chaos = self.chaos
        if chaos is None:
            target, payload = data
        else:
            target, payload, sender, seq = data
            if self.down[target]:
                # lost on a dead worker; the sender's rto re-sends it
                chaos.record(
                    "dropped_messages", t=time, sender=sender, target=target, seq=seq
                )
                return
            # ack the delivery (acks can be lost too; the rto covers it)
            if chaos.drops(target, sender, time):
                chaos.record(
                    "dropped_messages", t=time, sender=target, target=sender, seq=seq,
                    ack=True,
                )
            else:
                self.schedule(time + self.cost.message_latency, "ack", (sender, target, seq))
            if not self.ledger.admit(sender, target, seq, time):
                return
        if target not in self.ahead:  # else its window ingested it already
            self.inbox[target].append(payload)
        size = len(payload)
        self.received[target] += size
        self.engine._observe_delivery(target, size)
        self.schedule_worker(target, time)

    def timer(self, worker: int, time: float) -> None:
        if self.down[worker]:
            return
        finish = self.flush_ready_buffers(worker, time)
        self.schedule_timer_if_buffered(worker, finish)

    def ack(self, data, time: float) -> None:
        sender, target, seq = data
        if self.down[sender]:
            return  # the sender's retransmit state died with it
        self.retrans[sender][target].ack(seq)
        if self.obs.enabled:
            self.obs.trace.emit("net.ack", t=time, sender=sender, target=target, seq=seq)

    def rto(self, data, time: float) -> None:
        sender, target, seq, attempt = data
        if self.down[sender]:
            return
        rbuffer = self.retrans[sender][target]
        payload = rbuffer.get(seq)
        if payload is None:
            return  # acked in the meantime
        self.chaos.record(
            "retransmits", t=time, sender=sender, target=target, seq=seq,
            attempt=attempt,
        )
        self.launch(sender, target, seq, payload, time)
        next_timeout = rbuffer.timeout(attempt + 1)
        if self.obs.enabled:
            self.obs.trace.emit(
                "net.backoff", t=time, sender=sender, target=target, seq=seq,
                attempt=attempt + 1, timeout=next_timeout,
            )
        self.schedule(time + next_timeout, "rto", (sender, target, seq, attempt + 1))

    # -- checkpoints and the two recovery strategies ----------------------------
    def take_snapshot(self) -> dict:
        self.ingest_all()
        return {
            "shards": [s.snapshot() for s in self.shards],
            "buffers": [
                {t: b.snapshot() for t, b in worker_buffers.items()}
                for worker_buffers in self.buffers
            ],
            "retrans": [
                {t: dict(r.unacked) for t, r in worker_retrans.items()}
                for worker_retrans in self.retrans
            ],
            "ledger": self.ledger.snapshot(),
            "progress": (self.progress_updates, self.progress_magnitude, self.prev_global),
        }

    def ckpt(self, _data, time: float) -> None:
        if any(self.down):
            # a shard is a hole right now; try again next interval
            self.schedule(time + self.checkpoint_interval, "ckpt", None)
            return
        engine, obs = self.engine, self.obs
        if engine.checkpointer is not None:
            self.ingest_all()
            self.state.checkpoint(engine.checkpointer, engine.run_name)
            if obs.enabled:
                obs.trace.emit("ckpt.write", t=time, run=engine.run_name)
        if self.chaos is not None:
            if self.rollback_recovery:
                self.snapshot = self.take_snapshot()
            self.chaos.record("checkpoints", t=time)
        self.schedule(time + self.checkpoint_interval, "ckpt", None)

    def crash(self, crash, time: float) -> None:
        self.last_activity = max(self.last_activity, time)
        worker = crash.worker
        self.remaining_crashes.remove(crash)
        if self.down[worker]:
            return  # already dead; the scheduled crash is moot
        self.chaos.record("crashes", t=time, worker=worker)
        if self.rollback_recovery:
            self.rollback(time, crash.restart_after)
            return
        self.down[worker] = True
        self.scheduled[worker] = False
        self.busy_until[worker] = time
        # everything volatile dies: shard, send buffers, retransmit
        # state, dedup state (what it had received still counts as
        # combined: work counters are never rolled back)
        self.ingest(worker)
        for buffer in self.buffers[worker].values():
            buffer.flush(time)
        self.oldest[worker] = None
        for rbuffer in self.retrans[worker].values():
            rbuffer.clear()
        self.ledger.forget(worker)
        self.state.shards[worker] = self.state.blank_shard(worker)
        self.schedule(time + crash.restart_after, "restart", worker)

    def restart(self, worker: int, time: float) -> None:
        """Local recovery: checkpoint (or ``C``) restore + Theorem-3 replay."""
        self.last_activity = max(self.last_activity, time)
        engine, obs, chaos, state = self.engine, self.obs, self.chaos, self.state
        cost, speeds, busy_until = self.cost, self.speeds, self.busy_until
        down = self.down
        down[worker] = False
        restored_shard = state.recover_shard(
            engine.checkpointer, engine.run_name, worker, "async", obs
        )
        if obs.enabled:
            obs.trace.emit(
                "ckpt.restore", t=time, run=engine.run_name, worker=worker,
                restored=restored_shard,
            )
        chaos.record("recoveries", t=time, worker=worker)
        # every live worker re-derives the deltas that cross the
        # crashed worker's boundary from its *accumulated* column;
        # re-delivery is absorbed by g-combining (idempotent
        # aggregates only -- additive ones take the rollback path)
        live = [peer for peer in range(self.num_workers) if not down[peer]]
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
                self.inbox[peer].append(local[peer])
            ops = replay_ops[peer]
            if ops:
                chaos.record("replayed_tuples", t=time, n=ops, peer=peer, worker=worker)
                self.counters.fprime_applications += ops
                send_time = max(time, busy_until[peer]) + ops * cost.tuple_cost / speeds[peer]
                busy_until[peer] = send_time
                # one message per target, outside the flush buffers
                side = state.send_side()
                side.fold(foreign[peer])
                for target in targets[peer]:
                    self.transmit(peer, target, side.take(target), send_time)
            if self.shards[peer].has_pending() or self.inbox[peer]:
                self.schedule_worker(peer, max(time, busy_until[peer]))

    def rollback(self, time: float, restart_after: float) -> None:
        """Coordinated recovery: every worker returns to the latest
        globally consistent snapshot; the clock keeps moving forward."""
        chaos, buffers, retrans = self.chaos, self.buffers, self.retrans
        chaos.record("recoveries", t=time)
        chaos.record("rollbacks", t=time)
        snap = self.snapshot
        resume = time + restart_after
        for w, shard_snap in enumerate(snap["shards"]):
            self.ingest(w)
            self.shards[w].restore(shard_snap)
        for w, snap_buffers in enumerate(snap["buffers"]):
            for t, buffer_snap in snap_buffers.items():
                buffers[w][t].restore(buffer_snap)
            self.oldest[w] = None
        for w, snap_retrans in enumerate(snap["retrans"]):
            for t, unacked in snap_retrans.items():
                retrans[w][t].unacked = dict(unacked)
        self.ledger.restore(snap["ledger"])
        self.progress_updates, self.progress_magnitude, self.prev_global = snap["progress"]
        # every queued event refers to pre-rollback state: wipe the
        # future and rebuild it from the restored state
        self.heap.clear()
        self.timers.clear()
        self.inflight = 0
        for w in range(self.num_workers):
            self.scheduled[w] = False
            self.busy_until[w] = resume
            self.down[w] = False
        for w in range(self.num_workers):
            for t, rbuffer in retrans[w].items():
                for seq in rbuffer.unacked:
                    self.schedule(resume + rbuffer.timeout(1), "rto", (w, t, seq, 1))
            if self.shards[w].has_pending():
                self.schedule_worker(w, resume)
            if any(b.pending_count for b in buffers[w].values()):
                self.schedule(resume + self.tau, "timer", w)
        for crash in self.remaining_crashes:
            self.schedule(max(crash.at, resume), "crash", crash)
        if self.checkpoint_interval > 0:
            self.schedule(resume + self.checkpoint_interval, "ckpt", None)
        self.schedule(resume + self.cost.termination_interval, "master", None)

    # -- termination --------------------------------------------------------------
    def net_quiet(self) -> bool:
        """No lost-but-unacked deltas and no dead workers."""
        if any(self.down):
            return False
        return not any(
            rbuffer.pending
            for worker_retrans in self.retrans
            for rbuffer in worker_retrans.values()
        )

    def quiescent(self, buffered: bool) -> bool:
        """Nothing left to do anywhere; ``buffered`` is :meth:`buffered`."""
        if self.inflight:
            return False
        if not self.net_quiet():
            return False
        if any(self.inbox) or any(shard.has_pending() for shard in self.shards):
            return False
        return not buffered

    def master(self, _data, time: float) -> Optional[str]:
        counters, termination = self.counters, self.engine.termination
        buffered = self.buffered()
        if self.quiescent(buffered):
            counters.iterations += 1
            return "fixpoint"
        # "idle" requires genuinely nothing in flight anywhere:
        # no messages travelling, no worker scheduled, no updates
        # sitting in a send buffer waiting for its timer, and --
        # under fault injection -- no unacked message awaiting a
        # retransmit and no crashed worker awaiting restart.
        all_idle = (
            self.inflight == 0
            and not any(self.scheduled)
            and not buffered
            and self.net_quiet()
        )
        interval = self.cost.termination_interval
        if self.progress_updates == 0 and not all_idle:
            # workers are mid-burst (or only deliveries landed):
            # the accumulation column has not moved since the
            # last check, so comparing two identical snapshots
            # would fake convergence.  Wait for the clock to
            # catch up with the busy workers.
            self.idle_checks += 1
            if self.idle_checks > termination.max_iterations:
                return "iteration-limit"
            self.schedule(time + interval, "master", None)
            return None
        self.idle_checks = 0
        counters.iterations += 1
        self.tracker.record(self.progress_updates, self.progress_magnitude)
        if self.obs.enabled:
            self.obs.trace.emit(
                "engine.epoch", t=time, engine=self.engine.engine_name,
                round=counters.iterations, changed=self.progress_updates,
                delta=self.progress_magnitude,
            )
        self.progress_updates = 0
        self.progress_magnitude = 0.0
        current_global = self.state.global_accumulation()
        prev_global = self.prev_global
        epsilon_reached = (
            termination.epsilon is not None
            and prev_global is not None
            and self.net_quiet()
            and termination.epsilon_met(abs(current_global - prev_global))
        )
        if epsilon_reached or (all_idle and termination.epsilon is not None):
            # either genuine convergence, or only sub-threshold
            # deferred residue remains (section 5.4)
            return "epsilon"
        self.prev_global = current_global
        if self.tracker.iterations >= termination.max_iterations:
            return "iteration-limit"
        self.schedule(time + interval, "master", None)
        return None
