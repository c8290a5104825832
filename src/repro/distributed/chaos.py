"""Deterministic fault injection for the distributed engines.

The discrete-event simulators in :mod:`repro.distributed` make failure a
first-class, *testable* input: a :class:`FaultSchedule` hung off
:class:`~repro.distributed.cluster.ClusterConfig` describes worker
crashes, message drops/duplications/reordering, straggler slowdowns and
transient network partitions, all driven by one seeded RNG so a chaotic
run is exactly reproducible.

The recovery machinery that survives the injected faults lives in the
engines themselves (ack/timeout/retransmit on top of
:class:`~repro.distributed.buffers.RetransmitBuffer`, checkpoint restore
and delta replay); this module decides *what* goes wrong and *when*,
counts what happened so :class:`~repro.engine.result.EvalResult` can
report the overhead, and keeps the one exactly-once rule both engines
deliver by (:class:`DeliveryLedger`).

Why the injected faults are survivable at all is Theorem 3 of the paper:
every delta flows through the aggregate's ``g``, so re-derived or
re-delivered deltas are absorbed for idempotent aggregates (min/max),
while non-idempotent ones (sum/count) additionally need exactly-once
delivery (sequence numbers) and globally consistent restore points.
DESIGN.md ("Fault model and recovery guarantees") maps each fault class
to the condition that makes it recoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import ensure_obs


@dataclass(frozen=True)
class WorkerCrash:
    """Crash worker ``worker`` at simulated time ``at``; restart later.

    The crash loses everything volatile on the worker: its MonoTable
    shard, its send buffers, its retransmit state and its dedup state.
    ``restart_after`` simulated seconds later the worker comes back and
    recovery runs (checkpoint restore + replay, or a coordinated
    rollback, depending on the aggregate class).
    """

    worker: int
    at: float
    restart_after: float = 0.02


@dataclass(frozen=True)
class Straggler:
    """Worker ``worker`` computes ``factor`` times slower in a window."""

    worker: int
    factor: float
    start: float = 0.0
    end: float = math.inf


@dataclass(frozen=True)
class Partition:
    """Messages between workers ``a`` and ``b`` are lost in a window.

    Both directions drop; the retransmit path re-delivers once the
    window closes, so a partition behaves like a burst of correlated
    message loss.
    """

    a: int
    b: int
    start: float
    end: float


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that will go wrong during one simulated run."""

    #: scheduled worker crashes (each must restart; a permanent crash
    #: cannot converge and is rejected by :meth:`validate`)
    crashes: tuple = ()
    #: i.i.d. probability that any message transmission is lost
    drop_rate: float = 0.0
    #: i.i.d. probability that a delivered message arrives twice
    duplicate_rate: float = 0.0
    #: extra uniform(0, jitter) seconds of delivery latency, enough to
    #: reorder messages that left a worker back to back
    reorder_jitter: float = 0.0
    stragglers: tuple = ()
    partitions: tuple = ()
    #: seed of the injector's RNG; the same schedule + seed + program
    #: reproduces the identical chaotic execution
    seed: int = 7

    def is_null(self) -> bool:
        """True when the schedule injects nothing at all."""
        return (
            not self.crashes
            and not self.stragglers
            and not self.partitions
            and self.drop_rate <= 0
            and self.duplicate_rate <= 0
            and self.reorder_jitter <= 0
        )

    def validate(self, num_workers: int) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1), got {self.duplicate_rate}"
            )
        for crash in self.crashes:
            if not 0 <= crash.worker < num_workers:
                raise ValueError(
                    f"crash worker {crash.worker} outside 0..{num_workers - 1}"
                )
            if crash.restart_after <= 0:
                raise ValueError(
                    "crashes must restart (restart_after > 0): a permanently "
                    "dead worker cannot reach the fixpoint"
                )
        for straggler in self.stragglers:
            if straggler.factor < 1.0:
                raise ValueError("straggler factor must be >= 1")
            if not 0 <= straggler.worker < num_workers:
                raise ValueError(f"straggler worker {straggler.worker} out of range")
        for partition in self.partitions:
            if partition.a == partition.b:
                raise ValueError("a partition needs two distinct workers")
            for endpoint in (partition.a, partition.b):
                if not 0 <= endpoint < num_workers:
                    raise ValueError(f"partition worker {endpoint} out of range")

    def describe(self) -> str:
        parts = []
        if self.crashes:
            parts.append(
                "crashes=["
                + ", ".join(f"w{c.worker}@{c.at:.3g}s" for c in self.crashes)
                + "]"
            )
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:.1%}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:.1%}")
        if self.reorder_jitter:
            parts.append(f"jitter={self.reorder_jitter:.3g}s")
        if self.stragglers:
            parts.append(
                "stragglers=["
                + ", ".join(f"w{s.worker}x{s.factor:g}" for s in self.stragglers)
                + "]"
            )
        if self.partitions:
            parts.append(
                "partitions=["
                + ", ".join(
                    f"w{p.a}|w{p.b}@[{p.start:.3g},{p.end:.3g})"
                    for p in self.partitions
                )
                + "]"
            )
        parts.append(f"seed={self.seed}")
        return "FaultSchedule(" + ", ".join(parts) + ")"


@dataclass
class FaultStats:
    """What the injector did and what recovery cost, per run.

    Attached to :class:`~repro.engine.result.EvalResult` as ``faults`` so
    benchmarks can chart fault-tolerance overhead next to the usual work
    counters.
    """

    #: worker crashes actually fired
    crashes: int = 0
    #: completed recoveries (checkpoint restore + replay, or rollback)
    recoveries: int = 0
    #: coordinated global rollbacks (non-idempotent aggregates)
    rollbacks: int = 0
    #: transmissions lost (random drops, partitions, down receivers)
    dropped_messages: int = 0
    #: deliberate duplicate deliveries injected
    duplicated_messages: int = 0
    #: duplicate deliveries absorbed (sequence dedup or g-combining)
    duplicates_absorbed: int = 0
    #: ack-timeout retransmissions
    retransmits: int = 0
    #: deltas re-derived during crash recovery replay
    replayed_tuples: int = 0
    #: deliveries that drew extra reordering latency
    reordered_messages: int = 0
    #: checkpoints/snapshots taken while faults were active
    checkpoints: int = 0

    def snapshot(self) -> dict:
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "rollbacks": self.rollbacks,
            "dropped_messages": self.dropped_messages,
            "duplicated_messages": self.duplicated_messages,
            "duplicates_absorbed": self.duplicates_absorbed,
            "retransmits": self.retransmits,
            "replayed_tuples": self.replayed_tuples,
            "reordered_messages": self.reordered_messages,
            "checkpoints": self.checkpoints,
        }

    def __repr__(self):
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"FaultStats({fields or 'clean'})"


class FaultInjector:
    """Seeded source of fault decisions for one engine run.

    All randomness comes from one ``numpy`` generator consumed in event
    order, so a deterministic event loop plus a fixed schedule yields a
    bit-identical chaotic execution.

    When an :class:`~repro.obs.Observability` handle is attached, every
    :class:`FaultStats` increment flows through :meth:`record`, which
    bumps the counter *and* emits the matching ``fault.<counter>`` trace
    event in one call -- the invariant behind
    :func:`repro.obs.aggregate_fault_events` matching
    ``FaultStats.snapshot()`` exactly.
    """

    def __init__(self, schedule: FaultSchedule, num_workers: int, obs=None):
        schedule.validate(num_workers)
        self.schedule = schedule
        self.num_workers = num_workers
        self._rng = np.random.default_rng(schedule.seed)
        self.stats = FaultStats()
        self.obs = ensure_obs(obs)

    def record(self, name: str, t=None, n: int = 1, **fields) -> None:
        """Increment ``stats.<name>`` by ``n`` and trace the injection.

        ``t`` is the simulated time when the caller knows it (engines
        always do; the injector's own draws sometimes don't).
        """
        setattr(self.stats, name, getattr(self.stats, name) + n)
        if self.obs.enabled:
            self.obs.trace.emit(f"fault.{name}", t=t, n=n, **fields)

    # -- network fates ---------------------------------------------------------
    def partitioned(self, a: int, b: int, now: float) -> bool:
        for partition in self.schedule.partitions:
            if partition.start <= now < partition.end and {a, b} == {
                partition.a,
                partition.b,
            }:
                return True
        return False

    def drops(self, sender: int, target: int, now: float) -> bool:
        """Is this transmission lost (random drop or active partition)?"""
        if self.partitioned(sender, target, now):
            return True
        rate = self.schedule.drop_rate
        return rate > 0 and float(self._rng.random()) < rate

    def duplicates(self) -> bool:
        rate = self.schedule.duplicate_rate
        return rate > 0 and float(self._rng.random()) < rate

    def extra_latency(self) -> float:
        """Extra delivery delay; non-zero draws count as reorderings."""
        jitter = self.schedule.reorder_jitter
        if jitter <= 0:
            return 0.0
        extra = jitter * float(self._rng.random())
        if extra > 0:
            self.record("reordered_messages", extra=extra)
        return extra

    # -- compute fates ---------------------------------------------------------
    def slowdown(self, worker: int, now: float) -> float:
        """Multiplicative compute slowdown for a worker at a time."""
        factor = 1.0
        for straggler in self.schedule.stragglers:
            if straggler.worker == worker and straggler.start <= now < straggler.end:
                factor = max(factor, straggler.factor)
        return factor


class DeliveryLedger:
    """Exactly-once bookkeeping for one run's inter-worker messages.

    Per ``(sender, target)`` pair the sender stamps consecutive sequence
    numbers and the target remembers the ones it has applied.  A second
    arrival (an injected duplicate, or a retransmit whose first copy did
    land) counts as ``duplicates_absorbed`` and is dropped for an
    additive ``⊕``, which would double count it, or let through for a
    selective one, whose ``g`` absorbs it (Theorem 3).  The ledger is
    part of an engine's rollback snapshot, and a crashed receiver
    forgets what it had seen.
    """

    def __init__(self, num_workers: int, chaos: FaultInjector, selective: bool):
        self.chaos = chaos
        self.selective = selective
        self.seq_next = [[0] * num_workers for _ in range(num_workers)]
        #: seen[target][sender] -> sequence numbers already applied
        self.seen: list[list[set]] = [
            [set() for _ in range(num_workers)] for _ in range(num_workers)
        ]

    def stamp(self, sender: int, target: int) -> int:
        """The sequence number of ``sender``'s next message to ``target``."""
        seq = self.seq_next[sender][target]
        self.seq_next[sender][target] = seq + 1
        return seq

    def admit(self, sender: int, target: int, seq: int, t: float) -> bool:
        """Record an arrival at simulated time ``t``; False when the
        receiver must drop it."""
        seen = self.seen[target][sender]
        if seq not in seen:
            seen.add(seq)
            return True
        self.chaos.record(
            "duplicates_absorbed", t=t, sender=sender, target=target, seq=seq
        )
        return self.selective

    def forget(self, worker: int) -> None:
        """``worker`` crashed: its dedup memory died with it."""
        for sender_seen in self.seen[worker]:
            sender_seen.clear()

    def snapshot(self) -> tuple:
        return [row[:] for row in self.seq_next], [[set(s) for s in row] for row in self.seen]

    def restore(self, snap: tuple) -> None:
        seq_next, seen = snap
        self.seq_next = [row[:] for row in seq_next]
        self.seen = [[set(s) for s in row] for row in seen]


def injector_for(cluster, obs=None) -> "FaultInjector | None":
    """Build the injector for a cluster, or ``None`` for fault-free runs."""
    schedule = getattr(cluster, "faults", None)
    if schedule is None or schedule.is_null():
        return None
    return FaultInjector(schedule, cluster.num_workers, obs=obs)
