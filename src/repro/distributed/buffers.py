"""Per-destination message buffers with adaptive sizing (paper section 5.3).

Each worker in an N-node cluster keeps N-1 buffers, one per peer.  A
buffer flushes when it holds ``beta(i,j)`` updates or when ``tau``
seconds have passed since the last flush.  The adaptive policy implements
the paper's rule: over a measurement window ``dT`` accumulating ``|B|``
updates,

* fast pace  (``|B|/dT >  r * beta/tau``)  -> grow ``beta``,
* slow pace  (``|B|/dT <  beta/(r*tau)``)  -> shrink ``beta``,

with ``beta = alpha * tau * |B|/dT``, ``alpha = 0.8`` and ``r = 2``
(the paper's fixed damping factor and configurable threshold).

A buffer is the *policy* half of that -- ``beta``, ``tau``, the distinct
update count, the pace window, the last flush time.  The updates
themselves live in the worker's :class:`~repro.runtime.SendSide`, which
on the array kernel folds a whole process event's contributions for all
N-1 targets at once (a key has one owner, so one value column serves
every target); its ``fill`` tells each buffer what an event brought it
(:meth:`FixedBuffer.add`) and a flush hands out the target's share of
the send side.
"""

from __future__ import annotations

from dataclasses import dataclass


#: the adaptive rule's damping factor (paper: fixed to 0.8)
ALPHA = 0.8
#: the adaptive rule's pace threshold (paper: set to 2)
R = 2.0
#: a message's first ack timeout, simulated seconds; each retry
#: multiplies it by ``ACK_BACKOFF`` up to ``MAX_ACK_TIMEOUT``
ACK_TIMEOUT = 5e-3
ACK_BACKOFF = 2.0
MAX_ACK_TIMEOUT = 8e-2


@dataclass
class BufferPolicy:
    """Parameters of the adaptive buffer rule."""

    initial_beta: float = 64.0
    tau: float = 5e-3  # flush interval in simulated seconds
    min_beta: float = 4.0
    max_beta: float = 8192.0
    adaptive: bool = True


class FixedBuffer:
    """A non-adaptive buffer: flush at ``beta`` updates or ``tau`` elapsed.

    ``side`` is the owning worker's send side and ``target`` the peer
    this buffer sends to; ``pending_count`` is the number of distinct
    keys ``side`` holds for ``target`` (duplicates are g-combined there).
    """

    def __init__(self, beta: float, tau: float, side, target: int):
        self.beta = beta
        self.tau = tau
        self.side = side
        self.target = target
        self.pending_count = 0
        self.last_flush_time = 0.0

    def add(self, adds: int, fresh: int) -> None:
        """Account for ``adds`` updates folded into the send side for
        this target, ``fresh`` of them on keys it did not hold yet."""
        self.pending_count += fresh

    def should_flush(self, now: float) -> bool:
        if not self.pending_count:
            return False
        if self.pending_count >= self.beta:
            return True
        return (now - self.last_flush_time) >= self.tau

    def flush(self, now: float):
        """Empty the buffer; returns its content as a kernel payload."""
        self.pending_count = 0
        self.last_flush_time = now
        return self.side.take(self.target)

    def observe_flush(self, now: float) -> None:  # pragma: no cover - FixedBuffer no-op
        """Hook for adaptive subclasses; fixed buffers do nothing."""

    def snapshot(self) -> tuple:
        """Content, count, last flush time and ``beta`` -- what a
        rollback restores.  The pace window is not part of it: a
        restored buffer keeps measuring the window it is in."""
        return (
            self.side.peek(self.target),
            self.pending_count,
            self.last_flush_time,
            self.beta,
        )

    def restore(self, snap: tuple) -> None:
        content, self.pending_count, self.last_flush_time, self.beta = snap
        self.side.put(self.target, content)


class RetransmitBuffer:
    """Unacked-message store backing the chaos layer's reliable delivery.

    Sits next to the flush buffers: every transmitted message is tracked
    under its per-destination sequence number until the receiver's ack
    arrives; an ack timeout retransmits with exponential backoff.  The
    payload keeps its original sequence number across retries so the
    receiver can deduplicate (non-idempotent aggregates) or absorb
    (idempotent aggregates) redundant deliveries.
    """

    def __init__(self):
        self.unacked: dict = {}

    def track(self, seq: int, payload: dict) -> None:
        self.unacked[seq] = payload

    def ack(self, seq: int) -> None:
        self.unacked.pop(seq, None)

    def get(self, seq: int):
        """The payload still awaiting an ack, or ``None`` once acked."""
        return self.unacked.get(seq)

    def timeout(self, attempt: int) -> float:
        """Backed-off ack timeout for the given attempt (1-based)."""
        return min(ACK_TIMEOUT * ACK_BACKOFF ** max(0, attempt - 1), MAX_ACK_TIMEOUT)

    @property
    def pending(self) -> bool:
        return bool(self.unacked)

    def clear(self) -> None:
        self.unacked.clear()

    def __len__(self):
        return len(self.unacked)


class AdaptiveBuffer(FixedBuffer):
    """The paper's adaptive buffer: ``beta`` follows the update pace.

    ``on_adapt`` is an optional observability hook: whenever the pace
    rule actually adjusts ``beta`` it is called as
    ``on_adapt(now, old_beta, new_beta, pace)``.  The owning engine
    attaches it with the buffer's ``(worker, target)`` context bound in;
    the buffer itself stays context-free.
    """

    def __init__(self, policy: BufferPolicy, side, target: int, on_adapt=None):
        super().__init__(policy.initial_beta, policy.tau, side, target)
        self.policy = policy
        self.on_adapt = on_adapt
        self._window_start = 0.0
        self._window_updates = 0

    def add(self, adds: int, fresh: int) -> None:
        super().add(adds, fresh)
        self._window_updates += adds

    def observe_flush(self, now: float) -> None:
        """Adapt ``beta`` from the pace observed since the last window."""
        window = now - self._window_start
        if window <= 0:
            return
        pace = self._window_updates / window  # |B| / dT
        threshold = self.beta / self.policy.tau  # beta / tau
        if pace > R * threshold or pace < threshold / R:
            new_beta = ALPHA * self.policy.tau * pace
            old_beta = self.beta
            self.beta = min(
                self.policy.max_beta, max(self.policy.min_beta, new_beta)
            )
            if self.on_adapt is not None and self.beta != old_beta:
                self.on_adapt(now, old_beta, self.beta, pace)
        self._window_start = now
        self._window_updates = 0
