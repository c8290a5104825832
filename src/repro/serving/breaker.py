"""Per-engine-backend circuit breaker on the simulated clock.

Standard three-state breaker:

* ``closed``    -- traffic flows; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker;
* ``open``      -- attempts are refused (the service serves stale or
  parks the request); after ``reset_timeout`` simulated seconds the
  breaker half-opens;
* ``half-open`` -- exactly one probe attempt is let through; success
  closes the breaker, failure re-opens it for another full timeout.

All transitions happen on the *simulated* clock (``poll(now)`` is called
by the service before every admission decision), so a chaotic serving
run is exactly reproducible and the trip / half-open / close sequence is
visible in ``repro.obs`` traces via the ``on_transition`` hook.
"""

from __future__ import annotations

from typing import Callable, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: consecutive failures that trip a breaker
FAILURE_THRESHOLD = 3
#: simulated seconds an open breaker waits before it half-opens
RESET_TIMEOUT = 0.75


class CircuitBreaker:
    """Failure isolation for one engine backend."""

    def __init__(
        self,
        engine: str,
        failure_threshold: int = FAILURE_THRESHOLD,
        reset_timeout: float = RESET_TIMEOUT,
        on_transition: Optional[Callable] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be > 0")
        self.engine = engine
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.on_transition = on_transition
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.probe_in_flight = False
        # -- counters for the SLO report -----------------------------------
        self.trips = 0
        self.half_opens = 0
        self.closes = 0

    def _transition(self, now: float, new_state: str) -> None:
        old = self.state
        if old == new_state:
            return
        self.state = new_state
        if self.on_transition is not None:
            self.on_transition(now, self.engine, old, new_state)

    @property
    def half_open_at(self) -> Optional[float]:
        """When an open breaker will admit its probe; ``None`` otherwise."""
        if self.state != OPEN or self.opened_at is None:
            return None
        return self.opened_at + self.reset_timeout

    def poll(self, now: float) -> None:
        """Advance the open -> half-open transition on the simulated clock."""
        if self.state == OPEN and now >= self.opened_at + self.reset_timeout:
            self.half_opens += 1
            self.probe_in_flight = False
            self._transition(now, HALF_OPEN)

    def allows(self, now: float) -> bool:
        """May an attempt start now?  (``poll`` first.)"""
        self.poll(now)
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return not self.probe_in_flight
        return False

    def on_attempt_start(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.probe_in_flight = True

    def on_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self.probe_in_flight = False
        if self.state != CLOSED:
            self.closes += 1
            self.opened_at = None
            self._transition(now, CLOSED)

    def on_failure(self, now: float) -> None:
        self.probe_in_flight = False
        if self.state == HALF_OPEN:
            # the probe failed: back to a full open window
            self.trips += 1
            self.opened_at = now
            self._transition(now, OPEN)
            return
        self.consecutive_failures += 1
        if self.state == CLOSED and (
            self.consecutive_failures >= self.failure_threshold
        ):
            self.trips += 1
            self.opened_at = now
            self._transition(now, OPEN)

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "trips": self.trips,
            "half_opens": self.half_opens,
            "closes": self.closes,
            "consecutive_failures": self.consecutive_failures,
        }
