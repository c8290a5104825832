"""Request model for the multi-tenant serving layer.

A request names a tenant, a program, an engine backend and a parameter
set; the service resolves every admitted request to **exactly one**
terminal status:

* ``OK``        -- a fresh answer (computed, or served from a fresh
  cache entry for the current graph version);
* ``OK_STALE``  -- a degraded answer: a stale-but-certified cache entry
  served because the breaker was open, the deadline could not be met,
  or retries were exhausted; staleness is surfaced on the response;
* ``SHED``      -- rejected at admission (tenant queue full); explicit,
  never a silent drop;
* ``TIMEOUT``   -- the deadline passed without an answer and no cached
  fallback existed;
* ``FAILED``    -- every attempt failed and no cached fallback existed.

The no-lost-request invariant -- every generated request reaches exactly
one of these states -- is enforced by the service and re-asserted by the
SLO acceptance harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

OK = "OK"
OK_STALE = "OK_STALE"
SHED = "SHED"
TIMEOUT = "TIMEOUT"
FAILED = "FAILED"

#: every terminal status, in report order
TERMINAL_STATUSES = (OK, OK_STALE, SHED, TIMEOUT, FAILED)

#: statuses that delivered an answer to the tenant
SERVED_STATUSES = (OK, OK_STALE)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission and SLO contract."""

    name: str
    #: relative share of the workload generator's traffic
    weight: float = 1.0
    #: bound on requests waiting for their first dispatch; the request
    #: that would overflow it is shed at admission
    queue_capacity: int = 8
    #: absolute per-request deadline (simulated seconds after arrival)
    deadline: float = 6.0
    #: latency target counted by SLO attainment (<= deadline)
    slo_latency: float = 2.5


@dataclass
class Request:
    """One query: tenant + program + engine backend + parameters."""

    id: int
    tenant: str
    program: str
    engine: str
    #: canonical parameter tuple ``(("eps_scale", 2.0), ...)``; part of
    #: the result-cache key
    params: tuple = ()
    arrival: float = 0.0
    #: absolute deadline on the simulated clock
    deadline: float = 0.0
    # -- runtime state owned by the service ---------------------------------
    attempts: int = 0
    admitted: bool = False


@dataclass
class Response:
    """The terminal outcome of one request."""

    request_id: int
    tenant: str
    program: str
    engine: str
    status: str
    #: seconds from arrival to resolution on the simulated clock
    latency: float
    resolved_at: float
    #: "compute" | "cache" | "stale-cache" | "" (not served)
    served_from: str = ""
    stale: bool = False
    #: age of the served entry (resolution time - computation time) when
    #: the answer was stale; ``None`` otherwise
    stale_age: Optional[float] = None
    #: graph version the served answer was computed on (``None`` when
    #: nothing was served)
    graph_version: Optional[int] = None
    attempts: int = 0
    #: why the request ended the way it did ("deadline-before-dispatch",
    #: "breaker-open", "retries-exhausted", ...)
    detail: str = ""
    #: result-cache key backing the answer, for agreement verification
    result_key: Optional[tuple] = None
    values: dict = field(default_factory=dict)

    @property
    def served(self) -> bool:
        return self.status in SERVED_STATUSES
