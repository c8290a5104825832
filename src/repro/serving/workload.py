"""Open-loop workload generation for the serving layer.

The generator is *open loop*: arrivals follow a seeded Poisson process
whose rate does not react to service backpressure (the Locust-style
stochastic pattern the ROADMAP points at), so overload genuinely
overloads and admission control has something to shed.  Everything --
interarrival gaps, tenant mix, program/engine/parameter choices -- is
drawn from one ``numpy`` generator in arrival order, making a workload a
pure function of its spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.request import Request, TenantSpec

#: default tenant population: a large best-effort tier with a small
#: queue and a paying tier with more headroom and a tighter SLO
DEFAULT_TENANTS = (
    TenantSpec("free", weight=3.0, queue_capacity=6, deadline=6.0, slo_latency=3.0),
    TenantSpec("pro", weight=1.0, queue_capacity=12, deadline=8.0, slo_latency=2.5),
)

#: default query mix: one selective program (min), one epsilon program
#: (sum), one exact additive program -- the chaos matrix's coverage --
#: plus the four semiring families (boolean, counting, k-tropical,
#: Viterbi) as minority traffic, so admission control, caching and
#: delta repair all see non-numeric and non-tropical carriers
DEFAULT_PROGRAM_MIX = (
    ("sssp", 0.35),
    ("pagerank", 0.25),
    ("dag_paths", 0.15),
    ("why_reach", 0.08),
    ("path_count", 0.07),
    ("kpaths", 0.05),
    ("reach_prob", 0.05),
)

#: default engine-backend mix the requests fan out over
DEFAULT_ENGINE_MIX = (("sync", 0.6), ("async", 0.4))

#: per-program parameter distributions; parameters are part of the
#: result-cache key.  ``eps_scale`` scales the program's termination
#: epsilon (a looser answer the tenant opted into).
DEFAULT_PARAMS_MIX = {
    "pagerank": (((), 0.7), ((("eps_scale", 4.0),), 0.3)),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the open-loop generator needs, besides the seed."""

    num_requests: int = 100
    #: mean arrival rate in requests per simulated second
    arrival_rate: float = 4.0
    #: a burst window multiplies the arrival rate -- the overload that
    #: makes admission control earn its keep
    burst_start: float = 1.0
    burst_end: float = 3.0
    burst_factor: float = 7.0
    tenants: tuple = DEFAULT_TENANTS
    program_mix: tuple = DEFAULT_PROGRAM_MIX
    engine_mix: tuple = DEFAULT_ENGINE_MIX
    params_mix: dict = field(default_factory=lambda: dict(DEFAULT_PARAMS_MIX))
    #: simulated times at which the graph version bumps (a mutation was
    #: ingested); cache entries for older versions become stale-only.
    #: The default bumps land one mid-burst (a recompute storm under
    #: overload) and one in the calm tail.
    version_bumps: tuple = (2.0, 6.0)

    def tenant(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    def rate_at(self, t: float) -> float:
        if self.burst_factor > 1.0 and self.burst_start <= t < self.burst_end:
            return self.arrival_rate * self.burst_factor
        return self.arrival_rate


def _weighted_choice(rng, pairs):
    """Deterministic weighted draw from ``((item, weight), ...)``."""
    total = sum(weight for _, weight in pairs)
    point = float(rng.random()) * total
    acc = 0.0
    for item, weight in pairs:
        acc += weight
        if point < acc:
            return item
    return pairs[-1][0]


def generate_workload(spec: WorkloadSpec, seed: int = 7) -> list:
    """The request stream: a pure function of ``(spec, seed)``."""
    if spec.num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if spec.arrival_rate <= 0:
        raise ValueError("arrival_rate must be > 0")
    rng = np.random.default_rng(seed)
    tenant_pairs = tuple((t, t.weight) for t in spec.tenants)
    requests = []
    now = 0.0
    for request_id in range(spec.num_requests):
        now += float(rng.exponential(1.0 / spec.rate_at(now)))
        tenant = _weighted_choice(rng, tenant_pairs)
        program = _weighted_choice(rng, spec.program_mix)
        engine = _weighted_choice(rng, spec.engine_mix)
        params_pairs = spec.params_mix.get(program)
        params = _weighted_choice(rng, params_pairs) if params_pairs else ()
        requests.append(
            Request(
                id=request_id,
                tenant=tenant.name,
                program=program,
                engine=engine,
                params=tuple(params),
                arrival=now,
                deadline=now + tenant.deadline,
            )
        )
    return requests
