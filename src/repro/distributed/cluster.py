"""Cluster configuration and the simulated cost model.

The cost model converts *measured* work counters into simulated seconds.
The defaults are calibrated to the paper's testbed regime (section 6.2:
4-vCPU nodes, 1.5 Gbps network): per-tuple costs in the tens of
nanoseconds of useful work per core, millisecond-scale message latency,
and barrier costs dominated by coordination round trips.  What matters
for reproduction is the *ratios* -- compute vs message vs barrier -- not
the absolute values; EXPERIMENTS.md records the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.distributed.chaos import FaultSchedule


@dataclass(frozen=True)
class CostModel:
    """Simulated costs, all in seconds."""

    #: CPU cost of one F' application / combine on a worker.  Calibrated
    #: to the JVM-based Datalog engines the paper benchmarks (hundreds of
    #: thousands of tuples per second per core).
    tuple_cost: float = 5e-6
    #: CPU cost of one stored-tuple access (hash probe / insert) in the
    #: relational path that naive evaluation takes
    scan_cost: float = 4e-6
    #: hash probes per edge binding in naive evaluation's per-iteration
    #: join (probe the recursive table, the edge index, auxiliaries, and
    #: materialise the binding) -- the "additional join in each
    #: iteration" of section 6.3
    join_scan_factor: float = 3.0
    #: fixed network latency per message
    message_latency: float = 1e-3
    #: additional network cost per payload tuple (bandwidth term)
    tuple_net_cost: float = 5e-7
    #: per-message CPU overhead on the sender (serialisation, syscalls)
    message_cpu_cost: float = 5e-5
    #: coordination cost of one global barrier
    barrier_cost: float = 2.5e-3
    #: extra per-superstep scheduling overhead (Spark-style job launch)
    job_overhead: float = 0.0
    #: period of the async master's termination check (section 5.4)
    termination_interval: float = 5e-2

    def with_overrides(self, **kwargs) -> "CostModel":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ClusterConfig:
    """A simulated cluster: workers, speeds, and the cost model.

    The default mirrors the paper's setup: 16 workers (17 nodes, one
    dedicated master).  ``speed_jitter`` introduces deterministic
    per-worker speed variation, the source of straggler waits at
    barriers.
    """

    num_workers: int = 16
    cost: CostModel = field(default_factory=CostModel)
    #: static per-worker speed variation (hardware heterogeneity)
    speed_jitter: float = 0.15
    #: transient per-burst slowdown (cloud noisy neighbours, GC pauses):
    #: each compute burst is stretched by up to this factor.  Synchronous
    #: execution waits for the per-superstep *maximum* stretch at every
    #: barrier; asynchronous execution only pays the *mean*, which is the
    #: "synchronization overhead is the most expensive" effect of
    #: section 5.3.
    transient_jitter: float = 0.5
    seed: int = 42
    #: deterministic fault-injection schedule (``None`` = fault-free);
    #: when set, the engines route every message through the chaos
    #: layer's ack/retransmit/dedup path and run the scheduled crashes
    #: and recoveries (see :mod:`repro.distributed.chaos`)
    faults: Optional[FaultSchedule] = None

    def worker_speeds(self) -> list[float]:
        """Deterministic relative speeds centred on 1.0."""
        if self.speed_jitter <= 0:
            return [1.0] * self.num_workers
        rng = np.random.default_rng(self.seed)
        speeds = rng.uniform(
            1.0 - self.speed_jitter, 1.0 + self.speed_jitter, self.num_workers
        )
        return speeds.tolist()

    def transient_stream(self, salt: int = 0):
        """Deterministic stream of compute-burst stretch factors >= 1."""
        rng = np.random.default_rng(self.seed * 7919 + salt)
        jitter = self.transient_jitter

        def draw() -> float:
            return 1.0 + jitter * float(rng.random())

        return draw

    def with_cost(self, **kwargs) -> "ClusterConfig":
        return replace(self, cost=self.cost.with_overrides(**kwargs))

    def with_faults(self, faults: Optional[FaultSchedule]) -> "ClusterConfig":
        if faults is not None:
            faults.validate(self.num_workers)
        return replace(self, faults=faults)

