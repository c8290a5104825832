"""Distributed runtime: a deterministic discrete-event cluster simulator.

The paper evaluates PowerLog on a 17-node Aliyun cluster with OpenMPI
message passing (section 6.2).  This package substitutes a simulator that
*actually executes* the compiled plans -- results are bit-identical to
the single-node engines and are checked against them in tests -- while
accounting simulated time from genuinely measured work:

* per-tuple compute cost on each worker (scaled by per-worker speed),
* per-message latency plus per-tuple bandwidth cost on the network,
* per-superstep barrier cost (and straggler waits) for sync execution,
* per-superstep job overhead for systems that schedule each iteration as
  a job (the BigDatalog/Spark regime).

Engines, each under the name of :data:`~repro.distributed.registry.ENGINES`
-- the one table the CLI, the serving layer and the chaos harness build
engines from (:func:`~repro.distributed.registry.build_engine`):

* ``sync``/``naive`` -- :class:`~repro.distributed.sync_engine.SyncEngine`,
  BSP (section 4's strict ``G ∘ F'`` sequence) with one superstep loop
  whose mode picks the superstep body: ``incremental`` (MRA /
  semi-naive, with optional delta-stepping for selective aggregates,
  the SociaLite SSSP optimisation of section 6.3) or ``naive`` (full
  recomputation);
* ``async`` -- :class:`~repro.distributed.async_engine.AsyncEngine`,
  event-driven asynchronous MRA (Definition 2), with per-destination
  message buffers;
* ``unified`` -- :class:`~repro.distributed.unified.UnifiedEngine`, the
  paper's unified sync-async engine (section 5.3): the async engine
  under adaptive buffer sizing and the section 5.4 importance threshold;
* ``aap`` -- :class:`~repro.distributed.aap.AAPEngine`, the Grape+
  adaptive asynchronous parallel model the paper compares against
  (section 6.5): the async engine under fixed buffers and a per-worker
  batch mode.

Every engine but ``naive`` accepts a fault schedule
(:data:`~repro.distributed.registry.FAULT_TOLERANT_ENGINES`), and every
run ends in one epilogue, :meth:`~repro.distributed.sharding.ShardedRun.finish`.
"""

from repro.distributed.cluster import ClusterConfig, CostModel
from repro.distributed.partition import HashPartitioner, stable_hash
from repro.distributed.buffers import (
    AdaptiveBuffer,
    BufferPolicy,
    FixedBuffer,
    RetransmitBuffer,
)
from repro.distributed.chaos import (
    FaultInjector,
    FaultSchedule,
    FaultStats,
    Partition,
    Straggler,
    WorkerCrash,
)
from repro.distributed.sync_engine import SyncEngine
from repro.distributed.async_engine import AsyncEngine
from repro.distributed.unified import UnifiedEngine
from repro.distributed.aap import AAPEngine
from repro.distributed.registry import (
    ENGINES,
    FAULT_TOLERANT_ENGINES,
    build_engine,
)
from repro.distributed.fault import (
    Checkpointer,
    CheckpointCorruptionError,
    CheckpointMismatchError,
)
from repro.distributed.chaos_harness import (
    ChaosReport,
    format_matrix,
    run_chaos,
    run_matrix,
    schedule_for,
)

__all__ = [
    "ClusterConfig",
    "CostModel",
    "HashPartitioner",
    "stable_hash",
    "AdaptiveBuffer",
    "BufferPolicy",
    "FixedBuffer",
    "RetransmitBuffer",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "Partition",
    "Straggler",
    "WorkerCrash",
    "SyncEngine",
    "AsyncEngine",
    "UnifiedEngine",
    "AAPEngine",
    "ENGINES",
    "FAULT_TOLERANT_ENGINES",
    "build_engine",
    "Checkpointer",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "ChaosReport",
    "run_chaos",
    "run_matrix",
    "schedule_for",
    "format_matrix",
]
