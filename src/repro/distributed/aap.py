"""The Adaptive Asynchronous Parallel (AAP) model of Grape+ (section 6.5).

The paper compares its unified engine with AAP [Fan et al., SIGMOD'18]
and, since Grape+ was not released, implements AAP from the paper's
description -- as do we.  The defining differences the paper names:

* AAP is *block-based*: "each worker decides its own execution mode by
  analyzing the sizes of in-messages" -- a worker flooded by incoming
  updates switches towards batch (SP/SSP-like) processing, a starved
  worker streams eagerly (AP-like);
* AAP's network thread "communicates with others via a fix-sized
  buffer", whereas the unified engine adapts message sizes from the
  locally *generated* updates.

This implementation realises both: fixed-size message buffers, plus a
per-worker dynamic batch limit driven by the ratio of received to
processed update volume.  Those counts and the limits are per-run state:
they live on the run (:class:`repro.distributed.async_engine._AsyncRun`,
which counts them for every asynchronous engine), and the engine's
hooks read and move them there.
"""

from __future__ import annotations

from typing import Optional

from repro.distributed.async_engine import AsyncEngine
from repro.distributed.buffers import BufferPolicy
from repro.distributed.cluster import ClusterConfig
from repro.engine.plan import CompiledPlan

#: the batch limit of a worker in block mode (received/processed ratio
#: in (0.5, 2]); a starved worker streams ``stream_batch`` keys, a
#: flooded one sweeps its shard
BLOCK_BATCH = 512


class AAPEngine(AsyncEngine):
    """Grape+-style adaptive asynchronous parallel execution."""

    engine_name = "mra+aap"

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Optional[ClusterConfig] = None,
        fixed_buffer_size: float = 256.0,
        stream_batch: int = 64,
        run_name: str = "aap-run",
        **options,
    ):
        """``options`` are :class:`AsyncEngine`'s other keywords, less
        the ones AAP fixes: its buffer, its batch and no importance
        threshold (Grape+ has no section 5.4 filter)."""
        super().__init__(
            plan,
            cluster,
            buffer_policy=BufferPolicy(initial_beta=fixed_buffer_size, adaptive=False),
            batch_size=stream_batch,
            importance_threshold=None,
            run_name=run_name,
            **options,
        )
        self.stream_batch = stream_batch

    def _batch_limit_after(self, worker: int, delivered: list) -> Optional[int]:
        if not delivered:
            return self._batch_limit(worker)
        run = self._run
        return self._mode(
            run.received[worker] + sum(map(len, delivered)), run.processed[worker]
        )[0]

    def _observe_delivery(self, worker: int, payload_size: int) -> None:
        self._adapt(worker)

    def _observe_processing(self, worker: int, processed: int) -> None:
        self._adapt(worker)

    def _mode(self, received: int, processed: int) -> tuple:
        """The batch limit for a worker that has been delivered
        ``received`` tuples and processed ``processed`` keys, and the
        ratio it is read off."""
        ratio = received / (processed + 1)
        if ratio > 2.0:
            return None, ratio  # SP/SSP-like: full sweeps
        if ratio > 0.5:
            return BLOCK_BATCH, ratio
        return self.stream_batch, ratio  # AP-like: stream eagerly

    def _adapt(self, worker: int) -> None:
        """Mode switch: flooded workers batch up, starved workers stream."""
        run = self._run
        mode_batch, ratio = self._mode(run.received[worker], run.processed[worker])
        old = run.limits[worker]
        run.limits[worker] = mode_batch
        if self.obs.enabled and mode_batch != old:
            mode = (
                "sweep" if mode_batch is None
                else "block" if mode_batch == BLOCK_BATCH
                else "stream"
            )
            self.obs.trace.emit(
                "aap.mode", worker=worker, mode=mode, ratio=round(ratio, 4)
            )
            self.obs.metrics.inc("aap.mode_switches", worker=worker, mode=mode)
