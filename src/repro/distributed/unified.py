"""The unified sync-async engine (paper section 5.3).

Architecturally the unified engine *is* the async framework -- "our
method is in a framework of async computing" -- with the communication
frequency as the control knob:

* each worker's per-destination message buffers adapt their size
  ``beta(i,j)`` to the locally observed update pace (the paper's
  ``beta = alpha * tau * |B|/dT`` rule with ``alpha = 0.8``, ``r = 2``),
  spanning the spectrum from eager per-update messaging (maximum
  asynchrony) to full batching (equivalent to sync execution);
* for ``sum`` aggregations the section 5.4 importance optimisation
  defers deltas below a threshold, accumulating them locally until they
  matter -- fewer messages and fewer ``F'`` applications;
* the sync part of the design is the master's periodic global
  termination check, inherited from the async engine.
"""

from __future__ import annotations

from typing import Optional

from repro.aggregates import AggregateKind
from repro.distributed.async_engine import AsyncEngine
from repro.distributed.buffers import BufferPolicy
from repro.distributed.cluster import ClusterConfig
from repro.engine.plan import CompiledPlan


def _default_importance_threshold(plan: CompiledPlan) -> Optional[float]:
    """A conservative default for the section 5.4 threshold.

    Deltas below ``4 * eps / |keys|`` are deferred; the total deferred
    mass is therefore bounded by ``4 * eps`` (times the recursion's
    amplification factor), i.e. a per-key error well
    under the user's convergence tolerance, while the convergence tail --
    where per-key deltas shrink below the threshold -- stops paying full
    sweeps.
    """
    epsilon = plan.termination.epsilon
    if epsilon is None or not plan.keys:
        return None
    return 4.0 * epsilon / len(plan.keys)


class UnifiedEngine(AsyncEngine):
    """Adaptive sync-async execution: async core + adaptive buffers."""

    engine_name = "mra+sync-async"

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: Optional[ClusterConfig] = None,
        buffer_policy: Optional[BufferPolicy] = None,
        importance_threshold: Optional[float] = None,
        run_name: str = "unified-run",
        **options,
    ):
        """``options`` are :class:`AsyncEngine`'s other keywords."""
        if importance_threshold is None and plan.aggregate.kind is AggregateKind.ADDITIVE:
            importance_threshold = _default_importance_threshold(plan)
        super().__init__(
            plan,
            cluster,
            buffer_policy=buffer_policy or BufferPolicy(adaptive=True),
            importance_threshold=importance_threshold,
            run_name=run_name,
            **options,
        )
