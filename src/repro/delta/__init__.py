"""Delta ingestion and incremental fixpoint repair.

The subsystem that turns the repo's from-scratch evaluators into an
incrementally maintained service:

* :mod:`repro.delta.model`  -- :class:`GraphDelta` batches (validated
  edge/vertex inserts, deletes, weight updates) and the seeded
  :func:`random_delta` generator;
* :mod:`repro.delta.view`   -- :class:`MutableGraphView`, the versioned
  mutable facade over the immutable :class:`~repro.graphs.Graph`, which
  keeps what each bump changed (:class:`EdgeChange`);
* :mod:`repro.delta.engine` -- plan diffs (from two plans, or from
  the changed EDB rows alone) and the :class:`IncrementalEngine` with
  its ``frontier`` / ``rederive`` / ``recompute`` repair strategies.

Which strategies a program is certified for is decided statically by
:func:`repro.analysis.incremental.classify_incremental` (diagnostics
RA320/RA321/RA322).
"""

from repro.delta.engine import (
    ENGINE_NAME,
    STRATEGIES,
    IncrementalEngine,
    PlanDiff,
    RepairResult,
    choose_strategy,
    diff_plans,
    repair_plan,
)
from repro.delta.model import (
    DEFAULT_WEIGHT,
    DeltaValidationError,
    EdgeChange,
    GraphDelta,
    random_delta,
)
from repro.delta.view import MutableGraphView

__all__ = [
    "ENGINE_NAME",
    "STRATEGIES",
    "IncrementalEngine",
    "PlanDiff",
    "RepairResult",
    "choose_strategy",
    "diff_plans",
    "repair_plan",
    "DEFAULT_WEIGHT",
    "DeltaValidationError",
    "EdgeChange",
    "GraphDelta",
    "random_delta",
    "MutableGraphView",
]
