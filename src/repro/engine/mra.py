"""MRA evaluation (paper Eq. 4) on a single-node MonoTable.

``ΔX^k = G ∘ F'(ΔX^{k-1})`` and ``X^k = G(X^{k-1} ∪ ΔX^k)``: deltas are
computed from deltas; the accumulated result is only ever *combined
with*, never recomputed.  The start point ``ΔX¹`` is determined
automatically via the aggregate's inverse ``G⁻`` (section 3.3):
one naive step produces ``X¹`` and ``ΔX¹ = G⁻(X¹, X⁰)``.

This evaluator processes rounds synchronously (all pending deltas of a
round before any of the next); it is the single-node reference that the
distributed sync/async/unified engines are validated against.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.termination import TerminationSpec, evaluate_rounds
from repro.obs import ensure_obs
from repro.runtime import get_kernel, resolve_backend_for_plan


def compute_initial_delta(plan: CompiledPlan) -> dict:
    """Determine ``ΔX¹`` such that ``X¹ = G(ΔX¹ ∪ X⁰)`` (section 3.3).

    One naive step computes ``X¹ = G(X⁰ ∪ C ∪ F'(X⁰))`` and the
    aggregate's predefined inverse ``G⁻`` extracts the delta
    (``min``: keep the new value when it improves; ``sum``: pairwise
    subtraction).
    """
    aggregate = plan.aggregate
    combine = aggregate.combine
    x1: dict = dict(plan.initial)

    def merge(key, value):
        old = x1.get(key)
        x1[key] = value if old is None else combine(old, value)

    for key, value in plan.constants.items():
        merge(key, value)
    for src, value in plan.initial.items():
        for dst, params, fn in plan.edges_from(src):
            merge(dst, fn(value, *params))

    delta: dict = {}
    for key, value in x1.items():
        d = aggregate.subtract(value, plan.initial.get(key))
        if d is not None:
            delta[key] = d
    return delta


class MRAEvaluator:
    """Single-node synchronous MRA evaluation over a compiled plan."""

    engine_name = "mra"

    def __init__(
        self,
        plan: CompiledPlan,
        termination: Optional[TerminationSpec] = None,
        obs=None,
        backend: Optional[str] = None,
    ):
        self.plan = plan
        self.termination = termination or plan.termination
        self.obs = ensure_obs(obs)
        self.counters = WorkCounters()
        self.backend = resolve_backend_for_plan(plan, backend)

    def run(self) -> EvalResult:
        plan = self.plan
        kernel_cls = get_kernel(self.backend)
        kernel = kernel_cls.from_plan(plan, counters=self.counters)
        kernel.push_many(kernel_cls.initial_delta(plan).items())
        return evaluate_rounds(self, kernel.step, kernel.result)
