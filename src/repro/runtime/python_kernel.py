"""The reference dict-based kernel (lift of the original engine loops).

Semantics notes that the NumpyKernel mirrors bit-for-bit:

* batches handed to :meth:`apply_batch` in round mode are processed in
  canonical ascending key order (the plan-wide sorted-key index), so the
  floating-point fold order is identical on every backend;
* outbound contributions are folded per destination in arrival order
  (source order x plan edge order), with the destination dict keyed in
  first-occurrence order -- downstream message payloads therefore apply
  pushes in the same order on every backend;
* the ``accumulated`` and ``intermediate`` dicts keep insertion order,
  which is observable through the async master's global accumulation
  (float sum order), async batch selection and delta-stepping takes.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from repro.engine.result import WorkCounters
from repro.runtime.base import BatchResult, Kernel, register_kernel


def plan_key_order(plan: Any) -> dict:
    """key -> canonical dense index over ``sorted(plan.keys)`` (cached)."""
    order = getattr(plan, "_kernel_key_order", None)
    if order is None:
        try:
            keys_sorted = sorted(plan.keys)
        except TypeError:  # heterogeneous key types: fall back to repr order
            keys_sorted = sorted(plan.keys, key=repr)
        order = {key: i for i, key in enumerate(keys_sorted)}
        plan._kernel_key_order = order
        plan._kernel_keys_sorted = keys_sorted
    return order


@register_kernel
class PythonKernel(Kernel):
    """Pure-Python vertex runtime; the bit-exactness reference."""

    backend = "python"

    def __init__(
        self,
        plan: Any,
        keys: Optional[Iterable] = None,
        counters: Optional[WorkCounters] = None,
        initial: Optional[dict] = None,
    ) -> None:
        self.plan = plan
        self.aggregate = plan.aggregate
        self.counters = counters if counters is not None else WorkCounters()
        self._order = plan_key_order(plan)
        if initial is None:
            initial = plan.initial
        self._owned: Optional[set]
        if keys is None:
            self._owned = None
            self.accumulated: dict = dict(initial)
        else:
            self._owned = set(keys)
            self.accumulated = {
                key: value for key, value in initial.items() if key in self._owned
            }
        self.intermediate: dict = {}

    @classmethod
    def from_plan(
        cls,
        plan: Any,
        keys: Optional[Iterable] = None,
        counters: Optional[WorkCounters] = None,
        initial: Optional[dict] = None,
    ) -> "PythonKernel":
        return cls(plan, keys=keys, counters=counters, initial=initial)

    # -- MonoTable protocol -----------------------------------------------------
    def push(self, key: Any, value: Any) -> None:
        current = self.intermediate.get(key)
        if current is None:
            self.intermediate[key] = value
        else:
            self.intermediate[key] = self.aggregate.combine(current, value)
            self.counters.combines += 1

    def fetch_and_reset(self, key: Any) -> Any:
        return self.intermediate.pop(key, None)

    def drain_all(self) -> dict:
        drained = self.intermediate
        self.intermediate = {}
        return drained

    def accumulate(self, key: Any, tmp: Any) -> tuple[bool, float]:
        aggregate = self.aggregate
        old = self.accumulated.get(key)
        if old is None:
            self.accumulated[key] = tmp
            self.counters.updates += 1
            return True, aggregate.delta_magnitude(tmp)
        self.counters.combines += 1
        new = aggregate.combine(old, tmp)
        if new == old:
            return False, 0.0
        self.accumulated[key] = new
        self.counters.updates += 1
        return True, aggregate.change_magnitude(new, old, tmp)

    # -- the inner loop ---------------------------------------------------------
    def select_pending(
        self,
        threshold: Optional[float] = None,
        best_first: bool = False,
        limit: Optional[int] = None,
    ) -> list:
        pending = self.intermediate
        if best_first:
            keys = sorted(pending, key=pending.get)
            return keys if limit is None else keys[:limit]
        if threshold is not None:
            magnitude = self.aggregate.delta_magnitude
            keys = [
                key for key, value in pending.items() if magnitude(value) >= threshold
            ]
            return keys if limit is None else keys[:limit]
        if limit is None:
            return list(pending)
        return list(itertools.islice(pending, limit))

    def apply_batch(
        self,
        deltas: Optional[dict] = None,
        *,
        keys: Any = None,
    ) -> BatchResult:
        if keys is not None:
            return self._apply_local(keys)
        return self._apply_round(self.drain_all() if deltas is None else deltas)

    def _apply_round(self, deltas: dict) -> BatchResult:
        plan = self.plan
        combine = self.aggregate.combine
        counters = self.counters
        order = self._order
        out: dict = {}
        changed = 0
        magnitude = 0.0
        ops = 0
        edges_applied = 0
        for key, tmp in sorted(deltas.items(), key=lambda kv: order[kv[0]]):
            did_change, delta_mag = self.accumulate(key, tmp)
            ops += 1
            if not did_change:
                continue
            changed += 1
            magnitude += delta_mag
            for dst, params, fn in plan.edges_from(key):
                value = fn(tmp, *params)
                ops += 1
                edges_applied += 1
                old = out.get(dst)
                if old is None:
                    out[dst] = value
                else:
                    out[dst] = combine(old, value)
                    counters.combines += 1
        counters.fprime_applications += edges_applied
        return BatchResult(
            out=list(out.items()), changed=changed, magnitude=magnitude, ops=ops
        )

    def _apply_local(self, keys: list) -> BatchResult:
        plan = self.plan
        owned = self._owned
        counters = self.counters
        out: list = []
        offsets: list = []
        changed = 0
        magnitude = 0.0
        ops = 0
        edges_applied = 0
        for key in keys:
            tmp = self.fetch_and_reset(key)
            if tmp is None:
                continue
            did_change, delta_mag = self.accumulate(key, tmp)
            ops += 1
            if not did_change:
                continue
            changed += 1
            magnitude += delta_mag
            for dst, params, fn in plan.edges_from(key):
                value = fn(tmp, *params)
                ops += 1
                edges_applied += 1
                if owned is None or dst in owned:
                    self.push(dst, value)
                else:
                    out.append((dst, value))
                    offsets.append(ops)
        counters.fprime_applications += edges_applied
        return BatchResult(
            out=out, offsets=offsets, changed=changed, magnitude=magnitude, ops=ops
        )

    # -- whole-table sweep (naive BSP mode) -------------------------------------
    @classmethod
    def full_contributions(cls, plan: Any, values: dict) -> list:
        triples = []
        for src, value in values.items():
            for dst, params, fn in plan.edges_from(src):
                triples.append((src, dst, fn(value, *params)))
        return triples

    # -- inspection -------------------------------------------------------------
    def has_pending(self) -> bool:
        return bool(self.intermediate)

    def pending_count(self) -> int:
        return len(self.intermediate)

    def pending_min(self) -> float:
        return min(self.intermediate.values(), default=float("inf"))

    def take_pending_below(self, threshold: float) -> dict:
        take = {
            key: value
            for key, value in self.intermediate.items()
            if value <= threshold
        }
        for key in take:
            del self.intermediate[key]
        return take

    def result(self) -> dict:
        return dict(self.accumulated)

    # -- checkpointing / recovery -----------------------------------------------
    def snapshot(self) -> dict:
        return {
            "accumulated": dict(self.accumulated),
            "intermediate": dict(self.intermediate),
        }

    def restore(self, snap: dict) -> None:
        self.accumulated = dict(snap["accumulated"])
        self.intermediate = dict(snap["intermediate"])
