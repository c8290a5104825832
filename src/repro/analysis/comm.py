"""Sharding / communication-shape analysis: RA401.

Two granularities:

* **static** (:func:`communication_shape`): per recursive body, compare
  the source keys of the recursive atom with the head keys.  When they
  coincide positionally, every update stays on the worker that owns the
  key -- the join is co-partitionable and the rule runs without
  cross-worker messages (the CC/pagerank self-contribution pattern).
  Otherwise every edge may cross workers.

* **plan-level** (:func:`estimate_plan_communication`): with a compiled
  plan in hand, count *exactly* how many dependency edges have source
  and destination owned by different workers under the engines' own
  :class:`~repro.distributed.partition.HashPartitioner` -- the number
  the distributed runtimes will actually ship per full wavefront.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.analyzer import ProgramAnalysis
    from repro.engine.plan import CompiledPlan


@dataclass(frozen=True)
class BodyCommShape:
    """Static communication shape of one recursive body."""

    body: int
    source_keys: tuple[str, ...]
    dest_keys: tuple[str, ...]
    co_partitionable: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "body": self.body,
            "source_keys": list(self.source_keys),
            "dest_keys": list(self.dest_keys),
            "co_partitionable": self.co_partitionable,
            "detail": self.detail,
        }


def communication_shape(analysis: "ProgramAnalysis") -> list[BodyCommShape]:
    """Static per-body co-partitionability of the recursive rule."""
    shapes: list[BodyCommShape] = []
    dest = tuple(analysis.key_vars)
    for index, spec in enumerate(analysis.recursions):
        source = tuple(spec.source_keys)
        co_partitionable = source == dest
        if co_partitionable:
            detail = (
                f"source keys {source} equal head keys {dest}: updates stay "
                "on the owning worker"
            )
        else:
            detail = (
                f"source keys {source} differ from head keys {dest}: edges "
                "may cross workers"
            )
        shapes.append(
            BodyCommShape(
                body=index,
                source_keys=source,
                dest_keys=dest,
                co_partitionable=co_partitionable,
                detail=detail,
            )
        )
    return shapes


@dataclass(frozen=True)
class PlanCommEstimate:
    """Exact cross-worker edge census of one compiled plan."""

    workers: int
    total_edges: int
    cross_edges: int
    #: messages worker w would send per full wavefront
    per_worker_out: tuple[int, ...]

    @property
    def cross_fraction(self) -> float:
        if self.total_edges == 0:
            return 0.0
        return self.cross_edges / self.total_edges

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "total_edges": self.total_edges,
            "cross_edges": self.cross_edges,
            "cross_fraction": self.cross_fraction,
            "per_worker_out": list(self.per_worker_out),
        }


def estimate_plan_communication(
    plan: "CompiledPlan", num_workers: int
) -> PlanCommEstimate:
    """Count cross-worker dependency edges under the engines' partitioner."""
    from repro.distributed.partition import HashPartitioner

    partitioner = HashPartitioner(num_workers)
    cross = 0
    per_worker = [0] * num_workers
    for src, edges in plan.out_edges.items():
        src_owner = partitioner.owner(src)
        for dst, _params, _fn in edges:
            if partitioner.owner(dst) != src_owner:
                cross += 1
                per_worker[src_owner] += 1
    return PlanCommEstimate(
        workers=num_workers,
        total_edges=plan.num_edges,
        cross_edges=cross,
        per_worker_out=tuple(per_worker),
    )
