"""A versioned mutable view over an immutable :class:`~repro.graphs.Graph`.

``Graph`` stays a frozen value type (plans, engines and datasets all
assume edge lists never change under them).  A
:class:`MutableGraphView` layers versions on top: version 1 is the base
graph (weights materialised, see :mod:`repro.delta.model`), and every
:meth:`apply` produces version ``k+1`` from version ``k`` plus one
validated :class:`~repro.delta.model.GraphDelta`.  All versions and
what each bump changed stay addressable, which is what lets the
serving layer repair a fixpoint cached at version ``j`` up to the
current version without replaying the workload.

A bump costs the batch, not the graph: the view keeps the head's
:class:`~repro.delta.model.EdgeIndex` (``(src, dst)`` -> position,
built on the first bump and carried from head to head), so ``apply``
validates the batch and finds the positions it names by lookups, then
copies the head's edge and weight lists -- two C-level copies, the new
version's own -- and edits them there
(:meth:`~repro.delta.model.GraphDelta.apply_recording`).  Only a vertex
removal scans the edges, for the incident ones.  Older versions keep
their graphs but not an index.  Edge order and weight objects are part
of the contract -- surviving edges keep their order, inserts are
appended, and :func:`~repro.delta.model.random_delta` sorts and samples
the head's edges, so a view that ordered them differently would change
every seeded delta stream drawn from it.

Each bump also keeps what it changed, edge by edge
(:class:`~repro.delta.model.EdgeChange`: removed and added ``(src, dst,
weight)`` triples with the weight objects the graphs hold, appended
vertex ids).  ``changes_between`` hands a range of them to the
incremental engine, which reads the EDB change off them instead of
rebuilding the database.
"""

from __future__ import annotations

from typing import Optional

from repro.delta.model import EdgeChange, EdgeIndex, GraphDelta
from repro.graphs.graph import Graph


class MutableGraphView:
    """Versioned graph: ``graph_at(1)`` is the base, ``apply`` bumps."""

    def __init__(self, base: Graph):
        materialised = base if base.weights is not None else base.with_weights()
        self._graphs: dict[int, Graph] = {1: materialised}
        #: version -> what the bump to it changed, edge by edge
        self._changes: dict[int, EdgeChange] = {}
        #: the head's edge index, built on the first bump
        self._index: Optional[EdgeIndex] = None
        self.version = 1

    # -- accessors ------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph at the current (latest) version."""
        return self._graphs[self.version]

    def graph_at(self, version: int) -> Graph:
        try:
            return self._graphs[version]
        except KeyError:
            raise KeyError(
                f"no graph at version {version} (have 1..{self.version})"
            ) from None

    def changes_between(self, old: int, new: int) -> list:
        """The :class:`~repro.delta.model.EdgeChange` records turning
        version ``old`` into version ``new``, in version order."""
        if not 1 <= old <= new <= self.version:
            raise KeyError(
                f"version range {old}..{new} outside 1..{self.version}"
            )
        return [self._changes[v] for v in range(old + 1, new + 1)]

    # -- mutation -------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> Graph:
        """Validate ``delta`` against the head, bump the version, return
        the new head graph.  On validation failure nothing changes."""
        if self._index is None:
            self._index = EdgeIndex(self.graph.edges)
        mutated, change = delta.apply_recording(self.graph, self._index)
        renamed = Graph(
            mutated.num_vertices,
            mutated.edges,
            mutated.weights,
            name=self._graphs[1].name,
            seed=mutated.seed,
        )
        self.version += 1
        self._graphs[self.version] = renamed
        self._changes[self.version] = change
        return renamed

    def advance_to(self, version: int, make_delta) -> Graph:
        """Apply ``make_delta(view, next_version)`` until ``version``.

        The callback builds the delta for each intermediate bump; used by
        the serving layer to lazily materialise versions on demand.
        """
        if version < 1:
            raise KeyError(f"version {version} predates base 1")
        while self.version < version:
            self.apply(make_delta(self, self.version + 1))
        return self.graph_at(version)

    def __repr__(self):
        return (
            f"MutableGraphView({self.graph.name}: versions "
            f"1..{self.version}, head {self.graph.num_vertices}v/"
            f"{self.graph.num_edges}e)"
        )


__all__ = ["MutableGraphView"]
