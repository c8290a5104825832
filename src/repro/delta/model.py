"""The :class:`GraphDelta` batch model and its validation policy.

A delta is one *atomic* batch of graph mutations: edge inserts (with
optional weights), edge deletes, weight updates, appended vertices and
vertex removals.  Validation is strict -- a malformed batch raises
:class:`DeltaValidationError` before anything is applied, so a
:class:`~repro.delta.view.MutableGraphView` can never end up in a
half-mutated state:

* an inserted edge must not already exist (use ``update_weights``), must
  not be duplicated inside the batch, and must not be a self loop unless
  ``allow_self_loops`` is set;
* deletes and weight updates must name existing edges (dangling deletes
  are errors, not no-ops), and an edge cannot be both deleted and
  updated in one batch;
* ``remove_vertices`` uses tombstone semantics: incident edges are
  dropped but the vertex id is never reused and ``num_vertices`` does
  not shrink, so keys remain stable across versions.

Weights are always materialised before the first mutation:
``Graph.generate_weights`` derives weights from the *edge list* and the
seed, so mutating an unweighted graph lazily would silently re-roll
every weight.  :meth:`GraphDelta.apply_to` therefore pins the base
weights first and only then edits the edge list.

Applying a batch also says what it changed, edge by edge
(:class:`EdgeChange`, from :meth:`GraphDelta.apply_recording`): the
record the incremental engine turns into EDB rows.  Given the graph's
:class:`EdgeIndex`, which it keeps current, an application finds the
edges the batch names without a pass over the graph.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from repro.engine.plan import position_index
from repro.graphs.graph import Graph


class DeltaValidationError(ValueError):
    """A :class:`GraphDelta` batch is inconsistent with its base graph."""


#: default weight for inserts that do not specify one
DEFAULT_WEIGHT = 1


class EdgeIndex:
    """Where each ``(src, dst)`` pair of one edge list sits, kept current
    from bump to bump at the cost of the batch.

    Every edge holds a *slot*, dealt in list order; ``slots`` maps a pair
    to its slot, or to the ascending slots of a pair held more than once.
    A removed edge's slot joins the sorted ``dead`` list, so an edge's
    position is its slot less the dead slots below it -- a bisection,
    with no renumbering -- and an appended edge takes the next fresh
    slot.  When the dead outnumber the live edges, :meth:`reset` deals
    the slots afresh: a pass over the list that as many removals paid
    for.
    """

    __slots__ = ("slots", "dead", "size")

    def __init__(self, edges: list) -> None:
        self.reset(edges)

    def reset(self, edges: list) -> None:
        """Index ``edges`` from scratch: one C-level pass."""
        self.slots = position_index(edges)
        #: slots of removed edges, ascending
        self.dead: list = []
        #: slots dealt so far
        self.size = len(edges)

    def __len__(self) -> int:
        """The number of edges in the list."""
        return self.size - len(self.dead)

    def __contains__(self, pair) -> bool:
        return pair in self.slots

    @property
    def has_repeats(self) -> bool:
        """Does some pair sit in the list more than once?"""
        return len(self) != len(self.slots)

    def positions(self, pair) -> list:
        """Every position holding ``pair``, ascending."""
        held = self.slots[pair]
        dead = self.dead
        if type(held) is int:
            return [held - bisect_left(dead, held)]
        return [slot - bisect_left(dead, slot) for slot in held]

    def remove(self, pair) -> None:
        """Forget every copy of ``pair``."""
        held = self.slots.pop(pair)
        for slot in (held,) if type(held) is int else held:
            insort(self.dead, slot)

    def append(self, pair) -> None:
        """``pair``, not held, was appended to the list."""
        self.slots[pair] = self.size
        self.size += 1


@dataclass(frozen=True)
class EdgeChange:
    """What one applied batch did to the edge list, edge by edge.

    ``removed`` holds a ``(src, dst, weight)`` triple, with the weight
    object the base graph held, for every edge that left or changed: a
    delete (every copy of a repeated pair), the old side of a reweight,
    each edge incident to a removed vertex.  ``added`` holds one for
    every edge that arrived or changed: an insert, the new side of a
    reweight.  ``vertices`` are the appended vertex ids.  Read edge by
    edge through a builder's row function, a record is the EDB change
    (:mod:`repro.delta.engine`).
    """

    removed: list
    added: list
    vertices: range


@dataclass(frozen=True)
class GraphDelta:
    """One batch of graph mutations, validated against a base graph."""

    #: ``(src, dst, weight)`` triples; ``weight=None`` means
    #: :data:`DEFAULT_WEIGHT`
    insert_edges: tuple = ()
    #: ``(src, dst)`` pairs that must exist in the base graph
    delete_edges: tuple = ()
    #: ``(src, dst, weight)`` for existing edges
    update_weights: tuple = ()
    #: number of fresh vertices appended after ``num_vertices``
    add_vertices: int = 0
    #: tombstoned vertices: incident edges dropped, id slot kept
    remove_vertices: tuple = ()
    allow_self_loops: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "insert_edges",
            tuple(
                (int(s), int(d), w if w is None else float(w))
                for s, d, w in (
                    e if len(e) == 3 else (*e, None) for e in self.insert_edges
                )
            ),
        )
        object.__setattr__(
            self, "delete_edges", tuple((int(s), int(d)) for s, d in self.delete_edges)
        )
        object.__setattr__(
            self,
            "update_weights",
            tuple((int(s), int(d), float(w)) for s, d, w in self.update_weights),
        )
        object.__setattr__(self, "remove_vertices", tuple(int(v) for v in self.remove_vertices))

    # -- shape ----------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (
            self.insert_edges
            or self.delete_edges
            or self.update_weights
            or self.add_vertices
            or self.remove_vertices
        )

    @property
    def is_insert_only(self) -> bool:
        """Pure growth: no facts are retracted and no weights change.

        Insert-only deltas are the fast path of the incremental engine --
        the prior fixpoint stays a valid lower (min) / upper (max) bound
        and additive contributions only ever gain terms.
        """
        return not (self.delete_edges or self.update_weights or self.remove_vertices)

    def summary(self) -> dict:
        return {
            "insert_edges": len(self.insert_edges),
            "delete_edges": len(self.delete_edges),
            "update_weights": len(self.update_weights),
            "add_vertices": self.add_vertices,
            "remove_vertices": len(self.remove_vertices),
            "insert_only": self.is_insert_only,
        }

    # -- validation -----------------------------------------------------------
    def validate(self, graph: Graph) -> None:
        """Raise :class:`DeltaValidationError` unless the batch is applicable."""
        self._validate(graph, set(graph.edges))

    def _validate(self, graph: Graph, existing) -> None:
        """:meth:`validate` against ``existing``, any container of the
        graph's ``(src, dst)`` pairs."""
        bound = graph.num_vertices + self.add_vertices
        removed_vertices = set(self.remove_vertices)

        if self.add_vertices < 0:
            raise DeltaValidationError("add_vertices must be non-negative")

        seen_removed: set = set()
        for vertex in self.remove_vertices:
            if not 0 <= vertex < graph.num_vertices:
                raise DeltaValidationError(
                    f"remove_vertices: vertex {vertex} is not in the graph "
                    f"(0..{graph.num_vertices - 1})"
                )
            if vertex in seen_removed:
                raise DeltaValidationError(
                    f"remove_vertices: vertex {vertex} listed twice"
                )
            seen_removed.add(vertex)

        deletes = set()
        for pair in self.delete_edges:
            if pair in deletes:
                raise DeltaValidationError(f"delete_edges: edge {pair} listed twice")
            if pair not in existing:
                raise DeltaValidationError(
                    f"delete_edges: edge {pair} does not exist (dangling delete)"
                )
            deletes.add(pair)

        seen_updates: set = set()
        for src, dst, _ in self.update_weights:
            pair = (src, dst)
            if pair in seen_updates:
                raise DeltaValidationError(
                    f"update_weights: edge {pair} listed twice"
                )
            if pair not in existing:
                raise DeltaValidationError(
                    f"update_weights: edge {pair} does not exist"
                )
            if pair in deletes:
                raise DeltaValidationError(
                    f"update_weights: edge {pair} is also deleted in this batch"
                )
            seen_updates.add(pair)

        seen_inserts: set = set()
        for src, dst, _ in self.insert_edges:
            pair = (src, dst)
            if not (0 <= src < bound and 0 <= dst < bound):
                raise DeltaValidationError(
                    f"insert_edges: edge {pair} is out of range "
                    f"(graph has {graph.num_vertices} vertices, "
                    f"{self.add_vertices} added)"
                )
            if src == dst and not self.allow_self_loops:
                raise DeltaValidationError(
                    f"insert_edges: self loop {pair} "
                    "(set allow_self_loops to permit)"
                )
            if pair in seen_inserts:
                raise DeltaValidationError(
                    f"insert_edges: edge {pair} listed twice in one batch"
                )
            if pair in existing and pair not in deletes:
                raise DeltaValidationError(
                    f"insert_edges: edge {pair} already exists "
                    "(use update_weights to change its weight)"
                )
            if src in removed_vertices or dst in removed_vertices:
                raise DeltaValidationError(
                    f"insert_edges: edge {pair} touches a vertex removed "
                    "in the same batch"
                )
            seen_inserts.add(pair)

    # -- application ----------------------------------------------------------
    def apply_to(self, graph: Graph) -> Graph:
        """Validate, then return the mutated graph (the base is untouched).

        The result always carries materialised weights (see module
        docstring); surviving edges keep their original order, inserts
        are appended in batch order, so the mutation is deterministic.
        """
        return self.apply_recording(graph)[0]

    def apply_recording(
        self, graph: Graph, index: Optional[EdgeIndex] = None
    ) -> tuple[Graph, "EdgeChange"]:
        """:meth:`apply_to`, plus the :class:`EdgeChange` it made.

        ``index`` is ``graph``'s :class:`EdgeIndex`, which the call keeps
        current for the mutated graph (a
        :class:`~repro.delta.view.MutableGraphView` carries its head's);
        without one, a fresh index is built, one pass over the edges.
        Given it, the batch is validated and its positions found without
        a pass: the edge list is copied whole, then reweighted in place
        and cut at the positions the batch names -- the positions the
        change record is read off.  Removed vertices are the exception:
        their incident edges are found by a scan.  A batch that fails
        validation leaves ``index`` as it was.
        """
        base = graph if graph.weights is not None else graph.with_weights()
        if index is None:
            index = EdgeIndex(base.edges)
        self._validate(graph, index)

        removed_vertices = set(self.remove_vertices)
        updates = {(src, dst): weight for src, dst, weight in self.update_weights}
        if removed_vertices:
            # incident edges cannot be read off the index: scan for them
            named = updates.keys() | set(self.delete_edges)
            touched = [
                position
                for position, edge in enumerate(base.edges)
                if edge in named or not removed_vertices.isdisjoint(edge)
            ]
        else:
            touched = list(
                chain.from_iterable(
                    map(index.positions, chain(updates, self.delete_edges))
                )
            )
            if index.has_repeats:
                touched.sort()  # every copy of a repeated pair, in list order
        edges = list(base.edges)
        weights = list(base.weights)
        removed: list = []
        added: list = []
        drop = []
        for position in touched:
            edge = edges[position]
            removed.append((*edge, weights[position]))
            if edge in updates and removed_vertices.isdisjoint(edge):
                weights[position] = updates[edge]
                added.append((*edge, updates[edge]))
            else:
                drop.append(position)
        for position in sorted(drop, reverse=True):
            del edges[position]
            del weights[position]
        # a dropped pair goes with every copy (the batch names pairs)
        for pair in dict.fromkeys(base.edges[position] for position in drop):
            index.remove(pair)
        for src, dst, weight in self.insert_edges:
            weight = DEFAULT_WEIGHT if weight is None else weight
            edges.append((src, dst))
            weights.append(weight)
            index.append((src, dst))
            added.append((src, dst, weight))
        if len(index.dead) > len(edges):
            index.reset(edges)

        mutated = Graph(
            base.num_vertices + self.add_vertices,
            edges,
            weights,
            name=base.name,
            seed=base.seed,
        )
        vertices = range(base.num_vertices, mutated.num_vertices)
        return mutated, EdgeChange(removed, added, vertices)

    # -- serialisation (the ``repro delta`` CLI file format) -------------------
    def to_dict(self) -> dict:
        return {
            "insert_edges": [list(edge) for edge in self.insert_edges],
            "delete_edges": [list(edge) for edge in self.delete_edges],
            "update_weights": [list(edge) for edge in self.update_weights],
            "add_vertices": self.add_vertices,
            "remove_vertices": list(self.remove_vertices),
            "allow_self_loops": self.allow_self_loops,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphDelta":
        """The batch a :meth:`to_dict` payload describes.

        The payload comes from outside the program (``repro delta
        --file``), so every shape is checked: anything but a well-formed
        batch raises :class:`DeltaValidationError` naming the field and
        the entry at fault.
        """
        if not isinstance(payload, dict):
            raise DeltaValidationError(
                f"a delta is an object of fields, got {payload!r}"
            )
        known = {
            "insert_edges",
            "delete_edges",
            "update_weights",
            "add_vertices",
            "remove_vertices",
            "allow_self_loops",
        }
        unknown = set(payload) - known
        if unknown:
            raise DeltaValidationError(
                f"unknown delta fields: {sorted(unknown, key=repr)} "
                f"(known: {sorted(known)})"
            )
        add_vertices = payload.get("add_vertices", 0)
        if type(add_vertices) is not int:
            raise DeltaValidationError(
                f"add_vertices: expected an integer, got {add_vertices!r}"
            )
        allow_self_loops = payload.get("allow_self_loops", False)
        if type(allow_self_loops) is not bool:
            raise DeltaValidationError(
                f"allow_self_loops: expected true or false, got {allow_self_loops!r}"
            )
        removed = _entries(payload, "remove_vertices")
        return cls(
            insert_edges=_edge_entries(payload, "insert_edges"),
            delete_edges=_edge_entries(payload, "delete_edges"),
            update_weights=_edge_entries(payload, "update_weights"),
            add_vertices=add_vertices,
            remove_vertices=tuple(
                _vertex("remove_vertices", removed, vertex) for vertex in removed
            ),
            allow_self_loops=allow_self_loops,
        )

    @classmethod
    def from_json(cls, text: str) -> "GraphDelta":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeltaValidationError(f"not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _entries(payload: dict, field: str):
    entries = payload.get(field, ())
    if not isinstance(entries, (list, tuple)):
        raise DeltaValidationError(f"{field}: expected a list, got {entries!r}")
    return entries


def _vertex(field: str, entry, value) -> int:
    if type(value) is not int:
        raise DeltaValidationError(
            f"{field}: vertex ids must be integers, got {value!r} in {entry!r}"
        )
    return value


def _check_weight(field: str, entry, weight) -> None:
    if type(weight) not in (int, float):
        raise DeltaValidationError(
            f"{field}: weight {weight!r} in {entry!r} is not a number"
        )
    try:
        finite = math.isfinite(weight)
    except OverflowError:  # an integer no float can hold
        finite = False
    if not finite:
        raise DeltaValidationError(
            f"{field}: weight {weight!r} in {entry!r} is not finite"
        )


#: per edge field of the file format: accepted entry lengths, spelled out
_EDGE_SHAPES = {
    "insert_edges": ((2, 3), "[src, dst] or [src, dst, weight]"),
    "delete_edges": ((2,), "[src, dst]"),
    "update_weights": ((3,), "[src, dst, weight]"),
}


def _edge_entries(payload: dict, field: str) -> tuple:
    """``payload[field]`` as ``(src, dst[, weight])`` tuples: integer
    endpoints, and a finite number for a weight (``null`` on an insert
    asks for :data:`DEFAULT_WEIGHT`)."""
    widths, shape = _EDGE_SHAPES[field]
    edges = []
    for entry in _entries(payload, field):
        if not isinstance(entry, (list, tuple)) or len(entry) not in widths:
            raise DeltaValidationError(f"{field}: expected {shape}, got {entry!r}")
        edge = [_vertex(field, entry, value) for value in entry[:2]]
        if len(entry) == 3:
            weight = entry[2]
            if weight is not None or field != "insert_edges":
                _check_weight(field, entry, weight)
            edge.append(weight)
        edges.append(tuple(edge))
    return tuple(edges)


def random_delta(
    graph: Graph,
    seed: int,
    insert_edges: int = 0,
    delete_edges: int = 0,
    update_weights: int = 0,
    acyclic: bool = False,
    weight_range: tuple = (1, 9),
) -> GraphDelta:
    """A deterministic random mutation batch over ``graph``.

    Draws from a ``random.Random`` seeded with ``seed`` alone, so a
    stream of deltas is a function of the graph and the seeds.
    ``acyclic=True`` restricts inserts to
    ``src < dst`` -- the invariant :func:`repro.graphs.random_dag`
    guarantees -- so path-counting programs stay well-defined.
    """
    rng = random.Random(seed)
    existing = set(graph.edges)
    n = graph.num_vertices
    low, high = weight_range

    inserts: list = []
    chosen: set = set()
    attempts = 0
    while len(inserts) < insert_edges and attempts < 50 * max(1, insert_edges):
        attempts += 1
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if acyclic and src >= dst:
            src, dst = dst, src
        if src == dst:
            continue
        if (src, dst) in existing or (src, dst) in chosen:
            continue
        chosen.add((src, dst))
        inserts.append((src, dst, rng.randint(low, high)))

    deletable = sorted(existing)
    deletes = (
        [tuple(pair) for pair in rng.sample(deletable, min(delete_edges, len(deletable)))]
        if delete_edges
        else []
    )
    deleted = set(deletes)

    updatable = [pair for pair in deletable if pair not in deleted]
    updates = (
        [
            (src, dst, rng.randint(low, high))
            for src, dst in rng.sample(updatable, min(update_weights, len(updatable)))
        ]
        if update_weights
        else []
    )

    return GraphDelta(
        insert_edges=tuple(inserts),
        delete_edges=tuple(deletes),
        update_weights=tuple(updates),
    )
