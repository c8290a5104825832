"""Compilation of analysed programs into vertex-centric plans.

The MRA and distributed engines do not re-join auxiliary predicates on
every update.  Instead, the recursive body's joins are evaluated *once*
at compile time and folded into per-edge parameter tuples -- exactly the
"Auxiliaries" columns of the paper's MonoTable (Figure 7), which "store
the joined results of non-recursive predicates in the recursive rule
body and other constant values of each tuple".

A :class:`CompiledPlan` is therefore a dependency graph over keys,
stored as those columns (:class:`EdgeColumns`): edge ``j`` runs
``srcs[j] -> dsts[j]`` and ``fn(x, *params_j)`` is the contribution
``F'`` sends along it; the adjacency form is a view derived from them.

The join is computed set-at-a-time
(:func:`~repro.engine.rules.match_columns`): its result is a table with
one column per variable, and the plan's columns are taken from it whole
-- no per-edge Python runs at compile time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, repeat
from operator import ne
from typing import Callable, Optional

from repro.datalog import ProgramAnalysis
from repro.engine.common import initial_values, recursive_rule
from repro.engine.relation import Database
from repro.engine.result import WorkCounters
from repro.engine.rules import (
    aggregate_contributions,
    evaluate_aux_rules,
    evaluate_rule_bodies,
    key_column,
    match_columns,
    repeat_each,
)
from repro.engine.termination import TerminationSpec
from repro.expr import compile_fn


@dataclass
class CompiledPlan:
    """A recursive aggregate program compiled to vertex-centric form."""

    name: str
    analysis: ProgramAnalysis
    #: every key that can ever hold a value
    keys: frozenset
    #: the dependency edges, and the only place they are stored: one
    #: :class:`EdgeColumns` per recursive body in ``fprime_fns`` order
    #: (Program-2.b rules have several), each in emission order
    edge_columns: tuple[EdgeColumns, ...]
    #: one compiled ``F'`` per recursive body, primary first
    fprime_fns: tuple[Callable, ...]
    #: ``X⁰`` from the base rules
    initial: dict
    #: per-key constant contributions ``C`` (one application's worth)
    constants: dict
    termination: TerminationSpec

    @property
    def aggregate(self):
        return self.analysis.aggregate

    @property
    def fprime_fn(self) -> Callable:
        """The primary body's compiled ``F'`` (convenience accessor)."""
        return self.fprime_fns[0]

    @property
    def num_edges(self) -> int:
        return sum(len(columns) for columns in self.edge_columns)

    @cached_property
    def out_edges(self) -> dict:
        """Adjacency view: src key -> ``[(dst key, params tuple, fn), ...]``,
        derived from ``edge_columns`` on first access (the array kernel
        never asks).  Sources come in first-emission order and a
        source's edges body by body, then in emission order: the fold
        order the scalar consumers make observable.
        """
        view: dict = {}
        for columns in self.edge_columns:
            fn = columns.fn
            for src, dst, row in zip(columns.srcs, columns.dsts, columns.param_rows()):
                edges = view.get(src)
                if edges is None:
                    edges = view[src] = []
                edges.append((dst, row, fn))
        return view

    def edges_from(self, key) -> list:
        return self.out_edges.get(key, ())

    @cached_property
    def signature(self) -> Counter:
        """Multiset of ``(src, dst, params, body)`` dependency edges: what
        two compiles of one program are diffed by.

        Compiled ``F'`` closures are fresh objects on every compile, so
        the *index* of the recursive body (stable across compiles of the
        same analysed program) identifies which ``F'`` an edge applies.
        Read straight off the columns: a multiset has no edge order.
        Cached, so read-only: a plan is diffed once as the new compile
        and once more as the old one.
        """
        signature: Counter = Counter()
        for body, columns in enumerate(self.edge_columns):
            signature.update(
                edge_signatures(body, columns.srcs, columns.dsts, columns.param_cols)
            )
        return signature

    def patched(
        self, added: Counter, removed: Counter, initial: dict, constants: dict
    ) -> "CompiledPlan":
        """This plan minus the edges ``removed``, plus the edges ``added``
        (multisets of :attr:`signature` elements), over the given base
        facts: what a fresh compile of the changed EDB holds, as a
        multiset -- a patched plan's *edge order* is its lineage's, not
        a fresh compile's.

        Costs the change, not the plan: what a lineage of patched plans
        needs (:class:`_Lineage` -- where each edge sits, how many edge
        endpoints each key has, the value types of its untyped columns)
        is built in C-level passes on the lineage's first patch and
        handed from plan to plan.  A removed edge is overwritten by its
        body's last edge (swap-remove), an added one appended; ``keys``
        changes by the endpoints whose count crosses zero and the base
        keys that come or go.  Columns stay type-exact
        (:class:`EdgeColumns`) without a pass over a column whose kind
        the type counts say did not change, and none of this plan's
        caches carry over -- but two of the array kernel's: its key order
        when ``keys`` did not change, and its packed CSR, handed over
        with the :class:`PlanMoves` that turn it into this plan's
        (``repro.runtime.csr`` splices it on first use).
        """
        lineage = self.__dict__.pop("_lineage", None) or _Lineage(self.edge_columns)
        bodies = [
            [columns.srcs[:], columns.dsts[:], *(col[:] for col in columns.param_cols)]
            for columns in self.edge_columns
        ]
        moves = [PlanMoves() for _ in bodies]
        leaving: set = set()
        for edge, count in removed.items():
            body = edge[3]
            leaving.update(lineage.remove(bodies[body], edge, count, moves[body]))
        for body, cols in enumerate(bodies):
            moves[body].kept = len(cols[0])
        for edge, count in added.items():
            lineage.append(bodies[edge[3]], edge, count)
        lineage.retype(bodies)

        arriving = {key for edge in added for key in edge[:2]}
        if initial is not self.initial or constants is not self.constants:
            after = initial.keys() | constants.keys()
            leaving |= (self.initial.keys() | self.constants.keys()) - after
            arriving |= after
        leaving = {key for key in leaving if key not in lineage.refs} - initial.keys()
        leaving -= constants.keys()
        arriving -= self.keys
        keys = self.keys
        if leaving or arriving:
            keys = keys.difference(leaving).union(arriving)
        plan = replace(
            self,
            keys=keys,
            edge_columns=tuple(
                EdgeColumns.typed(columns.fn, cols)
                for columns, cols in zip(self.edge_columns, bodies)
            ),
            initial=initial,
            constants=constants,
        )
        plan._lineage = lineage
        cached = vars(self)
        if keys is self.keys and "_kernel_key_order" in cached:
            plan._kernel_key_order = cached["_kernel_key_order"]
            plan._kernel_keys_sorted = cached["_kernel_keys_sorted"]
        if "_kernel_csr" in cached:
            plan._kernel_parent = (cached["_kernel_csr"], moves)
        return plan

    def __repr__(self):
        return (
            f"CompiledPlan({self.name}: {len(self.keys)} keys, "
            f"{self.num_edges} edges, aggregate={self.aggregate.name})"
        )


class EdgeColumns:
    """One recursive body's edges as flat parallel columns.

    ``srcs[j] -> dsts[j]`` with parameters ``tuple(col[j] for col in
    param_cols)`` and the body's compiled ``fn``; ``j`` runs in emission
    order.

    Columns are *type-exact*: ``array('q')`` when every value is exactly
    ``int``, ``array('d')`` when exactly ``float``, else the plain list
    (tuple keys, symbolic parameters, ``bool``, mixed ``int``/``float``,
    integers beyond 64 bits).  The adjacency view hands these values to
    the scalar kernel, so a column may never coerce -- an int weight in
    a C double prints ``4.0`` for ``4`` and loses ``2**53 + 1`` -- while
    typed columns let the array kernel pack a CSR from zero-copy buffer
    views; this module itself never needs numpy for them.
    """

    __slots__ = ("fn", "srcs", "dsts", "param_cols")

    def __init__(self, fn: Callable, srcs: list, dsts: list, param_cols) -> None:
        self.fn = fn
        self.srcs = _typed_column(srcs)
        self.dsts = _typed_column(dsts)
        self.param_cols = tuple(_typed_column(col) for col in param_cols)

    @classmethod
    def typed(cls, fn: Callable, cols: list) -> "EdgeColumns":
        """``[srcs, dsts, *param_cols]`` that are type-exact already (a
        patch keeps them so): no pass over their values."""
        columns = cls.__new__(cls)
        columns.fn = fn
        # an emptied typed column is the list ``_typed_column`` leaves
        columns.srcs, columns.dsts, *params = [col if col else [] for col in cols]
        columns.param_cols = tuple(params)
        return columns

    def __len__(self) -> int:
        return len(self.srcs)

    def param_rows(self):
        """The per-edge parameter tuples, in emission order."""
        return zip(*self.param_cols) if self.param_cols else repeat((), len(self))


def edge_signatures(body: int, srcs, dsts, param_cols):
    """``(src, dst, params, body)`` per edge of one body's columns: the
    elements of :attr:`CompiledPlan.signature`."""
    params = zip(*param_cols) if param_cols else repeat(())
    return zip(srcs, dsts, params, repeat(body))


def edge_index(edge_columns) -> dict:
    """Where each edge sits: its :func:`flat_signature` -> position, or ->
    the ascending positions of a signature held more than once.  One
    C-level pass per body, one tuple per edge; Python runs only over the
    repeated copies."""
    index: dict = {}
    for body, columns in enumerate(edge_columns):
        flats = zip(columns.srcs, columns.dsts, *columns.param_cols, repeat(body))
        index.update(position_index(list(flats)))
    return index


def flat_signature(edge) -> tuple:
    """A :attr:`CompiledPlan.signature` element ``(src, dst, params,
    body)`` as one flat tuple ``(src, dst, *params, body)``."""
    src, dst, params, body = edge
    return (src, dst, *params, body)


def position_index(items: list) -> dict:
    """``item -> position`` over ``items``, or -> the ascending positions
    of an item held more than once: one C-level pass, and Python only
    over the repeated copies."""
    span = range(len(items))
    positions = dict(zip(items, span))
    if len(positions) != len(items):
        # every position but an item's last
        earlier = compress(span, map(ne, map(positions.__getitem__, items), span))
        repeats: dict = {}
        for position in earlier:
            repeats.setdefault(items[position], []).append(position)
        for item, held in repeats.items():
            held.append(positions[item])
            positions[item] = held
    return positions


class PlanMoves:
    """Where one body's edges went in a patch: the parent's edge at
    position ``origin[j]`` now sits at ``j`` (swap-remove moved it), the
    parent's edges ``gone`` (``(position, source key)`` pairs) left,
    every other edge the parent held below ``kept`` stayed put, and the
    edges from ``kept`` on are new."""

    __slots__ = ("origin", "gone", "kept")

    def __init__(self) -> None:
        self.origin: dict = {}
        self.gone: list = []
        self.kept = 0


class _Lineage:
    """What a lineage of patched plans hands from plan to plan.

    ``positions`` is :func:`edge_index` (one flat tuple per edge where a
    signature is two), kept current by the patches; ``refs`` counts each
    key's edge endpoints (a key whose count reaches zero is a key no
    more, unless a base fact holds it); ``types``
    counts the value types of every column stored untyped, so a patch
    knows when one could be typed again without looking at it.  All
    three are built in C-level passes on the lineage's first patch.
    """

    __slots__ = ("positions", "refs", "types", "touched")

    def __init__(self, edge_columns) -> None:
        self.positions = edge_index(edge_columns)
        self.refs: Counter = Counter()
        self.types: dict = {}
        #: ``(body, slot)`` of the columns the current patch changed
        self.touched: set = set()
        for body, columns in enumerate(edge_columns):
            self.refs.update(columns.srcs)
            self.refs.update(columns.dsts)
            for slot, col in enumerate((columns.srcs, columns.dsts, *columns.param_cols)):
                if type(col) is list:
                    self.types[body, slot] = Counter(map(type, col))

    def remove(self, cols: list, edge, count: int, moves: PlanMoves) -> list:
        """Take ``count`` copies of ``edge`` out of its body's columns
        ``cols``, each overwritten by the body's last edge, and say so in
        ``moves``; returns the keys left with no edge endpoint."""
        body = edge[3]
        origin = moves.origin
        key = flat_signature(edge)
        for _ in range(count):
            position = self._take(key)
            for slot, col in enumerate(cols):
                if type(col) is list:
                    self.types[body, slot][type(col[position])] -= 1
                    self.touched.add((body, slot))
            last = len(cols[0]) - 1
            moves.gone.append((origin.pop(position, position), edge[0]))
            if position != last:
                origin[position] = origin.pop(last, last)
                self._move((*(col[last] for col in cols), body), last, position)
                for col in cols:
                    col[position] = col[last]
            for col in cols:
                col.pop()
        emptied = []
        for key in edge[:2]:
            held = self.refs[key] - count
            if held:
                self.refs[key] = held
            else:
                del self.refs[key]
                emptied.append(key)
        return emptied

    def append(self, cols: list, edge, count: int) -> None:
        """Append ``count`` copies of ``edge`` to its body's columns."""
        src, dst, params, body = edge
        key = flat_signature(edge)
        for _ in range(count):
            self._put(key, len(cols[0]))
            for slot, value in enumerate((src, dst, *params)):
                col = cols[slot]
                if type(col) is list:
                    kinds = self.types.get((body, slot))
                    if kinds is None:  # a typed column emptied before
                        kinds = self.types[body, slot] = Counter()
                    kinds[type(value)] += 1
                    col.append(value)
                else:
                    col = cols[slot] = _appended(col, value)
                    if type(col) is list:  # demoted: count what it holds
                        self.types[body, slot] = Counter(map(type, col))
                self.touched.add((body, slot))
        for key in edge[:2]:
            self.refs[key] += count

    def retype(self, bodies: list) -> None:
        """Type every untyped column this patch changed whose values
        are of one C type again (``_typed_column``'s verdict)."""
        for body, slot in self.touched:
            col = bodies[body][slot]
            kinds = [kind for kind, n in self.types.get((body, slot), {}).items() if n]
            if type(col) is list and len(kinds) == 1 and kinds[0] in _TYPECODES:
                typed = _typed_column(col)
                if typed is not col:
                    bodies[body][slot] = typed
                    del self.types[body, slot]
        self.touched.clear()

    def _take(self, key) -> int:
        """Forget (and return) the last position holding ``key``."""
        held = self.positions[key]
        if type(held) is int:
            del self.positions[key]
            return held
        position = held.pop()
        if len(held) == 1:
            self.positions[key] = held[0]
        return position

    def _put(self, key, position: int) -> None:
        held = self.positions.get(key)
        if held is None:
            self.positions[key] = position
        elif type(held) is int:
            self.positions[key] = [held, position]
        else:
            held.append(position)

    def _move(self, key, old: int, new: int) -> None:
        held = self.positions[key]
        if type(held) is int:
            self.positions[key] = new
        else:
            held[held.index(old)] = new


_TYPECODES = {int: "q", float: "d"}


def _typed_column(values):
    """``values`` as a C-typed array when that loses nothing, else as is."""
    if isinstance(values, array):  # typed already; an empty column is a list
        return values if values else []
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return values
    typecode = _TYPECODES.get(kinds.pop())
    if typecode is None:
        return values
    try:
        return array(typecode, values)
    except OverflowError:  # an int beyond 64 bits
        return values


def _appended(column, value):
    """``column`` with ``value`` appended: a typed array that could only
    hold the value by coercing it (``4`` in a double array, ``7.0`` or
    ``2**70`` in an int array) becomes a list first, as
    :func:`_typed_column` would have left it."""
    if isinstance(column, array):
        if _TYPECODES.get(type(value)) == column.typecode:
            try:
                column.append(value)
                return column
            except OverflowError:  # an int beyond 64 bits
                pass
        column = column.tolist()
    column.append(value)
    return column


def base_values(
    analysis: ProgramAnalysis, db: Database, counters: Optional[WorkCounters] = None
) -> tuple[dict, dict]:
    """``X⁰`` from the base rules and the per-key constants ``C`` from
    the recursive rule's constant bodies, evaluated against ``db``."""
    iterated = analysis.head if analysis.iterated else None
    initial = initial_values(
        analysis, db, counters=counters, iterated_predicate=iterated
    )
    constants: dict = {}
    if analysis.constant_bodies:
        contributions = evaluate_rule_bodies(
            recursive_rule(analysis),
            db,
            bodies=analysis.constant_bodies,
            counters=counters,
            iterated_predicate=iterated,
        )
        constants = aggregate_contributions(analysis.aggregate, contributions)
    return initial, constants


def broadcast_names(analysis: ProgramAnalysis, spec) -> list[str]:
    """Key variables shared between the recursive atom and the head but
    not bound by any join atom: *broadcast* dimensions (e.g. the source
    column S of APSP: ``apsp(S,Y,...) :- apsp(S,X,...), edge(X,Y,...)``).
    The edge pattern applies for every value of such a variable."""
    join_bound: set[str] = set()
    for atom in spec.join_atoms:
        join_bound.update(atom.variables())
    return [
        name
        for name in spec.source_keys
        if name in analysis.key_vars and name not in join_bound
    ]


def body_columns(
    analysis: ProgramAnalysis,
    spec,
    db: Database,
    base_keys,
    overrides=None,
    counters: Optional[WorkCounters] = None,
) -> tuple[list, list, list]:
    """One recursive body's join as plan columns ``(srcs, dsts,
    param_cols)``, one entry per dependency edge in emission order.

    ``base_keys`` (the keys of ``X⁰`` and ``C``) supplies the values
    broadcast dimensions are expanded over.  ``overrides`` replaces
    relations by name, as in :func:`~repro.engine.rules.match_columns`:
    joined against only the *changed* rows of a relation the body
    mentions once, this yields exactly the edges those rows account for,
    which is how :mod:`repro.delta` turns an EDB delta into a plan delta.
    """
    recursion_var = spec.recursion_var
    # Comparisons participating in F' (the definition chain of the head
    # variable) mention the recursion variable and are excluded from the
    # compile-time join; pure filters/assignments over join variables
    # stay.
    join_comparisons = [
        comparison
        for comparison in spec.comparisons
        if recursion_var not in comparison.left.free_vars()
        and recursion_var not in comparison.right.free_vars()
    ]
    rows, columns = match_columns(
        list(spec.join_atoms) + join_comparisons,
        db,
        overrides=overrides,
        counters=counters,
        iterated_predicate=analysis.head if analysis.iterated else None,
    )
    for name in broadcast_names(analysis, spec):
        # expanded over the values observed in X⁰ and C.  One edge per
        # value, values innermost: repeat every row, tile the values
        # against them
        position = spec.source_keys.index(name)
        values = sorted(
            {(key if isinstance(key, tuple) else (key,))[position] for key in base_keys}
        )
        for bound, column in columns.items():
            columns[bound] = repeat_each(column, repeat(len(values)))
        columns[name] = values * rows
        rows *= len(values)
    srcs = key_column([columns[name] for name in spec.source_keys], rows)
    dsts = key_column([columns[name] for name in analysis.key_vars], rows)
    return srcs, dsts, [columns[name] for name in spec.fprime_params]


def compile_plan(
    analysis: ProgramAnalysis,
    db: Database,
    termination: Optional[TerminationSpec] = None,
    counters: Optional[WorkCounters] = None,
) -> CompiledPlan:
    """Compile an analysed program against a database of EDB facts.

    Raises :class:`~repro.datalog.errors.AnalysisError` (carrying the
    RA201 diagnostic) when a head variable is unbound -- the rule could
    never be evaluated, so the plan fails fast instead of producing a
    partial dependency graph.
    """
    from repro.analysis.lints import lint_unbound_head_variables
    from repro.datalog.errors import AnalysisError

    unbound = lint_unbound_head_variables(analysis.program)
    if unbound:
        first = unbound[0]
        raise AnalysisError(first.message, code=first.code, diagnostic=first)

    counters = counters if counters is not None else WorkCounters()
    # The plan's key and edge orders are read off this copy, not off
    # ``db``: ``Database.copy`` re-inserts each relation's rows one at a
    # time in ``db``'s iteration order, and that re-insertion lays the
    # sets out anew (on the sssp and pagerank benchmark inputs,
    # ``list(db.relation("edge")) != list(db.copy().relation("edge"))``).
    # Replacing it with ``set.copy()``, or dropping it, moves every plan.
    work_db = db.copy()
    evaluate_aux_rules(analysis, work_db, counters=counters)
    initial, constants = base_values(analysis, work_db, counters=counters)

    keys: set = set(initial) | set(constants)
    base_keys = frozenset(keys)
    fprime_fns = []
    edge_columns: list[EdgeColumns] = []
    for spec in analysis.recursions:
        fn = compile_fn(spec.fprime, (spec.recursion_var, *spec.fprime_params))
        fprime_fns.append(fn)
        srcs, dsts, param_cols = body_columns(
            analysis, spec, work_db, base_keys, counters=counters
        )
        # interleaved, as emitted: the set's layout (hence its iteration
        # order, which the partition map inherits) depends on it
        keys.update(chain.from_iterable(zip(srcs, dsts)))
        edge_columns.append(EdgeColumns(fn, srcs, dsts, param_cols))

    return CompiledPlan(
        name=analysis.program.name,
        analysis=analysis,
        keys=frozenset(keys),
        edge_columns=tuple(edge_columns),
        fprime_fns=tuple(fprime_fns),
        initial=initial,
        constants=constants,
        termination=termination or TerminationSpec.from_analysis(analysis),
    )
