"""Rule-body evaluation: joins, assignments, filters, head construction.

This is the relational workhorse shared by naive and semi-naive
evaluation and by plan compilation.  Bodies are evaluated *set at a
time*: :func:`match_columns` grows a table of bindings -- one column
per variable -- by one predicate atom per step, looking every row up in
the atom's lazily built hash index on the already-bound positions in
one pass, while comparison atoms are applied down whole columns as soon
as their variables are bound (``=`` with an unbound left variable acts
as an assignment, everything else as a filter).  The only per-row
Python left is inside the compiled comparison expressions themselves.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.datalog.ast import (
    AggregateSpec,
    ComparisonAtom,
    IterationNext,
    NumberConstant,
    PredicateAtom,
    Rule,
    RuleBody,
    SymbolConstant,
    Variable,
    Wildcard,
)
from repro.datalog.errors import AnalysisError
from repro.engine.relation import Database, Relation
from repro.engine.result import WorkCounters
from repro.expr import Var, compile_fn


def to_number(value):
    """Convert parser Fractions to engine numbers (int when integral)."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else float(value)
    return value


def _strip_iteration(atom: PredicateAtom, iterated_predicate: Optional[str]) -> PredicateAtom:
    """Drop the iteration-index argument of an iterated predicate's atoms.

    Only atoms of the iterated head predicate carry the index (e.g.
    ``rank(i, X, rx)``); ``edge``/``degree`` atoms are untouched.
    """
    if atom.name != iterated_predicate:
        return atom
    return PredicateAtom(atom.name, atom.terms[1:])


_COMPARATORS: dict[str, Callable] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _CompiledComparison:
    """A comparison atom prepared for evaluation down a binding table.

    ``fn`` takes the columns named by ``argnames`` positionally.  With
    ``assign_to`` set (``=`` under a bare left variable) it computes the
    right-hand side: an assignment while that variable is unbound, an
    equality filter once it is bound.  Otherwise it is the whole test.
    """

    __slots__ = ("atom", "assign_to", "argnames", "fn")

    def __init__(self, atom: ComparisonAtom):
        self.atom = atom
        if atom.op == "=" and isinstance(atom.left, Var):
            self.assign_to = atom.left.name
            self.argnames = tuple(sorted(atom.right.free_vars()))
            self.fn = compile_fn(atom.right, self.argnames)
        else:
            self.assign_to = None
            self.argnames = tuple(
                sorted(atom.left.free_vars() | atom.right.free_vars())
            )
            left_fn = compile_fn(atom.left, self.argnames)
            right_fn = compile_fn(atom.right, self.argnames)
            compare = _COMPARATORS[atom.op]
            self.fn = lambda *args: compare(left_fn(*args), right_fn(*args))

    def apply(self, rows: int, columns: dict) -> Optional[int]:
        """Apply down the table if evaluable: returns the surviving row
        count, or ``None`` to defer until more variables are bound."""
        if not columns.keys() >= set(self.argnames):
            return None
        if self.argnames:
            values = map(self.fn, *map(columns.__getitem__, self.argnames))
        else:
            values = (self.fn() for _ in range(rows))
        if self.assign_to is not None:
            if self.assign_to not in columns:
                columns[self.assign_to] = list(values)
                return rows
            values = map(operator.eq, columns[self.assign_to], values)
        mask = list(values)
        kept = sum(map(bool, mask))
        if kept != rows:
            _keep(columns, mask)
        return kept


def repeat_each(column: Iterable, counts: Iterable[int]) -> list:
    """``column`` with its ``j``-th value repeated ``counts[j]`` times."""
    return list(chain.from_iterable(map(repeat, column, counts)))


def _keep(columns: dict, mask: list) -> None:
    """Drop, from every column, the rows whose ``mask`` entry is false."""
    for name, column in columns.items():
        columns[name] = list(compress(column, mask))


def _apply_comparisons(pending: list, rows: int, columns: dict) -> tuple[int, list]:
    """Apply every evaluable comparison, again while one made progress;
    returns the surviving row count and the comparisons still deferred."""
    progressed = True
    while progressed and rows:
        progressed = False
        deferred = []
        for comparison in pending:
            kept = comparison.apply(rows, columns)
            if kept is None:
                deferred.append(comparison)
            else:
                rows = kept
                progressed = True
        pending = deferred
    return rows, pending


def match_columns(
    atoms: Iterable,
    db: Database,
    overrides: Optional[Mapping[str, Relation]] = None,
    counters: Optional[WorkCounters] = None,
    iterated_predicate: Optional[str] = None,
) -> tuple[int, dict[str, list]]:
    """All variable bindings satisfying a conjunction of atoms, as a table.

    Returns ``(rows, columns)``: ``columns[name][j]`` is the value of
    variable ``name`` in the ``j``-th binding, and the values are the
    relations' own objects.  Atoms that are neither predicates nor
    comparisons (termination clauses) are ignored.

    ``overrides`` maps predicate names to replacement relations -- this is
    how semi-naive evaluation binds the recursive atom to the delta
    relation instead of the full one.

    The table starts as the one empty binding and is extended one
    predicate atom at a time, outer rows major and each row's matches in
    index-bucket order: the order a depth-first, atom-by-atom
    backtracking search yields bindings in.  Before each atom and once
    at the end every comparison whose variables are bound is applied.
    Like that search the join is lazy about errors: once no binding is
    left nothing further is looked up or evaluated, a body term that
    cannot be matched raises only when a tuple reaches it, and leftover
    comparisons raise only when a binding survives to the end.
    """
    overrides = overrides or {}
    atoms = list(atoms)
    pending = [_CompiledComparison(a) for a in atoms if isinstance(a, ComparisonAtom)]
    rows, columns = 1, {}
    for atom in atoms:
        if not isinstance(atom, PredicateAtom):
            continue
        rows, pending = _apply_comparisons(pending, rows, columns)
        if rows:
            atom = _strip_iteration(atom, iterated_predicate)
            relation = (
                overrides[atom.name] if atom.name in overrides else db.relation(atom.name)
            )
            rows = _join(atom, relation, rows, columns, counters)
    rows, pending = _apply_comparisons(pending, rows, columns)
    if not rows:
        # nothing downstream was reached, so no name is known to be
        # bound or unbound: an empty table has an empty column for any
        return 0, defaultdict(list)
    if pending:
        raise AnalysisError(
            f"comparisons with unbound variables: {[c.atom for c in pending]}"
        )
    return rows, columns


def _join(
    atom: PredicateAtom,
    relation: Relation,
    rows: int,
    columns: dict,
    counters: Optional[WorkCounters],
) -> int:
    """Extend the binding table in place by one atom; returns its new row count."""
    positions: list[int] = []
    key_parts: list[Iterable] = []
    joined = False
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term.name in columns:
                positions.append(position)
                key_parts.append(columns[term.name])
                joined = True
        elif isinstance(term, NumberConstant):
            positions.append(position)
            key_parts.append(repeat(to_number(term.value)))
        elif isinstance(term, SymbolConstant):
            positions.append(position)
            key_parts.append(repeat(term.value))
    if joined:
        buckets = relation.lookup_many(positions, zip(*key_parts))
    else:
        # no bound variable: every row meets the same tuples (a cross product)
        buckets = [relation.lookup(positions, next(zip(*key_parts), ()))] * rows
    lengths = list(map(len, buckets))
    if counters is not None:
        counters.tuples_scanned += sum(lengths)
    matched = list(chain.from_iterable(buckets))
    if lengths.count(1) != rows:  # else a functional lookup: rows stay put
        for name, column in columns.items():
            columns[name] = repeat_each(column, lengths)
    fresh: set[str] = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term.name not in columns:
                # one pass per position: transposing with zip(*matched)
                # would hold an iterator per tuple alive at once
                columns[term.name] = list(map(operator.itemgetter(position), matched))
                fresh.add(term.name)
            elif term.name in fresh:
                # repeated within the atom: later occurrences filter
                again = map(operator.itemgetter(position), matched)
                mask = list(map(operator.eq, columns[term.name], again))
                _keep(columns, mask)
                matched = list(compress(matched, mask))
        elif not isinstance(term, (Wildcard, NumberConstant, SymbolConstant)) and matched:
            raise AnalysisError(f"unsupported body term {term!r}")
    return len(matched)


def key_column(parts: Sequence[Iterable], rows: int) -> list:
    """``rows`` group-by keys from per-position columns: the values
    themselves for a single position, tuples otherwise."""
    keys = parts[0] if len(parts) == 1 else zip(*parts) if parts else repeat(())
    return list(islice(keys, rows))


def _head_pairs(
    rule: Rule, rows: int, columns: Mapping[str, list], iterated_predicate: Optional[str]
) -> list[tuple]:
    """One (key, value) per binding row, built from a rule head.

    The last head position carries the value (the aggregate variable for
    aggregate heads); earlier positions are the group-by key.  ``count``
    heads contribute 1 per binding (standard counting semantics).
    """
    terms = rule.head.terms
    if rule.head.name == iterated_predicate and isinstance(
        terms[0], (IterationNext, NumberConstant, Variable)
    ):
        terms = terms[1:]
    *key_terms, last = terms
    parts: list[Iterable] = []
    for term in key_terms:
        if isinstance(term, Variable):
            parts.append(columns[term.name])
        elif isinstance(term, NumberConstant):
            parts.append(repeat(to_number(term.value)))
        elif isinstance(term, SymbolConstant):
            parts.append(repeat(term.value))
        else:
            raise AnalysisError(f"unsupported head term {term!r}")
    if isinstance(last, AggregateSpec):
        values = repeat(1) if last.op == "count" else columns[last.variable]
    elif isinstance(last, Variable):
        values = columns[last.name]
    elif isinstance(last, NumberConstant):
        values = repeat(to_number(last.value))
    else:
        raise AnalysisError(f"unsupported head value term {last!r}")
    return list(zip(key_column(parts, rows), values))


def evaluate_rule_bodies(
    rule: Rule,
    db: Database,
    bodies: Optional[Iterable[RuleBody]] = None,
    overrides: Optional[Mapping[str, Relation]] = None,
    counters: Optional[WorkCounters] = None,
    iterated_predicate: Optional[str] = None,
) -> list[tuple]:
    """Evaluate (some of) a rule's bodies, returning raw (key, value) pairs.

    Aggregation is *not* applied here -- callers group and combine, which
    lets naive evaluation aggregate the union of many sources in one pass.
    Facts (rules without bodies) yield their head directly.
    """
    selected = list(bodies) if bodies is not None else list(rule.bodies)
    if not selected:
        return _head_pairs(rule, 1, {}, iterated_predicate)
    contributions: list[tuple] = []
    for body in selected:
        rows, columns = match_columns(
            body.atoms,
            db,
            overrides=overrides,
            counters=counters,
            iterated_predicate=iterated_predicate,
        )
        if counters is not None:
            counters.bindings_produced += rows
        if rows:  # the head, too, is only inspected under a binding
            contributions += _head_pairs(rule, rows, columns, iterated_predicate)
    return contributions


def aggregate_contributions(
    aggregate,
    contributions: Iterable[tuple],
    counters: Optional[WorkCounters] = None,
) -> dict:
    """Group (key, value) pairs by key and fold with the aggregate, in
    arrival order, keys in first-occurrence order; each fold onto a key
    already grouped counts one ``combines`` in ``counters``."""
    grouped: dict = {}
    combine = aggregate.combine
    for key, value in contributions:
        if key in grouped:
            grouped[key] = combine(grouped[key], value)
            if counters is not None:
                counters.combines += 1
        else:
            grouped[key] = value
    return grouped


def evaluate_aux_rules(analysis, db: Database, counters: Optional[WorkCounters] = None):
    """Materialise auxiliary (non-recursive, non-head) rules into ``db``.

    Auxiliary rules may only depend on the EDB and earlier auxiliaries
    (checked); aggregate heads are grouped with their operator.
    """
    from repro.aggregates import get_aggregate
    from repro.datalog.ast import AggregateSpec

    materialised: set[str] = set()
    for rule in analysis.aux_rules:
        for body in rule.bodies:
            for atom in body.predicate_atoms():
                name = atom.name
                if name == analysis.head or (
                    name not in analysis.edb_predicates
                    and name not in materialised
                    and name != rule.head.name
                ):
                    raise AnalysisError(
                        f"auxiliary rule {rule!r} depends on {name!r} before it is "
                        "materialised"
                    )
        contributions = evaluate_rule_bodies(rule, db, counters=counters)
        last = rule.head.terms[-1]
        if isinstance(last, AggregateSpec):
            grouped = aggregate_contributions(get_aggregate(last.op), contributions)
            rows = [
                (key if isinstance(key, tuple) else (key,)) + (value,)
                for key, value in grouped.items()
            ]
        else:
            rows = [
                (key if isinstance(key, tuple) else (key,)) + (value,)
                for key, value in contributions
            ]
        arity = len(rule.head.terms)
        relation = db.relation(rule.head.name, arity)
        relation.extend(rows)
        materialised.add(rule.head.name)
