"""The tuple-at-a-time matcher, kept as the oracle for ``match_columns``.

This is the backtracking generator that ``repro.engine.rules`` evaluated
rule bodies with before the column-at-a-time join replaced it, moved
here verbatim (``iter_bindings`` -> ``reference_bindings``,
``_head_key_and_value`` -> ``reference_head_key_and_value``): one
binding ``dict`` per yield, depth first over the predicate atoms,
comparisons applied per binding.  It shares no code with the join it
checks beyond the AST, the relations and ``compile_fn``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.datalog.ast import (
    ComparisonAtom,
    NumberConstant,
    PredicateAtom,
    Rule,
    SymbolConstant,
    Variable,
    Wildcard,
)
from repro.datalog.errors import AnalysisError
from repro.engine.relation import Database, Relation
from repro.engine.result import WorkCounters
from repro.engine.rules import to_number
from repro.expr import Var, compile_fn


def _strip_iteration(atom: PredicateAtom, iterated_predicate: Optional[str]) -> PredicateAtom:
    if atom.name != iterated_predicate:
        return atom
    return PredicateAtom(atom.name, atom.terms[1:])


class _CompiledComparison:
    """A comparison atom prepared for repeated evaluation."""

    __slots__ = ("atom", "assign_to", "needs", "fn", "argnames")

    def __init__(self, atom: ComparisonAtom):
        self.atom = atom
        left_is_var = isinstance(atom.left, Var)
        left_vars = atom.left.free_vars()
        right_vars = atom.right.free_vars()
        if atom.op == "=" and left_is_var:
            # may act as assignment when the left variable is unbound
            self.assign_to = atom.left.name
            self.argnames = tuple(sorted(right_vars))
            self.fn = compile_fn(atom.right, self.argnames)
            self.needs = set(self.argnames)
        else:
            self.assign_to = None
            self.argnames = tuple(sorted(left_vars | right_vars))
            expr_pair = (atom.left, atom.right)
            left_fn = compile_fn(expr_pair[0], self.argnames)
            right_fn = compile_fn(expr_pair[1], self.argnames)
            op = atom.op
            comparators: dict[str, Callable] = {
                "=": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }
            compare = comparators[op]
            self.fn = lambda **kw: compare(left_fn(**kw), right_fn(**kw))
            self.needs = set(self.argnames)

    def try_apply(self, binding: dict) -> Optional[bool]:
        """Apply if evaluable: returns True/False (keep/drop) or None (defer)."""
        if self.assign_to is not None and self.assign_to not in binding:
            if not self.needs <= binding.keys():
                return None
            binding[self.assign_to] = self.fn(
                **{name: binding[name] for name in self.argnames}
            )
            return True
        # filter: both sides must be bound (an assigned var counts as bound)
        required = self.needs | ({self.assign_to} if self.assign_to else set())
        if not required <= binding.keys():
            return None
        if self.assign_to is not None:
            return binding[self.assign_to] == self.fn(
                **{name: binding[name] for name in self.argnames}
            )
        return bool(self.fn(**{name: binding[name] for name in self.argnames}))


def reference_bindings(
    atoms: Iterable,
    db: Database,
    overrides: Optional[Mapping[str, Relation]] = None,
    counters: Optional[WorkCounters] = None,
    iterated_predicate: Optional[str] = None,
) -> Iterator[dict]:
    """Enumerate all variable bindings satisfying a conjunction of atoms.

    ``overrides`` maps predicate names to replacement relations -- this is
    how semi-naive evaluation binds the recursive atom to the delta
    relation instead of the full one.
    """
    overrides = overrides or {}
    predicates = [
        _strip_iteration(a, iterated_predicate)
        for a in atoms
        if isinstance(a, PredicateAtom)
    ]
    comparisons = [
        _CompiledComparison(a) for a in atoms if isinstance(a, ComparisonAtom)
    ]

    def relation_for(atom: PredicateAtom) -> Relation:
        if atom.name in overrides:
            return overrides[atom.name]
        return db.relation(atom.name)

    def apply_comparisons(binding: dict, pending: list) -> Optional[list]:
        """Apply every evaluable comparison; None signals a failed filter."""
        remaining = pending
        progressed = True
        while progressed:
            progressed = False
            still: list = []
            for comp in remaining:
                outcome = comp.try_apply(binding)
                if outcome is None:
                    still.append(comp)
                elif outcome is False:
                    return None
                else:
                    progressed = True
            remaining = still
        return remaining

    def match(index: int, binding: dict, pending: list) -> Iterator[dict]:
        applied = apply_comparisons(binding, pending)
        if applied is None:
            return
        if index == len(predicates):
            if applied:
                unresolved = [c.atom for c in applied]
                raise AnalysisError(
                    f"comparisons with unbound variables: {unresolved}"
                )
            yield binding
            return
        atom = predicates[index]
        relation = relation_for(atom)
        bound_positions: list[int] = []
        bound_values: list = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and term.name in binding:
                bound_positions.append(position)
                bound_values.append(binding[term.name])
            elif isinstance(term, NumberConstant):
                bound_positions.append(position)
                bound_values.append(to_number(term.value))
            elif isinstance(term, SymbolConstant):
                bound_positions.append(position)
                bound_values.append(term.value)
        rows = relation.lookup(bound_positions, tuple(bound_values))
        if counters is not None:
            counters.tuples_scanned += len(rows)
        for row in rows:
            extended = dict(binding)
            ok = True
            for position, term in enumerate(atom.terms):
                if isinstance(term, (Wildcard, NumberConstant, SymbolConstant)):
                    continue
                if isinstance(term, Variable):
                    if term.name in extended:
                        if extended[term.name] != row[position]:
                            ok = False
                            break
                    else:
                        extended[term.name] = row[position]
                else:
                    raise AnalysisError(f"unsupported body term {term!r}")
            if ok:
                yield from match(index + 1, extended, list(applied))

    try:
        yield from match(0, {}, list(comparisons))
    finally:
        # ``match`` calls itself through its own closure cell: a reference
        # cycle that would keep ``db`` alive until some later GC pass
        match = None


def reference_head_key_and_value(rule: Rule, binding: dict, iterated_predicate: Optional[str]):
    """Build (key, value) from a rule head under a binding.

    The last head position carries the value (the aggregate variable for
    aggregate heads); earlier positions are the group-by key.  ``count``
    heads contribute 1 per binding (standard counting semantics).
    """
    from repro.datalog.ast import AggregateSpec, IterationNext

    terms = list(rule.head.terms)
    strip = (
        rule.head.name == iterated_predicate
        and terms
        and isinstance(terms[0], (IterationNext, NumberConstant, Variable))
    )
    if strip:
        terms = terms[1:]
    key_parts = []
    for term in terms[:-1]:
        if isinstance(term, Variable):
            key_parts.append(binding[term.name])
        elif isinstance(term, NumberConstant):
            key_parts.append(to_number(term.value))
        elif isinstance(term, SymbolConstant):
            key_parts.append(term.value)
        else:
            raise AnalysisError(f"unsupported head term {term!r}")
    last = terms[-1]
    if isinstance(last, AggregateSpec):
        if last.op == "count":
            value = 1
        else:
            value = binding[last.variable]
    elif isinstance(last, Variable):
        value = binding[last.name]
    elif isinstance(last, NumberConstant):
        value = to_number(last.value)
    else:
        raise AnalysisError(f"unsupported head value term {last!r}")
    key = key_parts[0] if len(key_parts) == 1 else tuple(key_parts)
    return key, value


def as_bindings(rows: int, columns: Mapping[str, list]) -> list[dict]:
    """A ``match_columns`` table as the ``dict`` per binding the reference yields."""
    names = list(columns)
    return [
        {name: columns[name][j] for name in names} for j in range(rows)
    ]
