"""Semantic analysis: identify the recursive rule and extract G, F', C.

This module is PowerLog's "Parser and Analyzer" stage (section 5.1): it
traverses the AST, identifies the recursive aggregate rule, and extracts

* the aggregate operation ``G`` (from the rule head),
* the non-aggregate operation ``F'`` (the expression defining the head
  aggregate variable in terms of the recursion variable and join-supplied
  parameters),
* the constant part ``C`` (bodies of the recursive rule that do not
  mention the recursive predicate, e.g. ``ry = 0.15`` in PageRank).

The supported class follows the paper's (section 2.1, footnote 2):
direct, linear recursion -- one recursive rule, each of whose bodies
mentions the head predicate at most once.  A rule may have *several*
recursive bodies (the paper's Program 2.b aggregates a key's previous
value together with neighbour contributions); each body carries its own
``F'``.

Whether a program is in that class is decided once, by the structure
pass (:mod:`repro.analysis.structure`, RA101--RA112), which
:func:`analyze` runs first and which raises on its first error.  What
follows it here is extraction over a program already known to be
well-formed; the only errors this module raises itself are about
resolving ``F'`` (RA120--RA122).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.aggregates import Aggregate, get_aggregate
from repro.datalog.ast import (
    ComparisonAtom,
    IterationNext,
    PredicateAtom,
    Program,
    Rule,
    RuleBody,
    TerminationAtom,
    Variable,
)
from repro.datalog.errors import AnalysisError
from repro.expr import Expr, Interval, Var


@dataclass(frozen=True)
class RecursionSpec:
    """One recursive body of the recursive aggregate rule, decomposed.

    A rule may have several recursive bodies -- the paper's Program 2.b
    aggregates a key's previous value (``ry = r``) together with
    neighbour contributions -- and each body carries its own ``F'``.
    """

    body: RuleBody
    #: the single atom naming the head predicate, e.g. ``sssp(X, dx)``
    r_atom: PredicateAtom
    #: the remaining table predicates, e.g. ``edge(X, Y, dxy)``
    join_atoms: tuple[PredicateAtom, ...]
    #: expression atoms of the body (definitions and filters)
    comparisons: tuple[ComparisonAtom, ...]
    #: variable bound to the recursive atom's value position
    recursion_var: str
    #: key variables of the recursive atom (iteration index stripped)
    source_keys: tuple[str, ...]
    #: this body's ``F'`` over ``recursion_var`` and join parameters
    fprime: Expr = None  # type: ignore[assignment]
    #: free variables of ``fprime`` other than the recursion variable
    fprime_params: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything later stages need to know about a parsed program."""

    program: Program
    head: str
    aggregate: Aggregate
    #: the head aggregate variable, e.g. ``dy`` in ``sssp(Y, min[dy])``
    agg_var: str
    #: head key variables (iteration index and aggregate stripped)
    key_vars: tuple[str, ...]
    #: replacement semantics (``rank(i+1, ...) :- rank(i, ...)``)?
    iterated: bool
    iter_var: Optional[str]
    #: every recursive body (Program 2.b style rules have several), the
    #: *primary* one -- the body with the most join atoms -- first
    recursions: tuple[RecursionSpec, ...]
    #: bodies of the recursive rule without the recursive predicate: ``C``
    constant_bodies: tuple[RuleBody, ...]
    #: non-recursive rules with the head predicate: define ``X⁰``
    base_rules: tuple[Rule, ...]
    #: rules for predicates other than the head (e.g. ``degree``)
    aux_rules: tuple[Rule, ...]
    #: predicates with no defining rule (the EDB: ``edge``, ``node``...)
    edb_predicates: tuple[str, ...]
    termination: Optional[TerminationAtom]
    #: parameter domains from ``assume`` declarations
    domains: dict[str, Interval] = field(default_factory=dict)

    @property
    def recursion(self) -> RecursionSpec:
        """The primary recursive body (most join atoms)."""
        return self.recursions[0]

    @property
    def fprime(self) -> Expr:
        """The primary body's ``F'``."""
        return self.recursion.fprime

    @property
    def fprime_params(self) -> tuple[str, ...]:
        return self.recursion.fprime_params

    @property
    def recursion_var(self) -> str:
        return self.recursion.recursion_var


def _domains_from_assumptions(program: Program) -> dict[str, Interval]:
    domains: dict[str, Interval] = {}
    for decl in program.assumptions:
        bound = float(decl.bound)
        current = domains.get(decl.variable, Interval.unbounded())
        if decl.op == ">":
            update = Interval(bound, math.inf, lo_strict=True)
        elif decl.op == ">=":
            update = Interval(bound, math.inf)
        elif decl.op == "<":
            update = Interval(-math.inf, bound, hi_strict=True)
        elif decl.op == "<=":
            update = Interval(-math.inf, bound)
        else:  # "=": the structure pass admits no other operator (RA112)
            update = Interval(bound, bound)
        domains[decl.variable] = _intersect(current, update)
    return domains


def _intersect(a: Interval, b: Interval) -> Interval:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    lo_strict = (a.lo_strict and a.lo >= b.lo) or (b.lo_strict and b.lo >= a.lo)
    hi_strict = (a.hi_strict and a.hi <= b.hi) or (b.hi_strict and b.hi <= a.hi)
    return Interval(lo, hi, lo_strict, hi_strict)


def _check_structure(program: Program) -> Rule:
    """Delegate the program-class checks to :mod:`repro.analysis.structure`.

    The structure pass is the single source of truth for the supported
    class (it replaced the ad-hoc checks that used to live here; its SCC
    decomposition also catches mutual recursion without self-loops).
    Imported lazily to keep ``repro.datalog`` importable on its own.
    """
    from repro.analysis.diagnostics import Severity
    from repro.analysis.structure import check_structure

    diagnostics, rule = check_structure(program)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        first = errors[0]
        raise AnalysisError(first.message, code=first.code, diagnostic=first)
    assert rule is not None  # no errors implies a unique recursive rule
    return rule


def _decompose_recursive_body(body: RuleBody, head: str, iterated: bool) -> RecursionSpec:
    """Split a recursive body (linear, its atom's value a variable and
    its keys variables or ``_``: RA104/RA107--RA109) into its parts."""
    (r_atom,) = [a for a in body.predicate_atoms() if a.name == head]
    terms = r_atom.terms[1:] if iterated else r_atom.terms
    return RecursionSpec(
        body=body,
        r_atom=r_atom,
        join_atoms=tuple(a for a in body.predicate_atoms() if a is not r_atom),
        comparisons=tuple(body.comparison_atoms()),
        recursion_var=terms[-1].name,
        source_keys=tuple(t.name for t in terms[:-1] if isinstance(t, Variable)),
    )


def _resolve_fprime(spec: RecursionSpec, agg_var: str) -> Expr:
    """Compute ``F'`` by resolving the definition chain of the head variable.

    Comparisons of the form ``v = expr`` where ``v`` is not bound by any
    predicate atom act as definitions; they are substituted into the head
    variable's definition until it only mentions the recursion variable
    and join-bound parameters.
    """
    bound_by_predicates: set[str] = set(spec.r_atom.variables())
    for atom in spec.join_atoms:
        bound_by_predicates.update(atom.variables())

    definitions: dict[str, Expr] = {}
    for comparison in spec.comparisons:
        if comparison.op != "=":
            continue
        if not isinstance(comparison.left, Var):
            continue
        name = comparison.left.name
        if name in bound_by_predicates:
            continue  # a filter such as ``X = 1`` on a join variable
        if name in definitions:
            raise AnalysisError(
                f"variable {name!r} defined more than once", code="RA121"
            )
        definitions[name] = comparison.right

    if agg_var in definitions:
        fprime = definitions[agg_var]
    elif agg_var == spec.recursion_var:
        # e.g. CC: ``cc(Y, min[v]) :- cc(X, v), edge(X, Y)`` -- identity F'.
        fprime = Var(spec.recursion_var)
    else:
        raise AnalysisError(
            f"aggregate variable {agg_var!r} is not defined in the recursive body",
            code="RA120",
        )

    # Substitute chained definitions, e.g. ``a = b * c, b = x + 1``.
    for _ in range(len(definitions) + 1):
        pending = {
            name: definitions[name]
            for name in fprime.free_vars()
            if name in definitions and name != agg_var
        }
        if not pending:
            break
        fprime = fprime.substitute(pending)
    else:
        raise AnalysisError("cyclic definitions in recursive body", code="RA122")
    return fprime


def analyze(program: Program) -> ProgramAnalysis:
    """Analyze a parsed program, extracting ``G``, ``F'`` and ``C``.

    Raises :class:`~repro.datalog.errors.AnalysisError` when the program
    falls outside the supported class of section 2.1.
    """
    rule = _check_structure(program)
    head = rule.head.name
    agg_spec = rule.head.aggregate
    assert agg_spec is not None  # RA105 checked by the structure pass
    aggregate = get_aggregate(agg_spec.op)

    # ``head(i+1, ...)``: the structure pass admits the index first only
    first = rule.head.terms[0]
    iterated = isinstance(first, IterationNext)
    iter_var = first.name if iterated else None
    head_terms = rule.head.terms[1:] if iterated else rule.head.terms
    key_vars = [
        term.name for term in head_terms[:-1] if isinstance(term, Variable)
    ]

    recursive_bodies = [b for b in rule.bodies if b.mentions(head)]
    constant_bodies = tuple(b for b in rule.bodies if not b.mentions(head))
    specs = []
    for body in recursive_bodies:
        spec = _decompose_recursive_body(body, head, iterated)
        fprime = _resolve_fprime(spec, agg_spec.variable)
        params = tuple(sorted(fprime.free_vars() - {spec.recursion_var}))
        specs.append(replace(spec, fprime=fprime, fprime_params=params))
    # the primary body is the one with the most joins (the "real" F');
    # self-preserving bodies like Program 2.b's ``ry = r`` sort last
    specs.sort(key=lambda s: len(s.join_atoms), reverse=True)

    base_rules = tuple(
        r for r in program.rules_for(head) if not r.is_recursive()
    )
    aux_rules = tuple(
        r for r in program.rules if r.head.name != head
    )

    defined = set(program.head_predicates())
    referenced: set[str] = set()
    for a_rule in program.rules:
        for body in a_rule.bodies:
            referenced.update(a.name for a in body.predicate_atoms())
    edb = tuple(sorted(referenced - defined))

    # at most one clause (RA111)
    termination: Optional[TerminationAtom] = next(
        (atom for body in rule.bodies for atom in body.termination_atoms()), None
    )

    return ProgramAnalysis(
        program=program,
        head=head,
        aggregate=aggregate,
        agg_var=agg_spec.variable,
        key_vars=tuple(key_vars),
        iterated=iterated,
        iter_var=iter_var,
        recursions=tuple(specs),
        constant_bodies=constant_bodies,
        base_rules=base_rules,
        aux_rules=aux_rules,
        edb_predicates=edb,
        termination=termination,
        domains=_domains_from_assumptions(program),
    )
