"""Program-class structure pass: RA101..RA112.

Checks that a parsed program falls inside the supported class of the
paper (section 2.1, footnote 2): *direct, linear* recursion -- exactly
one recursive rule, each of whose bodies mentions the head predicate at
most once -- with an aggregate as the last head argument.

This pass is the only check of those constraints:
:func:`repro.datalog.analyzer.analyze` runs it first (raising
:class:`~repro.datalog.errors.AnalysisError` on the first error
diagnostic) and then extracts ``G``/``F'``/``C`` without re-checking
anything checked here, and ``repro lint`` reports every finding at
once.  A constraint the extraction relies on is therefore stated here
or nowhere.

Unlike the historical ad-hoc check, recursion detection here is
SCC-based (Tarjan over the predicate dependency graph), so mutual
recursion with *no* self-loop -- ``p :- q.  q :- p.`` -- is correctly
reported as mutual recursion (RA102) and, when an aggregate sits on the
cycle, as unstratifiable aggregation (RA110), rather than the
misleading "no recursive rule".
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.ast import (
    IterationNext,
    PredicateAtom,
    Program,
    Rule,
    Variable,
    Wildcard,
)
from repro.analysis.depgraph import build_graph, recursive_components
from repro.analysis.diagnostics import Diagnostic, error

_SUPPORTED_ASSUME_OPS = ("<", "<=", ">", ">=", "=")


def _span_kwargs(rule: Optional[Rule]) -> dict:
    if rule is not None and rule.span is not None:
        return {"line": rule.span.line, "column": rule.span.column}
    return {}


def check_structure(program: Program) -> tuple[list[Diagnostic], Optional[Rule]]:
    """Check the program-class constraints; return (diagnostics, recursive rule).

    The returned rule is the unique directly-recursive rule when one
    exists (even if later checks produced errors), else ``None``.
    """
    diagnostics: list[Diagnostic] = []
    graph = build_graph(program)

    # -- recursion shape (RA101/RA102/RA103/RA110) ------------------------
    components = recursive_components(graph)
    direct = [rule for rule in program.rules if rule.is_recursive()]

    for component in components:
        if len(component) > 1:
            aggregating = sorted(
                head
                for head in component
                for rule in graph.rules_by_head.get(head, [])
                if rule.head.aggregate is not None
                and any(dep in component for dep in graph.agg_edges.get(head, []))
            )
            first_rule = graph.rules_by_head[component[0]][0]
            diagnostics.append(
                error(
                    "RA102",
                    "mutual/multiple recursion is not supported "
                    f"(predicates {component} form a recursive component)",
                    hint="merge the cycle into a single directly recursive rule",
                    **_span_kwargs(first_rule),
                )
            )
            if aggregating:
                diagnostics.append(
                    error(
                        "RA110",
                        f"unstratifiable aggregation: {aggregating} aggregate "
                        f"over the recursive component {component}",
                        hint="aggregates may only consume their own predicate "
                        "in a directly recursive rule",
                        **_span_kwargs(first_rule),
                    )
                )

    if not components and not direct:
        diagnostics.append(
            error(
                "RA101",
                "program has no recursive rule",
                hint="the engines evaluate recursive aggregate programs; "
                "add a rule whose body mentions its own head predicate",
            )
        )
        return diagnostics, None

    if len(direct) > 1:
        names = [rule.head.name for rule in direct]
        diagnostics.append(
            error(
                "RA102",
                f"mutual/multiple recursion is not supported (recursive rules for {names})",
                **_span_kwargs(direct[1]),
            )
        )

    if len(direct) != 1:
        return diagnostics, None
    rule = direct[0]
    head = rule.head.name

    # direct recursion only: no *other* rule may mention the recursive
    # predicate, or recursion becomes mutual/indirect (RA103)
    for other in program.rules:
        if other is rule:
            continue
        if any(body.mentions(head) for body in other.bodies):
            diagnostics.append(
                error(
                    "RA103",
                    f"indirect/mutual recursion: rule for {other.head.name!r} "
                    f"depends on the recursive predicate {head!r}",
                    **_span_kwargs(other),
                )
            )

    # -- head shape (RA105/RA106/RA107/RA108) -----------------------------
    agg_spec = rule.head.aggregate
    if agg_spec is None:
        diagnostics.append(
            error(
                "RA105",
                f"recursive rule for {head!r} has no aggregate in its head",
                hint="write the value position as e.g. min[v] or sum[v]",
                **_span_kwargs(rule),
            )
        )
    elif rule.head.terms[-1] is not agg_spec:
        diagnostics.append(
            error(
                "RA106",
                "the aggregate must be the last head argument",
                **_span_kwargs(rule),
            )
        )

    iterated, iter_var = False, None
    for position, term in enumerate(rule.head.terms):
        if isinstance(term, IterationNext):
            if position != 0:
                diagnostics.append(
                    error(
                        "RA107",
                        "iteration index must be the first argument",
                        **_span_kwargs(rule),
                    )
                )
            else:
                iterated, iter_var = True, term.name

    head_terms = rule.head.terms[1:] if iterated else rule.head.terms
    for term in head_terms[:-1]:
        if isinstance(term, (Variable, IterationNext)):
            continue
        if term is agg_spec:
            continue  # already reported as RA106
        diagnostics.append(
            error(
                "RA108",
                f"head key positions must be variables, found {term!r}",
                **_span_kwargs(rule),
            )
        )

    # -- recursive bodies (RA104/RA107/RA108/RA109) -----------------------
    for body in rule.bodies:
        r_atoms = [a for a in body.predicate_atoms() if a.name == head]
        if not r_atoms:
            continue  # a constant body: contributes to C, nothing to check
        if len(r_atoms) > 1:
            diagnostics.append(
                error(
                    "RA104",
                    f"non-linear recursion: body mentions {head!r} {len(r_atoms)} times",
                    hint="the supported class is linear recursion: at most one "
                    "occurrence of the head predicate per body",
                    **_span_kwargs(rule),
                )
            )
            continue
        diagnostics.extend(_check_recursive_atom(rule, r_atoms[0], iterated, iter_var))

    # -- termination clauses (RA111) --------------------------------------
    termination_count = sum(
        len(body.termination_atoms()) for body in rule.bodies
    )
    if termination_count > 1:
        diagnostics.append(
            error(
                "RA111",
                "multiple termination clauses",
                hint="keep a single {sum[delta] < eps} clause",
                **_span_kwargs(rule),
            )
        )

    # -- assume declarations (RA112) --------------------------------------
    for decl in program.assumptions:
        if decl.op not in _SUPPORTED_ASSUME_OPS:
            kwargs = {}
            if decl.span is not None:
                kwargs = {"line": decl.span.line, "column": decl.span.column}
            diagnostics.append(
                error(
                    "RA112",
                    f"unsupported assume operator {decl.op!r}",
                    **kwargs,
                )
            )

    return diagnostics, rule


def _check_recursive_atom(
    rule: Rule,
    r_atom: PredicateAtom,
    iterated: bool,
    iter_var: Optional[str],
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    terms = list(r_atom.terms)
    if iterated:
        if terms and isinstance(terms[0], Variable) and terms[0].name == iter_var:
            terms = terms[1:]
        else:
            diagnostics.append(
                error(
                    "RA107",
                    f"recursive atom must use iteration index {iter_var!r} "
                    "as first argument",
                    **_span_kwargs(rule),
                )
            )
            terms = terms[1:]
    if not terms:
        diagnostics.append(
            error(
                "RA109",
                f"recursive atom {r_atom!r} has no value position",
                **_span_kwargs(rule),
            )
        )
        return diagnostics
    value_term = terms[-1]
    if not isinstance(value_term, Variable):
        diagnostics.append(
            error(
                "RA109",
                f"value position of {r_atom!r} must be a variable, "
                f"found {value_term!r}",
                **_span_kwargs(rule),
            )
        )
    for term in terms[:-1]:
        if isinstance(term, (Variable, Wildcard)):
            continue
        diagnostics.append(
            error(
                "RA108",
                f"key positions of {r_atom!r} must be variables, found {term!r}",
                **_span_kwargs(rule),
            )
        )
    return diagnostics
