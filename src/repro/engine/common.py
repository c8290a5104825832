"""Shared helpers for the relational evaluators."""

from __future__ import annotations

from typing import Optional

from repro.datalog import ProgramAnalysis
from repro.engine.relation import Database, Relation
from repro.engine.result import WorkCounters
from repro.engine.rules import evaluate_aux_rules, evaluate_rule_bodies
from repro.engine.termination import TerminationSpec
from repro.obs import ensure_obs
from repro.runtime import resolve_backend_for_plan


def recursive_rule(analysis: ProgramAnalysis):
    """The (single) recursive rule of the analysed program."""
    return next(
        r for r in analysis.program.rules_for(analysis.head) if r.is_recursive()
    )


def base_contributions(
    analysis: ProgramAnalysis,
    db: Database,
    counters: Optional[WorkCounters] = None,
) -> list[tuple]:
    """The base rules' contributions: ``X⁰`` before ``G`` folds it."""
    iterated = analysis.head if analysis.iterated else None
    contributions: list[tuple] = []
    for rule in analysis.base_rules:
        contributions.extend(
            evaluate_rule_bodies(
                rule, db, counters=counters, iterated_predicate=iterated
            )
        )
    return contributions


def constant_contributions(
    analysis: ProgramAnalysis,
    db: Database,
    counters: Optional[WorkCounters] = None,
) -> list[tuple]:
    """The recursive rule's constant bodies' contributions: ``C`` before
    ``G`` folds it.

    Neither these nor the base rules' depend on ``X^{k-1}``: naive
    evaluation recomputes both every iteration (and pays for it);
    semi-naive evaluation and the compiled plan fold them once.
    """
    if not analysis.constant_bodies:
        return []
    return evaluate_rule_bodies(
        recursive_rule(analysis),
        db,
        bodies=analysis.constant_bodies,
        counters=counters,
        iterated_predicate=analysis.head if analysis.iterated else None,
    )


def values_as_relation(analysis: ProgramAnalysis, values: dict) -> Relation:
    """Materialise a key->value mapping as the recursive predicate."""
    key_arity = len(analysis.recursion.source_keys)
    relation = Relation(analysis.head, key_arity + 1)
    for key, value in values.items():
        key_tuple = key if isinstance(key, tuple) else (key,)
        relation.add(key_tuple + (value,))
    return relation


class RelationalEvaluator:
    """What naive and semi-naive evaluation share: a private copy of the
    database with the auxiliary rules evaluated into it, and the join of
    the recursive bodies over a round's input.  Each subclass's ``run``
    is :func:`repro.engine.termination.evaluate_rounds` over its round."""

    engine_name: str

    def __init__(
        self,
        analysis: ProgramAnalysis,
        db: Database,
        termination: Optional[TerminationSpec] = None,
        obs=None,
        backend: Optional[str] = None,
    ):
        self.analysis = analysis
        self.db = db.copy()
        self.termination = termination or TerminationSpec.from_analysis(analysis)
        self.obs = ensure_obs(obs)
        self.counters = WorkCounters()
        self.backend = resolve_backend_for_plan(analysis, backend)
        evaluate_aux_rules(analysis, self.db, counters=self.counters)
        self._iterated_predicate = analysis.head if analysis.iterated else None

    def _recursive_contributions(self, values: dict) -> list[tuple]:
        """The recursive bodies joined with ``values`` as the head
        predicate."""
        analysis = self.analysis
        return evaluate_rule_bodies(
            recursive_rule(analysis),
            self.db,
            bodies=[spec.body for spec in analysis.recursions],
            overrides={analysis.head: values_as_relation(analysis, values)},
            counters=self.counters,
            iterated_predicate=self._iterated_predicate,
        )
