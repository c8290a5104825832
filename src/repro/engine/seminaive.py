"""Classic semi-naive evaluation (paper Eq. 3).

``X^k = G(X^{k-1} ∪ F(ΔX^{k-1}))`` with ``ΔX^k = X^k - X^{k-1}``: only
bindings whose recursive atom matches a *changed* key are recomputed.

As in the existing systems the paper surveys (SociaLite, Myria,
BigDatalog), this is only correct for monotonic programs over idempotent
(selective) aggregates -- min/max lattices where re-deriving a fact never
double-counts.  Additive programs (PageRank, Adsorption, Katz, BP) are
rejected here; PowerLog handles them with MRA evaluation instead, which
is the paper's core contribution.
"""

from __future__ import annotations

from typing import Optional

from repro.aggregates import AggregateKind
from repro.datalog import ProgramAnalysis
from repro.engine.common import recursive_rule, static_contributions, values_as_relation
from repro.engine.relation import Database
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.rules import (
    aggregate_contributions,
    evaluate_aux_rules,
    evaluate_rule_bodies,
)
from repro.engine.termination import TerminationSpec, TerminationTracker
from repro.obs import ensure_obs, record_run
from repro.runtime import get_kernel, resolve_backend_for_plan


class UnsupportedProgramError(ValueError):
    """The engine cannot evaluate this program correctly."""


class SemiNaiveEvaluator:
    """Semi-naive evaluation for monotonic (selective-aggregate) programs."""

    engine_name = "semi-naive"

    def __init__(
        self,
        analysis: ProgramAnalysis,
        db: Database,
        termination: Optional[TerminationSpec] = None,
        obs=None,
        backend: Optional[str] = None,
    ):
        if analysis.aggregate.kind is not AggregateKind.SELECTIVE:
            raise UnsupportedProgramError(
                f"semi-naive evaluation is only correct for monotonic "
                f"min/max programs; {analysis.program.name!r} aggregates with "
                f"{analysis.aggregate.name!r} (use MRA or naive evaluation)"
            )
        self.analysis = analysis
        self.db = db.copy()
        self.termination = termination or TerminationSpec.from_analysis(analysis)
        self.obs = ensure_obs(obs)
        self.counters = WorkCounters()
        self.backend = resolve_backend_for_plan(analysis, backend)
        evaluate_aux_rules(analysis, self.db, counters=self.counters)
        self._iterated_predicate = analysis.head if analysis.iterated else None

    def run(self) -> EvalResult:
        analysis = self.analysis
        aggregate = analysis.aggregate
        kernel_cls = get_kernel(self.backend)
        rec_rule = recursive_rule(analysis)
        recursive_bodies = [spec.body for spec in analysis.recursions]

        # X⁰ plus the invariant constant-body contributions, folded once.
        current = aggregate_contributions(
            aggregate,
            static_contributions(
                analysis, self.db, self.counters, self._iterated_predicate
            ),
        )
        delta = dict(current)

        tracker = TerminationTracker(self.termination)
        stop = None
        while stop is None:
            relation = values_as_relation(analysis, delta)
            contributions = evaluate_rule_bodies(
                rec_rule,
                self.db,
                bodies=recursive_bodies,
                overrides={analysis.head: relation},
                counters=self.counters,
                iterated_predicate=self._iterated_predicate,
            )
            self.counters.fprime_applications += len(contributions)

            changed = kernel_cls.improve_contributions(
                aggregate, current, contributions, self.counters
            )
            total_delta = 0.0
            for key, value in changed.items():
                old = current.get(key)
                if old is None:
                    total_delta += (
                        abs(value)
                        if aggregate.numeric_values
                        else aggregate.delta_magnitude(value)
                    )
                elif aggregate.numeric_values:
                    total_delta += abs(value - old)
                else:
                    total_delta += aggregate.change_magnitude(value, old, None)
                current[key] = value
            self.counters.updates += len(changed)
            self.counters.iterations += 1

            delta = changed
            tracker.record(len(changed), total_delta)
            stop = tracker.stop_reason()
            if self.obs.enabled:
                self.obs.trace.emit(
                    "engine.epoch",
                    engine=self.engine_name,
                    round=self.counters.iterations,
                    changed=len(changed),
                    delta=total_delta,
                )

        result = EvalResult(
            values=current,
            stop_reason=stop,
            counters=self.counters,
            engine=self.engine_name,
            trace=tracker.history,
            backend=self.backend,
        )
        record_run(self.obs, result)
        return result
