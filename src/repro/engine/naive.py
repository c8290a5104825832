"""Naive evaluation (paper Eq. 2): full recomputation every iteration.

Each iteration rebuilds the recursive predicate's relation from the
previous result and re-joins *everything* -- base rules, constant bodies
and the recursive body over the full ``X^{k-1}`` -- exactly the
"additional rank table join per iteration" cost the paper attributes to
SociaLite/Myria on non-monotonic programs.

``X^k(key) = G(base ∪ C ∪ recursive-body(X^{k-1}))`` uniformly covers
both accumulating programs (SSSP: synchronous Bellman-Ford relaxation)
and iterated/replacement programs (PageRank: power iteration).
"""

from __future__ import annotations

from typing import Optional

from repro.datalog import ProgramAnalysis
from repro.engine.common import (
    initial_values,
    recursive_rule,
    static_contributions,
    values_as_relation,
)
from repro.engine.relation import Database
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.rules import (
    evaluate_aux_rules,
    evaluate_rule_bodies,
)
from repro.engine.termination import TerminationSpec, TerminationTracker
from repro.obs import ensure_obs, record_run
from repro.runtime import get_kernel, resolve_backend_for_plan


class NaiveEvaluator:
    """Evaluate a recursive aggregate program with naive evaluation."""

    engine_name = "naive"

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

    def run(self) -> EvalResult:
        analysis = self.analysis
        aggregate = analysis.aggregate
        kernel_cls = get_kernel(self.backend)
        rec_rule = recursive_rule(analysis)
        recursive_bodies = [spec.body for spec in analysis.recursions]

        current = initial_values(
            analysis, self.db, self.counters, self._iterated_predicate
        )
        tracker = TerminationTracker(self.termination)
        stop = None
        while stop is None:
            contributions = static_contributions(
                analysis, self.db, self.counters, self._iterated_predicate
            )
            relation = values_as_relation(analysis, current)
            contributions.extend(
                evaluate_rule_bodies(
                    rec_rule,
                    self.db,
                    bodies=recursive_bodies,
                    overrides={analysis.head: relation},
                    counters=self.counters,
                    iterated_predicate=self._iterated_predicate,
                )
            )
            self.counters.fprime_applications += len(contributions)
            next_values = kernel_cls.fold_contributions(
                aggregate, contributions, self.counters
            )

            changed = 0
            total_delta = 0.0
            for key, value in next_values.items():
                old = current.get(key)
                if old is None:
                    changed += 1
                    total_delta += aggregate.delta_magnitude(value)
                elif value != old:
                    changed += 1
                    total_delta += (
                        abs(value - old)
                        if aggregate.numeric_values
                        else aggregate.change_magnitude(value, old, None)
                    )
            changed += sum(1 for key in current if key not in next_values)
            self.counters.updates += changed
            self.counters.iterations += 1

            current = next_values
            tracker.record(changed, total_delta)
            stop = tracker.stop_reason()
            if self.obs.enabled:
                self.obs.trace.emit(
                    "engine.epoch",
                    engine=self.engine_name,
                    round=self.counters.iterations,
                    changed=changed,
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
