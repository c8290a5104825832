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

from repro.engine.common import (
    RelationalEvaluator,
    base_contributions,
    constant_contributions,
)
from repro.engine.result import EvalResult
from repro.engine.rules import aggregate_contributions
from repro.engine.termination import evaluate_rounds
from repro.runtime import BatchResult


class NaiveEvaluator(RelationalEvaluator):
    """Evaluate a recursive aggregate program with naive evaluation."""

    engine_name = "naive"

    def run(self) -> EvalResult:
        #: ``X^{k-1}``, replaced every round
        self._current = aggregate_contributions(
            self.analysis.aggregate,
            base_contributions(self.analysis, self.db, self.counters),
        )
        return evaluate_rounds(self, self._round, lambda: self._current)

    def _round(self) -> BatchResult:
        aggregate = self.analysis.aggregate
        current = self._current
        contributions = base_contributions(self.analysis, self.db, self.counters)
        contributions += constant_contributions(self.analysis, self.db, self.counters)
        contributions += self._recursive_contributions(current)
        self.counters.fprime_applications += len(contributions)
        next_values = aggregate_contributions(
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
        self._current = next_values
        return BatchResult(changed=changed, magnitude=total_delta)
