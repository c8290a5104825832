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
from repro.engine.common import (
    RelationalEvaluator,
    base_contributions,
    constant_contributions,
)
from repro.engine.relation import Database
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.rules import aggregate_contributions
from repro.engine.termination import TerminationSpec, evaluate_rounds
from repro.runtime import BatchResult


class UnsupportedProgramError(ValueError):
    """The engine cannot evaluate this program correctly."""


def improve_contributions(
    aggregate,
    current: dict,
    contributions: list,
    counters: Optional[WorkCounters] = None,
) -> dict:
    """Semi-naive filter+fold: contributions improving ``current``.

    Returns ``key -> improved value`` for keys whose accumulated value
    would change; idempotent aggregates only.
    """
    combine = aggregate.combine
    changed: dict = {}
    for key, value in contributions:
        old = current.get(key)
        if old is not None:
            if counters is not None:
                counters.combines += 1
            if combine(old, value) == old:
                continue  # idempotent aggregate: no improvement, prune
        best = changed.get(key)
        if best is None:
            if old is None:
                improved = value
            else:
                improved = combine(old, value)
                if counters is not None:
                    counters.combines += 1
        else:
            improved = combine(best, value)
            if counters is not None:
                counters.combines += 1
        changed[key] = improved
    return changed


class SemiNaiveEvaluator(RelationalEvaluator):
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
        super().__init__(analysis, db, termination, obs, backend)

    def run(self) -> EvalResult:
        # X⁰ plus the invariant constant-body contributions, folded once.
        #: ``X^k``, combined into in place, and ``ΔX^k``
        analysis, db, counters = self.analysis, self.db, self.counters
        self._current = aggregate_contributions(
            analysis.aggregate,
            base_contributions(analysis, db, counters)
            + constant_contributions(analysis, db, counters),
        )
        self._delta = dict(self._current)
        return evaluate_rounds(self, self._round, lambda: self._current)

    def _round(self) -> BatchResult:
        aggregate = self.analysis.aggregate
        current = self._current
        contributions = self._recursive_contributions(self._delta)
        self.counters.fprime_applications += len(contributions)

        changed = improve_contributions(
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
        self._delta = changed
        return BatchResult(changed=len(changed), magnitude=total_delta)
