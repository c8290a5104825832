"""Delta-stepping applicability classification: RA330/RA331.

``SyncEngine(delta_stepping=True)`` is a scheduling policy over the
pending frontier: each superstep takes only the pending deltas within
``Δ`` of the smallest (Meyer--Sanders, as SociaLite runs SSSP); every
kernel serves it through ``pending_min``/``take_pending_below``.  This
pass derives, statically, whether a program may run under it:

* ``delta-stepping`` (RA330): selective, idempotent aggregates
  (min/max) whose every recursive body passed the Theorem-1 structural
  pre-screen.  Value-ordered scheduling is exact for these programs
  because the fold is order-insensitive and idempotent: a pending value
  left for a later superstep can only be *improved* by work drained
  before it, and re-relaxing a key is harmless, so the order of the
  takes never changes the fixpoint.

* ``compaction-only`` (RA331): everything else.  Draining the whole
  frontier each round is always exact, but value-ordered scheduling is
  not: additive aggregates accumulate every contribution, so draining
  out of arrival order would observe partial sums, and non-monotone
  programs lack the improvement invariant the value order rests on.
  Requesting delta-stepping for such a program is refused at the engine
  layer; this diagnostic is the static warning ahead of that refusal.

The verdicts' detail strings are pinned by ``tests/golden``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.aggregates import AggregateKind
from repro.analysis.prescreen import prescreen

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.analyzer import ProgramAnalysis

#: scheduling modes, most capable first
MODES = ("delta-stepping", "compaction-only")

#: mode -> diagnostic code (stable, pinned by the golden tests)
MODE_CODES = {
    "delta-stepping": "RA330",
    "compaction-only": "RA331",
}


@dataclass(frozen=True)
class FrontierVerdict:
    """Static verdict on delta-stepping applicability."""

    #: ``"delta-stepping"`` | ``"compaction-only"``
    mode: str
    detail: str
    aggregate: str

    @property
    def code(self) -> str:
        return MODE_CODES[self.mode]

    @property
    def delta_stepping(self) -> bool:
        return self.mode == "delta-stepping"

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "code": self.code,
            "delta_stepping": self.delta_stepping,
            "aggregate": self.aggregate,
            "detail": self.detail,
        }


def classify_frontier(analysis: "ProgramAnalysis") -> FrontierVerdict:
    """Classify an analysed program for the sparse vertex runtime.

    Restated as semiring-law obligations: delta-stepping needs an
    idempotent ``⊕`` over a natural order (re-relaxation is harmless and
    parked entries only improve) *and* a numeric carrier (bucket
    priorities are float values).
    """
    aggregate = analysis.aggregate
    name = aggregate.name

    if aggregate.kind is not AggregateKind.SELECTIVE or not aggregate.plus_idempotent:
        return FrontierVerdict(
            mode="compaction-only",
            aggregate=name,
            detail=(
                f"aggregate {name!r} lacks an idempotent ⊕ over a natural "
                "order; value buckets would reorder non-idempotent folds, so "
                "the sparse backend uses frontier compaction without "
                "delta-stepping"
            ),
        )
    if not aggregate.numeric_values:
        return FrontierVerdict(
            mode="compaction-only",
            aggregate=name,
            detail=(
                f"aggregate {name!r} folds a non-numeric semiring carrier; "
                "Meyer-Sanders buckets key on float priorities, so only "
                "frontier compaction applies"
            ),
        )
    verdict = prescreen(analysis)
    if not verdict.eligible:
        return FrontierVerdict(
            mode="compaction-only",
            aggregate=name,
            detail=(
                "Theorem-1 pre-screen did not certify every recursive "
                "body as monotone; bucket ordering is unproven "
                f"({verdict.detail})"
            ),
        )
    return FrontierVerdict(
        mode="delta-stepping",
        aggregate=name,
        detail=(
            f"selective idempotent aggregate {name!r} with monotone F' "
            f"({verdict.pattern}): bucketed value scheduling with lazy "
            "deletion reaches the identical fixpoint"
        ),
    )
