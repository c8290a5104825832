"""Two-level termination control (paper sections 2.2 and 3.1).

Level 1 (program): fixpoint detection for finite-lattice programs, or a
user-specified ``{sum[delta] < eps}`` clause for limit programs such as
PageRank.  Level 2 (system): a hard iteration cap so that a diverging
program always stops.

:func:`run_rounds` is the one round loop of the single-node evaluators
(MRA, naive, semi-naive) and of the delta repair: a step per round, the
tracker deciding after each one.  :func:`evaluate_rounds` adds the
evaluators' run epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.result import EvalResult
from repro.obs import record_run

#: system-level default iteration cap (paper: "a termination number of
#: iterations at the system level").
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class TerminationSpec:
    """Termination criteria for one program run."""

    #: user-level epsilon from a ``{sum[d] < eps}`` clause; ``None`` means
    #: pure fixpoint termination.
    epsilon: Optional[float] = None
    #: "<" or "<=" from the clause
    comparison: str = "<"
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    @staticmethod
    def from_analysis(analysis, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        """Build the spec from an analysed program's termination clause."""
        clause = analysis.termination
        if clause is None:
            return TerminationSpec(max_iterations=max_iterations)
        return TerminationSpec(
            epsilon=float(clause.threshold),
            comparison=clause.comparison,
            max_iterations=max_iterations,
        )

    def epsilon_met(self, total_delta: float) -> bool:
        if self.epsilon is None:
            return False
        if self.comparison == "<":
            return total_delta < self.epsilon
        return total_delta <= self.epsilon


class TerminationTracker:
    """Per-run tracker deciding when evaluation stops.

    Engines feed it, once per iteration (or per master check in the
    distributed engines), the number of changed keys and the total delta
    magnitude; :meth:`stop_reason` answers why (or whether) to stop.
    """

    def __init__(self, spec: TerminationSpec):
        self.spec = spec
        self.iterations = 0
        self.last_changed = None
        self.last_delta = None
        #: convergence trace: one (changed_keys, total_delta) per round,
        #: surfaced as ``EvalResult.trace`` for convergence analysis
        self.history: list[tuple[int, float]] = []

    def record(self, changed_keys: int, total_delta: float) -> None:
        self.iterations += 1
        self.last_changed = changed_keys
        self.last_delta = total_delta
        self.history.append((changed_keys, total_delta))

    def stop_reason(self) -> Optional[str]:
        """``None`` to continue, otherwise why evaluation stops."""
        if self.last_changed == 0:
            return "fixpoint"
        if self.last_delta is not None and self.spec.epsilon_met(self.last_delta):
            return "epsilon"
        if self.iterations >= self.spec.max_iterations:
            return "iteration-limit"
        return None


def run_rounds(
    step: Callable, termination: TerminationSpec, counters, obs, engine: str,
    event: str = "engine.epoch",
) -> tuple:
    """Run ``step`` round after round until ``termination`` stops it.

    ``step()`` runs one round and returns what it did as a
    :class:`~repro.runtime.BatchResult` (its ``changed``, ``magnitude``
    and ``ops``).  Each round counts one iteration in ``counters``,
    feeds the tracker and emits ``event`` for ``engine``.  Returns the
    stop reason, the convergence trace and the rounds' total ``ops``."""
    tracker = TerminationTracker(termination)
    stop = None
    ops = 0
    while stop is None:
        result = step()
        counters.iterations += 1
        ops += result.ops
        tracker.record(result.changed, result.magnitude)
        stop = tracker.stop_reason()
        if obs.enabled:
            obs.trace.emit(
                event,
                engine=engine,
                round=counters.iterations,
                changed=result.changed,
                delta=result.magnitude,
            )
    return stop, tracker.history, ops


def evaluate_rounds(evaluator, step: Callable, values: Callable) -> EvalResult:
    """A single-node evaluator's run: :func:`run_rounds` over ``step``
    with the evaluator's termination, counters, observability and name,
    then the run epilogue over ``values()``."""
    stop, trace, _ = run_rounds(
        step, evaluator.termination, evaluator.counters, evaluator.obs,
        evaluator.engine_name,
    )
    result = EvalResult(
        values=values(),
        stop_reason=stop,
        counters=evaluator.counters,
        engine=evaluator.engine_name,
        trace=trace,
        backend=evaluator.backend,
    )
    record_run(evaluator.obs, result)
    return result
