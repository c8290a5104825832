"""Evaluation results and work accounting.

Every engine -- naive, semi-naive, MRA, and all distributed modes --
returns an :class:`EvalResult` carrying the fixpoint values plus the
:class:`WorkCounters` measured during genuine execution.  The simulated
cost models of :mod:`repro.distributed` convert these counters into
simulated seconds; they are never invented, only measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class WorkCounters:
    """Raw work quantities measured during an evaluation."""

    #: iterations (supersteps for sync engines; update rounds for MRA)
    iterations: int = 0
    #: tuples inspected while enumerating join bindings
    tuples_scanned: int = 0
    #: join bindings produced (rows flowing into aggregation)
    bindings_produced: int = 0
    #: applications of the non-aggregate operation F'
    fprime_applications: int = 0
    #: aggregate combine operations
    combines: int = 0
    #: key updates applied to the result table
    updates: int = 0
    #: messages exchanged between (simulated) workers
    messages: int = 0
    #: total payload tuples carried by those messages
    message_tuples: int = 0
    #: synchronisation barriers crossed
    barriers: int = 0

    def snapshot(self) -> dict:
        return {
            "iterations": self.iterations,
            "tuples_scanned": self.tuples_scanned,
            "bindings_produced": self.bindings_produced,
            "fprime_applications": self.fprime_applications,
            "combines": self.combines,
            "updates": self.updates,
            "messages": self.messages,
            "message_tuples": self.message_tuples,
            "barriers": self.barriers,
        }


@dataclass
class EvalResult:
    """The outcome of evaluating a recursive aggregate program."""

    #: fixpoint (or converged) values, keyed by group-by key
    values: dict
    #: why evaluation stopped: "fixpoint", "epsilon", "iteration-limit"
    stop_reason: str
    counters: WorkCounters = field(default_factory=WorkCounters)
    #: simulated wall-clock seconds (distributed engines only)
    simulated_seconds: Optional[float] = None
    #: engine label for reports ("naive+sync", "mra+async", ...)
    engine: str = ""
    #: execution-kernel backend that produced the run ("python", "numpy")
    backend: str = "python"
    #: convergence trace: (changed_keys, total_delta) per round/check
    trace: list = field(default_factory=list)
    #: fault-injection and recovery accounting (a
    #: :class:`repro.distributed.chaos.FaultStats`) when the run executed
    #: under a fault schedule; ``None`` for fault-free runs
    faults: Optional[object] = None
    #: the run's :class:`repro.obs.MetricsRegistry` when the engine ran
    #: with observability enabled; ``None`` otherwise.  The registry
    #: generalises :attr:`counters` (which it absorbs as ``work.*``
    #: counters) with labelled gauges and histograms.
    metrics: Optional[object] = None

    def value(self, key):
        return self.values.get(key)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        sim = (
            f", simulated={self.simulated_seconds:.3f}s"
            if self.simulated_seconds is not None
            else ""
        )
        return (
            f"EvalResult({self.engine or 'engine'}: {len(self.values)} keys, "
            f"{self.counters.iterations} iters, stop={self.stop_reason}{sim})"
        )
