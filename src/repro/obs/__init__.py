"""Engine observability: metrics registry + structured trace events.

The subsystem has two halves, bundled into one :class:`Observability`
handle that engines accept as an optional constructor argument:

* :class:`MetricsRegistry` -- labelled counters, gauges (with optional
  time series) and histograms, generalising the fixed-field
  :class:`~repro.engine.result.WorkCounters` (which every engine still
  measures; an enabled registry absorbs them at the end of a run, in
  the one epilogue :func:`record_run`, and travels on
  :class:`~repro.engine.result.EvalResult.metrics`);
* :class:`TraceRecorder` -- structured JSONL events stamped with the
  engine's *simulated* clock: supersteps/epochs, buffer flushes and
  ``beta(i,j)`` adaptations, ack/retransmit/backoff decisions,
  checkpoint writes/restores, and every fault injection.

The overhead contract: observability is **disabled by default**
(:data:`NULL_OBS`), and a disabled handle costs one attribute load and
branch per instrumentation site (``if obs.enabled:``) -- no event dicts
are built, no strings formatted.  Enabled tracing never draws from any
RNG and never advances the simulated clock, so a traced run is
bit-identical to an untraced one.

Fault-injection events are emitted *by the same call that increments*
:class:`~repro.distributed.chaos.FaultStats`
(:meth:`~repro.distributed.chaos.FaultInjector.record`), so
:func:`aggregate_fault_events` over a chaotic trace reproduces
``EvalResult.faults.snapshot()`` exactly, by construction.
"""

from repro.obs.metrics import MetricsRegistry, NULL_METRICS, record_run
from repro.obs.trace import (
    TraceRecorder,
    NULL_TRACE,
    aggregate_fault_events,
    read_jsonl,
)
from repro.obs.core import Observability, NULL_OBS, ensure_obs

__all__ = [
    "MetricsRegistry",
    "NULL_METRICS",
    "TraceRecorder",
    "NULL_TRACE",
    "aggregate_fault_events",
    "read_jsonl",
    "Observability",
    "NULL_OBS",
    "ensure_obs",
    "record_run",
]
