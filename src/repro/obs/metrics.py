"""Labelled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is the generalisation of the fixed-field
:class:`~repro.engine.result.WorkCounters`: instruments are created on
first use, keyed by name plus a frozen label set (``worker=3``,
``target=1``, ...).  A run records into one registry, as its shards count
into one ``WorkCounters``.

Everything is a no-op when the registry is disabled; hot paths guard
with ``if obs.enabled:`` so the disabled cost is one branch.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

#: histogram bucket upper bounds: powers of two up to 64k, then +inf
_BUCKET_BOUNDS = tuple(2**i for i in range(17))


def _key(name: str, labels: dict) -> tuple:
    if not labels:
        return (name, ())
    return (name, tuple(sorted(labels.items())))


def _label_text(labels: tuple) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Histogram:
    """Fixed power-of-two buckets plus count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class Gauge:
    """A last-value instrument that optionally keeps its time series."""

    __slots__ = ("value", "series")

    def __init__(self, keep_series: bool):
        self.value: Optional[float] = None
        self.series: Optional[list] = [] if keep_series else None

    def set(self, value: float, t: Optional[float] = None) -> None:
        self.value = value
        if self.series is not None:
            self.series.append((t, value))


class MetricsRegistry:
    """Counters, gauges and histograms created on first use.

    ``keep_series`` (default on) makes every gauge remember its full
    ``(t, value)`` history, which is what the ``repro metrics`` renderer
    turns into per-worker time-series such as ``beta(i,j)`` over time.
    """

    __slots__ = ("enabled", "keep_series", "counters", "gauges", "histograms")

    def __init__(self, enabled: bool = True, keep_series: bool = True):
        self.enabled = enabled
        self.keep_series = keep_series
        self.counters: dict = {}
        self.gauges: dict = {}
        self.histograms: dict = {}

    # -- instruments -----------------------------------------------------------
    def inc(self, name: str, n: float = 1, **labels) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, name: str, value: float, t: Optional[float] = None, **labels) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            instrument = self.gauges[key] = Gauge(self.keep_series)
        instrument.set(value, t)

    def observe(self, name: str, value: float, **labels) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            instrument = self.histograms[key] = Histogram()
        instrument.observe(value)

    # -- WorkCounters bridge ---------------------------------------------------
    def absorb_work_counters(self, counters, **labels) -> None:
        """Expose a run's :class:`WorkCounters` as ``work.*`` counters."""
        if not self.enabled:
            return
        for field, value in counters.snapshot().items():
            if value:
                self.inc(f"work.{field}", value, **labels)

    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge_series(self, name: str) -> Iterator[tuple]:
        """Yield ``(labels, series)`` for every gauge named ``name``."""
        for (n, labels), gauge in sorted(self.gauges.items(), key=lambda kv: kv[0]):
            if n == name and gauge.series:
                yield labels, gauge.series

    def snapshot(self) -> dict:
        """A flat, JSON-friendly view of every instrument."""
        return {
            "counters": {
                f"{name}{_label_text(labels)}": value
                for (name, labels), value in sorted(self.counters.items())
            },
            "gauges": {
                f"{name}{_label_text(labels)}": gauge.value
                for (name, labels), gauge in sorted(self.gauges.items())
            },
            "histograms": {
                f"{name}{_label_text(labels)}": histogram.snapshot()
                for (name, labels), histogram in sorted(self.histograms.items())
            },
        }

    def __repr__(self):
        if not self.enabled:
            return "MetricsRegistry(disabled)"
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms)"
        )


#: the shared disabled registry: every method is a cheap no-op
NULL_METRICS = MetricsRegistry(enabled=False)


def record_run(obs, result) -> None:
    """The one epilogue every engine run and delta repair ends with:
    absorb the run's :class:`WorkCounters` as ``work.*`` counters and
    count its backend (and numpy's version) in ``runtime.backend_runs``,
    both labelled with ``result.engine``, then attach the registry as
    ``result.metrics``.  A no-op on a disabled ``obs``."""
    if not obs.enabled:
        return
    obs.metrics.absorb_work_counters(result.counters, engine=result.engine)
    labels = {"engine": result.engine, "backend": result.backend}
    if result.backend == "numpy":
        labels["numpy_version"] = np.__version__
    obs.metrics.inc("runtime.backend_runs", **labels)
    result.metrics = obs.metrics
