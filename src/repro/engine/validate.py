"""Structured comparison of evaluation results.

Tests and the benchmark harness repeatedly answer the same question --
"did this engine produce the reference fixpoint?" -- with the same
subtleties: min/max lattices compare exactly, epsilon-terminated sum
programs compare to a scale-aware tolerance, and keys whose entire
contribution stayed below an importance threshold may legitimately be
absent when their reference value is negligible.  This module gives that
logic one home and a diagnosable result object.  :func:`fixpoint_error`
is the stricter whole-answer measure the chaos harness and the serving
acceptance check share: every key on both sides, one worst error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.aggregates import Aggregate


@dataclass(frozen=True)
class Mismatch:
    """One key where two results disagree."""

    key: object
    expected: object
    got: Optional[object]

    def __repr__(self):
        return f"{self.key!r}: expected {self.expected!r}, got {self.got!r}"


@dataclass
class Comparison:
    """Outcome of comparing a result against a reference."""

    tolerance: float
    mismatches: list[Mismatch] = field(default_factory=list)
    compared_keys: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def worst(self) -> Optional[Mismatch]:
        if not self.mismatches:
            return None
        return max(
            self.mismatches,
            key=lambda m: abs((m.got or 0) - m.expected),
        )

    def summary(self) -> str:
        if self.ok:
            return f"ok ({self.compared_keys} keys, tolerance {self.tolerance:g})"
        return (
            f"{len(self.mismatches)}/{self.compared_keys} keys differ "
            f"beyond {self.tolerance:g}; worst: {self.worst()!r}"
        )


def tolerance_for(aggregate: Aggregate, reference: Mapping) -> float:
    """Comparison tolerance: exact for idempotent lattices, scale-aware
    (0.5% of the largest magnitude) for epsilon-terminated programs."""
    if aggregate.is_idempotent:
        return 0.0
    magnitude = max((abs(v) for v in reference.values()), default=1.0)
    return max(5e-3, 5e-3 * magnitude)


def compare_results(
    reference: Mapping,
    values: Mapping,
    aggregate: Aggregate,
    tolerance: Optional[float] = None,
) -> Comparison:
    """Compare ``values`` against ``reference`` under aggregate semantics.

    Keys missing from ``values`` pass only when their reference value is
    itself within tolerance of nothing (the importance-threshold case);
    extra keys in ``values`` are ignored (engines may materialise
    identity-valued rows).
    """
    if tolerance is None:
        tolerance = tolerance_for(aggregate, reference)
    comparison = Comparison(tolerance=tolerance)
    for key, expected in reference.items():
        comparison.compared_keys += 1
        got = values.get(key)
        if got is None:
            if abs(expected) > tolerance:
                comparison.mismatches.append(Mismatch(key, expected, None))
            continue
        if abs(got - expected) > tolerance:
            comparison.mismatches.append(Mismatch(key, expected, got))
    return comparison


def fixpoint_error(
    reference: Mapping, values: Mapping, aggregate: Aggregate, relative: bool = False
) -> float:
    """The worst disagreement between two fixpoints over the union of
    their keys.

    It is ``inf`` when either side lacks a key, or when a non-numeric
    carrier (kpaths' ``KTuple``), which has no distance metric, differs;
    otherwise the largest absolute difference, divided by ``max(1,
    |reference value|)`` when ``relative`` (additive fixpoints beyond
    2^53, such as path_count's, carry ULP-level reordering noise that
    grows with the value).
    """
    error = 0.0
    for key in set(reference) | set(values):
        ref_value = reference.get(key)
        got_value = values.get(key)
        if ref_value is None or got_value is None:
            return float("inf")
        if not aggregate.numeric_values:
            if got_value != ref_value:
                return float("inf")
            continue
        difference = abs(float(got_value) - float(ref_value))
        if relative:
            difference /= max(1.0, abs(float(ref_value)))
        error = max(error, difference)
    return error
