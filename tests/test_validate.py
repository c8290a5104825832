"""Result comparison semantics."""

import math

import pytest

from repro.aggregates import MIN, SUM
from repro.engine import compare_results, tolerance_for
from repro.engine.validate import fixpoint_error


class TestTolerance:
    def test_idempotent_exact(self):
        assert tolerance_for(MIN, {1: 5}) == 0.0

    def test_additive_scale_aware(self):
        assert tolerance_for(SUM, {1: 1.0}) == pytest.approx(5e-3)
        assert tolerance_for(SUM, {1: 1000.0}) == pytest.approx(5.0)

    def test_empty_reference(self):
        assert tolerance_for(SUM, {}) == pytest.approx(5e-3)


class TestCompare:
    def test_exact_match(self):
        comparison = compare_results({1: 2, 2: 3}, {1: 2, 2: 3}, MIN)
        assert comparison.ok
        assert comparison.compared_keys == 2
        assert "ok" in comparison.summary()

    def test_exact_mismatch(self):
        comparison = compare_results({1: 2}, {1: 3}, MIN)
        assert not comparison.ok
        assert comparison.worst().key == 1

    def test_tolerant_match(self):
        comparison = compare_results({1: 1.0}, {1: 1.004}, SUM)
        assert comparison.ok

    def test_tolerant_mismatch(self):
        comparison = compare_results({1: 1.0}, {1: 1.02}, SUM)
        assert not comparison.ok

    def test_missing_negligible_key_passes(self):
        comparison = compare_results({1: 1.0, 2: 1e-6}, {1: 1.0}, SUM)
        assert comparison.ok

    def test_missing_significant_key_fails(self):
        comparison = compare_results({1: 1.0, 2: 0.9}, {1: 1.0}, SUM)
        assert not comparison.ok
        assert comparison.worst().got is None

    def test_extra_keys_ignored(self):
        comparison = compare_results({1: 1.0}, {1: 1.0, 99: 7.0}, SUM)
        assert comparison.ok

    def test_explicit_tolerance_override(self):
        comparison = compare_results({1: 1.0}, {1: 1.5}, SUM, tolerance=1.0)
        assert comparison.ok

    def test_summary_reports_counts(self):
        comparison = compare_results({1: 1.0, 2: 2.0}, {1: 9.0, 2: 2.0}, SUM)
        assert "1/2 keys differ" in comparison.summary()


class TestFixpointError:
    """The whole-answer measure the chaos harness and the serving
    acceptance check share."""

    def test_worst_absolute_error(self):
        assert fixpoint_error({1: 1.0, 2: 5.0}, {1: 1.5, 2: 4.0}, SUM) == 1.0
        assert fixpoint_error({1: 3}, {1: 3}, MIN) == 0.0

    def test_relative_error_scales_by_the_reference(self):
        reference, values = {1: 1000.0, 2: 0.5}, {1: 1010.0, 2: 0.5}
        error = fixpoint_error(reference, values, SUM, relative=True)
        assert error == 10.0 / 1000.0
        # below magnitude 1 the divisor is 1: the error stays absolute
        assert fixpoint_error({1: 0.5}, {1: 0.75}, SUM, relative=True) == 0.25

    def test_a_key_on_one_side_only_is_infinite(self):
        assert fixpoint_error({1: 1.0}, {1: 1.0, 2: 0.0}, SUM) == math.inf
        assert fixpoint_error({1: 1.0, 2: 0.0}, {1: 1.0}, SUM) == math.inf

    def test_non_numeric_carriers_match_or_not(self):
        from repro.programs import get_program

        aggregate = get_program("kpaths").analysis().aggregate
        assert not aggregate.numeric_values
        answer = {0: ("a", "b")}
        assert fixpoint_error(answer, dict(answer), aggregate) == 0.0
        assert fixpoint_error(answer, {0: ("a",)}, aggregate) == math.inf
