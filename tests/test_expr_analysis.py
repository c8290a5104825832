"""Interval, linearity and monotonicity analysis."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.expr import (
    Call,
    Interval,
    affine_in,
    const,
    evaluate,
    interval_of,
    is_linear_homogeneous,
    is_monotone_nondecreasing,
    var,
)
from repro.expr.analysis import Sign


class TestInterval:
    def test_point_sign(self):
        assert Interval.point(0.0).sign() is Sign.ZERO
        assert Interval.point(2.0).sign() is Sign.POSITIVE
        assert Interval.point(-2.0).sign() is Sign.NEGATIVE

    def test_strict_lower_bound_is_positive(self):
        assert Interval(0.0, math.inf, lo_strict=True).sign() is Sign.POSITIVE

    def test_nonnegative(self):
        assert Interval(0.0, 5.0).sign() is Sign.NONNEGATIVE

    def test_unknown(self):
        assert Interval(-1.0, 1.0).sign() is Sign.UNKNOWN

    def test_addition(self):
        total = Interval(0, 2) + Interval(1, 3)
        assert (total.lo, total.hi) == (1, 5)

    def test_multiplication_sign_flip(self):
        product = Interval(-2, -1) * Interval(3, 4)
        assert (product.lo, product.hi) == (-8, -3)

    def test_zero_times_infinity(self):
        product = Interval.point(0.0) * Interval.unbounded()
        assert (product.lo, product.hi) == (0.0, 0.0)

    def test_division_guard(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_division_by_strictly_positive(self):
        quotient = Interval(1, 2) / Interval(0.0, math.inf, lo_strict=True)
        assert quotient.lo >= 0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)


class TestIntervalOf:
    def test_constant(self):
        bound = interval_of(const(3), {})
        assert (bound.lo, bound.hi) == (3, 3)

    def test_declared_domain(self):
        bound = interval_of(var("w"), {"w": Interval(0, 1)})
        assert (bound.lo, bound.hi) == (0, 1)

    def test_relu_range(self):
        bound = interval_of(Call("relu", (var("x"),)), {"x": Interval(-5, 3)})
        assert (bound.lo, bound.hi) == (0, 3)

    def test_tanh_range(self):
        bound = interval_of(Call("tanh", (var("x"),)), {})
        assert bound.lo >= -1 and bound.hi <= 1

    @given(
        x=st.floats(min_value=0.5, max_value=4.0),
        w=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bound_contains_value(self, x, w):
        expr = const(0.85) * var("x") / (var("w") + 1)
        domains = {"x": Interval(0.5, 4.0), "w": Interval(0.0, 1.0)}
        bound = interval_of(expr, domains)
        value = evaluate(expr, {"x": x, "w": w})
        assert bound.lo - 1e-9 <= value <= bound.hi + 1e-9


class TestAffineIn:
    def test_pagerank_fprime(self):
        expr = const(0.85) * var("rx") / var("d")
        decomposed = affine_in(expr, "rx")
        assert decomposed is not None
        a, b = decomposed
        assert not a.num.is_zero()
        assert b.num.is_zero()

    def test_affine_with_constant(self):
        decomposed = affine_in(var("x") + var("w"), "x")
        assert decomposed is not None
        _, b = decomposed
        assert not b.num.is_zero()

    def test_quadratic_rejected(self):
        assert affine_in(var("x") * var("x"), "x") is None

    def test_variable_in_denominator_rejected(self):
        assert affine_in(var("w") / var("x"), "x") is None

    def test_variable_inside_call_rejected(self):
        assert affine_in(Call("relu", (var("x"),)), "x") is None


class TestLinearHomogeneous:
    def test_pagerank_passes(self):
        assert is_linear_homogeneous(const(0.85) * var("rx") / var("d"), "rx")

    def test_sssp_fails_for_sum(self):
        # x + w is affine but not homogeneous: fine for min, wrong for sum
        assert not is_linear_homogeneous(var("x") + var("w"), "x")

    def test_relu_fails(self):
        expr = Call("relu", (var("g") * var("p"),)) * var("w")
        assert not is_linear_homogeneous(expr, "g")

    def test_identity_passes(self):
        assert is_linear_homogeneous(var("v"), "v")


class TestMonotone:
    def test_sssp_fprime(self):
        assert is_monotone_nondecreasing(var("dx") + var("dxy"), "dx", {})

    def test_identity(self):
        assert is_monotone_nondecreasing(var("v"), "v", {})

    def test_negation_fails(self):
        assert not is_monotone_nondecreasing(-var("x"), "x", {})

    def test_scaling_needs_sign(self):
        expr = var("p") * var("x")
        assert not is_monotone_nondecreasing(expr, "x", {})
        domains = {"p": Interval(0.0, math.inf)}
        assert is_monotone_nondecreasing(expr, "x", domains)

    def test_division_by_positive(self):
        domains = {"d": Interval(0.0, math.inf, lo_strict=True)}
        assert is_monotone_nondecreasing(var("x") / var("d"), "x", domains)

    def test_division_by_unknown_sign_fails(self):
        assert not is_monotone_nondecreasing(var("x") / var("d"), "x", {})

    def test_monotone_primitive_composes(self):
        domains = {"w": Interval(0.0, 1.0)}
        expr = Call("tanh", (var("x"),)) * var("w")
        assert is_monotone_nondecreasing(expr, "x", domains)

    def test_abs_not_monotone(self):
        assert not is_monotone_nondecreasing(Call("abs", (var("x"),)), "x", {})

    def test_subtraction_direction(self):
        assert is_monotone_nondecreasing(var("x") - var("c"), "x", {})
        assert not is_monotone_nondecreasing(var("c") - var("x"), "x", {})

    def test_reciprocal_of_increasing_is_decreasing(self):
        # c / (x + 1) with c >= 0, x >= 0: non-increasing in x
        domains = {"c": Interval(0, 10), "x": Interval(0, 10)}
        assert not is_monotone_nondecreasing(var("c") / (var("x") + 1), "x", domains)

    @given(
        x1=st.floats(min_value=-10, max_value=10),
        x2=st.floats(min_value=-10, max_value=10),
        w=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_proved_monotone_is_monotone(self, x1, x2, w):
        expr = var("x") * var("w") + 1
        domains = {"w": Interval(0.0, 5.0)}
        assert is_monotone_nondecreasing(expr, "x", domains)
        lo, hi = sorted((x1, x2))
        low_value = evaluate(expr, {"x": lo, "w": w})
        high_value = evaluate(expr, {"x": hi, "w": w})
        assert low_value <= high_value + 1e-12
