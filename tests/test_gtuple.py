"""Penalty tuple machinery: inverses, property checker, spectral objective."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covact import (
    EmptyLevelSet,
    HpdMatrix,
    InvalidInput,
    PenaltyTuple,
    check_sufficiently_convex,
    gsum_objective,
    level_set_bound_check,
    trace_logdet_tuple,
)

from conftest import random_hpd

GRID = np.logspace(-3, 3, 600)


def bisect_inverse(fn, target, lo, hi, iters=200):
    """Invert a monotone function by bisection (direction inferred)."""
    increasing = fn(hi) > fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def tld():
    return trace_logdet_tuple()


class TestTraceLogdetTuple:
    def test_minimum_point(self, tld):
        assert tld.fn(1.0) == pytest.approx(1.0)
        assert tld.inv_lower(1.0) == pytest.approx(1.0, abs=1e-12)
        assert tld.inv_upper(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_known_inverse_values(self, tld):
        # fn(2) = 2 - ln 2 and fn(0.5) = 0.5 + ln 2 pin both branches.
        assert tld.inv_upper(2 - math.log(2)) == pytest.approx(2.0, abs=1e-10)
        assert tld.inv_lower(0.5 + math.log(2)) == pytest.approx(0.5, abs=1e-10)

    def test_inverses_match_bisection(self, tld):
        for y in (1.001, 1.1, 2.0, 5.0):
            low_ref = bisect_inverse(tld.fn, y, 1e-12, 1.0)
            high_ref = bisect_inverse(tld.fn, y, 1.0, 1e12)
            assert tld.inv_lower(y) == pytest.approx(low_ref, rel=1e-9, abs=1e-9)
            assert tld.inv_upper(y) == pytest.approx(high_ref, rel=1e-9)

    def test_constants(self, tld):
        assert tld.slope_ratio == pytest.approx((1 - math.log(2)) / math.log(2))
        assert tld.slope_ratio == pytest.approx(0.442695, abs=1e-6)
        assert tld.slope_range == pytest.approx(math.log(4) - 1)
        assert tld.slope_range == pytest.approx(0.386294, abs=1e-6)

    @given(excess=st.floats(1e-6, 10.0))
    def test_composition_identity(self, tld, excess):
        y = tld.fn(1.0) + excess
        assert tld.fn(tld.inv_lower(y)) == pytest.approx(y, abs=1e-10, rel=1e-10)
        assert tld.fn(tld.inv_upper(y)) == pytest.approx(y, abs=1e-10, rel=1e-10)

    def test_unique_minimum_on_grid(self, tld):
        fn1 = tld.fn(1.0)
        for x in GRID:
            if abs(x - 1.0) > 1e-9:
                assert tld.fn(x) > fn1

    def test_moduli_definitions(self, tld):
        for eps in (1e-6, 1e-3, 0.1, 1.0, 5.0):
            assert tld.width(eps) == pytest.approx(1.0 - tld.inv_lower(tld.fn(1.0) + eps), rel=1e-12)
            assert tld.excess(eps) == pytest.approx(tld.fn(1.0 + eps) - tld.fn(1.0), rel=1e-9)


class TestChecker:
    def test_trace_logdet_passes(self, tld):
        report = check_sufficiently_convex(tld, GRID)
        assert report.passed, report.violations

    def test_bounded_at_zero_fails_growth(self):
        quad = PenaltyTuple(
            fn=lambda x: x * x - 2 * x + 2,
            inv_lower=lambda y: 1 - math.sqrt(max(y - 1, 0.0)),
            inv_upper=lambda y: 1 + math.sqrt(max(y - 1, 0.0)),
            slope_ratio=1.0,
            slope_range=0.5,
        )
        report = check_sufficiently_convex(quad, GRID)
        assert not report.passed
        assert "grows_at_zero" in report.failed_properties()
        assert report.failed_properties() == {"grows_at_zero"}

    @pytest.mark.parametrize("grid", [GRID[:7], GRID[::-1], np.linspace(0.0, 3.0, 10)], ids=["seven-points", "descending", "zero"])
    def test_rejects_a_grid_that_breaks_the_rule(self, tld, grid):
        with pytest.raises(InvalidInput, match="grid must be a sorted positive vector with at least 8 points"):
            check_sufficiently_convex(tld, grid)

    def test_scaled_tuple_still_passes(self, tld):
        # Positive scaling shifts values and inverse arguments in lockstep
        # and leaves the derivative ratio unchanged.
        scaled = PenaltyTuple(
            fn=lambda x: 2.0 * tld.fn(x),
            inv_lower=lambda y: tld.inv_lower(y / 2.0),
            inv_upper=lambda y: tld.inv_upper(y / 2.0),
            slope_ratio=tld.slope_ratio,
            slope_range=tld.slope_range,
        )
        report = check_sufficiently_convex(scaled, GRID)
        assert report.passed, report.violations

    @pytest.mark.parametrize(
        "prop, fn, slope_ratio, detail",
        [
            ("finite_on_grid", lambda x: x - math.log(x) if x < 100 else math.nan, None, "not finite"),
            ("grows_at_infinity", lambda x: x - math.log(x) if x <= 1 else 2 - 1 / x, None, "has not grown"),
            ("decreasing_below_one", lambda x: max(x, 0.5) - math.log(max(x, 0.5)), None, "not strictly decreasing"),
            ("increasing_above_one", lambda x: min(x, 2.0) - math.log(min(x, 2.0)), None, "not strictly increasing"),
            ("asymmetry", lambda x: x - math.log(x) if x <= 1 else 2 * (x - math.log(x)) - 1, None, "exceeds"),
            ("convex_above_one", lambda x: x - math.log(x) if x <= 1 else 1 + math.sqrt(x - 1), None, "second difference"),
            ("slope_ratio", lambda x: max(x, 0.9) - math.log(max(x, 0.9)), None, "vanishing derivative"),
            ("slope_ratio", lambda x: x - math.log(x), 10.0, "derivative ratio"),
        ],
        ids=["finite", "grows-at-infinity", "decreasing", "increasing", "asymmetry", "convex", "slope-vanishing", "slope-ratio"],
    )
    def test_each_property_fails_on_its_counterexample(self, tld, prop, fn, slope_ratio, detail):
        # The checker reads only fn, slope_ratio and slope_range.
        tup = PenaltyTuple(fn, tld.inv_lower, tld.inv_upper, slope_ratio or tld.slope_ratio, tld.slope_range)
        report = check_sufficiently_convex(tup, GRID)
        assert any(name == prop and detail in text for name, _, text in report.violations), report.violations


class TestGsumObjective:
    def test_rejects_unequal_dimensions(self, tld):
        with pytest.raises(InvalidInput, match="equal dimensions"):
            gsum_objective(np.eye(2), np.eye(3), tld)

    def test_equal_arguments(self, tld):
        rng = np.random.default_rng(31)
        for _ in range(5):
            W = random_hpd(rng, 4)
            assert gsum_objective(W, W, tld) == pytest.approx(4 * tld.fn(1.0), rel=1e-10)

    def test_diagonal_case(self, tld):
        Z = HpdMatrix(np.diag([1.0, 2.0]))
        W = HpdMatrix(np.eye(2))
        expected = tld.fn(1.0) + tld.fn(0.5)
        assert gsum_objective(Z, W, tld) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.5 + math.log(2))

    def test_matches_ml_objective(self, tld):
        from covact import MeasurementOperator, build_gaussian_codebook, ml_objective

        rng = np.random.default_rng(32)
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 33))
        Sigma = random_hpd(rng, 3)
        W = random_hpd(rng, 3)
        z = np.abs(rng.standard_normal(6))
        Z = HpdMatrix(Sigma.values + op.apply_raw(z))
        lhs = ml_objective(op, Sigma, W, z)
        rhs = gsum_objective(Z, W, tld) + 2 * np.log(np.diag(np.linalg.cholesky(W.values)).real).sum()
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestLevelSetBounds:
    def test_collapsed_level(self, tld):
        rng = np.random.default_rng(34)
        W = random_hpd(rng, 3)
        assert level_set_bound_check(W, W, 3 * tld.fn(1.0), tld)
        assert level_set_bound_check(W, W, 3 * tld.fn(1.0), tld, dual=True)

    def test_empty_level_raises(self, tld):
        rng = np.random.default_rng(35)
        W = random_hpd(rng, 3)
        with pytest.raises(EmptyLevelSet):
            level_set_bound_check(W, W, 3 * tld.fn(1.0) - 0.5, tld)

    @pytest.mark.parametrize("gamma", ["x", math.nan])
    def test_rejects_a_non_real_or_non_finite_gamma(self, tld, gamma):
        # A text gamma used to raise a raw TypeError, a NaN one lambert_w's "argument must be finite".
        with pytest.raises(InvalidInput, match="gamma must be finite"):
            level_set_bound_check(np.eye(3), np.eye(3), gamma, tld)

    def test_rejects_unequal_dimensions(self, tld):
        with pytest.raises(InvalidInput, match="equal dimensions"):
            level_set_bound_check(np.eye(2), np.eye(3), 5.0, tld)

    def test_members_satisfy_bounds(self, tld):
        rng = np.random.default_rng(36)
        for _ in range(50):
            M = int(rng.integers(2, 5))
            W = random_hpd(rng, M)
            gamma = M * tld.fn(1.0) + float(rng.uniform(0.1, 3.0))
            Z = random_hpd(rng, M)
            if gsum_objective(Z, W, tld) <= gamma:
                assert level_set_bound_check(Z, W, gamma, tld)
