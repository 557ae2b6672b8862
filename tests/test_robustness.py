"""Robustness radii, antenna thresholds and empirical concentration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from covact import (
    BoundInputs,
    HpdMatrix,
    InvalidInput,
    delta_radius,
    empirical_concentration,
    k0_antennas,
    lambert_w,
    trace_logdet_tuple,
)
from covact.robustness import DELTA_KINDS


@pytest.fixture(scope="module")
def tld():
    return trace_logdet_tuple()


@pytest.fixture(scope="module")
def inputs():
    return BoundInputs(
        lambda_min=0.5,
        lambda_max=2.5,
        beta=0.25,
        eta=1.0,
        tau=0.5,
        dim=4,
        p=0.9,
        c=1.0,
        sup_diag=1.0,
    )


class TestBoundInputs:
    def test_lambda_min_must_not_exceed_lambda_max(self):
        with pytest.raises(InvalidInput, match="lambda_min 3.0 exceeds lambda_max 2.5"):
            BoundInputs(3.0, 2.5, 0.25, 1.0, 0.5, 4, 0.9, 1.0, 1.0)

    def test_beta_must_stay_below_lambda_min(self):
        with pytest.raises(InvalidInput):
            BoundInputs(0.5, 2.5, 0.5, 1.0, 0.5, 4, 0.9, 1.0, 1.0)

    def test_probability_range(self):
        with pytest.raises(InvalidInput):
            BoundInputs(0.5, 2.5, 0.25, 1.0, 0.5, 4, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["eta", "c", "lambda_min", "lambda_max", "beta", "tau", "p", "sup_diag"])
    def test_rejects_nan(self, inputs, name):
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidInput):
                replace(inputs, **{name: value})


class TestDeltaRadius:
    def test_all_kinds_positive_and_capped(self, inputs, tld):
        for kind in DELTA_KINDS:
            for eps in (1e-4, 1e-2, 1.0, 100.0):
                value = delta_radius(kind, eps, inputs, tld)
                assert 0.0 < value <= inputs.beta

    def test_monotone_in_eps(self, inputs, tld):
        grid = np.logspace(-6, 2, 60)
        for kind in DELTA_KINDS:
            values = [delta_radius(kind, float(e), inputs, tld) for e in grid]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("beta", [0.25, 0.05])
    def test_obj_cont_formula(self, inputs, tld, beta):
        # README's delta_3: min(lam1 sqrt(ratio) width(eps / M), beta); the
        # smaller beta is reached by the grid, the larger one is not.
        inputs = replace(inputs, beta=beta)
        sq = math.sqrt((inputs.lambda_min - beta) / (inputs.lambda_max + beta))
        grid = np.logspace(-6, 2, 60)
        values = [delta_radius("obj_cont", float(eps), inputs, tld) for eps in grid]
        for eps, value in zip(grid, values):
            expected = min(inputs.lambda_min * sq * tld.width(float(eps) / inputs.dim), beta)
            assert value == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(values) >= 0)
        assert values[0] < beta
        assert (values[-1] == beta) == (beta < inputs.lambda_min * sq)

    def test_skc_is_tld_at_half_tau_eps(self, inputs, tld):
        for eps in np.logspace(-5, 2, 40):
            direct = delta_radius("skc", float(eps), inputs, tld)
            rescaled = delta_radius("tld", inputs.tau * float(eps) / 2.0, inputs, tld)
            assert direct == pytest.approx(rescaled, rel=1e-12)

    def test_tld_matches_generic_convex_formula(self, inputs, tld):
        # The Lambert W expression and the generic penalty-tuple expression
        # are two independent codings of the same radius.
        for eps in np.logspace(-5, 2, 40):
            assert delta_radius("tld", float(eps), inputs, tld) == pytest.approx(
                delta_radius("convex", float(eps), inputs, tld), rel=1e-11
            )

    def test_convex_not_larger_than_nice(self, inputs, tld):
        for eps in np.logspace(-4, 2, 40):
            assert delta_radius("convex", float(eps), inputs, tld) <= delta_radius(
                "nice", float(eps), inputs, tld
            ) * (1 + 1e-10)

    def test_linear_scaling_inequality(self, tld):
        # width(excess(eps) / M) >= slope_ratio * eps / M on (0, slope_range * M].
        M = 4
        for eps in np.linspace(1e-6, tld.slope_range * M, 200):
            lhs = tld.width(tld.excess(eps) / M)
            assert lhs >= tld.slope_ratio * eps / M * (1 - 1e-9)

    def test_convex_linear_near_zero(self, inputs, tld):
        r1 = delta_radius("convex", 1e-9, inputs, tld) / 1e-9
        r2 = delta_radius("convex", 2e-9, inputs, tld) / 2e-9
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_input_validation(self, inputs, tld):
        with pytest.raises(InvalidInput):
            delta_radius("skc", 1.0, BoundInputs(0.5, 2.5, 0.25, 1.0, 0.0, 4, 0.9, 1.0, 1.0), tld)
        with pytest.raises(InvalidInput):
            delta_radius("nice", -1.0, inputs, tld)
        with pytest.raises(InvalidInput):
            delta_radius("bogus", 1.0, inputs, tld)
        for kind in DELTA_KINDS:
            with pytest.raises(InvalidInput, match="eps"):
                delta_radius(kind, math.nan, inputs, tld)


class TestAntennaCounts:
    def test_nnls_double_evaluation(self, inputs, tld):
        # Second, independently structured coding of the same expression.
        eps = 0.1
        value = k0_antennas("nnls", eps, inputs, tld)
        M, s, c, tau = inputs.dim, inputs.sup_diag, inputs.c, inputs.tau
        union = math.log(M * (M + 1) / (1 - 0.9)) / c
        quad = (512.0 / 9.0) * (M * s / (tau * eps)) ** 2
        lin = (16.0 * math.sqrt(2) / 3.0) * M * s / (tau * eps)
        reference = union * max(quad, lin)
        assert value == pytest.approx(reference, rel=1e-9)
        assert value == pytest.approx(1.93e6, rel=5e-3)

    def test_ml_double_evaluation(self, inputs, tld):
        eps = 0.1
        value = k0_antennas("ml", eps, inputs, tld)
        M, s, c = inputs.dim, inputs.sup_diag, inputs.c
        delta = delta_radius("skc", eps, inputs, tld)
        union = -math.log((1 - 0.9) / (M * (M + 1))) / c
        reference = max(M, union * max((128.0 / 9.0) * (M * s / delta) ** 2,
                                       (8.0 * math.sqrt(2) / 3.0) * M * s / delta))
        assert value == pytest.approx(reference, rel=1e-9)

    def test_nnls_strictly_decreasing_in_eps(self, inputs, tld):
        grid = np.logspace(-4, 1, 30)
        values = [k0_antennas("nnls", float(e), inputs, tld) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("estimator", ["nnls", "ml"])
    def test_rejects_nan_eps(self, inputs, tld, estimator):
        with pytest.raises(InvalidInput, match="eps"):
            k0_antennas(estimator, math.nan, inputs, tld)

    @pytest.mark.parametrize("estimator", ["nnls", "ml"])
    def test_rejects_an_eps_whose_squared_radius_underflows(self, inputs, tld, estimator):
        # (tau * eps)**2 and the skc radius squared read 0, so the threshold would divide by 0.
        with pytest.raises(InvalidInput, match=f"eps = 1e-300 is too small: the {estimator} threshold's radius squared underflows"):
            k0_antennas(estimator, 1e-300, inputs, tld)

    def test_rejects_an_unknown_estimator(self, inputs, tld):
        with pytest.raises(InvalidInput, match="unknown estimator 'ml_nnls'"):
            k0_antennas("ml_nnls", 0.1, inputs, tld)

    def test_nnls_needs_a_positive_tau(self, inputs, tld):
        # tau = 0 is a valid BoundInputs (the ml threshold does not use it).
        with pytest.raises(InvalidInput, match="positive robustness constant"):
            k0_antennas("nnls", 0.1, replace(inputs, tau=0.0), tld)

    @pytest.mark.parametrize("estimator", ["nnls", "ml"])
    def test_follows_target_probability(self, inputs, tld, estimator):
        low = k0_antennas(estimator, 0.1, replace(inputs, p=0.5), tld)
        assert low < k0_antennas(estimator, 0.1, replace(inputs, p=0.99), tld)

    def test_ml_floor_is_dimension(self, inputs, tld):
        assert k0_antennas("ml", 1e9, inputs, tld) >= inputs.dim

    def test_ml_dominates_nnls(self, inputs, tld):
        for eps in np.logspace(-4, 1, 20):
            assert k0_antennas("ml", float(eps), inputs, tld) >= k0_antennas(
                "nnls", float(eps), inputs, tld
            )


class TestEmpiricalConcentration:
    def test_huge_radius(self):
        freq = empirical_concentration(HpdMatrix(np.eye(2)), 50, 1e6, 20, 0)
        assert freq == 1.0

    def test_zero_radius(self):
        freq = empirical_concentration(HpdMatrix(np.eye(2)), 50, 0.0, 20, 0)
        assert freq == 0.0

    def test_moderate_radius_concentrates(self):
        freq = empirical_concentration(HpdMatrix(np.eye(2)), 10_000, 0.1, 200, 1)
        assert freq >= 0.95


def test_lambert_ratio_symmetry(tld):
    # The two W-branch values at -exp(-(1+eta)) bracket -1, so their ratio
    # lies in (0, 1); the radius formulas rely on this.
    for eta in (0.1, 1.0, 5.0):
        w0 = lambert_w(0, -math.exp(-(1 + eta)))
        wm1 = lambert_w(-1, -math.exp(-(1 + eta)))
        assert -1 < w0 < 0
        assert wm1 < -1
        assert 0 < w0 / wm1 < 1
