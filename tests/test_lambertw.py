"""Lambert W branches: defining identity, branch ranges, known values."""

import math

import numpy as np
import pytest
import scipy.special

from covact import DomainError, InvalidInput, lambert_w


def branch_grid(branch, count=1000):
    bp = -math.exp(-1.0)
    if branch == 0:
        # Dense near the branch point, then log-spaced into the tail.
        left = np.linspace(bp, 0.0, count // 2, endpoint=False)
        right = np.logspace(-8, 8, count - count // 2)
        return np.concatenate([left, right])
    return np.linspace(bp, -1e-12, count)


class TestKnownValues:
    def test_principal_at_zero(self):
        assert lambert_w(0, 0.0) == 0.0

    def test_principal_log_value(self):
        # -ln(4)/4 equals (-ln 2) e^(-ln 2), and -ln 2 > -1 picks branch 0.
        assert lambert_w(0, -math.log(4) / 4) == pytest.approx(-math.log(2), abs=1e-12)

    def test_branch_point(self):
        assert lambert_w(0, -math.exp(-1)) == -1.0
        assert lambert_w(-1, -math.exp(-1)) == -1.0

    def test_defining_identity_at_e(self):
        assert lambert_w(0, math.e) == pytest.approx(1.0, abs=1e-14)


class TestIdentity:
    @pytest.mark.parametrize("branch", [0, -1])
    def test_residual_on_grid(self, branch):
        for y in branch_grid(branch):
            w = lambert_w(branch, float(y))
            residual = abs(w * math.exp(w) - y)
            assert residual <= 1e-13 * max(1.0, abs(y))

    @pytest.mark.parametrize("branch", [0, -1])
    def test_branch_ranges(self, branch):
        for y in branch_grid(branch, count=200):
            w = lambert_w(branch, float(y))
            if branch == 0:
                assert w >= -1.0
            else:
                assert w <= -1.0


class TestAgainstScipy:
    @pytest.mark.parametrize("branch", [0, -1])
    def test_matches_reference(self, branch):
        # scipy is NaN at the branch point and loses accuracy right beside
        # it, so the comparison keeps a small safety distance.
        bp = -math.exp(-1.0)
        for y in branch_grid(branch, count=200):
            if abs(float(y) - bp) < 1e-8:
                continue
            ours = lambert_w(branch, float(y))
            ref = scipy.special.lambertw(float(y), k=0 if branch == 0 else -1)
            assert abs(ref.imag) <= 1e-12
            assert ours == pytest.approx(float(ref.real), abs=2e-12, rel=1e-12)


class TestDomain:
    @pytest.mark.parametrize("branch", [0, -1])
    def test_sub_ulp_excursion_below_branch_point_is_the_branch_point(self, branch):
        below = math.nextafter(-math.exp(-1.0), -math.inf)
        assert lambert_w(branch, below) == -1.0
        with pytest.raises(DomainError):
            lambert_w(branch, -math.exp(-1.0) * (1.0 + 1e-11))

    def test_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w(0, -0.5)
        with pytest.raises(DomainError):
            lambert_w(-1, -0.5)

    def test_secondary_needs_negative(self):
        with pytest.raises(DomainError):
            lambert_w(-1, 0.0)
        with pytest.raises(DomainError):
            lambert_w(-1, 1.0)

    def test_invalid_branch(self):
        with pytest.raises(InvalidInput):
            lambert_w(1, 0.5)

    @pytest.mark.parametrize("y", ["0.5", math.nan, math.inf, None])
    def test_rejects_a_non_real_or_non_finite_argument(self, y):
        # Text used to be converted (lambert_w(0, "0.5") returned 0.3517).
        with pytest.raises(InvalidInput, match="y must be finite"):
            lambert_w(0, y)
