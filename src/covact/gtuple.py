"""Spectral penalties with branch inverses and perturbation moduli.

A penalty tuple bundles a scalar penalty on (0, inf) with a unique minimum at
1, its inverses on the falling branch (0, 1] and the rising branch [1, inf),
the one-sided derivative-ratio constants that drive the linear radii, and the
two perturbation moduli: ``width(eps)`` bounds |x - 1| so the penalty stays
within eps of its minimum, and ``excess(eps)`` is the penalty increase at
1 + eps.  The trace-log-det instance x - ln(x) closes all of these in terms
of the two real Lambert W branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import _check_real, _checked_array
from .errors import EmptyLevelSet, InvalidInput
from .hermitian import as_hpd, hpd_sqrt

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PenaltyTuple:
    """A spectral penalty with its inverses and perturbation moduli.

    Attributes
    ----------
    fn : callable
        The penalty on (0, inf), minimized exactly at 1.
    inv_lower, inv_upper : callable
        Inverses of ``fn`` on (0, 1] and [1, inf); both are defined for
        arguments >= fn(1).
    slope_ratio, slope_range : float
        Constants nu > 0 and eps0 in (0, 1) such that
        -fn'(1 + e) / fn'(1 - e) >= nu for all e in (0, eps0].
    width : callable
        width(eps) = 1 - inv_lower(fn(1) + eps): half-width of the interval
        around 1 on which the penalty stays within eps of its minimum.
    excess : callable
        excess(eps) = fn(1 + eps) - fn(1): penalty increase at 1 + eps.
    """

    fn: Callable[[float], float]
    inv_lower: Callable[[float], float]
    inv_upper: Callable[[float], float]
    slope_ratio: float
    slope_range: float
    width: Callable[[float], float] = field(repr=False, default=None)
    excess: Callable[[float], float] = field(repr=False, default=None)

    def __post_init__(self):
        if self.width is None:
            object.__setattr__(self, "width", lambda eps: 1.0 - self.inv_lower(self.fn(1.0) + eps))
        if self.excess is None:
            object.__setattr__(self, "excess", lambda eps: self.fn(1.0 + eps) - self.fn(1.0))


def trace_logdet_tuple() -> PenaltyTuple:
    """The penalty x - ln(x) with Lambert W branch inverses.

    inv_lower(y) = -W0(-exp(-y)) and inv_upper(y) = -W_-1(-exp(-y));
    slope_ratio = (1 - ln 2)/ln 2 and slope_range = ln 4 - 1.
    """
    from .lambertw import lambert_w

    def fn(x):
        return x - math.log(x)

    def inv_lower(y):
        return -lambert_w(0, -math.exp(-y))

    def inv_upper(y):
        return -lambert_w(-1, -math.exp(-y))

    def excess(eps):
        # eps - log(1 + eps), written to survive eps near zero.
        return eps - math.log1p(eps)

    def width(eps):
        # 1 + W0(-exp(-(1 + eps))).  Tiny eps lands within one ulp of the
        # Lambert branch point, so switch to the branch-point series in
        # p = sqrt(2 (1 - exp(-eps))) where the direct form underflows.
        if eps < 1e-8:
            p = math.sqrt(2.0 * -math.expm1(-eps))
            return p - p * p / 3.0 + 11.0 * p**3 / 72.0 - 43.0 * p**4 / 540.0
        return 1.0 - inv_lower(1.0 + eps)

    return PenaltyTuple(
        fn=fn,
        inv_lower=inv_lower,
        inv_upper=inv_upper,
        slope_ratio=(1.0 - LN2) / LN2,
        slope_range=2.0 * LN2 - 1.0,
        width=width,
        excess=excess,
    )


@dataclass(frozen=True)
class PenaltyCheckReport:
    """Outcome of the property checks for a penalty tuple on a grid."""

    passed: bool
    violations: tuple

    def failed_properties(self) -> set:
        return {name for name, _, _ in self.violations}


def check_sufficiently_convex(tup: PenaltyTuple, grid) -> PenaltyCheckReport:
    """Verify the convex-penalty property list on a grid.

    Checks, with locations reported for every violation: growth toward both
    ends of the domain, finiteness, strict monotonicity on either side of 1,
    the asymmetry fn(1+e) <= fn(1-e), convexity above 1 via second
    differences, and the derivative-ratio floor -fn'(1+e)/fn'(1-e) >=
    slope_ratio for e <= slope_range (central differences, h = 1e-6).
    Growth to infinity is not decidable from finitely many samples; it is
    flagged when the penalty fails to rise at least 1 above its minimum at
    the grid ends.
    """
    grid = _checked_array("grid", grid, float, (None,))
    if grid.size < 8 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise InvalidInput("grid must be a sorted positive vector with at least 8 points")
    violations = []
    fn1 = tup.fn(1.0)
    vals = np.array([tup.fn(x) for x in grid])

    if not np.all(np.isfinite(vals)):
        idx = int(np.flatnonzero(~np.isfinite(vals))[0])
        violations.append(("finite_on_grid", grid[idx], "penalty is not finite"))
    if vals[0] < fn1 + 1.0:
        violations.append(("grows_at_zero", grid[0], f"fn({grid[0]:.3g}) = {vals[0]:.6g} has not grown 1 above fn(1) = {fn1:.6g}"))
    if vals[-1] < fn1 + 1.0:
        violations.append(("grows_at_infinity", grid[-1], f"fn({grid[-1]:.3g}) = {vals[-1]:.6g} has not grown 1 above fn(1) = {fn1:.6g}"))

    below = grid <= 1.0
    if below.sum() >= 2:
        diffs = np.diff(vals[below])
        bad = np.flatnonzero(diffs >= 0)
        if bad.size:
            violations.append(("decreasing_below_one", grid[below][bad[0]], "penalty not strictly decreasing"))
    above = grid >= 1.0
    if above.sum() >= 2:
        diffs = np.diff(vals[above])
        bad = np.flatnonzero(diffs <= 0)
        if bad.size:
            violations.append(("increasing_above_one", grid[above][bad[0]], "penalty not strictly increasing"))

    eps_grid = 1.0 - grid[(grid < 1.0) & (grid > 0.0)]
    for eps in eps_grid:
        if tup.fn(1.0 + eps) > tup.fn(1.0 - eps) * (1 + 1e-12) + 1e-12:
            violations.append(("asymmetry", 1.0 + eps, "fn(1+eps) exceeds fn(1-eps)"))
            break

    xs = grid[above]
    if xs.size >= 3:
        second = vals[above][:-2] - 2 * vals[above][1:-1] + vals[above][2:]
        scale = np.maximum(np.abs(vals[above][1:-1]), 1.0)
        bad = np.flatnonzero(second < -1e-9 * scale)
        if bad.size:
            violations.append(("convex_above_one", xs[bad[0] + 1], "negative second difference"))

    h = 1e-6
    ratio_eps = [e for e in np.concatenate([eps_grid, grid[above] - 1.0]) if 0 < e <= tup.slope_range and e < 1.0 - 2 * h]
    for eps in sorted(set(np.round(ratio_eps, 12))):
        d_up = (tup.fn(1.0 + eps + h) - tup.fn(1.0 + eps - h)) / (2 * h)
        d_down = (tup.fn(1.0 - eps + h) - tup.fn(1.0 - eps - h)) / (2 * h)
        if d_down == 0:
            violations.append(("slope_ratio", 1.0 - eps, "vanishing derivative below 1"))
            break
        if -d_up / d_down < tup.slope_ratio * (1 - 1e-6):
            violations.append(("slope_ratio", 1.0 + eps, f"derivative ratio {-d_up / d_down:.6g} below {tup.slope_ratio:.6g}"))
            break

    return PenaltyCheckReport(passed=not violations, violations=tuple(violations))


def gsum_objective(Z, W, tup: PenaltyTuple) -> float:
    """Sum of the penalty over the eigenvalues of W^(1/2) Z^(-1) W^(1/2)."""
    zpd, wpd = as_hpd(Z), as_hpd(W)
    if zpd.dim != wpd.dim:
        raise InvalidInput("Z and W must have equal dimensions")
    root = hpd_sqrt(wpd).values
    inner = root @ np.linalg.solve(zpd.values, root)
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(sum(tup.fn(x) for x in lam))


def level_set_bound_check(Z, W, gamma: float, tup: PenaltyTuple, dual: bool = False) -> bool:
    """Check the eigenvalue sandwich implied by level-set membership.

    With y = gamma - (M - 1) fn(1), membership of Z in the gamma level set of
    the spectral objective against W forces every eigenvalue of Z into
    [lam_min(W) / inv_upper(y), lam_max(W) / inv_lower(y)].  With
    ``dual=True`` the roles flip: the eigenvalues of W are checked against
    [lam_min(Z) inv_lower(y), lam_max(Z) inv_upper(y)].  The caller is
    responsible for membership itself (gsum_objective(Z, W, tup) <= gamma).
    """
    _check_real("gamma", gamma)
    zpd, wpd = as_hpd(Z), as_hpd(W)
    if zpd.dim != wpd.dim:
        raise InvalidInput("Z and W must have equal dimensions")
    M = zpd.dim
    fn1 = tup.fn(1.0)
    if gamma < M * fn1:
        raise EmptyLevelSet(f"gamma = {gamma:.6g} is below the objective minimum {M * fn1:.6g}")
    y = gamma - (M - 1) * fn1
    low_inv = tup.inv_lower(y)
    high_inv = tup.inv_upper(y)
    lam_z = np.linalg.eigvalsh(zpd.values)
    lam_w = np.linalg.eigvalsh(wpd.values)
    slack = 1e-9
    if dual:
        lower = lam_z[0] * low_inv
        upper = lam_z[-1] * high_inv
        target = lam_w
    else:
        lower = lam_w[0] / high_inv
        upper = lam_w[-1] / low_inv
        target = lam_z
    return bool(
        np.all(target >= lower * (1 - slack) - slack * max(1.0, abs(lower)))
        and np.all(target <= upper * (1 + slack) + slack * max(1.0, abs(upper)))
    )
