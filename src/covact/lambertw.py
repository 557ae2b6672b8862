"""Real branches of the Lambert W function via Halley iteration.

Both branches solve w * exp(w) = y.  Branch 0 maps [-1/e, inf) to [-1, inf);
branch -1 maps [-1/e, 0) to (-inf, -1].  Seeds are piecewise: a series around
the branch point -1/e, a rational approximation for moderate arguments and
the asymptotic log expansion in the tails; Halley steps then converge to a
fixed 1e-15 step tolerance within a 50-iteration cap.
"""

from __future__ import annotations

import math

from .config import _check_real
from .errors import DomainError, InvalidInput

_BRANCH_POINT = -math.exp(-1.0)
_STEP_TOL = 1e-15
_MAX_ITER = 50


def _seed_principal(y: float) -> float:
    if y >= math.e:
        l1 = math.log(y)
        l2 = math.log(l1)
        return l1 - l2 + l2 / l1
    if y >= 0.0:
        return y * math.e / (1.0 + math.e * y)
    # Branch-point series in p = sqrt(2 (e y + 1)); valid for y in [-1/e, 0).
    p = math.sqrt(max(2.0 * (math.e * y + 1.0), 0.0))
    return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0


def _seed_secondary(y: float) -> float:
    if y >= -0.25:
        l1 = math.log(-y)
        return l1 - math.log(-l1)
    p = math.sqrt(max(2.0 * (math.e * y + 1.0), 0.0))
    return -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0


def lambert_w(branch: int, y: float) -> float:
    """Evaluate the real Lambert W branches, w * exp(w) = y.

    Parameters
    ----------
    branch : {0, -1}
        0 for the principal branch (result >= -1), -1 for the secondary
        branch (result <= -1).
    y : float
        Argument.  Branch 0 requires y >= -1/e; branch -1 requires
        -1/e <= y < 0.
    """
    if branch not in (0, -1):
        raise InvalidInput(f"branch must be 0 or -1, got {branch}")
    _check_real("y", y)
    y = float(y)
    # Absorb sub-ulp excursions below the branch point into the branch point.
    if y < _BRANCH_POINT:
        if y >= _BRANCH_POINT * (1.0 + 1e-12):
            y = _BRANCH_POINT
        else:
            raise DomainError(f"argument {y} below the branch point {_BRANCH_POINT}")
    if branch == -1 and y >= 0.0:
        raise DomainError(f"branch -1 requires a negative argument, got {y}")
    if y == _BRANCH_POINT:
        return -1.0
    if branch == 0 and y == 0.0:
        return 0.0

    w = _seed_principal(y) if branch == 0 else _seed_secondary(y)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - y
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)) if w != -1.0 else ew
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        # Keep iterates on the requested branch.
        if branch == 0 and w < -1.0:
            w = -1.0 + 1e-16
        if branch == -1 and w > -1.0:
            w = -1.0 - 1e-16
        if abs(dw) <= _STEP_TOL * (1.0 + abs(w)):
            break
    return max(w, -1.0) if branch == 0 else min(w, -1.0)
