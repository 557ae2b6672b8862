"""Closed-form robustness radii and antenna-count thresholds.

Every radius bounds the operator-norm perturbation of the observation that
still guarantees a target estimation error; all of them are minima of a few
monotone terms capped at beta, the distance kept from the boundary of the
positive definite cone.  The antenna thresholds translate a radius into the
number of receive antennas that makes the sample covariance concentrate
inside it with a target probability; they carry an unspecified Bernstein
constant c, so their absolute scale is structural, not quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import sample_complex_gaussian, stream
from .config import _check_count, _check_real
from .errors import InvalidInput
from .gtuple import LN2, PenaltyTuple
from .hermitian import as_hpd
from .lambertw import lambert_w

DELTA_KINDS = ("nice", "convex", "tld", "skc", "obj_cont")


@dataclass(frozen=True)
class BoundInputs:
    """Scalars feeding the radius and antenna-count formulas.

    lambda_min and lambda_max are the extreme eigenvalues of the searched
    covariance matrix; beta in (0, lambda_min) and eta > 0 are free
    parameters of the bounds; tau is the robustness constant of the
    measurement operator; sup_diag is the largest diagonal entry of the
    searched covariance; c is the (unspecified) Bernstein constant and p the
    target probability.
    """

    lambda_min: float
    lambda_max: float
    beta: float
    eta: float
    tau: float
    dim: int
    p: float
    c: float
    sup_diag: float

    def __post_init__(self):
        for name in ("lambda_min", "lambda_max", "eta", "c", "sup_diag"):
            _check_real(name, getattr(self, name), 0)
        if self.lambda_min > self.lambda_max:
            raise InvalidInput(f"lambda_min {self.lambda_min!r} exceeds lambda_max {self.lambda_max!r}")
        _check_real("beta", self.beta, 0, self.lambda_min)
        _check_real("tau", self.tau, 0, low_closed=True)
        _check_count("dim", self.dim)
        _check_real("p", self.p, 0, 1)


def delta_radius(kind: str, eps: float, inputs: BoundInputs, tup: PenaltyTuple) -> float:
    """Evaluate one of the closed-form perturbation radii.

    Kinds: ``nice`` (general penalty with moduli), ``convex`` (penalty with
    derivative-ratio constants), ``tld`` (the trace-log-det specialization
    written with Lambert W branches), ``skc`` (relaxed-ML radius under the
    signed kernel condition, equal to the tld radius at tau * eps / 2) and
    ``obj_cont`` (radius keeping the objective within eps of its minimum).
    """
    if kind not in DELTA_KINDS:
        raise InvalidInput(f"unknown radius kind {kind!r}")
    _check_real("eps", eps, 0)
    lam1, lamM = inputs.lambda_min, inputs.lambda_max
    beta, eta, M = inputs.beta, inputs.eta, inputs.dim
    ratio = (lam1 - beta) / (lamM + beta)
    sq = math.sqrt(ratio)

    if kind == "skc":
        if inputs.tau <= 0:
            raise InvalidInput("the skc radius needs a positive robustness constant")
        return delta_radius("tld", inputs.tau * eps / 2.0, inputs, tup)

    if kind == "obj_cont":
        return min(lam1 * sq * tup.width(eps / M), beta)

    if kind in ("nice", "convex"):
        fn1 = tup.fn(1.0)
        g1e = tup.inv_lower(fn1 + eta)
        g2e = tup.inv_upper(fn1 + eta)
        if kind == "nice":
            inner = eps * g1e / g2e * sq / (2.0 * lamM)
            first = lam1 * sq * tup.width(tup.excess(inner) / M)
            return min(first, eps / 2.0, lam1 * sq * tup.width(eta / M), beta)
        first = (tup.slope_ratio / (2.0 * M)) * (lam1 / lamM) * ratio * (g1e / g2e) * eps
        third = tup.slope_range * M * lamM * (g2e / g1e) / sq
        fourth = lam1 * sq * (1.0 - tup.inv_lower(fn1 + eta / M))
        fifth = lam1 * sq * (1.0 - tup.inv_lower(tup.fn(1.0 + tup.slope_range)))
        return min(first, eps / 2.0, third, fourth, fifth, beta)

    # kind == "tld": the trace-log-det radius as a Lambert W expression.
    w0 = lambert_w(0, -math.exp(-(1.0 + eta)))
    wm1 = lambert_w(-1, -math.exp(-(1.0 + eta)))
    first = ((1.0 - LN2) / (2.0 * M * LN2)) * (lam1 / lamM) * ratio * (w0 / wm1) * eps
    third = (2.0 * LN2 - 1.0) * M * lamM * (wm1 / w0) / sq
    fourth = lam1 * sq * (1.0 + lambert_w(0, -math.exp(-(1.0 + eta / M))))
    fifth = (1.0 - LN2) * lam1 * sq
    return min(first, eps / 2.0, third, fourth, fifth, beta)


def k0_antennas(estimator: str, eps: float, inputs: BoundInputs, tup: PenaltyTuple) -> float:
    """Antenna count making the target error eps hold with probability inputs.p.

    ``nnls`` uses the robustness constant directly; ``ml`` goes through the
    skc radius and is floored at the dimension (the sample covariance must
    have full rank).  Both scale with the unspecified Bernstein constant c.
    """
    if estimator not in ("nnls", "ml"):
        raise InvalidInput(f"unknown estimator {estimator!r}")
    _check_real("eps", eps, 0)
    M, s, c, p = inputs.dim, inputs.sup_diag, inputs.c, inputs.p
    lead = -math.log((1.0 - p) / (M * (M + 1))) / c
    if estimator == "nnls":
        if inputs.tau <= 0:
            raise InvalidInput("the nnls threshold needs a positive robustness constant")
        tau_eps = inputs.tau * eps
        return lead * max(
            512.0 * M**2 * s**2 / (9.0 * tau_eps**2),
            16.0 * math.sqrt(2.0) * M * s / (3.0 * tau_eps),
        )
    delta = delta_radius("skc", eps, inputs, tup)
    return max(
        float(M),
        lead * max(
            128.0 * M**2 * s**2 / (9.0 * delta**2),
            8.0 * math.sqrt(2.0) * M * s / (3.0 * delta),
        ),
    )


def empirical_concentration(SigmaPrime, K: int, xi: float, trials: int, seed) -> float:
    """Fraction of trials with Frobenius deviation of the sample covariance <= xi."""
    _check_count("trials", trials)
    _check_real("xi", xi, 0, low_closed=True)
    spd = as_hpd(SigmaPrime)
    hits = 0
    for t in range(trials):
        Y = sample_complex_gaussian(spd, K, stream(seed, "concentration", t))
        dev = np.linalg.norm(Y @ Y.conj().T / K - spd.values)
        if dev <= xi:
            hits += 1
    return hits / trials
