"""The two fading estimators and thresholding-based activity detection.

Non-negative least squares runs on the stacked-real form of the operator
through a Lawson-Hanson active-set loop that terminates on explicit KKT
tolerances.  The relaxed maximum-likelihood estimator minimizes
trace((A(z) + Sigma)^-1 W) + ln det(A(z) + Sigma) over z >= 0 by cyclic
coordinate descent with exact per-coordinate steps, tracking the inverse via
rank-one updates and refreshing it periodically to bound drift.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .codebook import MeasurementOperator, vectorize_hermitian
from .errors import InvalidInput, NotConverged, NotPositiveDefinite, StepRejected
from .hermitian import HpdMatrix, as_hermitian, as_hpd

# Sweeps between from-scratch recomputations of the tracked ML inverse.
_REFRESH_EVERY = 25


@dataclass(frozen=True)
class NnlsOptions:
    max_iterations: int = 300
    kkt_tol: float = 1e-9

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise InvalidInput("kkt_tol must be positive")


@dataclass(frozen=True)
class NnlsResult:
    """Nonnegative solution with its residual and KKT certificate."""

    z: np.ndarray
    residual: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class MlOptions:
    """Coordinate-descent configuration.

    ``permutation`` fixes the coordinate visiting order (identity when
    omitted); ``z0`` is the nonnegative initializer (zero when omitted).
    A sweep visits all N coordinates once; the loop stops after
    ``while_iterations`` sweeps or when a full sweep improves the objective
    by less than ``objective_tol``.  The tracked inverse is recomputed from
    scratch every 25 sweeps.  With ``track="update"`` the trace records the
    objective after every coordinate update instead of once per sweep.
    """

    permutation: np.ndarray | None = None
    z0: np.ndarray | None = None
    while_iterations: int = 100
    objective_tol: float = 1e-10
    track: str = "sweep"

    def __post_init__(self):
        if self.while_iterations < 1:
            raise InvalidInput("while_iterations must be at least 1")
        if self.objective_tol < 0:
            raise InvalidInput("objective_tol must be nonnegative")
        if self.track not in ("sweep", "update"):
            raise InvalidInput("track must be 'sweep' or 'update'")
        if self.permutation is not None:
            perm = np.asarray(self.permutation, dtype=int)
            if not np.array_equal(np.sort(perm), np.arange(perm.size)):
                raise InvalidInput("permutation must be a bijection on 0..N-1")
            object.__setattr__(self, "permutation", perm)
        if self.z0 is not None:
            z0 = np.asarray(self.z0, dtype=float)
            if np.any(z0 < 0) or not np.all(np.isfinite(z0)):
                raise InvalidInput("z0 must be finite and nonnegative")
            object.__setattr__(self, "z0", z0)


@dataclass(frozen=True)
class MlTrace:
    """Per-sweep (or per-update) objective values and the final state."""

    objectives: np.ndarray
    z: np.ndarray
    sigma_prime: HpdMatrix
    kkt_residual: float
    inverse_drift: float
    sweeps: int


@dataclass(frozen=True)
class DetectionResult:
    """True support next to the two thresholding detections."""

    true_support: frozenset
    above_threshold: frozenset
    largest: frozenset

    @property
    def threshold_exact(self) -> bool:
        return self.above_threshold == self.true_support

    @property
    def largest_exact(self) -> bool:
        return self.largest == self.true_support


def _boundary(op: MeasurementOperator, Sigma, W, z=None):
    """Checked inputs of one estimator call: (HpdMatrix, HermitianMatrix, z).

    Sigma and W must be pilot_len square; a given z must be a finite,
    nonnegative vector of length num_users and comes back as a fresh float
    copy (None stays None).
    """
    spd = as_hpd(Sigma)
    wherm = as_hermitian(W)
    if spd.dim != op.pilot_len or wherm.dim != op.pilot_len:
        raise InvalidInput("Sigma and W must match the pilot length")
    if z is not None:
        z = np.array(z, dtype=float)
        if z.shape != (op.num_users,):
            raise InvalidInput(f"coefficients have shape {z.shape}, expected ({op.num_users},)")
        if not np.all(np.isfinite(z)) or np.any(z < 0):
            raise InvalidInput("coefficients must be finite and nonnegative")
    return spd, wherm, z


def _kkt_violation(g, z) -> float:
    """Worst KKT violation of the gradient g at z >= 0.

    Active coordinates (z_n <= 1e-12) contribute the negative part of the
    gradient, free ones its magnitude.
    """
    return float(np.where(z <= 1e-12, np.maximum(-g, 0.0), np.abs(g)).max(initial=0.0))


def _nnls_active_set(E, d, opts: NnlsOptions):
    n = E.shape[1]
    gram = E.T @ E
    lin = E.T @ d
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    banned = np.zeros(n, dtype=bool)  # degenerate entries, cleared on progress
    w = lin.copy()  # negative gradient at z = 0
    best = (float(np.linalg.norm(d)), z.copy())
    outer = 0
    while True:
        candidates = ~passive & ~banned & (w > opts.kkt_tol)
        if not candidates.any():
            break
        if outer >= opts.max_iterations:
            raise NotConverged("active-set iteration budget exhausted", z=best[1], residual=best[0])
        outer += 1
        j = int(np.flatnonzero(candidates)[np.argmax(w[candidates])])
        passive[j] = True
        for _ in range(opts.max_iterations):
            idx = np.flatnonzero(passive)
            s_passive, *_ = np.linalg.lstsq(E[:, idx], d, rcond=None)
            if s_passive.size and s_passive.min() > 0:
                z = np.zeros(n)
                z[idx] = s_passive
                break
            s = np.zeros(n)
            s[idx] = s_passive
            shrink = passive & (s <= 0) & (z > 0)
            if not shrink.any():
                # The entering column cannot leave zero; ban it until the
                # iterate moves, otherwise the outer loop would re-add it.
                passive[j] = False
                banned[j] = True
                z[~passive] = 0.0
                break
            alpha = float((z[shrink] / (z[shrink] - s[shrink])).min())
            z = z + alpha * (s - z)
            passive &= z > 1e-14
            z[~passive] = 0.0
        resid_vec = d - E @ z
        w = E.T @ resid_vec
        resid = float(np.linalg.norm(resid_vec))
        if resid < best[0] - 1e-15 * max(1.0, best[0]):
            best = (resid, z.copy())
            banned[:] = False
    residual = float(np.linalg.norm(d - E @ z))
    # The gradient of 0.5 ||E z - d||^2 is gram @ z - lin.
    return z, residual, _kkt_violation(gram @ z - lin, z), outer


def nnls_estimate(op: MeasurementOperator, Sigma, W, opts: NnlsOptions | None = None) -> NnlsResult:
    """Minimize ||A(z) + Sigma - W||_F over z >= 0.

    Returns the minimizer with the attained Frobenius residual.  At the
    solution the KKT conditions of the stacked real least-squares problem
    hold to ``opts.kkt_tol``: the gradient is >= -kkt_tol on the active
    (z_n = 0) coordinates and has magnitude <= kkt_tol on the free ones.
    """
    opts = opts or NnlsOptions()
    spd, wherm, _ = _boundary(op, Sigma, W)
    E = op.stacked_real().values
    d = vectorize_hermitian(as_hermitian(wherm.values - spd.values), op.pilot_len)
    z, residual, kkt, iters = _nnls_active_set(E, d, opts)
    return NnlsResult(z=z, residual=residual, kkt_residual=kkt, iterations=iters)


def _chol_or_raise(Z):
    try:
        return np.linalg.cholesky(Z)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc


def ml_objective(op: MeasurementOperator, Sigma, W, z) -> float:
    """Evaluate trace((A(z) + Sigma)^-1 W) + ln det(A(z) + Sigma)."""
    spd, wherm, z = _boundary(op, Sigma, W, z)
    Z = spd.values + op._apply(z)
    return _ml_objective_raw(Z, wherm.values)


def _ml_objective_raw(Z, Wv) -> float:
    L = _chol_or_raise(Z)
    half = np.linalg.solve(L, Wv)
    trace_term = float(np.real(np.trace(np.linalg.solve(L.conj().T, half))))
    logdet = 2.0 * float(np.log(np.real(np.diag(L))).sum())
    return trace_term + logdet


def _step(a, S, Wv, x_n):
    """Optimal step t for one coordinate, with u = S a and q = a^H S a.

    Works on raw arrays: S is the tracked inverse, Wv the observation.
    """
    u = S @ a
    q = float(np.real(np.vdot(a, u)))
    if q <= 0:
        raise StepRejected("a^H S a <= 0: the tracked inverse is corrupted")
    r = float(np.real(np.vdot(u, Wv @ u)))
    return max(-x_n, (r - q) / (q * q)), u, q


def _checked_column(a_n, S):
    """a_n as a complex vector of S's dimension."""
    a = np.asarray(a_n, dtype=complex)
    if a.shape != (S.shape[0],):
        raise InvalidInput(f"a_n has shape {a.shape}, expected ({S.shape[0]},)")
    return a


def _rank_one(S, u, q, t):
    """(S^-1 + t a a^H)^-1 from S, given u = S a and q = a^H S a."""
    denom = 1.0 + t * q
    if denom <= 1e-12:
        raise StepRejected(f"rank-one update denominator {denom:.3e} is not positive")
    return S - (t / denom) * np.outer(u, u.conj())


def coordinate_step(a_n, SigmaPrime, W, x_n: float) -> float:
    """Optimal step for one coordinate of the relaxed ML objective.

    Returns ``max(-x_n, (a^H S W S a - a^H S a) / (a^H S a)^2)`` with
    S the tracked inverse of the current fit; the step keeps x_n + t >= 0.
    """
    S = as_hpd(SigmaPrime).values
    return _step(_checked_column(a_n, S), S, as_hermitian(W).values, float(x_n))[0]


def sherman_morrison_update(SigmaPrime, a_n, t: float) -> HpdMatrix:
    """Rank-one inverse update: (S^-1 + t a a^H)^-1 from S.

    Requires 1 + t a^H S a > 0, which the optimal step guarantees whenever
    the updated fit stays positive definite; a nonpositive denominator is
    treated as corruption.
    """
    S = as_hpd(SigmaPrime).values
    a = _checked_column(a_n, S)
    u = S @ a
    return HpdMatrix(_rank_one(S, u, float(np.real(np.vdot(a, u))), t))


def ml_coordinate_descent(op: MeasurementOperator, Sigma, W, opts: MlOptions | None = None) -> MlTrace:
    """Cyclic coordinate descent for the relaxed ML estimator.

    Visits the coordinates in the configured order, applies the optimal step
    for each, and maintains the inverse of the running fit through rank-one
    updates.  The recorded objective values never increase; the tracked
    inverse is refreshed periodically and its drift is re-measured at exit.
    """
    opts = opts or MlOptions()
    N = op.num_users
    spd, wherm, z = _boundary(op, Sigma, W, np.zeros(N) if opts.z0 is None else opts.z0)
    lam_w = np.linalg.eigvalsh(wherm.values)
    if lam_w[0] < -1e-10:
        raise InvalidInput(f"W has a negative eigenvalue {lam_w[0]:.3e}")
    A = op.codebook.columns
    perm = opts.permutation if opts.permutation is not None else np.arange(N)
    if perm.size != N:
        raise InvalidInput("permutation length does not match the number of users")
    Wv = wherm.values
    Sv = spd.values

    def fresh_inverse():
        Z = Sv + op._apply(z)
        return np.linalg.inv((Z + Z.conj().T) / 2)

    sig = fresh_inverse()
    objectives = [_ml_objective_raw(Sv + op._apply(z), Wv)]
    sweeps_done = 0
    for sweep in range(opts.while_iterations):
        f_prev = objectives[-1]
        for n in perm:
            t, u, q = _step(A[:, n], sig, Wv, z[n])
            sig = _rank_one(sig, u, q, t)
            z[n] += t
            if opts.track == "update":
                objectives.append(_ml_objective_raw(Sv + op._apply(z), Wv))
        sig = (sig + sig.conj().T) / 2
        sweeps_done = sweep + 1
        if sweeps_done % _REFRESH_EVERY == 0:
            sig = fresh_inverse()
        f_new = _ml_objective_raw(Sv + op._apply(z), Wv)
        if opts.track == "sweep":
            objectives.append(f_new)
        if f_prev - f_new < opts.objective_tol:
            break
    Z_final = Sv + op._apply(z)
    drift = float(np.linalg.norm(sig @ Z_final - np.eye(op.pilot_len)))
    kkt = kkt_residual(op, spd, wherm, z)
    return MlTrace(
        objectives=np.asarray(objectives),
        z=z,
        sigma_prime=HpdMatrix((sig + sig.conj().T) / 2),
        kkt_residual=kkt,
        inverse_drift=drift,
        sweeps=sweeps_done,
    )


def kkt_residual(op: MeasurementOperator, Sigma, W, z) -> float:
    """First-order stationarity residual of the relaxed ML problem at z.

    The partial derivative at coordinate n is a_n^H S a_n - a_n^H S W S a_n
    with S the exact inverse of A(z) + Sigma.  Active coordinates (z_n = 0
    within 1e-12) contribute the negative part of the derivative, free ones
    its magnitude; the residual is the maximum over all coordinates.
    """
    spd, wherm, z = _boundary(op, Sigma, W, z)
    Z = spd.values + op._apply(z)
    L = _chol_or_raise(Z)
    A = op.codebook.columns
    U = np.linalg.solve(L.conj().T, np.linalg.solve(L, A))  # S @ A
    q = np.real(np.einsum("mn,mn->n", A.conj(), U))
    r = np.real(np.einsum("mn,mn->n", U.conj(), wherm.values @ U))
    return _kkt_violation(q - r, z)


def threshold_detect(z, eps: float, true_support) -> DetectionResult:
    """Detect active users by threshold and by the largest entries.

    ``above_threshold`` collects indices with z_n > eps; ``largest`` takes
    the |true_support| largest entries with ties broken by lowest index.
    """
    if eps <= 0:
        raise InvalidInput("threshold must be positive")
    z = np.asarray(z, dtype=float)
    support = frozenset(int(i) for i in true_support)
    above = frozenset(np.flatnonzero(z > eps).tolist())
    order = np.argsort(-z, kind="stable")
    largest = frozenset(order[: len(support)].tolist())
    return DetectionResult(true_support=support, above_threshold=above, largest=largest)


def save_estimate_csv(z, path) -> None:
    """Write an estimate as CSV rows ``n,z_n`` (1-based indices)."""
    z = np.asarray(z, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "z_n"])
        for n, v in enumerate(z, start=1):
            writer.writerow([n, f"{v:.17g}"])


def save_trace_csv(trace: MlTrace, path) -> None:
    """Write per-sweep objective values as CSV ``sweep,objective,kkt_residual``.

    The KKT residual is only measured at exit, so intermediate rows carry an
    empty residual column.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "objective", "kkt_residual"])
        last = len(trace.objectives) - 1
        for i, val in enumerate(trace.objectives):
            kkt = f"{trace.kkt_residual:.17g}" if i == last else ""
            writer.writerow([i, f"{val:.17g}", kkt])
