"""The two fading estimators and thresholding-based activity detection.

Non-negative least squares runs on the stacked-real form of the operator
through a Lawson-Hanson active-set loop that terminates on explicit KKT
tolerances.  The relaxed maximum-likelihood estimator minimizes
trace((A(z) + Sigma)^-1 W) + ln det(A(z) + Sigma) over z >= 0 by cyclic
coordinate descent with exact per-coordinate steps, tracking the inverse via
rank-one updates and refreshing it periodically to bound drift.

The descent has one loop, which runs a batch of trials at once: the
coefficients are a (T, N) array and the tracked inverses a (T, M, M) stack.
Every operation on a trial's 4 x 4 matrices is a stacked NumPy call that
computes each slice with the same arithmetic as the unstacked call, so a
trial's result does not depend on the batch it runs in.  The public
single-trial functions (ml_objective, coordinate_step,
sherman_morrison_update, ml_coordinate_descent, kkt_residual) are batches of
one of the same kernels.  Inputs are checked once per observation at the
public entry, never inside the sweep loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import MeasurementOperator, vectorize_hermitian
from .config import _check_count, _check_real, _checked_array, _write_csv
from .errors import InvalidInput, NotConverged, NotPositiveDefinite, StepRejected
from .hermitian import HermitianMatrix, HpdMatrix, as_hpd

# Sweeps between from-scratch recomputations of the tracked ML inverse.
_REFRESH_EVERY = 25
# Trial indices of a batch of one.
_ONE = np.zeros(1, dtype=int)


@dataclass(frozen=True)
class NnlsOptions:
    max_iterations: int = 300
    kkt_tol: float = 1e-9

    def __post_init__(self):
        _check_count("max_iterations", self.max_iterations)
        _check_real("kkt_tol", self.kkt_tol, 0)


@dataclass(frozen=True, eq=False)
class NnlsResult:
    """Nonnegative solution with its residual and KKT certificate."""

    z: np.ndarray
    residual: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True, eq=False)
class MlOptions:
    """Coordinate-descent configuration.

    ``permutation`` fixes the coordinate visiting order (identity when
    omitted); ``z0`` is the nonnegative initializer (zero when omitted).
    A sweep visits all N coordinates once; the loop stops after
    ``while_iterations`` sweeps or when a full sweep improves the objective
    by less than ``objective_tol``.  The tracked inverse is recomputed from
    scratch every 25 sweeps.
    """

    permutation: np.ndarray | None = None
    z0: np.ndarray | None = None
    while_iterations: int = 100
    objective_tol: float = 1e-10

    def __post_init__(self):
        _check_count("while_iterations", self.while_iterations)
        _check_real("objective_tol", self.objective_tol, 0, low_closed=True)
        if self.permutation is not None:
            perm = np.asarray(self.permutation)
            if not np.array_equal(np.sort(perm), np.arange(perm.size)):
                raise InvalidInput("permutation must be a bijection on 0..N-1")
            object.__setattr__(self, "permutation", perm.astype(int))


@dataclass(frozen=True, eq=False)
class MlTrace:
    """Per-sweep objective values and the final state."""

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
    wherm = HermitianMatrix(W)
    if spd.dim != op.pilot_len or wherm.dim != op.pilot_len:
        raise InvalidInput("Sigma and W must match the pilot length")
    if z is not None:
        z = _checked_array("z", z, float, (op.num_users,), copy=True)
        if (z < 0).any():
            raise InvalidInput("z entries must be nonnegative")
    return spd, wherm, z


def _kkt_violation(g, z):
    """Worst KKT violation of the gradient g at z >= 0 (per row of a stack).

    Active coordinates (z_n <= 1e-12) contribute the negative part of the
    gradient, free ones its magnitude.
    """
    return np.where(z <= 1e-12, np.maximum(-g, 0.0), np.abs(g)).max(axis=-1, initial=0.0)


def _nnls_active_set(E, d, opts: NnlsOptions):
    n = E.shape[1]
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    banned = np.zeros(n, dtype=bool)  # degenerate entries, cleared on progress
    w = E.T @ d  # negative gradient E^T (d - E z) of 0.5 ||E z - d||^2, here at z = 0
    resid = best_resid = math.sqrt(d @ d)
    best_z = z.copy()
    outer = 0
    while True:
        w_free = np.where(passive | banned, -np.inf, w)
        j = int(w_free.argmax())  # the first largest w of an entry neither passive nor banned
        if not w_free[j] > opts.kkt_tol:
            break
        if outer >= opts.max_iterations:
            raise NotConverged("active-set iteration budget exhausted", z=best_z, residual=best_resid)
        outer += 1
        passive[j] = True
        for _ in range(opts.max_iterations):
            s_passive = np.linalg.lstsq(E[:, passive], d, rcond=None)[0]
            s = np.zeros(n)
            s[passive] = s_passive
            if s_passive.size and s_passive.min() > 0:
                z = s
                break
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
        r = d - E @ z
        w = E.T @ r
        resid = math.sqrt(r @ r)
        if resid < best_resid - 1e-15 * max(1.0, best_resid):
            best_resid, best_z = resid, z.copy()
            banned[:] = False
    # w and resid were last computed at the returned z.
    return z, resid, float(_kkt_violation(-w, z)), outer


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
    d = vectorize_hermitian(wherm.values - spd.values, op.pilot_len)
    z, residual, kkt, iters = _nnls_active_set(E, d, opts)
    return NnlsResult(z=z, residual=residual, kkt_residual=kkt, iterations=iters)


def _ht(X):
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(X.conj(), -1, -2)


def _cholesky(Z, ids):
    """Cholesky factors of stacked Z; NotPositiveDefinite names the first failing trial."""
    try:
        return np.linalg.cholesky(Z)
    except np.linalg.LinAlgError:
        for i, Zi in zip(ids, Z):
            try:
                np.linalg.cholesky(Zi)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(f"trial {i}: matrix is not positive definite") from None
        raise


def _objectives(Z, Wv, ids):
    """trace(Z^-1 W) + ln det Z for each trial of a stack."""
    L = _cholesky(Z, ids)
    trace_term = np.trace(np.linalg.solve(_ht(L), np.linalg.solve(L, Wv)), axis1=-2, axis2=-1).real
    return trace_term + 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=-1)


def _kkt(A, Z, Wv, z, ids):
    """ML stationarity residual of each trial at z (see kkt_residual)."""
    L = _cholesky(Z, ids)
    U = np.linalg.solve(_ht(L), np.linalg.solve(L, np.broadcast_to(A, L.shape[:-1] + A.shape[-1:])))  # S @ A
    q = np.einsum("mn,...mn->...n", A.conj(), U).real
    r = np.einsum("...mn,...mn->...n", U.conj(), Wv @ U).real
    return _kkt_violation(q - r, z)


def _fresh_inverse(Z):
    return np.linalg.inv((Z + _ht(Z)) / 2)


def _project(S, a, ah):
    """u = S a, u^H and q = a^H S a for stacked S (T, M, M), a (T, M, 1), ah = a^H."""
    u = S @ a
    return u, _ht(u), (ah @ u).real[:, 0, 0]


def _steps(S, Wv, a, ah, x, ids):
    """Optimal steps t = max(-x, (u^H W u - q) / q^2) of one coordinate per trial, with u and q."""
    u, uh, q = _project(S, a, ah)
    if q.min() <= 0:
        raise StepRejected(f"trial {ids[np.argmax(q <= 0)]}: a^H S a <= 0: the tracked inverse is corrupted")
    step = ((uh @ (Wv @ u)).real[:, 0, 0] - q) / (q * q)
    return np.where(step > -x, step, -x), u, uh, q


def _rank_one(S, u, uh, q, t, ids):
    """(S^-1 + t a a^H)^-1 per trial from S, given u = S a and q = a^H S a."""
    denom = 1.0 + t * q
    if denom.min() <= 1e-12:
        k = int(np.argmax(denom <= 1e-12))
        raise StepRejected(f"trial {ids[k]}: rank-one update denominator {denom[k]:.3e} is not positive")
    return S - (t / denom)[:, None, None] * (u * uh)


def ml_objective(op: MeasurementOperator, Sigma, W, z) -> float:
    """Evaluate trace((A(z) + Sigma)^-1 W) + ln det(A(z) + Sigma)."""
    spd, wherm, z = _boundary(op, Sigma, W, z)
    return float(_objectives((spd.values + op._apply(z))[None], wherm.values[None], _ONE)[0])


def _checked_column(a_n, S):
    """a_n as a finite complex vector of S's dimension, shaped (1, M, 1), and its conjugate transpose."""
    a = _checked_array("a_n", a_n, complex, (S.shape[0],))
    return a[None, :, None], a.conj()[None, None, :]


def coordinate_step(a_n, SigmaPrime, W, x_n: float) -> float:
    """Optimal step for one coordinate of the relaxed ML objective.

    Returns ``max(-x_n, (a^H S W S a - a^H S a) / (a^H S a)^2)`` with
    S the tracked inverse of the current fit; the step keeps x_n + t >= 0.
    """
    S = as_hpd(SigmaPrime).values
    W = HermitianMatrix(W).values
    _check_real("x_n", x_n, 0, low_closed=True)
    if W.shape != S.shape:
        raise InvalidInput(f"W must have shape {S.shape}, got shape {W.shape}")
    return float(_steps(S[None], W[None], *_checked_column(a_n, S), np.array([float(x_n)]), _ONE)[0][0])


def sherman_morrison_update(SigmaPrime, a_n, t: float) -> HpdMatrix:
    """Rank-one inverse update: (S^-1 + t a a^H)^-1 from S.

    Requires 1 + t a^H S a > 0, which the optimal step guarantees whenever
    the updated fit stays positive definite; a nonpositive denominator is
    treated as corruption.
    """
    _check_real("t", t)
    S = as_hpd(SigmaPrime).values[None]
    u, uh, q = _project(S, *_checked_column(a_n, S[0]))
    return HpdMatrix(_rank_one(S, u, uh, q, np.array([float(t)]), _ONE)[0])


def ml_coordinate_descent(op: MeasurementOperator, Sigma, W, opts: MlOptions | None = None) -> MlTrace:
    """Cyclic coordinate descent for the relaxed ML estimator.

    Visits the coordinates in the configured order, applies the optimal step
    for each, and maintains the inverse of the running fit through rank-one
    updates.  The recorded objective values never increase; the tracked
    inverse is refreshed periodically and its drift is re-measured at exit.
    A batch of one for ml_coordinate_descent_batch.
    """
    return ml_coordinate_descent_batch(op, Sigma, [W], [opts or MlOptions()])[0]


def ml_coordinate_descent_batch(op: MeasurementOperator, Sigma, Ws, opts) -> list[MlTrace]:
    """Coordinate descent on many observations of one operator and noise covariance at once.

    Trial i runs on ``Ws[i]`` with ``opts[i]`` and returns, bit for bit, the
    MlTrace that a batch of one would: every trial keeps its own visiting
    order, start, stopping test and sweep cap.  Errors raised by the descent
    name the trial by its index in ``Ws``.
    """
    if len(Ws) != len(opts):
        raise InvalidInput(f"{len(Ws)} observations but {len(opts)} option sets")
    N = op.num_users
    spd = as_hpd(Sigma)
    Wv, z = [], []
    for i, (W, o) in enumerate(zip(Ws, opts)):
        _, wherm, z0 = _boundary(op, spd, W, np.zeros(N) if o.z0 is None else o.z0)
        if o.permutation is not None and o.permutation.size != N:
            raise InvalidInput(f"trial {i}: permutation length does not match the number of users")
        Wv.append(wherm.values)
        z.append(z0)
    if not Ws:
        return []
    Wv = np.array(Wv)
    lam_min = np.linalg.eigvalsh(Wv)[:, 0]
    if lam_min.min() < -1e-10:
        i = int(np.argmax(lam_min < -1e-10))
        raise InvalidInput(f"trial {i}: W has a negative eigenvalue {lam_min[i]:.3e}")
    perms = np.array([np.arange(N) if o.permutation is None else o.permutation for o in opts])
    caps = np.array([o.while_iterations for o in opts])
    tols = np.array([o.objective_tol for o in opts])
    return _descend(op, spd.values, Wv, np.array(z), perms, caps, tols)


def _descend(op, Sv, Wv, z, perms, caps, tols) -> list[MlTrace]:
    """The coordinate-descent loop on checked inputs; row i of each array is trial i.

    All trials sweep in lockstep, one coordinate position at a time, each
    visiting the column its own permutation puts there.  A trial that stops
    (objective gain below its tolerance, or its sweep cap reached) is
    finished and dropped from the active rows, so later sweeps only work on
    the trials still running.  ``z`` is updated in place.
    """
    A = op.codebook.columns
    cols = A.T[perms.T]  # (N, T, M): the column each trial visits at position k
    a_all, ah_all = cols[..., None], cols.conj()[..., None, :]
    ids = np.arange(len(z))
    traces = [None] * len(z)
    Z = Sv + op._apply(z)
    S = _fresh_inverse(Z)
    f_prev = _objectives(Z, Wv, ids)
    history = [[f] for f in f_prev]
    sweeps = 0
    while ids.size:
        rows = np.arange(ids.size)
        for k, n in enumerate(perms.T):
            x = z[rows, n]
            t, u, uh, q = _steps(S, Wv, a_all[k], ah_all[k], x, ids)
            S = _rank_one(S, u, uh, q, t, ids)
            z[rows, n] = x + t
        S = (S + _ht(S)) / 2
        sweeps += 1
        Z = Sv + op._apply(z)
        if sweeps % _REFRESH_EVERY == 0:
            S = _fresh_inverse(Z)
        f_new = _objectives(Z, Wv, ids)
        for i, value in zip(ids, f_new):
            history[i].append(value)
        done = (f_prev - f_new < tols) | (sweeps >= caps)
        f_prev = f_new
        if not done.any():
            continue
        z_done, S_done, Z_done = z[done], S[done], Z[done]
        kkt = _kkt(A, Z_done, Wv[done], z_done, ids[done])
        drift = S_done @ Z_done - np.eye(len(Sv))
        for j, i in enumerate(ids[done]):
            try:
                sigma_prime = HpdMatrix(S_done[j])
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(f"trial {i}: tracked inverse: {exc}") from None
            traces[i] = MlTrace(
                objectives=np.asarray(history[i]),
                z=z_done[j],
                sigma_prime=sigma_prime,
                kkt_residual=float(kkt[j]),
                inverse_drift=float(np.linalg.norm(drift[j])),
                sweeps=sweeps,
            )
        keep = ~done
        ids, z, S, Wv, perms = ids[keep], z[keep], S[keep], Wv[keep], perms[keep]
        f_prev, caps, tols = f_prev[keep], caps[keep], tols[keep]
        a_all, ah_all = a_all[:, keep], ah_all[:, keep]
    return traces


def kkt_residual(op: MeasurementOperator, Sigma, W, z) -> float:
    """First-order stationarity residual of the relaxed ML problem at z.

    The partial derivative at coordinate n is a_n^H S a_n - a_n^H S W S a_n
    with S the exact inverse of A(z) + Sigma.  Active coordinates (z_n = 0
    within 1e-12) contribute the negative part of the derivative, free ones
    its magnitude; the residual is the maximum over all coordinates.
    """
    spd, wherm, z = _boundary(op, Sigma, W, z)
    Z = spd.values + op._apply(z)
    return float(_kkt(op.codebook.columns, Z[None], wherm.values[None], z[None], _ONE)[0])


def threshold_detect(z, eps: float, true_support) -> DetectionResult:
    """Detect active users by threshold and by the largest entries.

    ``above_threshold`` collects indices with z_n > eps; ``largest`` takes
    the |true_support| largest entries with ties broken by lowest index.
    """
    _check_real("eps", eps, 0)
    z = _checked_array("z", z, float, (None,))
    support = frozenset(int(i) for i in true_support)
    above = frozenset(np.flatnonzero(z > eps).tolist())
    order = np.argsort(-z, kind="stable")
    largest = frozenset(order[: len(support)].tolist())
    return DetectionResult(true_support=support, above_threshold=above, largest=largest)


def save_estimate_csv(z, path) -> None:
    """Write an estimate as CSV rows ``n,z_n`` (1-based indices)."""
    _write_csv(path, ("n", "z_n"), enumerate(np.asarray(z, dtype=float), start=1))


def save_trace_csv(trace: MlTrace, path) -> None:
    """Write per-sweep objective values as CSV ``sweep,objective,kkt_residual``.

    The KKT residual is only measured at exit, so intermediate rows carry an
    empty residual column.
    """
    last = len(trace.objectives) - 1
    rows = ((i, val, trace.kkt_residual if i == last else "") for i, val in enumerate(trace.objectives))
    _write_csv(path, ("sweep", "objective", "kkt_residual"), rows)
