"""The two fading estimators and thresholding-based activity detection.

Non-negative least squares runs on the stacked-real form of the operator
through a Lawson-Hanson active-set loop that terminates on explicit KKT
tolerances.  The relaxed maximum-likelihood estimator minimizes
trace((A(z) + Sigma)^-1 W) + ln det(A(z) + Sigma) over z >= 0 by cyclic
coordinate descent with exact per-coordinate steps, tracking the inverse via
rank-one updates and refreshing it periodically to bound drift.

Each estimator has one loop, which runs a batch of trials at once.  The
NNLS loop works on a (T, 2 M^2) stack of data vectors, the descent on
(T, N) coefficients and a (T, M, M) stack of tracked inverses.  Every
operation on a trial's data is a stacked NumPy call that computes each
slice with the same arithmetic as the unstacked call, so a trial's result
does not depend on the batch it runs in.  NNLS solves the least-squares
systems of all trials with the same passive-set size in one call of the
gufunc numpy.linalg._umath_linalg.lstsq, the very call np.linalg.lstsq makes
for one system, with its cutoff and its mapping of a failed SVD to
LinAlgError; a test pins it to the public function's bits.  The public
single-trial functions (nnls_estimate, ml_objective, coordinate_step,
sherman_morrison_update, ml_coordinate_descent, kkt_residual) are batches of
one of the same kernels.  Inputs are checked once per batch at the public
entry, as stacks, never inside the loops.  The solvers' budgets and tolerances
are module constants, one value each; an ML call also takes a start and a
visiting order per trial, and one sweep cap for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .codebook import MeasurementOperator, _vectorize
from .config import _check_count, _check_real, _checked_array, _write_csv
from .errors import InvalidInput, NotConverged, StepRejected
from .hermitian import HermitianMatrix, HpdMatrix, _hermitian_part, _ht, _require_hpd, as_hpd

# Sweeps between from-scratch recomputations of the tracked ML inverse, and
# the least objective gain of a sweep that lets the descent go on.
_REFRESH_EVERY = 25
_ML_OBJECTIVE_TOL = 1e-10
# NNLS: the budget of outer steps (and of inner steps per outer step), and the
# gradient entry a column needs to enter the passive set.
_NNLS_MAX_ITERATIONS = 300
_NNLS_KKT_TOL = 1e-9
# Trial indices of a batch of one.
_ONE = np.zeros(1, dtype=int)
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class NnlsResult:
    """Nonnegative solution with its residual and KKT certificate."""

    z: np.ndarray
    residual: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True, eq=False)
class MlTrace:
    """Per-sweep objective values and the final state.

    ``sigma_prime`` is the tracked inverse, symmetrized and checked by HpdMatrix's rule, as a read-only array.
    """

    objectives: np.ndarray
    z: np.ndarray
    sigma_prime: np.ndarray
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


def _boundary(op: MeasurementOperator, Sigma, Ws, zs=None):
    """Checked inputs of one estimator batch: (HpdMatrix, (T, M, M) stack of W, (T, N) stack of z or None).

    Sigma and each W must be pilot_len square; the Ws come back as HermitianMatrix
    would symmetrize them, the zs (finite, nonnegative) as a fresh float stack.
    An empty batch checks Sigma only.
    """
    spd = as_hpd(Sigma)
    M = op.pilot_len
    Ws = [W.values if isinstance(W, HermitianMatrix) else W for W in Ws]
    if spd.dim != M or any(isinstance(W, np.ndarray) and W.shape != (M, M) for W in Ws):
        raise InvalidInput("Sigma and W must match the pilot length")
    if not Ws:
        return spd, None, None
    W = _checked_array("W", Ws, complex, (len(Ws), M, M))
    if zs is not None:
        zs = _checked_array("z", zs, float, (len(Ws), op.num_users), copy=True)
        if (zs < 0).any():
            raise InvalidInput("z entries must be nonnegative")
    return spd, _hermitian_part("W", W, W.shape), zs


def _kkt_violation(g, z):
    """Worst KKT violation of the gradient g at z >= 0 (per row of a stack).

    Active coordinates (z_n <= 1e-12) contribute the negative part of the
    gradient, free ones its magnitude.
    """
    return np.where(z <= 1e-12, np.maximum(-g, 0.0), np.abs(g)).max(axis=-1, initial=0.0)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A, b):
    """np.linalg.lstsq(A[g], b[g], rcond=None)[0] for every g of stacks A (G, m, k) and b (G, m), in one call.

    This is the call np.linalg.lstsq makes itself: one LAPACK gelsd solve per
    system, its cutoff rcond = eps * max(m, k) and its errstate, which turns
    a failed SVD into LinAlgError.
    """
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(A, b[..., None], _EPS * max(A.shape[-2:]), signature="ddd->ddid")[0]
    return x[..., 0]


def _passive_solutions(E, D, passive):
    """Per row i, the least-squares solution of E[:, passive[i]] s = D[i], scattered into a zero row.

    Rows with the same number of passive columns are solved in one _lstsq call.
    """
    s = np.zeros(passive.shape)
    counts = passive.sum(axis=1)
    for k in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == k)
        cols = np.nonzero(passive[rows])[1].reshape(rows.size, k)  # ascending, as E[:, passive[i]] takes them
        s[rows[:, None], cols] = _lstsq(np.swapaxes(E.T[cols], 1, 2), D[rows])
    return s


def _times_rows(E, R):
    """E^T r for each row r of R, each as E.T @ r computes it."""
    return (R[:, None, :] @ E)[:, 0]


def _norms(R):
    """sqrt(r @ r) for each row r of R."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def _nnls_active_set(E, D) -> list[NnlsResult]:
    """Lawson-Hanson active-set loop on each row of the stack D (T, m).

    The trials take their outer steps in lockstep: each adds its own entering
    column (the first largest gradient entry that is neither passive nor
    banned), runs its own inner loop, bans an entering column that cannot
    leave zero until its residual improves, and keeps its best iterate.  A
    trial whose gradient shows no entering column is finished and dropped
    from the live rows; if live rows remain when the budget is spent,
    NotConverged names the lowest of them by its row and carries its best
    iterate.  Every product is a stacked call that computes each row with
    the unstacked call's arithmetic, so row i returns the bits of a batch of
    one.
    """
    n = E.shape[1]
    ids = np.arange(len(D))
    results = [None] * len(D)
    z = np.zeros((len(D), n))
    passive = np.zeros(z.shape, dtype=bool)
    banned = np.zeros(z.shape, dtype=bool)  # degenerate entries, cleared on progress
    w = _times_rows(E, D)  # negative gradient E^T (d - E z) of 0.5 ||E z - d||^2, here at z = 0
    resid = best_resid = _norms(D)
    best_z = z.copy()
    outer = 0
    while True:
        w_free = np.where(passive | banned, -np.inf, w)
        j = w_free.argmax(axis=1)  # per row, the first largest w of an entry neither passive nor banned
        done = ~(w_free.max(axis=1) > _NNLS_KKT_TOL)
        if done.any():
            # w and resid were last computed at the returned z.
            kkt = _kkt_violation(-w[done], z[done])
            for i, zi, ri, ki in zip(ids[done], z[done], resid[done], kkt):
                results[i] = NnlsResult(z=zi, residual=float(ri), kkt_residual=float(ki), iterations=outer)
            keep = ~done
            ids, D, z, passive, banned, w, j = ids[keep], D[keep], z[keep], passive[keep], banned[keep], w[keep], j[keep]
            resid, best_resid, best_z = resid[keep], best_resid[keep], best_z[keep]
            if not ids.size:
                return results
        if outer >= _NNLS_MAX_ITERATIONS:
            raise NotConverged(
                f"trial {ids[0]}: active-set iteration budget exhausted", z=best_z[0], residual=float(best_resid[0])
            )
        outer += 1
        inner = np.arange(ids.size)  # rows still in the inner loop
        passive[inner, j] = True
        for _ in range(_NNLS_MAX_ITERATIONS):
            P = passive[inner]
            s = _passive_solutions(E, D[inner], P)
            solved = P.any(axis=1) & (np.where(P, s, 1.0).min(axis=1) > 0)  # every passive coefficient positive
            z[inner[solved]] = s[solved]
            if solved.all():
                break
            inner, P, s, zi = inner[~solved], P[~solved], s[~solved], z[inner[~solved]]
            shrink = P & (s <= 0) & (zi > 0)
            stuck = ~shrink.any(axis=1)
            # The entering column cannot leave zero; ban it until the
            # iterate moves, otherwise the outer loop would re-add it.
            rows = inner[stuck]
            passive[rows, j[rows]] = False
            banned[rows, j[rows]] = True
            z[rows] = np.where(passive[rows], zi[stuck], 0.0)
            inner, zi, s = inner[~stuck], zi[~stuck], s[~stuck]
            if not inner.size:
                break
            ratio = np.divide(zi, zi - s, out=np.full(zi.shape, np.inf), where=shrink[~stuck])
            zi = zi + ratio.min(axis=1)[:, None] * (s - zi)
            passive[inner] &= zi > 1e-14
            z[inner] = np.where(passive[inner], zi, 0.0)
        r = D - (E @ z[:, :, None])[:, :, 0]
        w = _times_rows(E, r)
        resid = _norms(r)
        better = resid < best_resid - 1e-15 * np.maximum(1.0, best_resid)
        best_resid = np.where(better, resid, best_resid)
        best_z[better] = z[better]
        banned[better] = False


def nnls_estimate(op: MeasurementOperator, Sigma, W) -> NnlsResult:
    """Minimize ||A(z) + Sigma - W||_F over z >= 0.

    Returns the minimizer with the attained Frobenius residual.  At the
    solution the KKT conditions of the stacked real least-squares problem
    hold to 1e-9: the gradient is >= -1e-9 on the active (z_n = 0)
    coordinates and has magnitude <= 1e-9 on the free ones.  NotConverged is
    raised after 300 outer steps.  A batch of one for nnls_estimate_batch.
    """
    return nnls_estimate_batch(op, Sigma, [W])[0]


def nnls_estimate_batch(op: MeasurementOperator, Sigma, Ws) -> list[NnlsResult]:
    """NNLS on many observations of one operator and noise covariance at once.

    Trial i runs on ``Ws[i]`` and returns, bit for bit, the NnlsResult that
    a batch of one would.  NotConverged names the trial by its index in
    ``Ws``.
    """
    spd, W, _ = _boundary(op, Sigma, Ws)
    return _nnls_active_set(op.stacked_real().values, _vectorize(W - spd.values)) if len(Ws) else []


def _cholesky(Z, ids):
    """Cholesky factors of stacked Z; on failure, HpdMatrix's rule (_require_hpd) names the first trial failing it, else it re-raises."""
    try:
        return np.linalg.cholesky(Z)
    except np.linalg.LinAlgError:
        _require_hpd(Z, [f"trial {i}: " for i in ids])
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
    spd, W, z = _boundary(op, Sigma, [W], [z])
    return float(_objectives(spd.values + op._apply(z), W, _ONE)[0])


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


def ml_coordinate_descent(op: MeasurementOperator, Sigma, W, permutation=None, z0=None, while_iterations: int = 100) -> MlTrace:
    """Cyclic coordinate descent for the relaxed ML estimator.

    Visits the coordinates in the order ``permutation`` (identity when
    omitted) from the nonnegative start ``z0`` (zero when omitted), applies
    the optimal step for each, and maintains the inverse of the running fit
    through rank-one updates.  A sweep visits all N coordinates once; the
    loop stops after ``while_iterations`` sweeps or when a full sweep
    improves the objective by less than 1e-10.  The recorded objective
    values never increase; the tracked inverse is recomputed from scratch
    every 25 sweeps and its drift is re-measured at exit.  A batch of one
    for ml_coordinate_descent_batch.
    """
    stacks = [None if v is None else [v] for v in (permutation, z0)]
    return ml_coordinate_descent_batch(op, Sigma, [W], *stacks, while_iterations)[0]


def ml_coordinate_descent_batch(op: MeasurementOperator, Sigma, Ws, permutations=None, z0s=None, while_iterations: int = 100) -> list[MlTrace]:
    """Coordinate descent on many observations of one operator and noise covariance at once.

    Trial i runs on ``Ws[i]`` from the start ``z0s[i]`` in the visiting
    order ``permutations[i]`` ((T, N) stacks; zeros and the identity when
    omitted), all trials under the one sweep cap ``while_iterations``, and
    returns, bit for bit, the MlTrace that a batch of one would.  Errors
    name the trial by its index in ``Ws``.
    """
    _check_count("while_iterations", while_iterations)
    T, N = len(Ws), op.num_users
    spd, Wv, z = _boundary(op, Sigma, Ws, np.zeros((T, N)) if z0s is None else z0s)
    if not T:
        return []
    perms = np.broadcast_to(np.arange(N), (T, N)) if permutations is None else permutations
    perms = _checked_array("permutation", perms, float, (T, N))
    bad = (np.sort(perms, axis=1) != np.arange(N)).any(axis=1)
    if bad.any():
        raise InvalidInput(f"trial {np.argmax(bad)}: permutation must be a bijection on 0..N-1")
    lam_min = np.linalg.eigvalsh(Wv)[:, 0]
    if lam_min.min() < -1e-10:
        i = int(np.argmax(lam_min < -1e-10))
        raise InvalidInput(f"trial {i}: W has a negative eigenvalue {lam_min[i]:.3e}")
    return _descend(op, spd.values, Wv, z, perms.astype(int), while_iterations)


def _descend(op, Sv, Wv, z, perms, cap) -> list[MlTrace]:
    """The coordinate-descent loop on checked inputs; row i of each array is trial i.

    All trials sweep in lockstep, one coordinate position at a time, each
    visiting the column its own permutation puts there.  A trial that stops
    (objective gain below _ML_OBJECTIVE_TOL, or the sweep cap reached) is
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
        done = (f_prev - f_new < _ML_OBJECTIVE_TOL) | (sweeps >= cap)
        f_prev = f_new
        if not done.any():
            continue
        z_done, S_done, Z_done = z[done], S[done], Z[done]
        kkt = _kkt(A, Z_done, Wv[done], z_done, ids[done])
        drift = S_done @ Z_done - np.eye(len(Sv))
        sigma_prime = (S_done + _ht(S_done)) / 2
        _require_hpd(sigma_prime, [f"trial {i}: tracked inverse: " for i in ids[done]])
        sigma_prime.setflags(write=False)
        for j, i in enumerate(ids[done]):
            traces[i] = MlTrace(
                objectives=np.asarray(history[i]),
                z=z_done[j],
                sigma_prime=sigma_prime[j],
                kkt_residual=float(kkt[j]),
                inverse_drift=float(np.linalg.norm(drift[j])),
                sweeps=sweeps,
            )
        keep = ~done
        ids, z, S, Wv, perms, f_prev = ids[keep], z[keep], S[keep], Wv[keep], perms[keep], f_prev[keep]
        a_all, ah_all = a_all[:, keep], ah_all[:, keep]
    return traces


def kkt_residual(op: MeasurementOperator, Sigma, W, z) -> float:
    """First-order stationarity residual of the relaxed ML problem at z.

    The partial derivative at coordinate n is a_n^H S a_n - a_n^H S W S a_n
    with S the exact inverse of A(z) + Sigma.  Active coordinates (z_n = 0
    within 1e-12) contribute the negative part of the derivative, free ones
    its magnitude; the residual is the maximum over all coordinates.
    """
    spd, W, z = _boundary(op, Sigma, [W], [z])
    return float(_kkt(op.codebook.columns, spd.values + op._apply(z), W, z, _ONE)[0])


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
