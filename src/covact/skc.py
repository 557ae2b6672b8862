"""Signed kernel condition verification through the robustness constant.

The constant is the infimum of ||B v||_2 / ||v||_1 over differences
v = z' - x' between a nonnegative vector and an S-sparse nonnegative vector,
with B the stacked-real form of the measurement operator.  Such a v is
exactly a vector with at most S negative entries, so after normalizing
||v||_1 = 1 the feasible set splits by the set J of negative coordinates:
flipping the signs of the J columns turns each piece into the probability
simplex, on which the squared objective is a convex quadratic.

The exact method bounds and prunes every sign pattern with |J| <= S.
Accelerated projected gradient (FISTA, with sort-based simplex projection)
runs over a pool of patterns of one size at once, refilled from the
enumeration as patterns finish, and gives each pattern the Frank-Wolfe lower
bound f(u) + min g - g^T u.  Patterns are then taken in ascending order of
that bound and solved exactly by an active-set loop until the next bound
exceeds the best exact value by a floating-point margin; no pattern left
unsolved can reach that value, so the minimizer, its value and its witness
are those of the full enumeration, and the smallest bound over all patterns
certifies the bracket lower_bound <= tau'.  The heuristic runs multi-start
projected gradient over the same program and passes only the sign patterns
of its final iterates to the same bound-and-solve step, so its value is an
upper bound on the constant (its lower_bound is 0).

The constant is positive exactly when the operator has the signed kernel
condition of order S, and the minimizing pair (z', x') is the adversarial
witness used by the simulation harness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingVector, stream
from .codebook import StackedRealMatrix
from .errors import InvalidInput, NoAdversary, NotConverged, TooLarge

EXACT_BUDGET = 10**7
WITNESS_ZERO_TOL = 1e-10
# A certified order needs tau' above SKC_POSITIVE_TOL; tau' below
# SKC_ZERO_TOL counts as zero (the condition fails).
SKC_POSITIVE_TOL = 1e-3
SKC_ZERO_TOL = 1e-6
# Bound-and-prune: FISTA runs a pool of up to _BLOCK sign patterns, checks a
# pattern's bounds every _CHUNK of its iterations and stops it after _MAX_ITERS.
_BLOCK = 512
_CHUNK = 25
_MAX_ITERS = 1000
# FISTA momentum weight (t_k - 1) / t_(k+1) of iteration k, from t_0 = 1.
_T = list(itertools.accumulate(range(_MAX_ITERS), lambda t, _: 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)), initial=1.0))
_MOMENTUM = np.array([(t - 1.0) / t_next for t, t_next in itertools.pairwise(_T)])
# The heuristic's projected-gradient starts and its iteration cap per start.
_HEURISTIC_STARTS = 48
_HEURISTIC_ITERS = 200


@dataclass(frozen=True)
class SkcReport:
    """Robustness constant of one order with its adversarial witness pair.

    ``lower_bound <= tau_prime`` is certified for the exact method; the
    heuristic only upper-bounds the constant and reports 0.
    """

    order: int
    tau_prime: float
    lower_bound: float
    witness_z: np.ndarray
    witness_x: np.ndarray
    method: str

    def as_text(self) -> str:
        lines = [
            f"order = {self.order}",
            f"tau_prime = {self.tau_prime:.17g}",
            f"lower_bound = {self.lower_bound:.17g}",
            f"method = {self.method}",
            "witness_z = " + " ".join(f"{v:.17g}" for v in self.witness_z),
            "witness_x = " + " ".join(f"{v:.17g}" for v in self.witness_x),
        ]
        return "\n".join(lines) + "\n"


def _simplex_qp(Q, max_iter=400):
    """Minimize u^T Q u over the probability simplex; Q is symmetric PSD.

    Primal active-set loop: repeatedly solve the equality-constrained
    problem on the free coordinates through its bordered KKT system, take
    ratio-test steps toward that solution, and release the bound coordinate
    with the most negative multiplier once feasible-optimal on the face.
    Raises NotConverged, carrying the best iterate, when ``max_iter``
    iterations pass without meeting an exit test.
    """
    n = Q.shape[0]
    scale = max(float(np.abs(Q).max()), 1e-30)
    feas_tol = 1e-12
    opt_tol = 1e-11 * scale
    free = np.ones(n, dtype=bool)
    u = np.full(n, 1.0 / n)
    best_val = float(u @ Q @ u)
    best_u = u.copy()
    for _ in range(max_iter):
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * Q[np.ix_(idx, idx)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
            if not np.all(np.isfinite(sol)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        w = np.zeros(n)
        w[idx] = sol[:k]
        if w[idx].min() >= -feas_tol:
            u = np.maximum(w, 0.0)
            total = u.sum()
            if total <= 0:
                break
            u /= total
            val = float(u @ Q @ u)
            if val < best_val:
                best_val, best_u = val, u.copy()
            g = 2.0 * Q @ u
            mu = float(u @ g)
            bound = ~free
            if not bound.any():
                break
            viol = g[bound] - mu
            if viol.min() >= -opt_tol:
                break
            release = np.flatnonzero(bound)[int(np.argmin(viol))]
            free[release] = True
        else:
            d = w - u
            blocking = free & (d < -feas_tol)
            if not blocking.any():
                break
            steps = u[blocking] / -d[blocking]
            theta = min(1.0, float(steps.min()))
            u = np.maximum(u + theta * d, 0.0)
            hit = free & (u <= feas_tol)
            if not hit.any():
                break
            u[hit] = 0.0
            free &= u > 0
            if not free.any():
                free[int(np.argmin(np.diag(Q)))] = True
                u[:] = 0.0
                u[free] = 1.0
            u /= u.sum()
            val = float(u @ Q @ u)
            if val < best_val:
                best_val, best_u = val, u.copy()
    else:
        raise NotConverged(f"simplex QP did not finish in {max_iter} iterations", z=best_u, residual=best_val)
    return best_val, best_u


def _pattern_minimum(G, flip_idx):
    """Exact minimum of ||B v||_2^2 over ||v||_1 = 1 with negatives on flip_idx."""
    n = G.shape[0]
    sig = np.ones(n)
    sig[list(flip_idx)] = -1.0
    Q = G * np.outer(sig, sig)
    val, u = _simplex_qp(Q)
    return val, sig * u


def _split_witness(v):
    v = np.where(np.abs(v) < WITNESS_ZERO_TOL, 0.0, v)
    return np.maximum(v, 0.0), np.maximum(-v, 0.0)


def _project_simplex(V):
    """Euclidean projection of every row of V onto the probability simplex.

    Sort-based: the row's threshold is the largest (sum of its k largest
    entries - 1) / k over k, and the projection is max(V - threshold, 0).
    The maximum runs down the columns of the transposed sorted array; so do
    the in-order running sums from 128 rows on, where one add per column
    beats cumsum's one call per row.  The bits do not depend on the route.
    """
    minus_top_sums = np.sort(-V, axis=1).T.copy()
    if V.shape[0] >= 128:
        for prev, row in zip(minus_top_sums[:-1], minus_top_sums[1:]):
            row += prev
    else:
        np.cumsum(minus_top_sums, axis=0, out=minus_top_sums)
    minus_top_sums += 1.0
    minus_top_sums /= np.arange(1.0, V.shape[1] + 1)[:, None]
    out = V + minus_top_sums.min(axis=0)[:, None]
    return np.maximum(out, 0.0, out=out)


def _rounding_margin(G):
    """Covers the rounding of computed bounds and QP values (u^T Q u and 2 Q u at ||u||_1 = 1).

    Each is a few length-n dot products of entries up to max |G|, off by at
    most about n * eps * max |G| (Higham's gamma_n).
    """
    return 16 * G.shape[0] * np.finfo(float).eps * float(np.abs(G).max())


def _fista_bounds(G, patterns, incumbent, margin, keep):
    """Lower bounds on min u^T Q u over the simplex, Q = diag(s) G diag(s), for every flip-index tuple of patterns.

    Returns the bounds in pattern order and, keyed by pattern index, the sign
    rows s whose bound is at most ``keep``.  A pool of up to _BLOCK patterns
    iterates as one array, each row with its own step count and momentum;
    every _CHUNK steps a row takes the Frank-Wolfe bound min(2 Q u) - u^T Q u
    at its iterate u (valid at any u, as Q is positive semidefinite), and it
    leaves once that bound exceeds the incumbent plus ``margin`` (pruned), its
    value f = u^T Q u falls within it (it can no longer be pruned) or after
    _MAX_ITERS steps, the next patterns taking its place.
    """
    n = G.shape[0]
    # Step length 1 / (2 lam) on the gradient 2 Q y; lam is the largest eigenvalue of G.
    G_step = G / max(float(np.linalg.eigvalsh(G)[-1]), 1e-30)
    patterns, count, done_idx, done_lower, kept = iter(patterns), 0, [], [], {}
    idx = steps = np.empty(0, dtype=np.intp)
    lower = upper = np.empty(0)
    s = u = y = np.empty((0, n))
    while (fresh := list(itertools.islice(patterns, _BLOCK - idx.size))) or idx.size:
        if fresh:
            signs = np.ones((m := len(fresh), n))
            rows = np.repeat(np.arange(m), [len(J) for J in fresh])
            signs[rows, np.fromiter(itertools.chain.from_iterable(fresh), dtype=np.intp, count=rows.size)] = -1.0
            start, far = np.full((m, n), 1.0 / n), np.full(m, np.inf)
            added = (np.arange(count, count + m), np.zeros(m, dtype=np.intp), -far, far, signs, start, start)
            idx, steps, lower, upper, s, u, y = (np.concatenate(pair) for pair in zip((idx, steps, lower, upper, s, u, y), added))
            count += m
        for w in _MOMENTUM[steps + np.arange(_CHUNK)[:, None], None]:
            u_next = _project_simplex(y - s * ((s * y) @ G_step))
            y = u_next + w * (u_next - u)
            u = u_next
        steps += _CHUNK
        qu = s * ((s * u) @ G)
        f = np.einsum("ij,ij->i", u, qu)
        lower, upper = np.maximum(lower, 2.0 * qu.min(axis=1) - f), np.minimum(upper, f)
        incumbent = min(incumbent, float(f.min()))
        live = (lower <= incumbent + margin) & (upper > incumbent + margin) & (steps < _MAX_ITERS)
        done_idx.append(idx[~live])
        done_lower.append(lower[~live])
        kept.update((idx[i], s[i].copy()) for i in np.flatnonzero(~live & (lower <= keep)))
        idx, steps, lower, upper, s, u, y = (a[live] for a in (idx, steps, lower, upper, s, u, y))
    bounds = np.empty(count)
    bounds[np.concatenate(done_idx)] = np.concatenate(done_lower)
    return bounds, kept


def _pattern_search(G, patterns, best):
    """Bound the flip-index tuples of ``patterns`` and solve those the bounds cannot prune.

    FISTA bounds them, pruning against the value of ``best`` (a value some
    pattern attains, or inf); they are then solved in ascending bound order
    until the next bound passes the best exact value plus the rounding margin.
    Returns the (value, v) pair that a scan solving every pattern in the
    given order keeps, starting from ``best``, and a lower bound on every
    pattern's minimum that holds despite rounding.
    """
    margin = _rounding_margin(G)
    # Only patterns within the margin of the best value so far can be solved
    # below, since that value only falls.
    bounds, signs = _fista_bounds(G, patterns, best[0], margin, best[0] + margin)
    solved, top = {}, best[0]
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] > top + margin:
            break
        val, v = _pattern_minimum(G, np.flatnonzero(signs[i] < 0))
        bounds[i] = max(bounds[i], 2.0 * float((signs[i] * (G @ v)).min()) - val)
        solved[i] = (val, v)
        top = min(top, val)
    for i in sorted(solved):
        if solved[i][0] < best[0]:
            best = solved[i]
    return best, float(bounds.min()) - margin


def _exact_curve(B, max_size):
    """Minimum of the squared ratio over patterns of size <= s, for s = 0..max_size.

    Entry s is (value, v, lower): the first pattern in (size,
    itertools.combinations) order that attains the minimum, its witness and
    a lower bound on that minimum that holds despite rounding.
    """
    G = B.T @ B
    best, lower, curve = (math.inf, None), math.inf, []
    for size in range(max_size + 1):
        best, size_lower = _pattern_search(G, itertools.combinations(range(B.shape[1]), size), best)
        lower = min(lower, size_lower)
        curve.append((*best, max(lower, 0.0)))
    return curve


def _project_sparse(V, S):
    """Rows of V with all but their S most negative entries clipped at 0, rescaled to unit l1 norm; and the nonzero rows."""
    rank = np.argsort(np.argsort(V, axis=1), axis=1)
    V = np.where((V < 0) & (rank < S), V, np.maximum(V, 0.0))
    nrm = np.abs(V).sum(axis=1)
    return V / np.where(nrm > 0, nrm, 1.0)[:, None], nrm > 0


def _heuristic_candidates(B, G, S, seed):
    """Sorted sign patterns of multi-start projected gradient on the ratio program.

    The starts iterate as the rows of one array.  A start stops once a step
    moves it by at most 1e-14, or projects to zero (it then keeps its last
    iterate); a start that itself projects to zero is dropped.
    """
    n = G.shape[0]
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / max(lam_max, 1e-30)
    rng = stream(seed, "skc-heuristic")

    _, _, vt = np.linalg.svd(B, full_matrices=False)
    starts = [sign * row for row in vt[-min(3, vt.shape[0]) :] for sign in (1.0, -1.0)]
    while len(starts) < _HEURISTIC_STARTS:
        v = np.abs(rng.standard_normal(n))
        v[rng.choice(n, size=min(S, n), replace=False)] *= -1.0
        starts.append(v)

    V, nonzero = _project_sparse(np.array(starts), S)
    V = V[nonzero]
    live = np.arange(len(V))
    for _ in range(_HEURISTIC_ITERS):
        X = V[live]
        X_new, nonzero = _project_sparse(X - step * 2.0 * (X @ G), S)
        V[live[nonzero]] = X_new[nonzero]
        live = live[nonzero & (np.abs(X_new - X).max(axis=1) > 1e-14)]
        if not live.size:
            break
    return sorted({(), *(tuple(np.flatnonzero(v < 0).tolist()) for v in V)})


def _report(order, val, v, method, lower=0.0) -> SkcReport:
    witness_z, witness_x = _split_witness(v)
    return SkcReport(
        order=order,
        tau_prime=float(math.sqrt(max(val, 0.0))),
        lower_bound=float(math.sqrt(lower)),
        witness_z=witness_z,
        witness_x=witness_x,
        method=method,
    )


def _check(stacked: StackedRealMatrix, order: int, method: str) -> None:
    n = stacked.num_users
    if not 1 <= order <= n:
        raise InvalidInput(f"order {order} outside [1, {n}]")
    if method not in ("exact", "heuristic"):
        raise InvalidInput(f"unknown method {method!r}")


def tau_prime(stacked: StackedRealMatrix, order: int, method: str = "exact") -> SkcReport:
    """Robustness constant of the given order with its adversarial witnesses.

    ``method="exact"`` bounds every pattern of at most ``order`` negative
    coordinates, solves those the bounds cannot prune, and reports the
    certified bracket ``lower_bound <= tau_prime``; it is refused (TooLarge)
    when C(n, order) * 2^order exceeds EXACT_BUDGET.  ``method="heuristic"``
    bounds and solves only multi-start projected-gradient patterns and
    upper-bounds the constant (its ``lower_bound`` is 0).
    """
    _check(stacked, order, method)
    if method == "exact":
        return tau_prime_curve(stacked, order)[-1]
    G = stacked.values.T @ stacked.values
    candidates = _heuristic_candidates(stacked.values, G, order, seed=order)
    best, _ = _pattern_search(G, candidates, (math.inf, None))
    return _report(order, *best, "heuristic")


def tau_prime_curve(stacked: StackedRealMatrix, max_order: int, method: str = "exact") -> list[SkcReport]:
    """Reports for every order 1..max_order, sharing one bound-and-prune pass."""
    _check(stacked, max_order, method)
    if method == "heuristic":
        return [tau_prime(stacked, s, method="heuristic") for s in range(1, max_order + 1)]
    n = stacked.num_users
    if math.comb(n, max_order) * 2**max_order > EXACT_BUDGET:
        raise TooLarge(f"the exact method is refused when C({n},{max_order}) * 2^{max_order} > {EXACT_BUDGET}; use the heuristic")
    curve = _exact_curve(stacked.values, max_order)
    return [_report(s, val, v, "exact-enumeration", lower) for s, (val, v, lower) in enumerate(curve[1:], start=1)]


def skc_holds(stacked: StackedRealMatrix, order: int, tol: float = SKC_ZERO_TOL, method: str = "exact") -> bool:
    """Whether the operator has the signed kernel condition of the given order."""
    return tau_prime(stacked, order, method=method).tau_prime > tol


def adversarial_fading(report: SkcReport) -> FadingVector:
    """Normalize the sparse witness into an adversarial fading vector."""
    norm = float(np.linalg.norm(report.witness_x))
    if norm <= 0:
        raise NoAdversary("the witness has no sparse part")
    return FadingVector(x=report.witness_x / norm, sparsity=report.order)
