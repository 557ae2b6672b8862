"""Signed kernel condition verification through the robustness constant.

The constant is the infimum of ||B v||_2 / ||v||_1 over differences
v = z' - x' between a nonnegative vector and an S-sparse nonnegative vector,
with B the stacked-real form of the measurement operator.  Such a v is
exactly a vector with at most S negative entries, so after normalizing
||v||_1 = 1 the feasible set splits by the set J of negative coordinates:
flipping the signs of the J columns turns each piece into the probability
simplex, on which the squared objective is a convex quadratic.

The exact method bounds every sign pattern with |J| <= S by accelerated
projected gradient (FISTA, at most 200 steps, over a refilled pool of
patterns of one size) on its nonnegative form min w^T Q w - 2 sum(w) over
w >= 0, which the simplex minimizer over its value solves (Bomze 1998), so
no step projects onto the simplex.  FISTA runs on a spectral minorant M of
G = B^T B that keeps the eigenvalues below lam_max / 8 and lowers the
others to the smallest of them, so its steps are up to 8 times longer; as
0 <= M <= G + a I for a certified allowance a, the Frank-Wolfe bound at the
best multiple of an iterate on M, less a, bounds the pattern's minimum on G.  Patterns are then
solved exactly by an active-set loop in ascending bound order until the
next bound exceeds the smallest value reached so far by a floating-point
margin, so the minimizer, its value, its witness and the bracket
lower_bound <= tau', read off the exact solves, do not depend on the
bounding schedule (see _solve).  Each size |J| is searched on its
own, in worker processes where the process may use more CPUs, and the
sizes are folded in order: the bits do not depend on the number of
processes.  The heuristic bounds only the sign patterns that multi-start
projected gradient reaches, those of every order in one pool that prunes
none, and solves each order's in the same way from an incumbent of inf,
so its value is an upper bound on the constant (its lower_bound is 0).

The constant is positive exactly when the operator has the signed kernel
condition of order S, and the minimizing pair (z', x') is the adversarial
witness used by the simulation harness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .channel import FadingVector, stream
from .codebook import StackedRealMatrix
from .config import _check_count
from .errors import InvalidInput, NoAdversary, NotConverged, TooLarge

EXACT_BUDGET = 10**7
WITNESS_ZERO_TOL = 1e-10
# A certified order needs the exact lower_bound (the heuristic's tau') above
# SKC_POSITIVE_TOL; tau' below SKC_ZERO_TOL counts as zero (the condition fails).
SKC_POSITIVE_TOL = 1e-3
SKC_ZERO_TOL = 1e-6
# Bound-and-prune: FISTA runs a pool of up to _BLOCK sign patterns, checks a
# pattern's bounds every _CHUNK of its iterations and stops it before a check
# past _MAX_ITERS; an exact solve stops after _QP_MAX_ITERS active-set steps.
_BLOCK = 512
_CHUNK = 25
_MAX_ITERS = 200
_QP_MAX_ITERS = 400
# FISTA momentum weight (t_k - 1) / t_(k+1) of iteration k, from t_0 = 1.
_T = list(itertools.accumulate(range(_MAX_ITERS), lambda t, _: 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)), initial=1.0))
_MOMENTUM = np.array([(t - 1.0) / t_next for t, t_next in itertools.pairwise(_T)])
# The heuristic's projected-gradient starts and its iteration cap per start.
_HEURISTIC_STARTS = 48
_HEURISTIC_ITERS = 200


@dataclass(frozen=True, eq=False)
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

    def accepted_end(self) -> tuple[str, float]:
        """Name and value of the end an order is accepted on: the certified lower_bound, or the heuristic's tau_prime."""
        name = "tau_prime" if self.method == "heuristic" else "lower_bound"
        return name, getattr(self, name)


def _simplex_qp(Q):
    """Minimize u^T Q u over the probability simplex; Q is symmetric PSD.

    Primal active-set loop: repeatedly solve the equality-constrained
    problem on the free coordinates through its bordered KKT system, take
    ratio-test steps toward that solution, and release the bound coordinate
    with the most negative multiplier once feasible-optimal on the face.
    Raises NotConverged, carrying the best iterate, when _QP_MAX_ITERS
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
    for _ in range(_QP_MAX_ITERS):
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
            # Some free w_i < -feas_tol has d_i <= w_i (u >= 0): it blocks, at a step u_i / (u_i - w_i) < 1, and lands on 0.
            d = w - u
            blocking = free & (d < -feas_tol)
            theta = float((u[blocking] / -d[blocking]).min())
            u = np.maximum(u + theta * d, 0.0)
            hit = free & (u <= feas_tol)
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
        raise NotConverged(f"simplex QP did not finish in {_QP_MAX_ITERS} iterations", z=best_u, residual=best_val)
    return best_val, best_u


def _pattern_minimum(G, sig):
    """Exact minimum of ||B v||_2^2 over ||v||_1 = 1 with the signs of v given by the +-1 row sig."""
    val, u = _simplex_qp(G * np.outer(sig, sig))
    return val, sig * u


def _split_witness(v):
    v = np.where(np.abs(v) < WITNESS_ZERO_TOL, 0.0, v)
    return np.maximum(v, 0.0), np.maximum(-v, 0.0)


def _rounding_margin(G):
    """Covers the rounding of computed bounds and QP values (u^T Q u and 2 Q u at ||u||_1 = 1).

    Each is a few length-n dot products of entries up to max |G|, off by at
    most about n * eps * max |G| (Higham's gamma_n).  The bound m^2 / f at
    an iterate takes m = min(Q u) and f = u^T Q u each moved by the margin
    toward the weaker side, so their rounding cannot raise it; its own
    square and division round by a few eps of a value below max |G|, which
    the margin subtracted from the final lower bound covers.
    """
    return 16 * G.shape[0] * np.finfo(float).eps * float(np.abs(G).max())


def _iterate_bounds(G, s, u, margin):
    """f = u^T Q u and a lower bound on min v^T Q v over the simplex, for each row u of u and Q = diag(s) G diag(s) of its row of s.

    The bound is the larger of the Frank-Wolfe bound 2 m - f at u,
    m = min(Q u), and its best value 2 c m - c^2 f over the multiples c u,
    m^2 / f when m >= 0 (v^T Q v >= (u^T Q v)^2 / f >= m^2 / f on the
    simplex, by Cauchy-Schwarz); both hold at any u.  The second moves m and
    f by ``margin`` toward the weaker side; as Q is positive semidefinite,
    it is never below 0.
    """
    qu = s * ((s * u) @ G)
    f = np.einsum("ij,ij->i", u, qu)
    m = qu.min(axis=1)
    return f, np.maximum(2.0 * m - f, np.maximum(m - margin, 0.0) ** 2 / (f + margin))


def _minorant(G):
    """Spectral minorant M of G and an allowance a, with 0 <= M <= G + a I as quadratic forms.

    M = V diag(mu) V^T + t I for G = V diag(lam) V^T and mu = lam clipped to
    [0, lam_r], r the first index with lam_r >= lam_max / 8.  The shift
    t = 2 gamma_(n+2) sum(mu) exceeds the rounding of V diag(mu) V^T, so M >= 0;
    a is twice the norms of t, that rounding, min(lam_1, 0) and the residual
    G - V diag(lam) V^T (its Frobenius norm plus gamma (sum |lam| + ||G||_F)).
    """
    n, eps = G.shape[0], np.finfo(float).eps
    gamma = (n + 2) * eps / (1 - (n + 2) * eps)
    lam, V = np.linalg.eigh(G)
    mu = np.clip(lam, 0.0, lam[np.argmax(lam >= lam[-1] / 8)])
    M, shift = (V * mu) @ V.T, 2.0 * gamma * mu.sum()
    residual = np.linalg.norm(G - (V * lam) @ V.T) + gamma * (np.abs(lam).sum() + np.linalg.norm(G))
    return (M + M.T) / 2 + shift * np.eye(n), 2.0 * (residual + 2.0 * shift + max(-lam[0], 0.0))


def _fista_bounds(G, patterns, margin, prune):
    """Bound min u^T Q u over the simplex, Q = diag(s) G diag(s), for every flip-index tuple of patterns; keep those not pruned.

    Returns each kept pattern's (bound, sign row s), keyed by its index, and
    the incumbent: the smallest value u^T Q u any iterate reached, or inf
    without ``prune``, which keeps every pattern.  A pool of up to _BLOCK
    patterns iterates as one array, each row with its own step count and
    momentum, by FISTA on min w^T Q_M w - 2 sum(w) over w >= 0,
    Q_M = diag(s) M diag(s) for the minorant (M, a), from the centre of the
    simplex at its best multiple.  Every _CHUNK steps a row takes the larger
    of its bound so far and the _iterate_bounds bound of Q_M at
    u = w / sum(w) less a, moves to u / f_M, f_M = u^T Q_M u, unless
    f_M <= 0, and leaves once that bound exceeds the incumbent plus
    ``margin`` (pruned) or before a check past _MAX_ITERS (kept).
    """
    n = G.shape[0]
    M, allowance = _minorant(G)
    # Step length 1 / (2 lam) on the gradient 2 Q_M y - 2; lam is the largest eigenvalue of M.
    M_step = M / (lam := max(float(np.linalg.eigvalsh(M)[-1]), 1e-30))
    patterns, count, kept, incumbent = iter(patterns), 0, {}, math.inf
    idx = steps = np.empty(0, dtype=np.intp)
    lower = np.empty(0)
    s = w = y = np.empty((0, n))
    while (fresh := list(itertools.islice(patterns, _BLOCK - idx.size))) or idx.size:
        if fresh:
            signs = np.ones((m := len(fresh), n))
            rows = np.repeat(np.arange(m), [len(J) for J in fresh])
            signs[rows, np.fromiter(itertools.chain.from_iterable(fresh), dtype=np.intp, count=rows.size)] = -1.0
            start = np.full((m, n), 1.0 / n)
            f = _iterate_bounds(M, signs, start, margin)[0]
            start /= np.where(f > 0, f, 1.0)[:, None]
            added = (np.arange(count, count + m), np.zeros(m, dtype=np.intp), np.full(m, -np.inf), signs, start, start)
            idx, steps, lower, s, w, y = (np.concatenate(pair) for pair in zip((idx, steps, lower, s, w, y), added))
            count += m
        # w_next = max(y - s * ((s * y) @ M_step) + 1 / lam, 0), y = w_next + k * (w_next - w), in two swapped buffers.
        sy, step = np.empty_like(y), np.empty_like(y)
        for k in _MOMENTUM[steps + np.arange(_CHUNK)[:, None], None]:
            np.matmul(np.multiply(s, y, out=sy), M_step, out=step)
            np.subtract(y, np.multiply(s, step, out=step), out=step)
            np.maximum(np.add(step, 1.0 / lam, out=step), 0.0, out=step)
            np.add(step, np.multiply(k, np.subtract(step, w, out=w), out=w), out=y)
            w, step = step, w
        steps += _CHUNK
        # Read each row at u = w / sum(w) (a row at w = 0 at the centre of the simplex) and move
        # it to u / f_M, the best multiple of u, unless sum(w) f_M <= 0.
        total = w.sum(axis=1, keepdims=True)
        u = np.divide(w, total, out=np.full_like(w, 1.0 / n), where=total > 0)
        f, bound = _iterate_bounds(M, s, u, margin)
        ray = total * f[:, None]
        ray[ray <= 0] = 1.0
        w, y = w / ray, y / ray
        lower = np.maximum(lower, bound - allowance)
        if prune:
            incumbent = min(incumbent, float(np.einsum("ij,ij->i", u, s * ((s * u) @ G)).min()))
        unpruned = lower <= incumbent + margin
        live = unpruned & (steps + _CHUNK <= _MAX_ITERS)
        kept.update((int(idx[i]), (lower[i], s[i].copy())) for i in np.flatnonzero(unpruned & ~live))
        idx, steps, lower, s, w, y = (a[live] for a in (idx, steps, lower, s, w, y))
    return kept, incumbent


def _solve(G, kept, top, margin):
    """Solve the kept patterns of _fista_bounds that its bounds cannot prune, against one incumbent ``top``.

    One pass over ``kept`` in ascending (bound, index) order solves each
    pattern whose bound is at most top plus the margin 16 rho (rho ~ n eps
    max |G| bounds the rounding of a computed u^T Q u or Q u); top starts at
    the incumbent, or at inf, and falls to each exact value.  Returns the
    (value, v) pair of the solved pattern of smallest (value, index), and
    the smallest Frank-Wolfe bound 2 min(s * (G v)) - val at the exact
    minimizers v of the solved patterns, less the margin.  That lower bound
    holds despite rounding, and no pool path moves it:
    - an unsolved pattern's bound, at most its minimum on M plus 3 rho less
      a, so its minimum plus 3 rho, passes the final top plus the margin, so
      every pattern within 13 rho of top (the minimizer and its ties) is solved;
    - the minimizer's exact bound is at most its value plus 3 rho
      (min(Q u) <= u^T Q u on the simplex), within 5 rho of top, so below
      every unsolved bound: the smallest solved bound is the smallest of all;
    - the active-set loop ends with (Q u)_j = u^T Q u on the support and
      (Q u)_j >= u^T Q u off it, up to rounding and its multiplier test of
      5e-12 max |Q|, so the smallest bound is a near-minimal pattern's (the
      tests check both).  The step cap, the check interval, the refills, the
      pruning times and the start at inf only decide which farther patterns
      are also solved.
    """
    best, lower = (math.inf, -1, None), math.inf
    for i in sorted(kept, key=lambda i: (kept[i][0], i)):
        bound, sig = kept[i]
        if bound > top + margin:
            break
        val, v = _pattern_minimum(G, sig)
        best = min(best, (val, i, v), key=lambda e: e[:2])
        lower = min(lower, 2.0 * float((sig * (G @ v)).min()) - val)
        top = min(top, val)
    val, _, v = best
    return (val, v), lower - margin


def _size_search(G, size):
    """_solve over every flip-index tuple of one size, in itertools.combinations order, each bounded and pruned by FISTA."""
    margin = _rounding_margin(G)
    return _solve(G, *_fista_bounds(G, itertools.combinations(range(G.shape[0]), size), margin, prune=True), margin)


def _project_sparse(V, S):
    """Rows of V with all but their S most negative entries clipped at 0, rescaled to unit l1 norm; and the nonzero rows.

    S holds one sparsity per row.  An entry's rank is its place in its
    row's argsort, scattered back through that permutation: the inverse
    permutation, so the ranks of argsort(argsort(V)), ties included.
    """
    order = np.argsort(V, axis=1)
    rank = np.empty_like(order)
    rank[np.arange(V.shape[0])[:, None], order] = np.arange(V.shape[1])
    V = np.where((V < 0) & (rank < S[:, None]), V, np.maximum(V, 0.0))
    nrm = np.abs(V).sum(axis=1)
    return V / np.where(nrm > 0, nrm, 1.0)[:, None], nrm > 0


def _heuristic_candidates(B, G, orders):
    """Sorted sign patterns of multi-start projected gradient on the ratio program, for each order.

    Order S starts from the three smallest right singular vectors of B and
    their negatives, then from random S-sparse sign vectors of the stream
    (S, "skc-heuristic"), _HEURISTIC_STARTS in all.  The starts of every
    order iterate as the rows of one array, each row projected with its own
    S.  A start stops once a step moves it by at most 1e-14, or projects to
    zero (it then keeps its last iterate); a start that itself projects to
    zero is dropped.
    """
    n = G.shape[0]
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / max(lam_max, 1e-30)

    _, _, vt = np.linalg.svd(B, full_matrices=False)
    singular = [sign * row for row in vt[-min(3, vt.shape[0]) :] for sign in (1.0, -1.0)]
    starts = []
    for S in orders:
        rng = stream(S, "skc-heuristic")
        starts += singular
        for _ in range(_HEURISTIC_STARTS - len(singular)):
            v = np.abs(rng.standard_normal(n))
            v[rng.choice(n, size=min(S, n), replace=False)] *= -1.0
            starts.append(v)

    owner, sparsity = np.repeat(np.arange(len(orders)), _HEURISTIC_STARTS), np.repeat(orders, _HEURISTIC_STARTS)
    V, nonzero = _project_sparse(np.array(starts).reshape(-1, n), sparsity)
    V, owner, sparsity = V[nonzero], owner[nonzero], sparsity[nonzero]
    live = np.arange(len(V))
    for _ in range(_HEURISTIC_ITERS):
        X = V[live]
        X_new, nonzero = _project_sparse(X - step * 2.0 * (X @ G), sparsity[live])
        V[live[nonzero]] = X_new[nonzero]
        live = live[nonzero & (np.abs(X_new - X).max(axis=1) > 1e-14)]
        if not live.size:
            break
    negative = V < 0
    return [sorted({(), *(tuple(np.flatnonzero(v).tolist()) for v in negative[owner == k])}) for k in range(len(orders))]


def _report(order, val, v, method, lower=0.0) -> SkcReport:
    return SkcReport(order, math.sqrt(max(val, 0.0)), math.sqrt(lower), *_split_witness(v), method)


def tau_prime(stacked: StackedRealMatrix, order: int, method: str = "exact") -> SkcReport:
    """Robustness constant of the given order with its adversarial witnesses.

    ``method="exact"`` bounds every pattern of at most ``order`` negative
    coordinates, solves those the bounds cannot prune, and reports the
    certified bracket ``lower_bound <= tau_prime``; it is refused (TooLarge)
    when the patterns it visits, sum_{s <= order} C(n, s), exceed
    EXACT_BUDGET (a 5 x 20 codebook at order 8 visits 263,950, 5 x 24 at
    order 8 visits 1,271,626 and 5 x 25 at order 9 visits 3,850,756).
    ``method="heuristic"`` bounds, without pruning, and solves in the same
    way only the patterns that multi-start projected gradient reaches, and
    upper-bounds the constant (its ``lower_bound`` is 0).
    """
    _check_count("order", order, high=stacked.num_users)
    if method not in ("exact", "heuristic"):
        raise InvalidInput(f"unknown method {method!r}")
    if method == "exact":
        return tau_prime_curve(stacked, order)[-1]
    return tau_prime_heuristic(stacked, [order])[0]


def tau_prime_heuristic(stacked: StackedRealMatrix, orders) -> list[SkcReport]:
    """Heuristic reports of the given orders, in one pass; each as ``tau_prime(stacked, order, "heuristic")``.

    The candidates of every order come from one stacked projected-gradient
    run and are bounded in one _fista_bounds call that prunes none, so every
    row runs to the step cap whatever shares its pool; each order's
    candidates are then solved on their own from an incumbent of inf.  No
    report depends on the other orders or on where the pool refills, to the
    last bit.
    """
    for order in orders:
        _check_count("order", order, high=stacked.num_users)
    G = stacked.values.T @ stacked.values
    margin = _rounding_margin(G)
    candidates = _heuristic_candidates(stacked.values, G, orders)
    kept = iter(sorted(_fista_bounds(G, itertools.chain.from_iterable(candidates), margin, prune=False)[0].items()))
    return [_report(order, *_solve(G, dict(itertools.islice(kept, len(c))), math.inf, margin)[0], "heuristic") for order, c in zip(orders, candidates)]


def tau_prime_curve(stacked: StackedRealMatrix, max_order: int) -> list[SkcReport]:
    """Exact reports for every order 1..max_order, sharing one bound-and-prune pass.

    Report s holds the minimum of the squared ratio over patterns of size
    <= s: the first pattern in (size, itertools.combinations) order that
    attains it, its witness and a lower bound on it that holds despite
    rounding.  The sizes run as ``workers.run_jobs`` jobs, largest C(n, s)
    first, and are folded in size order.
    """
    _check_count("max_order", max_order, high=stacked.num_users)
    n, sizes = stacked.num_users, range(max_order + 1)
    costs = [math.comb(n, s) for s in sizes]
    if (patterns := sum(costs)) > EXACT_BUDGET:
        raise TooLarge(f"the exact method visits sum_(s<={max_order}) C({n},s) = {patterns} sign patterns, over the budget of {EXACT_BUDGET}; use the heuristic")
    G = stacked.values.T @ stacked.values
    searches = workers.run_jobs(_size_search, [(G, s) for s in sizes], costs)
    best, lower, reports = (math.inf, None), math.inf, []
    for size, (size_best, size_lower) in enumerate(searches):
        if size_best[0] < best[0]:
            best = size_best
        lower = min(lower, size_lower)
        reports.append(_report(size, *best, "exact-enumeration", max(lower, 0.0)))
    return reports[1:]


def adversarial_fading(report: SkcReport) -> FadingVector:
    """Normalize the sparse witness into an adversarial fading vector."""
    norm = float(np.linalg.norm(report.witness_x))
    if norm <= 0:
        raise NoAdversary("the witness has no sparse part")
    return FadingVector(x=report.witness_x / norm, sparsity=report.order)
