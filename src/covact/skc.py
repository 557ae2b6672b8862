"""Signed kernel condition verification through the robustness constant.

The constant is the infimum of ||B v||_2 / ||v||_1 over differences
v = z' - x' between a nonnegative vector and an S-sparse nonnegative vector,
with B the stacked-real form of the measurement operator.  Such a v is
exactly a vector with at most S negative entries, so after normalizing
||v||_1 = 1 the feasible set splits by the set J of negative coordinates:
flipping the signs of the J columns turns each piece into the probability
simplex, on which the squared objective is a convex quadratic.  The exact
method enumerates every |J| <= S and solves each simplex-constrained
quadratic with an active-set loop; the heuristic runs multi-start projected
gradient over the same program and polishes the sign pattern of each final
iterate with the exact subproblem solver.

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


@dataclass(frozen=True)
class SkcReport:
    """Robustness constant of one order with its adversarial witness pair."""

    order: int
    tau_prime: float
    witness_z: np.ndarray
    witness_x: np.ndarray
    method: str

    def as_text(self) -> str:
        lines = [
            f"order = {self.order}",
            f"tau_prime = {self.tau_prime:.17g}",
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


def _exact_minima_by_size(B, max_size):
    """Per-pattern-size minima of the squared ratio, sizes 0..max_size."""
    G = B.T @ B
    n = B.shape[1]
    results = []
    for j in range(max_size + 1):
        best = (math.inf, None)
        for J in itertools.combinations(range(n), j):
            val, v = _pattern_minimum(G, J)
            if val < best[0]:
                best = (val, v)
        results.append(best)
    return results


def _heuristic_candidates(B, S, seed, n_starts=48, iters=200):
    """Sign patterns suggested by projected gradient on the ratio program."""
    G = B.T @ B
    n = B.shape[1]
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / max(lam_max, 1e-30)
    rng = stream(seed, "skc-heuristic")

    starts = []
    _, _, vt = np.linalg.svd(B, full_matrices=False)
    for row in vt[-min(3, vt.shape[0]) :]:
        starts.append(row.copy())
        starts.append(-row.copy())
    while len(starts) < n_starts:
        v = rng.standard_normal(n)
        flips = rng.choice(n, size=min(S, n), replace=False)
        v = np.abs(v)
        v[flips] *= -1.0
        starts.append(v)

    def project(v):
        neg = np.flatnonzero(v < 0)
        if neg.size > S:
            keep = neg[np.argsort(v[neg])[:S]]
            clipped = np.maximum(v, 0.0)
            clipped[keep] = v[keep]
            v = clipped
        nrm = float(np.abs(v).sum())
        if nrm <= 0:
            return None
        return v / nrm

    patterns = set()
    for v in starts:
        v = project(np.asarray(v, dtype=float))
        if v is None:
            continue
        for _ in range(iters):
            v_new = project(v - step * 2.0 * (G @ v))
            if v_new is None:
                break
            if np.abs(v_new - v).max() <= 1e-14:
                v = v_new
                break
            v = v_new
        if v is not None:
            patterns.add(tuple(sorted(np.flatnonzero(v < 0).tolist())))
    patterns.add(())
    return patterns


def _report(order, val, v, method) -> SkcReport:
    witness_z, witness_x = _split_witness(v)
    return SkcReport(
        order=order,
        tau_prime=float(math.sqrt(max(val, 0.0))),
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

    ``method="exact"`` enumerates every pattern of at most ``order`` negative
    coordinates and is refused (TooLarge) past the combinatorial budget;
    ``method="heuristic"`` polishes multi-start projected-gradient patterns
    and upper-bounds the constant.
    """
    _check(stacked, order, method)
    if method == "exact":
        return tau_prime_curve(stacked, order)[-1]
    G = stacked.values.T @ stacked.values
    best = (math.inf, None)
    for J in sorted(_heuristic_candidates(stacked.values, order, seed=order)):
        pat_val, pat_v = _pattern_minimum(G, J)
        if pat_val < best[0]:
            best = (pat_val, pat_v)
    return _report(order, *best, "heuristic")


def tau_prime_curve(stacked: StackedRealMatrix, max_order: int, method: str = "exact") -> list[SkcReport]:
    """Reports for every order 1..max_order, sharing one enumeration pass."""
    _check(stacked, max_order, method)
    if method == "heuristic":
        return [tau_prime(stacked, s, method="heuristic") for s in range(1, max_order + 1)]
    n = stacked.num_users
    if math.comb(n, max_order) * 2**max_order > EXACT_BUDGET:
        raise TooLarge(
            f"exact enumeration needs C({n},{max_order}) * 2^{max_order} subproblems; use the heuristic"
        )
    by_size = _exact_minima_by_size(stacked.values, max_order)
    return [
        _report(s, *min(by_size[: s + 1], key=lambda item: item[0]), "exact-enumeration")
        for s in range(1, max_order + 1)
    ]


def skc_holds(stacked: StackedRealMatrix, order: int, tol: float = SKC_ZERO_TOL, method: str = "exact") -> bool:
    """Whether the operator has the signed kernel condition of the given order."""
    return tau_prime(stacked, order, method=method).tau_prime > tol


def adversarial_fading(report: SkcReport) -> FadingVector:
    """Normalize the sparse witness into an adversarial fading vector."""
    norm = float(np.linalg.norm(report.witness_x))
    if norm <= 0:
        raise NoAdversary("the witness has no sparse part")
    return FadingVector(x=report.witness_x / norm, sparsity=report.order)
