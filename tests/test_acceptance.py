"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the shared verified-codebook fixture performs the exact
signed-kernel certification once for the whole session.
"""

import math
import time

import numpy as np
import pytest

from covact import (
    HermitianMatrix,
    HpdMatrix,
    MeasurementOperator,
    adversarial_fading,
    build_gaussian_codebook,
    delta_radius,
    draw_sparse_fading,
    gsum_objective,
    lambert_w,
    level_set_bound_check,
    ml_coordinate_descent,
    ml_objective,
    nnls_estimate,
    perturb_hermitian,
    stream,
    tau_prime,
    trace_logdet_tuple,
)
from covact import estimators
from covact.codebook import vectorize_hermitian
from covact.experiments import loglog_slope, linear_fit_r2, parse_csv, run_figure_c, run_figure_d
from covact.robustness import BoundInputs

from conftest import random_hpd
from test_estimators import brute_force_nnls, replayed_updates

SIGMA_SCALE = 1e-4


def announce(number, message):
    print(f"\n[acceptance] criterion {number}: PASS — {message}")


@pytest.fixture(scope="module")
def operator(verified):
    return MeasurementOperator(verified.codebook)


@pytest.fixture(scope="module")
def noise():
    return HpdMatrix(SIGMA_SCALE * np.eye(4))


def test_criterion_01_skc_threshold(verified):
    for order in range(1, 8):
        assert verified.report(order).tau_prime > 1e-3, f"tau' at S={order} too small"
    assert verified.report(8).tau_prime < 1e-6
    assert verified.seconds <= 45 * 60, "exact verification exceeded its runtime budget"

    stacked = MeasurementOperator(verified.codebook).stacked_real()
    started = time.perf_counter()
    heur7 = tau_prime(stacked, 7, method="heuristic").tau_prime
    heur8 = tau_prime(stacked, 8, method="heuristic").tau_prime
    heuristic_seconds = time.perf_counter() - started
    assert heuristic_seconds <= 120, "heuristic path exceeded its runtime budget"
    assert heur7 >= verified.report(7).tau_prime - 1e-12  # upper bound on the infimum
    assert heur8 < 1e-6
    announce(
        1,
        f"tau' in [{verified.report(7).tau_prime:.2e}, {verified.report(1).tau_prime:.2e}] for "
        f"S<=7, {verified.report(8).tau_prime:.2e} at S=8 "
        f"(exact {verified.seconds:.0f} s, heuristic {heuristic_seconds:.1f} s)",
    )


def test_criterion_02_exact_observation_recovery(verified, operator, noise):
    worst = 0.0
    nnls_errors_s7 = []
    ml_errors_s7 = []
    for order in range(1, 8):
        cases = [adversarial_fading(verified.report(order))]
        cases += [
            draw_sparse_fading(17, order, stream(2024, "accept-2", order, t))
            for t in range(100)
        ]
        for idx, fading in enumerate(cases):
            W = HermitianMatrix(operator.apply_raw(fading.x) + noise.values)
            res = nnls_estimate(operator, noise, W)
            err_nnls = float(np.linalg.norm(res.z - fading.x))
            perm = stream(2024, "accept-2", order, idx, "perm").permutation(17)
            trace = ml_coordinate_descent(operator, noise, W, perm, res.z)
            err_ml = float(np.linalg.norm(trace.z - fading.x))
            assert err_nnls <= 1e-3
            assert err_ml <= 1e-3
            worst = max(worst, err_nnls, err_ml)
            if order == 7 and idx > 0:
                nnls_errors_s7.append(err_nnls)
                ml_errors_s7.append(err_ml)
    ratio = np.mean(ml_errors_s7) / np.mean(nnls_errors_s7)
    assert ratio <= 10.0
    announce(2, f"worst recovery error {worst:.2e}; S=7 ML/NNLS mean ratio {ratio:.2f}")


def test_criterion_03_linear_perturbation_scaling(default_config, verified):
    import scipy.stats

    started = time.perf_counter()
    text = run_figure_c(default_config, verified)
    elapsed = time.perf_counter() - started
    _, header, rows = parse_csv(text)
    rho = [row[header.index("rho")] for row in rows]
    slopes = {}
    for name in ("err_nnls", "err_ml_nnls"):
        errors = [row[header.index(name)] for row in rows]
        slopes[name] = loglog_slope(rho, errors)
        assert 0.85 <= slopes[name] <= 1.15, f"{name} slope {slopes[name]:.3f}"
        assert scipy.stats.spearmanr(rho, errors).statistic > 0.9
    assert elapsed <= 600
    announce(
        3,
        f"log-log slopes nnls {slopes['err_nnls']:.3f}, ml {slopes['err_ml_nnls']:.3f} "
        f"({elapsed:.0f} s)",
    )


def test_criterion_04_antenna_scaling(default_config, verified):
    started = time.perf_counter()
    text = run_figure_d(default_config, verified)
    elapsed = time.perf_counter() - started
    _, header, rows = parse_csv(text)
    ks = [row[header.index("K")] for row in rows]
    fits = {}
    for name in ("inv_sq_err_nnls", "inv_sq_err_ml_nnls"):
        values = [row[header.index(name)] for row in rows]
        fits[name] = linear_fit_r2(ks, values)
        assert fits[name] >= 0.9, f"{name} R^2 {fits[name]:.3f}"
        # Doubling K roughly doubles the mean inverse squared error; the
        # aggregate doubling ratio across the grid absorbs per-step noise.
        doubling = (values[-1] / values[0]) ** (1.0 / (len(values) - 1))
        assert 1.5 <= doubling <= 2.5
    assert elapsed <= 1800
    announce(
        4,
        f"R^2 nnls {fits['inv_sq_err_nnls']:.3f}, ml {fits['inv_sq_err_ml_nnls']:.3f} "
        f"({elapsed:.0f} s)",
    )


def test_criterion_05_lambert_exactness():
    assert abs(lambert_w(0, -math.log(4) / 4) + math.log(2)) <= 1e-12
    assert abs(lambert_w(0, 0.0)) <= 1e-12
    bp = -math.exp(-1.0)
    worst = 0.0
    grid0 = np.concatenate([np.linspace(bp, 0.0, 500, endpoint=False), np.logspace(-8, 8, 500)])
    for y in grid0:
        w = lambert_w(0, float(y))
        worst = max(worst, abs(w * math.exp(w) - y) / max(1.0, abs(y)))
    for y in np.linspace(bp, -1e-12, 1000):
        w = lambert_w(-1, float(y))
        worst = max(worst, abs(w * math.exp(w) - y) / max(1.0, abs(y)))
    assert worst <= 1e-13
    announce(5, f"defining-identity residual at most {worst:.2e} over both branches")


def test_criterion_06_radius_identities(verified, operator, noise):
    tup = trace_logdet_tuple()
    x = adversarial_fading(verified.report(7)).x
    X = operator.apply_raw(x) + noise.values
    lam = np.linalg.eigvalsh(X)
    inputs = BoundInputs(
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        beta=float(lam[0]) / 2.0,
        eta=1.0,
        tau=verified.report(7).tau_prime,
        dim=4,
        p=0.9,
        c=1.0,
        sup_diag=float(np.real(np.diag(X)).max()),
    )
    for eps in np.logspace(-8, 2, 80):
        skc = delta_radius("skc", float(eps), inputs, tup)
        tld = delta_radius("tld", inputs.tau * float(eps) / 2.0, inputs, tup)
        assert skc == pytest.approx(tld, rel=1e-12)

    r1 = delta_radius("convex", 1e-9, inputs, tup) / 1e-9
    r2 = delta_radius("convex", 3e-9, inputs, tup) / 3e-9
    assert r1 == pytest.approx(r2, rel=1e-10)

    M = 4
    for eps in np.linspace(1e-8, tup.slope_range * M, 500):
        assert tup.width(tup.excess(float(eps)) / M) >= tup.slope_ratio * float(eps) / M * (1 - 1e-9)
    announce(6, "skc/tld identity, linear-at-zero ratio and width-excess inequality hold")


def test_criterion_06b_antenna_count_structure(verified, operator, noise):
    from covact import k0_antennas

    tup = trace_logdet_tuple()
    x = adversarial_fading(verified.report(7)).x
    X = operator.apply_raw(x) + noise.values
    lam = np.linalg.eigvalsh(X)
    inputs = BoundInputs(
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        beta=float(lam[0]) / 2.0,
        eta=1.0,
        tau=verified.report(7).tau_prime,
        dim=4,
        p=0.9,
        c=1.0,
        sup_diag=float(np.real(np.diag(X)).max()),
    )
    grid = np.logspace(-4, 2, 40)
    nnls_values = [k0_antennas("nnls", float(e), inputs, tup) for e in grid]
    ml_values = [k0_antennas("ml", float(e), inputs, tup) for e in grid]
    assert all(b < a for a, b in zip(nnls_values, nnls_values[1:]))
    assert all(v >= 4 for v in ml_values)
    assert all(ml >= nn for ml, nn in zip(ml_values, nnls_values))
    announce("6b", "antenna thresholds: monotone in eps, ml floored at M and above nnls")


def test_criterion_07_objective_decomposition():
    tup = trace_logdet_tuple()
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(200):
        M = int(rng.integers(2, 7))
        Z = random_hpd(rng, M)
        W = random_hpd(rng, M)
        lhs = float(np.real(np.trace(np.linalg.solve(Z.values, W.values)))) + float(
            np.linalg.slogdet(Z.values)[1]
        )
        rhs = gsum_objective(Z, W, tup) + float(np.linalg.slogdet(W.values)[1])
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, rel)
        assert rel <= 1e-8
    announce(7, f"trace-log-det equals the spectral penalty sum, worst rel err {worst:.2e}")


def test_criterion_08_coordinate_descent_contract():
    rng = np.random.default_rng(41)
    # Per-update monotonicity and inverse drift over 100 random runs.
    for run in range(100):
        M = int(rng.integers(2, 5))
        N = int(rng.integers(4, 11))
        op = MeasurementOperator(build_gaussian_codebook(M, N, stream(42, "cd", run)))
        Sigma = HpdMatrix(0.5 * np.eye(M))
        x = draw_sparse_fading(N, min(3, N), stream(43, "cd", run)).x
        W = HermitianMatrix(
            Sigma.values + op.apply_raw(x) + 0.05 * perturb_hermitian(
                HermitianMatrix(np.zeros((M, M))), 1.0, stream(44, "cd", run)
            ).values
        )
        if np.linalg.eigvalsh(W.values)[0] < 1e-6:
            continue
        perm = rng.permutation(N)
        trace = ml_coordinate_descent(op, Sigma, W, perm, while_iterations=25)
        _, updates = replayed_updates(op, Sigma, W, perm, trace.sweeps)
        for objectives in (trace.objectives, updates):
            assert np.all(np.diff(objectives) <= 1e-10 * np.abs(objectives[:-1]))
        assert trace.inverse_drift <= 1e-7 * M

    # The truth is a fixed point when the observation is exact.
    op = MeasurementOperator(build_gaussian_codebook(4, 17, stream(45, "cd-fixed")))
    Sigma = HpdMatrix(np.eye(4))
    x = draw_sparse_fading(17, 5, 46).x
    W = HermitianMatrix(Sigma.values + op.apply_raw(x))
    trace = ml_coordinate_descent(op, Sigma, W, z0=x, while_iterations=1)
    assert np.abs(trace.z - x).max() <= 1e-10

    # Converged runs certify stationarity, and the gradient matches finite
    # differences away from the boundary.
    res = nnls_estimate(op, Sigma, W)
    converged = ml_coordinate_descent(op, Sigma, W, z0=res.z)
    assert converged.kkt_residual <= 1e-6

    rng = np.random.default_rng(47)
    z = np.abs(rng.standard_normal(17)) + 0.5
    S = np.linalg.inv(Sigma.values + op.apply_raw(z))
    h = 1e-6
    for n in range(0, 17, 3):
        up, down = z.copy(), z.copy()
        up[n] += h
        down[n] -= h
        fd = (ml_objective(op, Sigma, W, up) - ml_objective(op, Sigma, W, down)) / (2 * h)
        a = op.codebook.columns[:, n]
        grad = float(np.real(a.conj() @ S @ a) - np.real(a.conj() @ S @ W.values @ S @ a))
        assert fd == pytest.approx(grad, rel=1e-4, abs=1e-8)
    announce(8, "monotone updates, bounded drift, truth fixed point, certified stationarity")


def test_criterion_09_nnls_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(estimators, "_NNLS_KKT_TOL", 1e-11)
    rng = np.random.default_rng(48)
    worst = 0.0
    for trial in range(50):
        N = int(rng.integers(3, 7))
        # M = 3 keeps the stacked system at full column rank (its rank is at
        # most M^2), so the minimizer is unique and comparable in z.
        M = 3
        op = MeasurementOperator(build_gaussian_codebook(M, N, stream(49, "oracle", trial)))
        Sigma = HpdMatrix(np.eye(M))
        raw = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        W = HermitianMatrix(Sigma.values + raw @ raw.conj().T / M)
        res = nnls_estimate(op, Sigma, W)
        E = op.stacked_real().values
        d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), M)
        oracle = brute_force_nnls(E, d)
        gap = float(np.linalg.norm(res.z - oracle))
        worst = max(worst, gap)
        assert gap <= 1e-6
    announce(9, f"active-set matches the exhaustive-support oracle, worst gap {worst:.2e}")


def test_criterion_10_robustness_bound_honored(verified, operator, noise):
    checked = 0
    worst_margin = np.inf
    for order, count in ((7, 50), (4, 25), (2, 25)):
        tau = verified.report(order).tau_prime
        assert tau > 0
        for trial in range(count):
            fading = draw_sparse_fading(17, order, stream(50, "bound", order, trial))
            exact = HermitianMatrix(operator.apply_raw(fading.x) + noise.values)
            rho = float(10 ** stream(51, "bound", order, trial).uniform(-4, -1))
            W = perturb_hermitian(exact, rho, stream(52, "bound", order, trial))
            res = nnls_estimate(operator, noise, W)
            err = float(np.linalg.norm(res.z - fading.x))
            pert = float(np.linalg.norm(W.values - exact.values))
            bound = 2.0 / tau * pert
            assert err <= bound, f"violation at S={order}, trial {trial}"
            worst_margin = min(worst_margin, bound / max(err, 1e-300))
            checked += 1
    assert checked == 100
    announce(10, f"error bound held on all {checked} perturbed instances (tightest margin {worst_margin:.1f}x)")


def test_plain_ml_degrades_without_warm_start(default_config, verified):
    # Plain coordinate descent from zero hits the sweep cap (while_iterations,
    # 100 sweeps) before it converges once the sparsity passes 4, so its error
    # grows; the NNLS-initialized run keeps recovering.
    from dataclasses import replace

    from covact.experiments import run_figure_b

    cfg = replace(default_config, trials_fig_b=30)
    text = run_figure_b(cfg, verified)
    _, header, rows = parse_csv(text)
    by_s = {int(row[header.index("S")]): row for row in rows}
    assert by_s[7][header.index("err_ml")] > by_s[4][header.index("err_ml")]
    for order in range(1, 8):
        assert by_s[order][header.index("err_nnls")] <= 1e-3
        assert by_s[order][header.index("err_ml_nnls")] <= 1e-3


def test_end_to_end_ml_robustness(monkeypatch, verified, operator, noise):
    # Every warm start runs its 50 sweeps: no gain stops it early.
    monkeypatch.setattr(estimators, "_ML_OBJECTIVE_TOL", 0.0)
    # Perturbations within the skc radius keep the warm-started ML estimate
    # within the target error whenever the run certifies stationarity.  On
    # the most degenerate instances (small tau' is near-singular curvature
    # by construction) cyclic descent can stall slightly above the
    # certificate, so the claim is checked on the qualified runs and the
    # qualifier itself must cover most of them.
    tup = trace_logdet_tuple()
    qualified = 0
    total = 0
    for order, eps_targets in ((7, (0.5, 1.0)), (4, (0.2, 1.0))):
        tau = verified.report(order).tau_prime
        for trial in range(10):
            fading = draw_sparse_fading(17, order, stream(60, "e2e", order, trial))
            X = operator.apply_raw(fading.x) + noise.values
            lam = np.linalg.eigvalsh(X)
            inputs = BoundInputs(
                lambda_min=float(lam[0]),
                lambda_max=float(lam[-1]),
                beta=float(lam[0]) / 2.0,
                eta=1.0,
                tau=tau,
                dim=4,
                p=0.9,
                c=1.0,
                sup_diag=float(np.real(np.diag(X)).max()),
            )
            for eps in eps_targets:
                radius = delta_radius("skc", eps, inputs, tup)
                W = perturb_hermitian(HermitianMatrix(X), radius, stream(61, "e2e", order, trial))
                res = nnls_estimate(operator, noise, W)
                perm = stream(62, "e2e", order, trial).permutation(17)
                trace = ml_coordinate_descent(operator, noise, W, perm, res.z, while_iterations=50)
                total += 1
                assert float(np.linalg.norm(trace.z - fading.x)) <= eps
                if trace.kkt_residual <= 1e-8:
                    qualified += 1
    # The certificate plateaus near the numeric floor on the most degenerate
    # draws, so it qualifies most but not all runs.
    assert qualified >= 0.5 * total


def test_criterion_11_level_set_bounds():
    tup = trace_logdet_tuple()
    rng = np.random.default_rng(53)
    fn1 = tup.fn(1.0)
    accepted = 0
    while accepted < 500:
        M = int(rng.integers(2, 6))
        W = random_hpd(rng, M)
        budget = float(rng.uniform(0.05, 4.0))
        gamma = M * fn1 + budget
        shares = rng.dirichlet(np.ones(M)) * budget * rng.uniform(0.2, 0.999)
        targets = np.array(
            [
                tup.inv_lower(fn1 + s) if rng.uniform() < 0.5 else tup.inv_upper(fn1 + s)
                for s in shares
            ]
        )
        raw = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        unitary, _ = np.linalg.qr(raw)
        inner = (unitary * targets) @ unitary.conj().T
        root = np.linalg.cholesky(W.values)
        Z = HpdMatrix(root @ np.linalg.inv((inner + inner.conj().T) / 2) @ root.conj().T)
        # Rejection step: keep only certified members of the level set.
        if gsum_objective(Z, W, tup) > gamma:
            continue
        assert level_set_bound_check(Z, W, gamma, tup)
        assert level_set_bound_check(Z, W, gamma, tup, dual=True)
        accepted += 1
    announce(11, "all 500 sampled level-set members satisfy the eigenvalue sandwich")
