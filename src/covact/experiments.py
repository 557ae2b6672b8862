"""Reproduction harness for the four simulation panels and the bound tables.

Every run is a pure function of (config, seed): randomness flows through
named streams keyed by experiment, grid point and trial index, so trials can
be evaluated in any order without changing a single byte of the emitted CSV.
Figures (a) and (b) run in the infinite-antenna mode, handing the estimators
the exact covariance A(x) + Sigma; figure (c) perturbs it with a controlled
Hermitian direction and figure (d) replaces it by a finite-antenna sample
covariance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import draw_sparse_fading, perturb_hermitian, sample_covariance, simulate_measurements, stream
from .codebook import Codebook, MeasurementOperator, build_gaussian_codebook
from .config import ExperimentConfig, _format_row
from .errors import SetupFailed
from .estimators import MlOptions, NnlsOptions, ml_coordinate_descent_batch, nnls_estimate
from .gtuple import trace_logdet_tuple
from .hermitian import HermitianMatrix, HpdMatrix
from .robustness import BoundInputs, delta_radius, k0_antennas
from .skc import SKC_POSITIVE_TOL, SKC_ZERO_TOL, SkcReport, adversarial_fading, tau_prime, tau_prime_curve


@dataclass(frozen=True)
class VerifiedCodebook:
    """A Gaussian codebook whose signed-kernel order has been certified."""

    codebook: Codebook
    reports: tuple
    draws_used: int
    seconds: float = 0.0

    def report(self, order: int) -> SkcReport:
        return self.reports[order - 1]


def _kernel_vector(B):
    """Unit l1-norm spanning vector of ker B when that kernel is one-dimensional, else None."""
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    if s.size < 2 or s[-1] > 1e-10 * s[0] or s[-2] <= 1e-10 * s[0]:
        return None
    return vt[-1] / np.abs(vt[-1]).sum()


def _kernel_screen(stacked, order: int) -> bool:
    """Cheap necessary check before the expensive constant computation.

    Only applies when the stacked operator B has a one-dimensional kernel,
    spanned by v with ||v||_1 = 1.  The constant of order + 1 is zero only
    when v splits its signs as (order + 1) against the rest.  Zeroing v_k for
    k in the smaller sign class J then leaves ``order`` negatives, so
    tau'(order) <= min_{k in J} |v_k| ||B e_k||_2 / (1 - |v_k|), and a bound
    at most SKC_POSITIVE_TOL rules the draw out.  Returns True when the draw
    is worth verifying (or when the screen does not apply).
    """
    v = _kernel_vector(stacked.values)
    if v is None:
        return True
    neg, pos = v < -1e-12, v > 1e-12
    J = neg if neg.sum() <= pos.sum() else pos
    if J.sum() != order + 1:
        return False
    small, cols = np.abs(v[J]), np.linalg.norm(stacked.values[:, J], axis=0)
    return float((small * cols / (1.0 - small)).min()) > SKC_POSITIVE_TOL


def verified_codebook(cfg: ExperimentConfig) -> VerifiedCodebook:
    """Draw Gaussian codebooks until one has the configured order exactly.

    A draw is accepted when the robustness constant stays above
    ``SKC_POSITIVE_TOL`` through the configured order and falls below
    ``SKC_ZERO_TOL`` one past it.  Hopeless draws are rejected early by a
    kernel sign screen and a heuristic upper bound on the constant before
    the configured (possibly exact) computation runs.  Raises SetupFailed
    after ``max_codebook_draws`` attempts.
    """
    order = cfg.skc_order
    started = time.perf_counter()
    for draw in range(cfg.max_codebook_draws):
        cb = build_gaussian_codebook(cfg.M, cfg.N, stream(cfg.seed, "codebook", draw))
        stacked = MeasurementOperator(cb).stacked_real()
        if not _kernel_screen(stacked, order):
            continue
        upper = tau_prime(stacked, order, method="heuristic").tau_prime
        if upper <= SKC_POSITIVE_TOL:
            continue
        reports = tau_prime_curve(stacked, order + 1, method=cfg.tau_method)
        if reports[order - 1].tau_prime > SKC_POSITIVE_TOL and reports[order].tau_prime < SKC_ZERO_TOL:
            return VerifiedCodebook(
                codebook=cb,
                reports=tuple(reports),
                draws_used=draw + 1,
                seconds=time.perf_counter() - started,
            )
    raise SetupFailed(
        f"no codebook with signed-kernel order exactly {order} in {cfg.max_codebook_draws} draws"
    )


def _noise_covariance(cfg: ExperimentConfig) -> HpdMatrix:
    return HpdMatrix(cfg.sigma_scale * np.eye(cfg.M))


def _exact_covariance(op, Sigma, x) -> HermitianMatrix:
    """The infinite-antenna observation A(x) + Sigma."""
    return HermitianMatrix(op.apply_raw(x) + Sigma.values)


def _run_estimators(op, Sigma, observations, names, cfg, perm_streams) -> list:
    """Result of each requested estimator on each observation.

    One dict per observation, keys in the order of ``names``.  "nnls" gives
    an NnlsResult; "ml" (cold start) and "ml_nnls" (started at the NNLS
    estimate) give an MlTrace.  NNLS runs per observation; every ML run of
    every observation then goes through one batch.  Both ML runs of an
    observation visit the coordinates in one permutation drawn from its
    stream in ``perm_streams``.
    """
    results = [{} for _ in observations]
    if "nnls" in names or "ml_nnls" in names:
        for res, W in zip(results, observations):
            res["nnls"] = nnls_estimate(op, Sigma, W, NnlsOptions())
    runs = []  # (results dict, estimator name, W, options) of each ML run
    for res, W, rng_perm in zip(results, observations, perm_streams):
        perm = rng_perm.permutation(op.num_users)
        for name in ("ml", "ml_nnls"):
            if name in names:
                z0 = res["nnls"].z if name == "ml_nnls" else None
                runs.append((res, name, W, MlOptions(permutation=perm, z0=z0, while_iterations=cfg.while_iterations)))
    traces = ml_coordinate_descent_batch(op, Sigma, [run[2] for run in runs], [run[3] for run in runs])
    for (res, name, _, _), trace in zip(runs, traces):
        res[name] = trace
    return [{name: res[name] for name in names} for res in results]


def _emit(cfg: ExperimentConfig, name: str, header, rows) -> str:
    lines = cfg.metadata_lines()
    lines.append(",".join(header))
    lines.extend(_format_row(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.csv").write_text(text)
    return text


def run_figure_a(cfg: ExperimentConfig, verified: VerifiedCodebook | None = None) -> str:
    """Robustness constant and adversarial-vector errors as a function of S.

    For each order the adversarial fading vector is the normalized sparse
    witness of the robustness constant; the estimators see the exact
    covariance A(x) + Sigma (infinitely many antennas).
    """
    verified = verified or verified_codebook(cfg)
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    orders = range(1, cfg.skc_order + 2)
    xs = [adversarial_fading(verified.report(order)).x for order in orders]
    results = _run_estimators(
        op, Sigma, [_exact_covariance(op, Sigma, x) for x in xs], ("nnls", "ml", "ml_nnls"), cfg,
        [stream(cfg.seed, "figure-a", order, "perm") for order in orders],
    )
    rows = [
        (order, verified.report(order).tau_prime, *(float(np.linalg.norm(x - r.z)) for r in res.values()))
        for order, x, res in zip(orders, xs, results)
    ]
    return _emit(cfg, "figure_a", ["S", "tau_prime", "err_nnls", "err_ml", "err_ml_nnls"], rows)


def _panel(cfg, verified, name, grid, trials, names, header, observe, statistic=lambda err: err) -> str:
    """Mean of ``statistic(error)`` per estimator at each grid point.

    ``observe(op, Sigma, point, trial)`` returns the (fading, W) pair of one
    trial; its coordinate order comes from the stream (seed, "figure-x",
    point, trial, "perm") of panel ``name`` "figure_x".
    """
    verified = verified or verified_codebook(cfg)
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    label = name.replace("_", "-")
    rows = []
    for point in grid:
        fadings, observations = zip(*(observe(op, Sigma, point, trial) for trial in range(trials)))
        streams = [stream(cfg.seed, label, point, trial, "perm") for trial in range(trials)]
        results = _run_estimators(op, Sigma, observations, names, cfg, streams)
        sums = dict.fromkeys(names, 0.0)
        for fading, res in zip(fadings, results):
            for n in names:
                sums[n] += statistic(float(np.linalg.norm(fading.x - res[n].z)))
        rows.append((point, *(sums[n] / trials for n in names)))
    return _emit(cfg, name, header, rows)


def run_figure_b(cfg: ExperimentConfig, verified: VerifiedCodebook | None = None) -> str:
    """Mean estimation error per sparsity for random fading, exact covariance."""

    def observe(op, Sigma, order, trial):
        fading = draw_sparse_fading(cfg.N, order, stream(cfg.seed, "figure-b", order, trial, "fading"))
        return fading, _exact_covariance(op, Sigma, fading.x)

    names = tuple(cfg.estimators)
    header = ["S", *(f"err_{n}" for n in names)]
    return _panel(cfg, verified, "figure_b", cfg.s_values, cfg.trials_fig_b, names, header, observe)


def run_figure_c(cfg: ExperimentConfig, verified: VerifiedCodebook | None = None) -> str:
    """Mean estimation error against the magnitude of a Hermitian perturbation.

    The fading draw of each trial is conditioned on the exact covariance
    staying positive definite under the largest configured perturbation
    (the robustness statements only cover HPD observations, and the relaxed
    ML estimator rejects indefinite ones).
    """
    rho_budget = 1.05 * max(cfg.rho_grid)

    def observe(op, Sigma, rho, trial):
        for attempt in range(100):
            fading = draw_sparse_fading(
                cfg.N, cfg.skc_order, stream(cfg.seed, "figure-c", rho, trial, "fading", attempt)
            )
            exact = _exact_covariance(op, Sigma, fading.x)
            if float(np.linalg.eigvalsh(exact.values)[0]) > rho_budget:
                noise = stream(cfg.seed, "figure-c", rho, trial, "noise")
                return fading, perturb_hermitian(exact, rho, noise).W
        raise SetupFailed("no fading draw keeps the perturbed observation positive definite")

    names = ("nnls", "ml_nnls")
    header = ["rho", "err_nnls", "err_ml_nnls"]
    return _panel(cfg, verified, "figure_c", cfg.rho_grid, cfg.trials_fig_c, names, header, observe)


def run_figure_d(cfg: ExperimentConfig, verified: VerifiedCodebook | None = None) -> str:
    """Mean inverse squared error against the number of receive antennas."""

    def observe(op, Sigma, K, trial):
        fading = draw_sparse_fading(cfg.N, cfg.skc_order, stream(cfg.seed, "figure-d", K, trial, "fading"))
        channel = stream(cfg.seed, "figure-d", K, trial, "channel")
        sample = simulate_measurements(op.codebook, fading, Sigma, K, channel)
        return fading, sample_covariance(sample.Y)

    names = ("nnls", "ml_nnls")
    header = ["K", "inv_sq_err_nnls", "inv_sq_err_ml_nnls"]
    return _panel(cfg, verified, "figure_d", cfg.k_grid, cfg.trials_fig_d, names, header, observe, lambda e: e**-2)


def run_bounds_table(cfg: ExperimentConfig, verified: VerifiedCodebook | None = None) -> str:
    """Radii and antenna thresholds over an accuracy grid for one instance.

    The instance is a seeded random fading vector at the verified order; the
    robustness constant is the verified codebook's value at that order, beta
    and eta follow the configured defaults, and the Bernstein constant is
    the configured placeholder (the thresholds are structural, not absolute).
    """
    verified = verified or verified_codebook(cfg)
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    order = cfg.skc_order
    fading = draw_sparse_fading(cfg.N, order, stream(cfg.seed, "bounds", "fading"))
    X = _exact_covariance(op, Sigma, fading.x).values
    lam = np.linalg.eigvalsh(X)
    tau = verified.report(order).tau_prime
    inputs = BoundInputs(
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        beta=cfg.beta_fraction * float(lam[0]),
        eta=cfg.eta,
        tau=tau,
        dim=cfg.M,
        p=cfg.target_p,
        c=cfg.bernstein_c,
        sup_diag=float(np.real(np.diag(X)).max()),
    )
    tup = trace_logdet_tuple()
    rows = []
    for eps in cfg.bounds_eps_grid:
        rows.append(
            (
                eps,
                delta_radius("nice", eps, inputs, tup),
                delta_radius("convex", eps, inputs, tup),
                delta_radius("tld", eps, inputs, tup),
                delta_radius("skc", eps, inputs, tup),
                k0_antennas("nnls", eps, cfg.target_p, inputs, tup),
                k0_antennas("ml", eps, cfg.target_p, inputs, tup),
            )
        )
    header = ["eps", "delta_nice", "delta_c", "delta_tld", "delta_skc", "k0_nnls", "k0_ml"]
    return _emit(cfg, "bounds", header, rows)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def linear_fit_r2(x, y) -> float:
    """Coefficient of determination of the least-squares line y ~ a x + b."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def parse_csv(text: str):
    """Split harness CSV output into (metadata, header, float rows)."""
    meta, header, rows = [], None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows
