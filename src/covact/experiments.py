"""Reproduction harness for the four simulation panels and the bound tables.

Every runner takes the config and the certificate of ``verified_codebook``
and returns CSV text; it certifies nothing and writes no file.  Randomness
flows through named streams keyed by experiment, grid point and trial index,
so trials can be evaluated in any order without changing a byte of the CSV.
Figures (a) and (b) run in the infinite-antenna mode, handing the estimators
the exact covariance A(x) + Sigma; figure (c) perturbs it with a controlled
Hermitian direction and figure (d) replaces it by a finite-antenna sample
covariance.

Panels (b)-(d) deal their (grid point, trial) pairs into one share per CPU
(``workers.run_shares``); a share draws its observations, then runs every
NNLS solve of the share as one batch and every ML run as another.  The CSVs
are identical for any number of worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import workers
from .channel import draw_sparse_fading, perturb_hermitian, sample_covariance, simulate_measurements, stream
from .codebook import Codebook, MeasurementOperator, build_gaussian_codebook
from .config import ExperimentConfig, _checked_array, _format_row
from .errors import InvalidInput, SetupFailed
from .estimators import ml_coordinate_descent_batch, nnls_estimate_batch
from .gtuple import trace_logdet_tuple
from .hermitian import HermitianMatrix, HpdMatrix
from .robustness import BoundInputs, delta_radius, k0_antennas
from .skc import SKC_POSITIVE_TOL, SKC_ZERO_TOL, SkcReport, adversarial_fading, tau_prime, tau_prime_curve, tau_prime_heuristic


@dataclass(frozen=True, eq=False)
class VerifiedCodebook:
    """A Gaussian codebook whose signed-kernel order has been certified.

    ``_known`` holds the report of each order 1..skc_order + 1, or None for an
    order the search did not need; ``seconds`` times the search only.
    """

    codebook: Codebook
    _known: tuple
    draws_used: int
    seconds: float = 0.0

    @cached_property
    def reports(self) -> tuple:
        """Every order's report; the first read computes the missing orders' heuristic reports in one stacked call."""
        missing = [s for s, report in enumerate(self._known, start=1) if report is None]
        filled = iter(tau_prime_heuristic(MeasurementOperator(self.codebook).stacked_real(), missing) if missing else ())
        return tuple(next(filled) if report is None else report for report in self._known)

    def report(self, order: int) -> SkcReport:
        return self._known[order - 1] or self.reports[order - 1]


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
    ``SKC_ZERO_TOL`` one past it.  At the order it reads the end that
    ``SkcReport.accepted_end`` names: the certified ``lower_bound`` with
    ``tau_method="exact"``, the heuristic's ``tau_prime``, an upper bound on
    the constant, otherwise.  Hopeless draws are rejected early by a
    kernel sign screen and a heuristic upper bound on the constant before
    the configured (possibly exact) computation runs.  A heuristic search
    computes only the two orders its acceptance reads; the certificate
    computes the orders below the configured one when its reports are first
    read.  Raises SetupFailed after ``max_codebook_draws`` attempts.
    """
    order = cfg.skc_order
    started = time.perf_counter()
    for draw in range(cfg.max_codebook_draws):
        cb = build_gaussian_codebook(cfg.M, cfg.N, stream(cfg.seed, "codebook", draw))
        stacked = MeasurementOperator(cb).stacked_real()
        if not _kernel_screen(stacked, order):
            continue
        screen = tau_prime(stacked, order, method="heuristic")
        if screen.tau_prime <= SKC_POSITIVE_TOL:
            continue
        if cfg.tau_method == "exact":
            reports = tau_prime_curve(stacked, order + 1)
        else:  # the screen is the heuristic's report at ``order``; the orders below it wait for a read
            reports = [None] * (order - 1) + [screen, *tau_prime_heuristic(stacked, [order + 1])]
        if reports[order - 1].accepted_end()[1] > SKC_POSITIVE_TOL and reports[order].tau_prime < SKC_ZERO_TOL:
            return VerifiedCodebook(cb, tuple(reports), draw + 1, time.perf_counter() - started)
    raise SetupFailed(
        f"no codebook with signed-kernel order exactly {order} in {cfg.max_codebook_draws} draws"
    )


def _noise_covariance(cfg: ExperimentConfig) -> HpdMatrix:
    return HpdMatrix(cfg.sigma_scale * np.eye(cfg.M))


def _exact_covariance(op, Sigma, x) -> HermitianMatrix:
    """The infinite-antenna observation A(x) + Sigma."""
    return HermitianMatrix(op.apply_raw(x) + Sigma.values)


def _run_estimators(op, Sigma, observations, names, cfg, perm_streams) -> dict:
    """Each estimator's result on each observation: ``results[name][i]``, keyed in the order of ``names``.

    "nnls" gives an NnlsResult; "ml" (cold start at zeros) and "ml_nnls"
    (warm start at the NNLS estimate) give an MlTrace.  Every NNLS run goes
    through one batch, and every ML run through another: all cold runs
    first, then all warm ones, both runs of observation i visiting the
    coordinates in the one permutation drawn from ``perm_streams[i]``.
    """
    results = {}
    if "nnls" in names or "ml_nnls" in names:
        results["nnls"] = nnls_estimate_batch(op, Sigma, observations)
    ml, n = [name for name in ("ml", "ml_nnls") if name in names], len(observations)
    z0s = [z for name in ml for z in (np.zeros((n, op.num_users)) if name == "ml" else [r.z for r in results["nnls"]])]
    perms = [rng.permutation(op.num_users) for rng in perm_streams] * len(ml)
    traces = ml_coordinate_descent_batch(op, Sigma, list(observations) * len(ml), perms, z0s, cfg.while_iterations)
    results.update((name, traces[k * n:(k + 1) * n]) for k, name in enumerate(ml))
    return {name: results[name] for name in names}


def _emit(cfg: ExperimentConfig, header, rows) -> str:
    lines = cfg.metadata_lines()
    lines.append(",".join(header))
    lines.extend(_format_row(row) for row in rows)
    return "\n".join(lines) + "\n"


def run_figure_a(cfg: ExperimentConfig, verified: VerifiedCodebook) -> str:
    """Robustness constant and adversarial-vector errors as a function of S.

    For each order the adversarial fading vector is the normalized sparse
    witness of the robustness constant; the estimators see the exact
    covariance A(x) + Sigma (infinitely many antennas).
    """
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    orders = range(1, cfg.skc_order + 2)
    xs = [adversarial_fading(verified.report(order)).x for order in orders]
    results = _run_estimators(
        op, Sigma, [_exact_covariance(op, Sigma, x) for x in xs], ("nnls", "ml", "ml_nnls"), cfg,
        [stream(cfg.seed, "figure-a", order, "perm") for order in orders],
    )
    rows = [
        (order, verified.report(order).tau_prime, *(float(np.linalg.norm(x - res[i].z)) for res in results.values()))
        for i, (order, x) in enumerate(zip(orders, xs))
    ]
    return _emit(cfg, ["S", "tau_prime", "err_nnls", "err_ml", "err_ml_nnls"], rows)


def _observe(cfg, op, Sigma, S, K, *labels):
    """An S-sparse fading vector and W: A(x) + Sigma when K is 0, else the sample covariance of K antennas.

    They draw from the streams (seed, *labels, "fading") and (seed, *labels, "channel").
    """
    fading = draw_sparse_fading(cfg.N, S, stream(cfg.seed, *labels, "fading"))
    if K == 0:
        return fading, _exact_covariance(op, Sigma, fading.x)
    sample = simulate_measurements(op.codebook, fading, Sigma, K, stream(cfg.seed, *labels, "channel"))
    return fading, sample_covariance(sample.Y)


def _observe_c(cfg, op, Sigma, rho, trial):
    rho_budget = 1.05 * max(cfg.rho_grid)
    for attempt in range(100):
        fading = draw_sparse_fading(cfg.N, cfg.skc_order, stream(cfg.seed, "figure-c", rho, trial, "fading", attempt))
        exact = _exact_covariance(op, Sigma, fading.x)
        if float(np.linalg.eigvalsh(exact.values)[0]) > rho_budget:
            return fading, perturb_hermitian(exact, rho, stream(cfg.seed, "figure-c", rho, trial, "noise"))
    raise SetupFailed("no fading draw keeps the perturbed observation positive definite")


def _inverse_square(err):
    return err**-2


# Panel -> (trial-count field, estimators or None for the configured ones, observe, statistic of one error).
_PANELS = {
    "figure_b": ("trials_fig_b", None, lambda cfg, op, Sigma, S, trial: _observe(cfg, op, Sigma, S, 0, "figure-b", S, trial), float),
    "figure_c": ("trials_fig_c", ("nnls", "ml_nnls"), _observe_c, float),
    "figure_d": (
        "trials_fig_d", ("nnls", "ml_nnls"),
        lambda cfg, op, Sigma, K, trial: _observe(cfg, op, Sigma, cfg.skc_order, K, "figure-d", K, trial), _inverse_square,
    ),
}


def _panel_share(cfg, verified, name, pairs) -> list:
    """The statistic of each estimator's error on each (point, trial) pair of panel ``name``.

    ``observe(cfg, op, Sigma, point, trial)`` returns the (fading, W) pair of
    one trial; its coordinate order comes from the stream (seed, "figure-x",
    point, trial, "perm") of panel ``name`` "figure_x".  Every NNLS solve of
    the share goes through one batch, and every ML run through another.
    """
    _, names, observe, statistic = _PANELS[name]
    names = names or tuple(cfg.estimators)
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    fadings, observations = zip(*(observe(cfg, op, Sigma, point, trial) for point, trial in pairs))
    streams = [stream(cfg.seed, name.replace("_", "-"), point, trial, "perm") for point, trial in pairs]
    results = _run_estimators(op, Sigma, observations, names, cfg, streams)
    return [[statistic(float(np.linalg.norm(f.x - results[n][i].z))) for n in names] for i, f in enumerate(fadings)]


def _panel(cfg, verified, name, grid, header) -> str:
    """CSV of panel ``name``: per grid point, the mean statistic of each estimator's error.

    The (point, trial) pairs are dealt by ``workers.run_shares`` into one
    share per CPU, and each point's statistics are summed in trial order, so
    the CSV is the same for any number of processes.
    """
    trials = getattr(cfg, _PANELS[name][0])
    stats = workers.run_shares(_panel_share, (cfg, verified, name), [(p, t) for p in grid for t in range(trials)])
    # cumsum adds in trial order, as the CSVs always have; np.sum would add pairwise.
    means = np.cumsum(np.reshape(stats, (len(grid), trials, -1)), axis=1)[:, -1] / trials
    return _emit(cfg, header, [(point, *mean) for point, mean in zip(grid, means.tolist())])


def run_figure_b(cfg: ExperimentConfig, verified: VerifiedCodebook) -> str:
    """Mean estimation error per sparsity for random fading, exact covariance."""
    return _panel(cfg, verified, "figure_b", cfg.s_values, ["S", *(f"err_{n}" for n in cfg.estimators)])


def run_figure_c(cfg: ExperimentConfig, verified: VerifiedCodebook) -> str:
    """Mean estimation error against the magnitude of a Hermitian perturbation.

    The fading draw of each trial is conditioned on the exact covariance
    staying positive definite under the largest configured perturbation
    (the robustness statements only cover HPD observations, and the relaxed
    ML estimator rejects indefinite ones).
    """
    return _panel(cfg, verified, "figure_c", cfg.rho_grid, ["rho", "err_nnls", "err_ml_nnls"])


def run_figure_d(cfg: ExperimentConfig, verified: VerifiedCodebook) -> str:
    """Mean inverse squared error against the number of receive antennas."""
    return _panel(cfg, verified, "figure_d", cfg.k_grid, ["K", "inv_sq_err_nnls", "inv_sq_err_ml_nnls"])


def run_bounds_table(cfg: ExperimentConfig, verified: VerifiedCodebook) -> str:
    """Radii and antenna thresholds over an accuracy grid for one instance.

    The instance is a seeded random fading vector at the verified order; the
    robustness constant is the verified codebook's value at that order, beta
    and eta follow the configured defaults, and the Bernstein constant is
    the configured placeholder (the thresholds are structural, not absolute).
    A heuristic certificate, whose tau' only bounds the constant from
    above, raises InvalidInput: the radii and thresholds need a lower bound.
    """
    order = cfg.skc_order
    if (report := verified.report(order)).method == "heuristic":
        raise InvalidInput("the bound table needs a certified tau' (tau_method = exact); tau_method = heuristic gives an upper bound")
    op = MeasurementOperator(verified.codebook)
    Sigma = _noise_covariance(cfg)
    X = _observe(cfg, op, Sigma, order, 0, "bounds")[1].values
    lam = np.linalg.eigvalsh(X)
    inputs = BoundInputs(
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        beta=cfg.beta_fraction * float(lam[0]),
        eta=cfg.eta,
        tau=report.tau_prime,
        dim=cfg.M,
        p=cfg.target_p,
        c=cfg.bernstein_c,
        sup_diag=float(np.real(np.diag(X)).max()),
    )
    tup = trace_logdet_tuple()
    rows = [
        (eps, *(delta_radius(kind, eps, inputs, tup) for kind in ("nice", "convex", "tld", "skc")),
         *(k0_antennas(estimator, eps, inputs, tup) for estimator in ("nnls", "ml")))
        for eps in cfg.bounds_eps_grid
    ]
    header = ["eps", "delta_nice", "delta_c", "delta_tld", "delta_skc", "k0_nnls", "k0_ml"]
    return _emit(cfg, header, rows)


def _fit_points(x, y, positive=False):
    """x and y as float vectors that pin down a least-squares line (positive ones for a log-log fit)."""
    x = _checked_array("x", x, float, (None,))
    y = _checked_array("y", y, float, x.shape)
    if x.size < 2 or x.min() == x.max():
        raise InvalidInput(f"a line fit needs two distinct x, got {x.tolist()}")
    if positive and min(x.min(), y.min()) <= 0:
        raise InvalidInput(f"a log-log fit needs positive values, got {x.tolist()} and {y.tolist()}")
    return x, y


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x, y = _fit_points(x, y, positive=True)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def linear_fit_r2(x, y) -> float:
    """Coefficient of determination of the least-squares line y ~ a x + b."""
    x, y = _fit_points(x, y)
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


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
