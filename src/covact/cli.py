"""Command-line interface for codebooks, estimators, bounds and experiments.

Outputs are CSV files; exit code 0 on success, 1 on invalid input or a
failed computation, 2 when ``--assert`` is given and an acceptance-style
check fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import stream
from .codebook import MeasurementOperator, build_deterministic_codebook, build_gaussian_codebook, load_codebook_csv, save_codebook_csv
from .config import ExperimentConfig, _check_count, parse_config
from .errors import CovactError, InvalidInput
from .estimators import save_estimate_csv, save_trace_csv
from .experiments import (
    SKC_POSITIVE_TOL,
    SKC_ZERO_TOL,
    _noise_covariance,
    _observe,
    _run_estimators,
    linear_fit_r2,
    loglog_slope,
    parse_csv,
    run_bounds_table,
    run_figure_a,
    run_figure_b,
    run_figure_c,
    run_figure_d,
    verified_codebook,
)
from .skc import tau_prime

# Output name and runner of each panel and of the bound table.
_RUNS = {
    "a": ("figure_a", run_figure_a),
    "b": ("figure_b", run_figure_b),
    "c": ("figure_c", run_figure_c),
    "d": ("figure_d", run_figure_d),
    "bounds": ("bounds", run_bounds_table),
}


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _out_path(args, name: str) -> Path:
    """Path of output file ``name`` in the ``--out`` directory (default: here)."""
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _build_codebook(cfg, kind: str = "gaussian", file: str | None = None):
    if file:
        return load_codebook_csv(file)
    if kind == "deterministic":
        return build_deterministic_codebook(cfg.M, cfg.N)
    return build_gaussian_codebook(cfg.M, cfg.N, stream(cfg.seed, "codebook", 0))


def _cmd_build(args, cfg) -> list:
    out = _out_path(args, "codebook.csv")
    save_codebook_csv(_build_codebook(cfg, args.kind, args.file), out)
    print(f"wrote {out}")
    return []


def _cmd_tau(args, cfg) -> list:
    """Print tau' at the order (the config's ``skc_order`` by default).

    It fails unless the end that ``SkcReport.accepted_end`` names is above
    ``--tol``: the certified ``lower_bound``, or the heuristic's
    ``tau_prime``, an upper bound.
    """
    order = cfg.skc_order if args.order is None else args.order
    stacked = MeasurementOperator(_build_codebook(cfg, args.kind, args.file)).stacked_real()
    report = tau_prime(stacked, order, method=args.method)
    text = report.as_text()
    if args.out:
        _out_path(args, f"tau_order{order}.txt").write_text(text)
    print(text, end="")
    name, value = report.accepted_end()
    return [] if value > args.tol else [f"{name} at order {order} is {value:.3e}, not above {args.tol}"]


def _cmd_estimate(args, cfg) -> list:
    _check_count("--antennas", args.antennas, low=0)
    op = MeasurementOperator(_build_codebook(cfg))
    Sigma = _noise_covariance(cfg)
    sparsity = cfg.skc_order if args.sparsity is None else args.sparsity
    fading, W = _observe(cfg, op, Sigma, sparsity, args.antennas, "estimate")
    name = "ml_nnls" if args.estimator == "ml" and args.init_nnls else args.estimator
    result = _run_estimators(op, Sigma, [W], (name,), cfg, [stream(cfg.seed, "estimate", "perm")])[name][0]
    if args.estimator == "nnls":
        summary = f"nnls residual = {result.residual:.6e}"
    else:
        save_trace_csv(result, _out_path(args, "trace_ml.csv"))
        summary = f"ml sweeps = {result.sweeps}  kkt = {result.kkt_residual:.6e}"
    save_estimate_csv(result.z, _out_path(args, f"estimate_{args.estimator}.csv"))
    print(f"{summary}  error = {float(np.linalg.norm(fading.x - result.z)):.6e}")
    return []


def _broken_rules(kind: str, text: str, cfg, verified) -> list:
    """Acceptance rules that the CSV of panel ``kind`` (or the bound table) of the certificate ``verified`` breaks."""
    failures = []
    _, header, rows = parse_csv(text)
    if kind == "c":  # the log-log slope has no point at rho = 0
        rows = [row for row in rows if row[header.index("rho")] > 0]
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if kind in ("a", "b"):
        for row in rows:
            order = int(row[header.index("S")])
            if kind == "a":
                end, value = verified.report(order).accepted_end()
                if order <= cfg.skc_order and value <= SKC_POSITIVE_TOL:
                    failures.append(f"{end} at S={order} is {value:.3e}, not above {SKC_POSITIVE_TOL}")
                tau = row[header.index("tau_prime")]
                if order > cfg.skc_order and tau >= SKC_ZERO_TOL:
                    failures.append(f"tau_prime at S={order} is {tau:.3e}, not below {SKC_ZERO_TOL}")
            if order <= cfg.skc_order:
                for name in ("err_nnls", "err_ml_nnls"):
                    if name in header and row[header.index(name)] > 1e-3:
                        failures.append(f"{name} at S={order} exceeds 1e-3")
    elif kind in ("c", "d") and len(rows) < 2:
        rule = "the log-log slope against rho > 0" if kind == "c" else "the R^2 against K"
        failures.append(f"{rule} needs at least two grid values, got {len(rows)}")
    elif kind == "c":
        for name in ("err_nnls", "err_ml_nnls"):
            slope = loglog_slope(cols["rho"], cols[name])
            if not 0.85 <= slope <= 1.15:
                failures.append(f"log-log slope of {name} is {slope:.3f}, outside [0.85, 1.15]")
    elif kind == "d":
        for name in ("inv_sq_err_nnls", "inv_sq_err_ml_nnls"):
            r2 = linear_fit_r2(cols["K"], cols[name])
            if r2 < 0.9:
                failures.append(f"R^2 of {name} against K is {r2:.3f}, below 0.9")
    elif kind == "bounds":
        for eps, k0_nnls, k0_ml in zip(cols["eps"], cols["k0_nnls"], cols["k0_ml"]):
            if k0_ml < k0_nnls:
                failures.append(f"k0_ml < k0_nnls at eps = {eps:.3e}")
    return failures


def _cmd_run(args, cfg) -> list:
    """Certify the codebook once, run each named output and print its CSV or where it was written; each broken --assert rule names its output."""
    kinds = [kind for kind in _RUNS if kind in args.outputs or "all" in args.outputs]
    if len(kinds) > 1 and not args.out:
        raise InvalidInput(f"experiment {' '.join(kinds)} writes {len(kinds)} CSV files and needs --out")
    verified = verified_codebook(cfg)
    failures = []
    for kind in kinds:
        name, run = _RUNS[kind]
        text = run(cfg, verified)
        if args.out:
            out = _out_path(args, f"{name}.csv")
            out.write_text(text)
            print(f"wrote {out}")
        else:
            print(text, end="")
        failures += [f"{name}: {rule}" for rule in _broken_rules(kind, text, cfg, verified)] if args.check_assert else []
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covact", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--config", type=str, default=None, help="key = value configuration file")
    parser.add_argument("--out", type=str, default=None, help="output directory for CSV files")
    parser.add_argument(
        "--assert", dest="check_assert", action="store_true",
        help="turn acceptance checks into the exit code (2 on failure)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--kind", choices=["gaussian", "deterministic"], default="gaussian")
    source.add_argument("--file", type=str, default=None, help="read the codebook from CSV")
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--sparsity", type=int, default=None, help="default: the config's skc_order")
    draw.add_argument("--antennas", type=int, default=0, help="0 uses the exact covariance")
    draw.set_defaults(func=_cmd_estimate)

    p_cb = sub.add_parser("codebook", help="build a codebook").add_subparsers(dest="action", required=True)
    p_cb.add_parser("build", parents=[source], help="write codebook.csv").set_defaults(func=_cmd_build)

    p_tau = sub.add_parser("tau", parents=[source], help="robustness constant of a codebook; fails unless above --tol")
    p_tau.add_argument("--order", type=int, default=None, help="default: the config's skc_order")
    p_tau.add_argument("--method", choices=["exact", "heuristic"], default="exact")
    p_tau.add_argument("--tol", type=float, default=SKC_ZERO_TOL)
    p_tau.set_defaults(func=_cmd_tau)

    p_est = sub.add_parser("estimate", help="run one estimator on a synthetic draw").add_subparsers(dest="estimator", required=True)
    p_est.add_parser("nnls", parents=[draw], help="non-negative least squares")
    p_ml = p_est.add_parser("ml", parents=[draw], help="relaxed maximum likelihood")
    p_ml.add_argument("--init-nnls", action="store_true", help="initialize ml from the nnls estimate")

    p_exp = sub.add_parser("experiment", help="reproduce panels a-d and the radius / antenna-count table")
    p_exp.add_argument("outputs", nargs="+", choices=[*_RUNS, "all"], help="one or more outputs, or all")
    p_exp.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        failures = args.func(args, _load_config(args))
    except (CovactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.check_assert:
        return 0
    for failure in failures:
        print(f"ASSERT FAIL: {failure}", file=sys.stderr)
    return 2 if failures else 0
