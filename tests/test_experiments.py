"""Experiment harness: configs, panel runs, bounds table and the CLI."""

import itertools
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from covact import (
    BoundInputs,
    Codebook,
    FadingVector,
    HermitianMatrix,
    InvalidInput,
    MeasurementOperator,
    NotConverged,
    SetupFailed,
    build_deterministic_codebook,
    build_gaussian_codebook,
    check_sufficiently_convex,
    cli,
    coordinate_step,
    delta_radius,
    draw_sparse_fading,
    empirical_concentration,
    estimators,
    experiments,
    ml_objective,
    nth_prime,
    perturb_hermitian,
    sample_complex_gaussian,
    simulate_measurements,
    skc,
    stream,
    tau_prime,
    tau_prime_curve,
    threshold_detect,
    trace_logdet_tuple,
)
from covact.cli import main
from covact.config import ExperimentConfig, parse_config
from covact.experiments import (
    _kernel_screen,
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

# CSVs of tiny_config recorded before the estimator, tau' and panel-loop
# kernels were merged; the refactors must reproduce them.
GOLDEN = Path(__file__).parent / "golden"
SMALL_OP = MeasurementOperator(build_gaussian_codebook(2, 4, 0))


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        M=2,
        N=6,
        skc_order=1,
        s_values=(1, 2),
        k_grid=(50, 100, 200),
        # Rank-one signal parts pin lam_min at sigma_scale, so the
        # perturbation budget must stay below it.
        rho_grid=(1e-4, 3e-4, 1e-3),
        trials_fig_b=2,
        trials_fig_c=2,
        trials_fig_d=2,
        sigma_scale=0.01,
        seed=7,
    )


@pytest.fixture(scope="module")
def tiny_verified(tiny_config):
    return verified_codebook(tiny_config)


class TestConfig:
    def test_defaults_match_simulation_study(self):
        cfg = ExperimentConfig()
        assert (cfg.M, cfg.N, cfg.skc_order) == (4, 17, 7)
        assert cfg.sigma_scale == pytest.approx(1e-4)
        assert cfg.while_iterations == 100

    def test_validation(self):
        for bad in (
            {"trials_fig_b": 0},
            {"sigma_scale": 0.0},
            {"sigma_scale": math.nan},
            {"eta": 0.0},
            {"eta": math.nan},
            {"bernstein_c": math.nan},
            {"bernstein_c": math.inf},
            {"k_grid": ()},
            {"estimators": ("magic",)},
            {"estimators": ()},
            {"estimators": ("nnls", "nnls")},
            {"s_values": (0, 1)},
            {"s_values": (1, 18)},
            {"skc_order": 17},
            {"k_grid": (0, 250)},
            {"rho_grid": (-1e-4, 1e-3)},
            {"rho_grid": (1e-4, math.inf)},
            {"rho_grid": (math.nan,)},
            {"bounds_eps_grid": (0.0, 1e-6)},
            {"bounds_eps_grid": (1e-6, math.inf)},
            {"while_iterations": 0},
            {"max_codebook_draws": 0},
            {"seed": -1},
            {"tau_method": "fast"},
        ):
            (name,) = bad
            with pytest.raises(InvalidInput, match=name):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"M": 4.0},
            {"N": 17.0},
            {"skc_order": 7.0},
            {"trials_fig_b": 2.5},
            {"trials_fig_c": 2.5},
            {"trials_fig_d": 2.0},
            {"while_iterations": 3.5},
            {"max_codebook_draws": 2.0},
            {"trials_fig_b": True},
            {"s_values": (1, 2.5)},
            {"k_grid": (250.0, 500)},
        ],
    )
    def test_counts_and_grid_entries_must_be_integers(self, bad):
        (name,) = bad
        with pytest.raises(InvalidInput, match=name):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (draw_sparse_fading, (6, 2.5, 0)),
            (draw_sparse_fading, (6.5, 2, 0)),
            (build_gaussian_codebook, (2.5, 6, 0)),
            (build_gaussian_codebook, (2, 6.0, 0)),
            (build_deterministic_codebook, (2.5, 6)),
            (build_deterministic_codebook, (2, 6.0)),
            (nth_prime, (2.5,)),
            (tau_prime, (SMALL_OP.stacked_real(), 2.5)),
            (tau_prime_curve, (SMALL_OP.stacked_real(), 2.5)),
            (sample_complex_gaussian, (np.eye(2), 2.5, 0)),
            (simulate_measurements, (SMALL_OP.codebook, draw_sparse_fading(4, 1, 0), np.eye(2), 2.5, 0)),
            (empirical_concentration, (np.eye(2), 10, 0.1, 2.5, 0)),
            (BoundInputs, (0.5, 2.5, 0.25, 1.0, 0.5, 2.5, 0.9, 1.0, 1.0)),
            (FadingVector, (np.array([1.0, 0.0, 0.0]), 1.5)),
            (FadingVector, (np.zeros(9), True)),
            (empirical_concentration, (np.eye(2), 10, math.nan, 3, 0)),
            (empirical_concentration, (np.eye(2), 10, -1.0, 3, 0)),
        ],
        ids=["fading-S", "fading-N", "gaussian-M", "gaussian-N", "deterministic-M", "deterministic-N", "nth_prime", "tau_prime",
             "tau_prime_curve", "sample_complex_gaussian-K", "simulate_measurements-K", "empirical_concentration-trials", "bound_inputs-dim",
             "fading_vector-sparsity", "fading_vector-bool-sparsity", "empirical_concentration-nan-xi", "empirical_concentration-negative-xi"],
    )
    def test_library_counts_must_be_integers(self, fn, args):
        # The rule the config applies to its counts holds at every public function taking one;
        # the radius of empirical_concentration must be a nonnegative number.
        with pytest.raises(InvalidInput):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (Codebook, ([["a", "b"]],)),
            (FadingVector, (["a"], 1)),
            (HermitianMatrix, ([["a"]],)),
            (ml_objective, (SMALL_OP, np.eye(2), np.eye(2), ["a"] * 4)),
            (coordinate_step, (["a", "b"], np.eye(2), np.eye(2), 0.0)),
            (perturb_hermitian, (np.eye(2), None, 0)),
            (delta_radius, ("nice", "x", BoundInputs(0.5, 2.5, 0.25, 1.0, 0.5, 2, 0.9, 1.0, 1.0), trace_logdet_tuple())),
            (threshold_detect, (np.ones(3), None, {0})),
            (threshold_detect, (np.ones((2, 3)), 0.5, {0})),
            (check_sufficiently_convex, (trace_logdet_tuple(), [0.1, 0.2, 0.5, 0.8, math.nan, 1.5, 2.0, 5.0, 10.0])),
            (check_sufficiently_convex, (trace_logdet_tuple(), [0.1, 0.2, 0.5, 0.8, 1.0, 1.5, 2.0, 5.0, math.inf])),
        ],
        ids=["codebook-text", "fading_vector-text", "hermitian-text", "ml_objective-text-z", "coordinate_step-text-a_n",
             "perturb_hermitian-none-rho", "delta_radius-text-eps", "threshold_detect-none-eps",
             "threshold_detect-matrix-z", "check_sufficiently_convex-nan-grid", "check_sufficiently_convex-inf-grid"],
    )
    def test_library_arrays_and_magnitudes_must_be_finite_numbers(self, fn, args):
        # The array and magnitude rules raise InvalidInput for text, None, extra axes and non-finite grid points,
        # never a NumPy or comparison error, and never a report that blames the penalty for the grid.
        with pytest.raises(InvalidInput):
            fn(*args)

    def test_numpy_integer_counts_and_grids(self):
        cfg = ExperimentConfig(M=np.int64(4), trials_fig_b=np.int32(3), k_grid=tuple(np.array([250, 500])))
        assert (cfg.M, cfg.trials_fig_b, cfg.k_grid) == (4, 3, (250, 500))

    def test_parse_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # comment line
            M = 3
            N = 9            # trailing comment
            skc_order = 2
            k_grid = 10, 20, 40
            sigma_scale = 0.5
            estimators = nnls, ml_nnls
            """
        )
        cfg = parse_config(path)
        assert cfg.M == 3 and cfg.N == 9
        assert cfg.k_grid == (10, 20, 40)
        assert cfg.sigma_scale == pytest.approx(0.5)
        assert cfg.estimators == ("nnls", "ml_nnls")

    def test_parse_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 2\n")
        with pytest.raises(InvalidInput):
            parse_config(path)

    def test_parse_rejects_a_line_without_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = 17\nM 4\n")
        with pytest.raises(InvalidInput, match=r"bad.cfg:2: expected 'key = value', got 'M 4'"):
            parse_config(path)

    def test_parse_rejects_out_dir(self, tmp_path):
        # The output directory is chosen by the CLI's --out alone.
        path = tmp_path / "out.cfg"
        path.write_text("out_dir = results\n")
        with pytest.raises(InvalidInput, match="unknown configuration key 'out_dir'"):
            parse_config(path)

    def test_parse_rejects_a_key_set_twice(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("trials_fig_b = 5\nM = 4\ntrials_fig_b = 7\n")
        with pytest.raises(InvalidInput, match=r"twice.cfg:3: 'trials_fig_b' is set again; line 1 first set it"):
            parse_config(path)

    def test_parse_rejects_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = 17\nM = four\n")
        with pytest.raises(InvalidInput, match=r"bad.cfg:2: bad value 'four' for 'M'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("skc_order = 20", "skc_order must be an integer of at least 1 and at most 16, got 20"),
            ("tau_method = fast", "tau_method must be 'exact' or 'heuristic'"),
            ("k_grid = 250, 0", "k_grid entry must be an integer of at least 1, got 0"),
        ],
        ids=["skc_order", "tau_method", "k_grid"],
    )
    def test_parse_names_the_file_of_a_value_the_config_rejects(self, tmp_path, line, message):
        # A value that parses but fails ExperimentConfig's checks names the file too.
        path = tmp_path / "checked.cfg"
        path.write_text(f"N = 17\n{line}\n")
        with pytest.raises(InvalidInput) as info:
            parse_config(path)
        assert str(info.value) == f"{path}: {message}"

    def test_metadata_lines_cover_fields(self):
        lines = ExperimentConfig().metadata_lines()
        assert any(line.startswith("# seed = ") for line in lines)
        assert any(line.startswith("# trials_fig_b = ") for line in lines)


class TestHeuristicSearch:
    def test_accepts_the_verified_draw(self, default_config, verified):
        # The benchmark's set-up finds the panels' codebook this way.
        found = verified_codebook(replace(default_config, tau_method="heuristic"))
        assert found.draws_used == 4
        assert np.array_equal(found.codebook.columns, verified.codebook.columns)
        assert all(h.tau_prime >= e.tau_prime for h, e in zip(found.reports, verified.reports, strict=True))
        stacked = MeasurementOperator(found.codebook).stacked_real()
        for order, report in enumerate(found.reports, start=1):
            single = tau_prime(stacked, order, method="heuristic")
            assert (report.tau_prime, report.lower_bound, report.method) == (single.tau_prime, 0.0, "heuristic")
            assert np.array_equal(report.witness_z, single.witness_z)
            assert np.array_equal(report.witness_x, single.witness_x)

    def test_reports_match_golden(self, default_config, stacked_calls):
        # draws_used and every report at 17 digits for seeds 0-9, recorded
        # while each order's heuristic still ran as its own tau_prime call.
        # The first read of the reports computes orders 1-6 in one stacked
        # call; a second read computes nothing.
        texts = []
        for seed in range(10):
            found = verified_codebook(replace(default_config, seed=seed, tau_method="heuristic"))
            searched = len(stacked_calls)
            texts.append(f"seed = {seed}\ndraws_used = {found.draws_used}\n" + "".join(r.as_text() for r in found.reports))
            assert found.reports is found.reports
            assert stacked_calls[searched:] == [[1, 2, 3, 4, 5, 6]]
        assert "\n".join(texts) == (GOLDEN / "heuristic_search.txt").read_text()

    def test_panels_b_to_d_and_the_bound_table_compute_no_missing_order(self, tiny_config, stacked_calls, monkeypatch):
        # They read the codebook, and the bound table the report at
        # skc_order, so orders 1-2 of this order-3 certificate stay uncomputed.
        cfg = replace(tiny_config, M=3, N=10, skc_order=3, tau_method="heuristic")
        found = verified_codebook(cfg)
        del stacked_calls[:]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a worker's call would not be seen
        for run in (run_figure_b, run_figure_c, run_figure_d):
            run(cfg, found)
        with pytest.raises(InvalidInput, match="needs a certified tau'"):
            run_bounds_table(cfg, found)
        assert stacked_calls == []
        assert [r.order for r in found.reports] == [1, 2, 3, 4]
        assert stacked_calls == [[1, 2]]

    def test_an_exact_certificate_computes_nothing_when_read(self, verified, stacked_calls):
        assert [verified.report(order) for order in range(1, 9)] == list(verified.reports)
        assert stacked_calls == []

    def test_exact_search_accepts_only_a_certified_bound(self, default_config, verified, monkeypatch):
        # A tolerance inside the published draw's bracket at order 7: the exact
        # search needs the certified lower end above it, the heuristic only
        # its tau', an upper bound.
        report = verified.report(7)
        tol = (report.lower_bound + report.tau_prime) / 2
        assert report.lower_bound < tol < report.tau_prime
        monkeypatch.setattr(experiments, "SKC_POSITIVE_TOL", tol)
        cfg = replace(default_config, max_codebook_draws=verified.draws_used)
        with pytest.raises(SetupFailed):
            verified_codebook(cfg)
        found = verified_codebook(replace(cfg, tau_method="heuristic"))
        assert found.draws_used == verified.draws_used
        assert np.array_equal(found.codebook.columns, verified.codebook.columns)

    def test_computes_each_order_once_per_draw(self, default_config, monkeypatch):
        # A draw's search computes the orders its acceptance reads: the
        # heuristic screen at skc_order, reused as the certificate's report,
        # and one stacked call at skc_order + 1.  The first read of the
        # reports computes the other orders in one more stacked call.
        calls, real, real_stacked = [], experiments.tau_prime, experiments.tau_prime_heuristic

        def counted(stacked, order, method="exact"):
            calls.append((stacked, [order]))  # keeps each stacked alive, so ids stay distinct
            return real(stacked, order, method=method)

        def counted_stacked(stacked, orders):
            calls.append((stacked, list(orders)))
            return real_stacked(stacked, orders)

        monkeypatch.setattr(experiments, "tau_prime", counted)
        monkeypatch.setattr(experiments, "tau_prime_heuristic", counted_stacked)
        found = verified_codebook(replace(default_config, tau_method="heuristic"))
        search = [orders for _, orders in calls]
        assert search[-2:] == [[7], [8]] and set(map(tuple, search)) == {(7,), (8,)}
        assert len(found.reports) == 8
        assert [orders for _, orders in calls[len(search):]] == [[1, 2, 3, 4, 5, 6]]
        pairs = [(id(stacked), order) for stacked, orders in calls for order in orders]
        assert len(set(pairs)) == len(pairs)

    def test_worker_processes_give_the_serial_reports(self, default_config, monkeypatch):
        cfg = replace(default_config, tau_method="heuristic")

        def search():
            found = verified_codebook(cfg)
            return found.draws_used, [report.as_text() for report in found.reports]

        def no_pool(*args, **kwargs):
            raise AssertionError("the heuristic search started worker processes")

        # The search runs in this process whatever the number of CPUs.
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        reports = search()
        assert multiprocessing.active_children() == []
        # A local wrapper around tau_prime, as the benchmark's tracer installs,
        # changes nothing.
        real = experiments.tau_prime
        monkeypatch.setattr(experiments, "tau_prime", lambda *args, **kwargs: real(*args, **kwargs))
        assert search() == reports
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert search() == reports


class TestKernelScreen:
    @staticmethod
    def simulation_draw(seed, draw):
        return MeasurementOperator(build_gaussian_codebook(4, 17, stream(seed, "codebook", draw))).stacked_real()

    def test_bound_covers_the_certified_constant(self, verified, monkeypatch):
        # The screen passes when its upper bound on tau'(order) exceeds the
        # tolerance, so with the certified tau'(7) as tolerance it must pass.
        monkeypatch.setattr(experiments, "SKC_POSITIVE_TOL", verified.report(7).tau_prime)
        assert _kernel_screen(MeasurementOperator(verified.codebook).stacked_real(), 7)

    def test_small_kernel_entry_does_not_reject(self):
        # Seed 5, draw 1: the smallest kernel entry is 3.5e-4, yet the exact
        # certificate holds (tau'(7) = 8.9e-3).
        assert _kernel_screen(self.simulation_draw(5, 1), 7)

    def test_rejects_a_bound_below_the_tolerance(self):
        # Seed 2024, draw 0: the right sign split, but tau'(7) <= 3.2e-4.
        assert not _kernel_screen(self.simulation_draw(2024, 0), 7)


class TestPanels:
    def test_figure_a_columns_and_determinism(self, tiny_config, tiny_verified):
        text = run_figure_a(tiny_config, tiny_verified)
        again = run_figure_a(tiny_config, tiny_verified)
        assert text == again
        _, header, rows = parse_csv(text)
        assert header == ["S", "tau_prime", "err_nnls", "err_ml", "err_ml_nnls"]
        assert [int(r[0]) for r in rows] == [1, 2]

    def test_figure_b_runs(self, tiny_config, tiny_verified):
        text = run_figure_b(tiny_config, tiny_verified)
        _, header, rows = parse_csv(text)
        assert header[0] == "S"
        assert len(rows) == len(tiny_config.s_values)
        # Exact observations at the certified order recover to high accuracy.
        assert rows[0][header.index("err_nnls")] <= 1e-6

    def test_figure_c_runs(self, tiny_config, tiny_verified):
        text = run_figure_c(tiny_config, tiny_verified)
        _, header, rows = parse_csv(text)
        assert header == ["rho", "err_nnls", "err_ml_nnls"]
        assert len(rows) == len(tiny_config.rho_grid)

    def test_figure_c_fails_its_set_up_when_no_draw_stays_positive_definite(self, tiny_config, tiny_verified):
        # A perturbation budget of 1.05 * 0.02 is above every lam_min, which
        # the rank-one signal parts pin at sigma_scale = 0.01.  One trial runs in-process.
        with pytest.raises(SetupFailed, match="no fading draw keeps the perturbed observation positive definite"):
            run_figure_c(replace(tiny_config, rho_grid=(0.02,), trials_fig_c=1), tiny_verified)

    def test_figure_d_runs(self, tiny_config, tiny_verified):
        text = run_figure_d(tiny_config, tiny_verified)
        _, header, rows = parse_csv(text)
        assert header == ["K", "inv_sq_err_nnls", "inv_sq_err_ml_nnls"]
        assert len(rows) == len(tiny_config.k_grid)

    @pytest.mark.parametrize("run", [run_figure_b, run_figure_c, run_figure_d])
    def test_worker_processes_emit_the_serial_bytes(self, tiny_config, tiny_verified, monkeypatch, run):
        # (CPUs, grid points, trials): pairs that split evenly into the
        # shares, pairs that do not, and fewer pairs than CPUs.
        for cpus, points, trials in (({0, 1, 2}, 3, 2), ({0, 1}, 3, 3), ({0, 1, 2}, 2, 2), ({0, 1, 2}, 1, 2)):
            grids = {"s_values": (1, 2, 3), "rho_grid": tiny_config.rho_grid, "k_grid": tiny_config.k_grid}
            cfg = replace(
                tiny_config,
                **{field: grid[:points] for field, grid in grids.items()},
                **dict.fromkeys(("trials_fig_b", "trials_fig_c", "trials_fig_d"), trials),
            )
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            pooled = run(cfg, tiny_verified)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert run(cfg, tiny_verified) == pooled, (cpus, points, trials)

    @pytest.mark.parametrize(
        "run, grid, ml_runs_per_trial", [(run_figure_b, "s_values", 2), (run_figure_c, "rho_grid", 1), (run_figure_d, "k_grid", 1)]
    )
    def test_serial_panel_runs_one_ml_batch(self, tiny_config, tiny_verified, monkeypatch, run, grid, ml_runs_per_trial):
        batches, real = [], experiments.ml_coordinate_descent_batch

        def counted(op, Sigma, Ws, permutations, z0s, while_iterations):
            batches.append(len(Ws))
            return real(op, Sigma, Ws, permutations, z0s, while_iterations)

        monkeypatch.setattr(experiments, "ml_coordinate_descent_batch", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run(tiny_config, tiny_verified)
        # Every ML run of every grid point and of its two trials goes through the one batch.
        assert batches == [len(getattr(tiny_config, grid)) * 2 * ml_runs_per_trial]

    @pytest.mark.parametrize("run, grid", [(run_figure_b, "s_values"), (run_figure_c, "rho_grid"), (run_figure_d, "k_grid")])
    def test_serial_panel_runs_one_nnls_batch(self, tiny_config, tiny_verified, monkeypatch, run, grid):
        batches, real = [], experiments.nnls_estimate_batch

        def counted(op, Sigma, Ws):
            batches.append(len(Ws))
            return real(op, Sigma, Ws)

        monkeypatch.setattr(experiments, "nnls_estimate_batch", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run(tiny_config, tiny_verified)
        # Every NNLS solve of every grid point and of its two trials goes through the one batch.
        assert batches == [len(getattr(tiny_config, grid)) * 2]

    def test_worker_failure_reaches_the_caller(self, tiny_config, tiny_verified, monkeypatch):
        cfg = replace(tiny_config, s_values=(1, 2, 3))
        op = MeasurementOperator(tiny_verified.codebook)
        _, failing = experiments._observe(cfg, op, experiments._noise_covariance(cfg), 2, 0, "figure-b", 2, 0)
        z, real = np.arange(cfg.N, dtype=float), experiments.nnls_estimate_batch

        def nnls_failing_at_s2(op, Sigma, Ws):
            if any(np.array_equal(W.values, failing.values) for W in Ws):
                raise NotConverged("NNLS budget spent at S = 2", z=z, residual=0.25)
            return real(op, Sigma, Ws)

        # Worker processes are forked, so they inherit both patches.
        monkeypatch.setattr(experiments, "nnls_estimate_batch", nnls_failing_at_s2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(NotConverged) as caught:
            run_figure_b(cfg, tiny_verified)
        assert caught.value.args == ("NNLS budget spent at S = 2",)
        np.testing.assert_array_equal(caught.value.z, z)
        assert caught.value.residual == 0.25
        # The error was raised in a worker: its traceback travels as the cause.
        assert "nnls_failing_at_s2" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_runners_write_no_file(self, tiny_config, tiny_verified, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_figure_a(tiny_config, tiny_verified)
        run_bounds_table(tiny_config, tiny_verified)
        assert list(tmp_path.iterdir()) == []


def same_fields(result, other):
    return all(np.array_equal(getattr(result, f.name), getattr(other, f.name)) for f in fields(result))


class TestPublishedBatchSizes:
    """A trial's estimates keep their bits in batches of the panels' sizes.

    NumPy picks the memory layout of a large elementwise result by its size,
    and later matmuls and reductions round by layout, so a batch of small
    trials alone cannot show that the batch size moves no bit.
    """

    ROWS = (0, 1, 2, 17, 255, 511, 599, 600, 1024, 1599)

    def test_rows_equal_their_batch_of_one(self, default_config, verified):
        cfg = replace(default_config, while_iterations=2)
        op = MeasurementOperator(verified.codebook)
        Sigma = experiments._noise_covariance(cfg)
        observe = experiments._PANELS["figure_b"][2]  # panel b's own draw: A(x) + Sigma, K = 0
        pairs = [(cfg.s_values[trial % len(cfg.s_values)], trial) for trial in range(max(self.ROWS) + 1)]
        observations = [observe(cfg, op, Sigma, S, trial)[1] for S, trial in pairs]

        def run(rows):
            streams = [stream(cfg.seed, "figure-b", *pairs[i], "perm") for i in rows]
            return experiments._run_estimators(op, Sigma, [observations[i] for i in rows], ("nnls", "ml", "ml_nnls"), cfg, streams)

        alone = {i: run([i]) for i in self.ROWS}
        for T in (1, 600, 1600):
            _, W, _ = estimators._boundary(op, Sigma, observations[:T])
            _, _, z = estimators._boundary(op, Sigma, observations[:T], np.ones((T, op.num_users)))
            assert W.flags.c_contiguous and z.flags.c_contiguous
            batch = run(range(T))
            for i in (i for i in self.ROWS if i < T):
                for name, results in batch.items():
                    assert same_fields(results[i], alone[i][name][0]), (T, i, name)


ESTIMATORS = ("nnls", "ml", "ml_nnls")


class TestRunEstimators:
    @pytest.mark.parametrize("names", [names for k in (1, 2, 3) for names in itertools.combinations(ESTIMATORS, k)], ids="-".join)
    def test_every_subset_matches_the_full_run(self, default_config, verified, monkeypatch, names):
        op = MeasurementOperator(verified.codebook)
        Sigma = experiments._noise_covariance(default_config)
        observe = experiments._PANELS["figure_b"][2]
        pairs = [(default_config.s_values[trial % len(default_config.s_values)], trial) for trial in range(6)]
        observations = [observe(default_config, op, Sigma, S, trial)[1] for S, trial in pairs]

        def run(names):
            streams = [stream(default_config.seed, "figure-b", *pair, "perm") for pair in pairs]
            return experiments._run_estimators(op, Sigma, observations, names, default_config, streams)

        full = run(ESTIMATORS)
        calls = []
        for batch in ("nnls_estimate_batch", "ml_coordinate_descent_batch"):
            real = getattr(experiments, batch)
            monkeypatch.setattr(experiments, batch, lambda *args, real=real, batch=batch: calls.append(batch) or real(*args))
        results = run(names)
        assert tuple(results) == names
        for name in names:
            assert len(results[name]) == len(observations)
            assert all(same_fields(result, other) for result, other in zip(results[name], full[name])), name
        assert calls.count("nnls_estimate_batch") == ("nnls" in names or "ml_nnls" in names)
        assert calls.count("ml_coordinate_descent_batch") == 1


class TestGolden:
    @pytest.mark.parametrize(
        "name, run",
        [
            ("figure_a", run_figure_a),
            ("figure_b", run_figure_b),
            ("figure_c", run_figure_c),
            ("figure_d", run_figure_d),
            ("bounds", run_bounds_table),
        ],
    )
    def test_matches_recorded_csv(self, tiny_config, tiny_verified, name, run):
        meta, header, rows = parse_csv(run(tiny_config, tiny_verified))
        gold_meta, gold_header, gold_rows = parse_csv((GOLDEN / f"{name}.csv").read_text())
        assert meta == gold_meta
        assert header == gold_header
        # atol only admits rounding-level values (exact recoveries near 1e-16).
        np.testing.assert_allclose(rows, gold_rows, rtol=1e-12, atol=1e-14)


class TestBoundsTable:
    def test_columns_and_orderings(self, tiny_config, tiny_verified):
        text = run_bounds_table(tiny_config, tiny_verified)
        meta, header, rows = parse_csv(text)
        assert header == ["eps", "delta_nice", "delta_c", "delta_tld", "delta_skc", "k0_nnls", "k0_ml"]
        assert any(line.startswith("# seed") for line in meta)
        idx = {name: header.index(name) for name in header}
        beta = None
        for row in rows:
            assert row[idx["k0_ml"]] >= row[idx["k0_nnls"]]
            for name in ("delta_nice", "delta_c", "delta_tld", "delta_skc"):
                assert row[idx[name]] > 0
        # All radii are capped by beta, which upper-bounds every column.
        deltas = np.array([[row[idx[n]] for n in ("delta_nice", "delta_c", "delta_tld", "delta_skc")] for row in rows])
        assert deltas.max() <= max(row[idx["delta_nice"]] for row in rows) + 1e-12

    def test_refuses_a_heuristic_certificate(self, tiny_config):
        # Its tau' is an upper bound; the radii and thresholds need a lower one.
        found = verified_codebook(replace(tiny_config, tau_method="heuristic"))
        with pytest.raises(InvalidInput, match="the bound table needs a certified tau' \\(tau_method = exact\\)"):
            run_bounds_table(tiny_config, found)

    def test_skc_halves_with_eps_in_linear_regime(self, tiny_config, tiny_verified):
        text = run_bounds_table(tiny_config, tiny_verified)
        _, header, rows = parse_csv(text)
        eps = [row[header.index("eps")] for row in rows]
        skc = [row[header.index("delta_skc")] for row in rows]
        # The default grid doubles eps; in the linear regime the radius doubles.
        assert skc[1] / skc[0] == pytest.approx(2.0, abs=1e-6)
        assert skc[0] / (eps[0]) == pytest.approx(skc[1] / eps[1], rel=1e-6)


class TestHelpers:
    def test_loglog_slope(self):
        x = np.array([1.0, 10.0, 100.0])
        assert loglog_slope(x, 3.0 * x) == pytest.approx(1.0)
        assert loglog_slope(x, 5.0 / x) == pytest.approx(-1.0)

    def test_linear_fit_r2(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert linear_fit_r2(x, 2 * x + 1) == pytest.approx(1.0)
        rng = np.random.default_rng(0)
        assert linear_fit_r2(x, rng.standard_normal(4)) <= 1.0

    @pytest.mark.parametrize(
        "fit, x, y",
        [(loglog_slope, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), (linear_fit_r2, [100], [3.0])],
        ids=["log-of-zero", "one-point"],
    )
    def test_fit_rejects_ill_posed_input(self, fit, x, y):
        with pytest.raises(InvalidInput):
            fit(x, y)


def verified_with(ends):
    """A certificate whose report of order k + 1 has the (tau_prime, lower_bound, method) of ends[k]."""
    reports = (skc.SkcReport(k + 1, tau, lower, np.zeros(2), np.zeros(2), method) for k, (tau, lower, method) in enumerate(ends))
    return experiments.VerifiedCodebook(Codebook(np.eye(2)), tuple(reports), 1)


class TestBrokenRules:
    """The --assert rules on hand-written panel and bound CSVs (skc_order = 2)."""

    @pytest.mark.parametrize(
        "kind, text, ends, failures",
        [
            (
                # A heuristic tau' only bounds the constant from above, so no
                # order through skc_order passes on it, however large.
                "a",
                "S,tau_prime,err_nnls,err_ml,err_ml_nnls\n1,0.5,0,1,0\n2,1e-4,0.002,1,0\n3,0.5,1,1,1\n",
                [(0.5, 0.0, "heuristic"), (1e-4, 0.0, "heuristic"), (0.5, 0.0, "heuristic")],
                [
                    "tau_prime at S=1 is uncertified: tau_method = heuristic gives an upper bound",
                    "tau_prime at S=2 is uncertified: tau_method = heuristic gives an upper bound",
                    "err_nnls at S=2 exceeds 1e-3",
                    "tau_prime at S=3 is 5.000e-01, not below 1e-06",
                ],
            ),
            (
                # The CSV prints the exact method's tau_prime, the upper end of
                # its bracket; the order is accepted on the certified lower end.
                "a",
                "S,tau_prime,err_nnls,err_ml,err_ml_nnls\n1,0.5,0,1,0\n2,0.5,0,1,0\n3,0,1,1,1\n",
                [(0.5, 0.4, "exact-enumeration"), (0.5, 1e-4, "exact-enumeration"), (0.0, 0.0, "exact-enumeration")],
                ["lower_bound at S=2 is 1.000e-04, not above 0.001"],
            ),
            (
                "d",
                "K,inv_sq_err_nnls,inv_sq_err_ml_nnls\n100,1,1\n200,2,9\n300,3,1\n",
                None,
                ["R^2 of inv_sq_err_ml_nnls against K is 0.000, below 0.9"],
            ),
            ("d", "K,inv_sq_err_nnls,inv_sq_err_ml_nnls\n100,1,2\n200,2,4\n400,4,8.5\n", None, []),
            ("bounds", "eps,k0_nnls,k0_ml\n1e-06,10,20\n2e-06,10,5\n", None, ["k0_ml < k0_nnls at eps = 2.000e-06"]),
        ],
        ids=["a-tau-and-error", "a-exact-lower-bound", "d-r2-fails", "d-r2-passes", "bounds-k0"],
    )
    def test_failures(self, kind, text, ends, failures):
        verified = ends and verified_with(ends)
        assert cli._broken_rules(kind, "# seed = 1\n" + text, ExperimentConfig(skc_order=2), verified) == failures


class TestCli:
    def test_codebook_build_writes_csv(self, tmp_path):
        code = main(["--out", str(tmp_path), "--seed", "3", "codebook", "build", "--kind", "deterministic"])
        assert code == 0
        assert (tmp_path / "codebook.csv").exists()

    def test_codebook_check_deterministic_order_one(self, capsys):
        code = main(["--assert", "tau", "--kind", "deterministic", "--order", "1", "--tol", "0"])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("order = 1\n") and err == ""

    def test_exact_tau_fails_unless_its_lower_bound_is_above_tol(self, capsys):
        report = tau_prime(MeasurementOperator(build_deterministic_codebook(4, 17)).stacked_real(), 1)
        tol = (report.lower_bound + report.tau_prime) / 2
        assert report.lower_bound < tol < report.tau_prime
        args = ["--assert", "tau", "--kind", "deterministic", "--order", "1", "--tol", repr(tol)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"ASSERT FAIL: lower_bound at order 1 is {report.lower_bound:.3e}, not above {tol}\n"
        assert main([*args, "--method", "heuristic"]) == 0

    @pytest.mark.parametrize("seed", [1, 3])
    def test_tau_matches_golden(self, capsys, seed):
        # tau', its certified lower end and both witnesses at 17 digits, on the
        # default configuration's first draw beyond the published seed.
        assert main(["--seed", str(seed), "tau", "--order", "8"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "cli" / f"tau_seed{seed}" / "stdout.txt").read_text()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_heuristic_tau_matches_golden(self, capsys, seed):
        # The heuristic's tau' and witnesses at 17 digits on the same draws.
        assert main(["--seed", str(seed), "tau", "--method", "heuristic", "--order", "8"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "cli" / f"tau_heuristic_seed{seed}" / "stdout.txt").read_text()

    def test_tau_command_writes_report(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--seed", "5", "tau", "--kind", "deterministic", "--order", "1"])
        assert code == 0
        assert "lower_bound = " in (tmp_path / "tau_order1.txt").read_text()

    def test_estimate_nnls(self, tmp_path, config_file_tiny, capsys):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "estimate", "nnls", "--sparsity", "1"])
        assert code == 0
        assert (tmp_path / "estimate_nnls.csv").exists()

    def test_estimate_ml_with_trace(self, tmp_path, config_file_tiny):
        code = main(
            ["--config", config_file_tiny, "--out", str(tmp_path), "estimate", "ml", "--sparsity", "1", "--init-nnls"]
        )
        assert code == 0
        assert (tmp_path / "estimate_ml.csv").exists()
        assert (tmp_path / "trace_ml.csv").exists()

    @pytest.mark.parametrize(
        "case, args",
        [
            (f"{name}_k{antennas}", [*estimator, "--antennas", str(antennas)])
            for name, estimator in (("nnls", ["nnls"]), ("ml", ["ml"]), ("ml_init_nnls", ["ml", "--init-nnls"]))
            for antennas in (0, 100)
        ],
    )
    def test_estimate_matches_golden(self, tmp_path, config_file_tiny, capsys, case, args):
        # stdout and every written file, byte for byte, as recorded before
        # `estimate` ran through the harness's estimator runner.
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "estimate", *args])
        assert code == 0
        gold = GOLDEN / "cli" / case
        assert capsys.readouterr().out == (gold / "stdout.txt").read_text()
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(p.name for p in gold.iterdir() if p.name != "stdout.txt")
        for name in written:
            assert (tmp_path / name).read_bytes() == (gold / name).read_bytes()

    def test_experiment_panel_a_with_assert(self, tmp_path, config_file_tiny):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "--assert", "experiment", "a"])
        assert code == 0
        assert (tmp_path / "figure_a.csv").exists()

    def test_bounds_command(self, tmp_path, config_file_tiny):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "--assert", "experiment", "bounds"])
        assert code == 0
        assert (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("args, name", [(["experiment", "a"], "figure_a"), (["experiment", "bounds"], "bounds")])
    def test_out_writes_the_printed_bytes_after_one_certification(
        self, tmp_path, config_file_tiny, capsys, certifications, args, name
    ):
        assert main(["--config", config_file_tiny, *args]) == 0
        printed = capsys.readouterr().out
        assert len(certifications) == 1
        assert main(["--config", config_file_tiny, "--out", str(tmp_path), *args]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / name}.csv\n"
        assert len(certifications) == 2
        assert [p.name for p in tmp_path.iterdir()] == [f"{name}.csv"]
        assert (tmp_path / f"{name}.csv").read_bytes() == printed.encode()

    def test_experiment_all_writes_the_bytes_of_single_calls_after_one_certification(
        self, tmp_path, config_file_tiny, capsys, certifications
    ):
        assert main(["--config", config_file_tiny, "experiment", "a", "b"]) == 1
        assert capsys.readouterr().err == "error: experiment a b writes 2 CSV files and needs --out\n"
        assert certifications == []
        together = tmp_path / "all"
        assert main(["--config", config_file_tiny, "--out", str(together), "experiment", "all"]) == 0
        names = [name for name, _ in cli._RUNS.values()]
        assert capsys.readouterr().out == "".join(f"wrote {together / name}.csv\n" for name in names)
        assert len(certifications) == 1
        for kind, (name, _) in cli._RUNS.items():
            assert main(["--config", config_file_tiny, "--out", str(tmp_path / kind), "experiment", kind]) == 0
            assert (together / f"{name}.csv").read_bytes() == (tmp_path / kind / f"{name}.csv").read_bytes()
        assert sorted(p.name for p in together.iterdir()) == sorted(f"{name}.csv" for name in names)

    def test_assert_reports_the_broken_rules_of_every_output(self, tmp_path, config_file_tiny, capsys):
        cfg = _tiny_with(config_file_tiny, tmp_path, "k_grid", "100")
        cfg = _tiny_with(cfg, tmp_path, "rho_grid", "0.0003")
        code = main(["--config", cfg, "--out", str(tmp_path), "--assert", "experiment", "d", "c"])
        assert code == 2
        assert capsys.readouterr().err == (
            "ASSERT FAIL: figure_c: the log-log slope against rho > 0 needs at least two grid values, got 1\n"
            "ASSERT FAIL: figure_d: the R^2 against K needs at least two grid values, got 1\n"
        )

    @pytest.mark.parametrize(
        "case, settings",
        [("figure_a_heuristic", {}), ("figure_a_heuristic_order3", {"M": 3, "N": 10, "skc_order": 3})],
    )
    def test_heuristic_figure_a_matches_golden(self, tmp_path, config_file_tiny, case, settings):
        # Recorded while a heuristic search still computed every order; at
        # order 3, orders 1-2 are computed when panel a reads them.
        cfg = _tiny_with(config_file_tiny, tmp_path, "tau_method", "heuristic")
        for key, value in settings.items():
            cfg = _tiny_with(cfg, tmp_path, key, value)
        assert main(["--config", cfg, "--out", str(tmp_path), "experiment", "a"]) == 0
        assert (tmp_path / "figure_a.csv").read_bytes() == (GOLDEN / "cli" / case / "figure_a.csv").read_bytes()

    def test_heuristic_config_fails_the_bound_table_and_panel_a_rule(self, tmp_path, config_file_tiny, capsys):
        cfg = _tiny_with(config_file_tiny, tmp_path, "tau_method", "heuristic")
        assert main(["--config", cfg, "--out", str(tmp_path), "experiment", "bounds"]) == 1
        assert capsys.readouterr().err == (
            "error: the bound table needs a certified tau' (tau_method = exact); tau_method = heuristic gives an upper bound\n"
        )
        assert not (tmp_path / "bounds.csv").exists()
        assert main(["--config", cfg, "--out", str(tmp_path), "--assert", "experiment", "a"]) == 2
        assert capsys.readouterr().err == (
            "ASSERT FAIL: figure_a: tau_prime at S=1 is uncertified: tau_method = heuristic gives an upper bound\n"
        )

    def test_an_eps_whose_squared_radius_overflows_gets_the_linear_threshold(self, tmp_path, config_file_tiny):
        # The square of tau * 1e200 overflows: it counts as inf, the quadratic
        # term as 0, and the other rows keep their bytes.
        texts = {}
        for grid in ("1e200, 1e-6", "1e-6"):
            cfg = _tiny_with(config_file_tiny, tmp_path, "bounds_eps_grid", grid)
            assert main(["--config", cfg, "--out", str(tmp_path), "experiment", "bounds"]) == 0
            texts[grid] = (tmp_path / "bounds.csv").read_text()
        _, header, rows = parse_csv(texts["1e200, 1e-6"])
        assert rows[0][0] == 1e200 and all(map(math.isfinite, rows[0]))
        assert rows[0][header.index("k0_ml")] >= 2  # M
        assert texts["1e200, 1e-6"].splitlines()[-1] == texts["1e-6"].splitlines()[-1]

    def test_an_eps_whose_squared_radius_underflows_is_an_error(self, tmp_path, config_file_tiny, capsys):
        cfg = _tiny_with(config_file_tiny, tmp_path, "bounds_eps_grid", "1e-300, 1e-6")
        assert main(["--config", cfg, "--out", str(tmp_path), "experiment", "bounds"]) == 1
        assert capsys.readouterr().err == "error: eps = 1e-300 is too small: the nnls threshold's radius squared underflows to 0\n"
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("kind", ["gaussian", "deterministic"])
    def test_codebook_build_matches_golden(self, tmp_path, config_file_tiny, kind):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "codebook", "build", "--kind", kind])
        assert code == 0
        assert (tmp_path / "codebook.csv").read_bytes() == (GOLDEN / "cli" / "codebook_build" / f"{kind}.csv").read_bytes()

    def test_negative_antennas_exit_code(self, tmp_path, config_file_tiny, capsys):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "estimate", "nnls", "--antennas", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: --antennas must be an integer of at least 0, got -5\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sparsity", ["0", "40"])
    def test_sparsity_out_of_range_names_its_flag(self, tmp_path, config_file_tiny, capsys, sparsity):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "estimate", "nnls", "--sparsity", sparsity])
        assert code == 1
        assert capsys.readouterr().err == f"error: --sparsity must be an integer of at least 1 and at most 6, got {sparsity}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [["codebook", "build", "--order", "3"], ["estimate", "nnls", "--init-nnls"]])
    def test_flags_a_command_ignores_exit_two(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            main(["--out", str(tmp_path), *args])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[2:])}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_readme_command_lines_parse(self):
        # Every `covact ...` line of README's CLI block, comments stripped, parses as written.
        text = (Path(__file__).parent.parent / "README.md").read_text()
        block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("covact ")]
        assert len(lines) == 8
        for words in lines:
            cli.build_parser().parse_args(words[1:])

    def test_python_m_covact_is_the_cli(self):
        # From a checkout, with src on the path, ``python -m covact`` runs the covact command.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        done = subprocess.run([sys.executable, "-m", "covact", "--help"], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: covact ")

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--seed", "-1", "codebook", "build"]) == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_error_exit_code(self, tmp_path):
        code = main(["--out", str(tmp_path), "tau", "--order", "40"])
        assert code == 1

    def test_malformed_codebook_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "codebook.csv"
        path.write_text("m,n,re,im\n1,1,1,0\n2,1,1,0\n1,2,1,0\n")
        assert main(["--out", str(tmp_path), "tau", "--file", str(path), "--order", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: entry 2,2 of the 2 x 2 matrix is missing\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("M = four\n")
        assert main(["--config", str(bad), "experiment", "bounds"]) == 1
        assert "error: " in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "missing.cfg"), "experiment", "bounds"]) == 1
        bad.write_text("bernstein_c = nan\n")
        assert main(["--config", str(bad), "--assert", "experiment", "bounds"]) == 1
        assert "bernstein_c" in capsys.readouterr().err

    def test_order_follows_config(self, tmp_path, config_file_tiny):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "tau"])
        assert code == 0
        assert "lower_bound = " in (tmp_path / "tau_order1.txt").read_text()

    def test_zero_rho_row_left_out_of_slope(self, tmp_path, config_file_tiny, capsys):
        # Panel c's streams are keyed by rho, so the positive rows are the same in both runs.
        outcomes = []
        for grid in ("0.0001, 0.0003, 0.001", "0.0, 0.0001, 0.0003, 0.001"):
            code = main(["--config", _tiny_with(config_file_tiny, tmp_path, "rho_grid", grid), "--assert", "experiment", "c"])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "panel, key, value, rule",
        [("c", "rho_grid", "0.0003", "the log-log slope against rho > 0"), ("d", "k_grid", "100", "the R^2 against K")],
    )
    def test_one_point_grid_fails_assert(self, tmp_path, config_file_tiny, capsys, panel, key, value, rule):
        code = main(["--config", _tiny_with(config_file_tiny, tmp_path, key, value), "--assert", "experiment", panel])
        assert code == 2
        assert capsys.readouterr().err == f"ASSERT FAIL: figure_{panel}: {rule} needs at least two grid values, got 1\n"

    def test_failed_check_exits_two(self, capsys):
        code = main(["--assert", "tau", "--kind", "deterministic", "--order", "2", "--tol", "1e9"])
        assert code == 2
        assert "ASSERT FAIL: " in capsys.readouterr().err


def _tiny_with(config_file, tmp_path, key, value) -> str:
    """Path of a copy of the tiny config file whose last line sets ``key = value`` in place of its own line."""
    lines = [line for line in Path(config_file).read_text().splitlines() if line.split("=")[0].strip() != key]
    path = tmp_path / f"{key}.cfg"
    path.write_text("".join(f"{line}\n" for line in [*lines, f"{key} = {value}"]))
    return str(path)


@pytest.fixture
def stacked_calls(monkeypatch):
    """The orders of each experiments.tau_prime_heuristic call, one entry per call."""
    calls, real = [], experiments.tau_prime_heuristic
    monkeypatch.setattr(experiments, "tau_prime_heuristic", lambda stacked, orders: calls.append(list(orders)) or real(stacked, orders))
    return calls


@pytest.fixture
def certifications(monkeypatch):
    """The configs that cli.verified_codebook is called with, one entry per call."""
    calls, real = [], cli.verified_codebook
    monkeypatch.setattr(cli, "verified_codebook", lambda cfg: calls.append(cfg) or real(cfg))
    return calls


@pytest.fixture(scope="module")
def config_file_tiny(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(
        "M = 2\nN = 6\nskc_order = 1\ns_values = 1, 2\nk_grid = 50, 100\n"
        "rho_grid = 0.0001, 0.0003, 0.001\ntrials_fig_b = 2\ntrials_fig_c = 2\ntrials_fig_d = 2\n"
        "sigma_scale = 0.01\nseed = 7\n"
    )
    return str(path)
