"""Experiment harness: configs, panel runs, bounds table and the CLI."""

from pathlib import Path

import numpy as np
import pytest

from covact import InvalidInput, MeasurementOperator, build_gaussian_codebook, experiments, stream
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
            {"k_grid": ()},
            {"estimators": ("magic",)},
            {"estimators": ()},
            {"estimators": ("nnls", "nnls")},
            {"s_values": (0, 1)},
            {"s_values": (1, 18)},
            {"skc_order": 17},
            {"k_grid": (0, 250)},
            {"rho_grid": (-1e-4, 1e-3)},
            {"bounds_eps_grid": (0.0, 1e-6)},
            {"while_iterations": 0},
            {"max_codebook_draws": 0},
        ):
            (name,) = bad
            with pytest.raises(InvalidInput, match=name):
                ExperimentConfig(**bad)

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

    def test_parse_rejects_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = 17\nM = four\n")
        with pytest.raises(InvalidInput, match=r"bad.cfg:2: bad value 'four' for 'M'"):
            parse_config(path)

    def test_metadata_lines_cover_fields(self):
        lines = ExperimentConfig().metadata_lines()
        assert any(line.startswith("# seed = ") for line in lines)
        assert any(line.startswith("# trials_fig_b = ") for line in lines)


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

    def test_figure_d_runs(self, tiny_config, tiny_verified):
        text = run_figure_d(tiny_config, tiny_verified)
        _, header, rows = parse_csv(text)
        assert header == ["K", "inv_sq_err_nnls", "inv_sq_err_ml_nnls"]
        assert len(rows) == len(tiny_config.k_grid)

    def test_outputs_written_to_directory(self, tiny_config, tiny_verified, tmp_path):
        from dataclasses import replace

        cfg = replace(tiny_config, out_dir=str(tmp_path))
        text = run_figure_a(cfg, tiny_verified)
        assert (tmp_path / "figure_a.csv").read_text() == text


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


class TestCli:
    def test_codebook_build_writes_csv(self, tmp_path):
        code = main(["--out", str(tmp_path), "--seed", "3", "codebook", "build", "--kind", "deterministic"])
        assert code == 0
        assert (tmp_path / "codebook.csv").exists()

    def test_codebook_check_deterministic_order_one(self, capsys):
        code = main(["codebook", "check", "--kind", "deterministic", "--order", "1", "--tol", "0"])
        assert code == 0
        assert "holds = True" in capsys.readouterr().out

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
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "--assert", "bounds"])
        assert code == 0
        assert (tmp_path / "bounds.csv").exists()

    def test_error_exit_code(self, tmp_path):
        code = main(["--out", str(tmp_path), "codebook", "check", "--order", "40"])
        assert code == 1

    def test_malformed_codebook_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "codebook.csv"
        path.write_text("m,n,re,im\n1,1,1,0\n2,1,1,0\n1,2,1,0\n")
        assert main(["--out", str(tmp_path), "tau", "--file", str(path), "--order", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: entry 2,2 of the 2 x 2 matrix is missing\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("M = four\n")
        assert main(["--config", str(bad), "bounds"]) == 1
        assert "error: " in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "missing.cfg"), "bounds"]) == 1

    def test_order_follows_config(self, tmp_path, config_file_tiny):
        code = main(["--config", config_file_tiny, "--out", str(tmp_path), "tau"])
        assert code == 0
        assert "lower_bound = " in (tmp_path / "tau_order1.txt").read_text()

    def test_failed_check_exits_two(self, capsys):
        code = main(["--assert", "codebook", "check", "--kind", "deterministic", "--order", "2", "--tol", "1e9"])
        assert code == 2
        assert "ASSERT FAIL: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def config_file_tiny(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(
        "M = 2\nN = 6\nskc_order = 1\ns_values = 1, 2\nk_grid = 50, 100\n"
        "rho_grid = 0.0001, 0.0003, 0.001\ntrials_fig_b = 2\ntrials_fig_c = 2\ntrials_fig_d = 2\n"
        "sigma_scale = 0.01\nseed = 7\n"
    )
    return str(path)
