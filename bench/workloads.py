"""The benchmark's workloads: what each sets up and what one operation runs.

All workloads use the published configuration (M=4, N=17, order 7,
sigma^2=1e-4, default grids and trial counts) and the published codebook:
the Gaussian codebook found by the codebook search at the reference seed
2024.  The run's seed drives every other random draw (fading vectors,
coordinate orders, perturbations, channels and the bound-table instance).
Keeping the codebook fixed keeps the work of one operation comparable across
seeds: at seed-chosen codebooks the exact enumeration did 613k to 734k KKT
solves and panel b 33k to 40k cold ML sweeps, against 38k to 40k with the
codebook fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from covact import ExperimentConfig
from covact import experiments as ex

REFERENCE_SEED = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    outputs: tuple

    def trials(self, cfg: ExperimentConfig) -> int:
        """Estimator trials (observations solved) in one operation."""
        counts = {
            "figure_a": cfg.skc_order + 1,
            "figure_b": len(cfg.s_values) * cfg.trials_fig_b,
            "figure_c": len(cfg.rho_grid) * cfg.trials_fig_c,
            "figure_d": len(cfg.k_grid) * cfg.trials_fig_d,
            "bounds": 0,
        }
        return sum(counts[name] for name in self.outputs)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", ("figure_a", "bounds")),
        Workload("panels", ("figure_b", "figure_c", "figure_d")),
    )
}


def run_config(seed: int, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """The configuration of a run: the base config with the run's seed."""
    return replace(base or ExperimentConfig(), seed=seed)


def set_up(cfg: ExperimentConfig):
    """Find the published codebook with the heuristic screen (the panels' input).

    At the reference seed the heuristic search accepts the same draw as the
    exact one, so the panels see the certified codebook.
    """
    return ex.verified_codebook(replace(cfg, seed=REFERENCE_SEED, tau_method="heuristic"))


def run_operation(name: str, cfg: ExperimentConfig, published) -> dict:
    """One operation of a workload; returns the CSV text of each output."""
    if name == "certify":
        verified = ex.verified_codebook(replace(cfg, seed=REFERENCE_SEED))
        return {
            "figure_a": ex.run_figure_a(cfg, verified),
            "bounds": ex.run_bounds_table(cfg, verified),
        }
    if name == "panels":
        return {
            "figure_b": ex.run_figure_b(cfg, published),
            "figure_c": ex.run_figure_c(cfg, published),
            "figure_d": ex.run_figure_d(cfg, published),
        }
    raise KeyError(name)
