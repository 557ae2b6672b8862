"""Self-tests of the benchmark at a tiny configuration.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

from covact import ExperimentConfig

import golden
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = ExperimentConfig(
    M=2,
    N=5,
    skc_order=1,
    s_values=(1, 2),
    k_grid=(250, 1000),
    rho_grid=(1e-6, 1e-5, 5e-5),
    trials_fig_b=2,
    trials_fig_c=2,
    trials_fig_d=2,
    bounds_eps_grid=(1e-6, 1e-5),
)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """Untraced and traced tiny runs of one workload."""
    name = request.param
    return name, run.measure(name, 7, 0.0, False, TINY), run.measure(name, 7, 0.0, True, TINY)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_every_metric_emitted_with_unit(runs):
    _, plain, traced = runs
    for key, result in (("end_to_end", plain["result"]), ("per_layer", traced["result"])):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        assert result["attempted"] >= 1


def test_traced_and_untraced_csvs_identical(runs):
    _, plain, traced = runs
    assert plain["outputs"] is not None
    assert plain["outputs"] == traced["outputs"]


@pytest.mark.parametrize("name", ["figure_a", "figure_b", "figure_c", "figure_d", "bounds"])
def test_golden_rejects_one_perturbed_digit(name):
    text = golden.golden_path(2024, name).read_text()
    assert golden.check_output(name, text, 7, text) == ([], [], True)
    # Bump the leading digit of the largest value outside the first column.
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    row, col = max(
        ((i, j) for i in data for j in range(1, len(lines[i].split(",")))),
        key=lambda ij: abs(float(lines[ij[0]].split(",")[ij[1]])),
    )
    cells = lines[row].split(",")
    pos = next(k for k, ch in enumerate(cells[col]) if ch in "123456789")
    cells[col] = cells[col][:pos] + str(int(cells[col][pos]) % 9 + 1) + cells[col][pos + 1:]
    lines[row] = ",".join(cells)
    failures, _, match = golden.check_output(name, "".join(lines), 7, text)
    assert match is False
    assert failures


def test_shape_rules_warn_off_the_reference_seed():
    text = golden.golden_path(2024, "figure_d").read_text()
    lines = text.splitlines(keepends=True)
    k, nnls, _ = lines[-2].split(",")
    lines[-2] = f"{k},{nnls},100000\n"
    broken = "".join(lines)
    failures, warnings, match = golden.check_output("figure_d", broken, 7, None)
    assert failures == [] and warnings and match is None
    failures, warnings, _ = golden.check_output("figure_d", broken, 7, text)
    assert failures and warnings == []
