"""Lines of src/covact that the published run path never runs.

Run from a checkout: ``python tests/trace_run_path.py``.  It pins itself to
one CPU, so the jobs that ``workers.run_jobs`` and ``run_shares`` would fork
run in this process.

Runs, in this process under the line tracer of trace_src_lines.py:
- ``covact --seed 2024 --assert --out D experiment all``;
- the benchmark's heuristic set-up, ``verified_codebook`` at seed 2024 with
  ``tau_method="heuristic"``;
- ``covact --seed 1 tau --method heuristic`` and ``covact --seed 1 tau --order 3``;
- ``covact estimate nnls``, ``estimate ml --antennas 100`` and
  ``estimate ml --init-nnls``;
- ``covact codebook build`` with ``--kind gaussian`` and ``--kind deterministic``.

Then prints every executable line that none of them ran, docstrings aside,
grouped by function as ``module.function:`` and ``  line: text``, and a
count; it exits 0 whatever it finds.  pytest does not collect this file.
"""

import contextlib
import io
import os
import sys
import tempfile
from dataclasses import replace

from trace_src_lines import ROOT, traced, unrun_lines

COMMANDS = [
    ["--seed", "2024", "--assert", "experiment", "all"],
    ["--seed", "1", "tau", "--method", "heuristic"],
    ["--seed", "1", "tau", "--order", "3"],
    ["estimate", "nnls"],
    ["estimate", "ml", "--antennas", "100"],
    ["estimate", "ml", "--init-nnls"],
    ["codebook", "build", "--kind", "gaussian"],
    ["codebook", "build", "--kind", "deterministic"],
]


def run_path():
    """Run the published path; returns the exit code of each command of COMMANDS."""
    from covact import ExperimentConfig, cli, experiments

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["--out", out, *command]) for command in COMMANDS]
        experiments.verified_codebook(replace(ExperimentConfig(), seed=2024, tau_method="heuristic"))
    return codes


def main():
    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    codes, ran = traced(run_path)
    groups = {}
    for module, line, function, text in unrun_lines(ran):
        groups.setdefault(f"{module}.{function}", []).append(f"  {line}: {text}")
    for name, lines in groups.items():
        print(f"{name}:", *lines, sep="\n")
    print(f"{sum(map(len, groups.values()))} lines in {len(groups)} functions never ran; exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
