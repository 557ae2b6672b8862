"""Pass rates of the ``--assert`` rules of ``covact experiment all`` across seeds.

Run from a checkout: ``PYTHONPATH=src python tests/sweep_assert_seeds.py
[--seeds 40]``.  For each seed 0..seeds-1 it certifies the default
configuration's codebook and runs panels a-d and the bound table in this
process, as ``covact --seed S --assert experiment all`` does, and collects
the rules that ``cli._broken_rules`` reports broken.  It then prints, per
rule, how many seeds pass and, for each failing seed, the rule's message.
For panel c's log-log slopes and panel d's R^2 it also prints the lowest
and the highest value across the seeds, each with its seed.  A message
that no rule below matches is printed as it is, so nothing is dropped.
Takes about 2 s per seed on 2 CPUs.  pytest does not collect this file,
and it changes no rule, bound or tolerance.
"""

import argparse
import re
import sys
import time
from dataclasses import replace

from covact import cli
from covact.config import ExperimentConfig
from covact.errors import CovactError
from covact.experiments import linear_fit_r2, loglog_slope, parse_csv, verified_codebook

# (output, rule, pattern of the rule's messages, after the "output: " prefix).
RULES = [
    ("figure_a", "certified tau' above 1e-3 at S <= skc_order", r"\w+ at S=\d+ is \S+, not above"),
    ("figure_a", "tau' below 1e-6 at S > skc_order", r"tau_prime at S=\d+ is \S+, not below"),
    *(
        (output, f"{name} <= 1e-3 at S <= skc_order", rf"{name} at S=\d+ exceeds")
        for output in ("figure_a", "figure_b")
        for name in ("err_nnls", "err_ml_nnls")
    ),
    *(("figure_c", f"log-log slope of {name} in [0.85, 1.15]", rf"log-log slope of {name} ") for name in ("err_nnls", "err_ml_nnls")),
    *(("figure_d", f"R^2 of {name} against K >= 0.9", rf"R\^2 of {name} against") for name in ("inv_sq_err_nnls", "inv_sq_err_ml_nnls")),
    ("bounds", "k0_ml >= k0_nnls", r"k0_ml < k0_nnls"),
]


def fits(kind, text):
    """{label: value} of panel c's log-log slopes against rho > 0 and panel d's R^2 against K."""
    _, header, rows = parse_csv(text)
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if kind == "c":
        rho, errs = zip(*[(rho, row) for rho, row in zip(cols["rho"], rows) if rho > 0])
        return {f"slope of {name}": loglog_slope(rho, [row[header.index(name)] for row in errs]) for name in ("err_nnls", "err_ml_nnls")}
    return {f"R^2 of {name}": linear_fit_r2(cols["K"], cols[name]) for name in ("inv_sq_err_nnls", "inv_sq_err_ml_nnls")}


def run_seed(seed):
    """(messages of the broken rules, {fit label: value}) of ``experiment all --assert`` at ``seed``."""
    cfg = replace(ExperimentConfig(), seed=seed)
    try:
        verified = verified_codebook(cfg)
    except CovactError as exc:
        return [f"set-up: {type(exc).__name__}: {exc}"], {}
    messages, values = [], {}
    for kind, (name, run) in cli._RUNS.items():
        text = run(cfg, verified)
        messages += [f"{name}: {rule}" for rule in cli._broken_rules(kind, text, cfg, verified)]
        if kind in ("c", "d"):
            values.update(fits(kind, text))
    return messages, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="sweep seeds 0..SEEDS-1 (default 40)")
    seeds = range(parser.parse_args(argv).seeds)
    start = time.perf_counter()
    failing = {rule[:2]: [] for rule in RULES}  # (output, rule) -> [(seed, message)]
    other, values = [], {}  # unmatched (seed, message); fit label -> [(value, seed)]
    for seed in seeds:
        messages, fitted = run_seed(seed)
        for message in messages:
            output, _, rest = message.partition(": ")
            key = next(((out, rule) for out, rule, pattern in RULES if out == output and re.match(pattern, rest)), None)
            (failing[key] if key else other).append((seed, message))
        for label, value in fitted.items():
            values.setdefault(label, []).append((value, seed))
        print(f"seed {seed}: {len(messages)} broken", file=sys.stderr)
    for (output, rule), bad in failing.items():
        print(f"{output}: {rule}: passes at {len(seeds) - len({seed for seed, _ in bad})}/{len(seeds)} seeds")
        for seed, message in bad:
            print(f"    seed {seed}: {message}")
    for label, found in values.items():
        (low, low_seed), (high, high_seed) = min(found), max(found)
        print(f"{label}: lowest {low:.3f} (seed {low_seed}), highest {high:.3f} (seed {high_seed})")
    for seed, message in other:
        print(f"other: seed {seed}: {message}")
    broken = {seed for bad in [*failing.values(), other] for seed, _ in bad}
    print(f"{len(seeds) - len(broken)}/{len(seeds)} seeds pass every rule; {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
