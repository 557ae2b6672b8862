"""Heuristic tau' of many orders in one call against one call per order, bit for bit.

Run from a checkout: ``PYTHONPATH=src python tests/sweep_heuristic_bits.py``.
For seeds 0-11, the first two Gaussian draws of 4x17, 3x10 and 5x20 at
orders 1..min(N, 9), the ``as_text()`` report of every order of one
``tau_prime_heuristic`` call, with the FISTA pool size ``skc._BLOCK`` set to
512, 60 and 16, must equal that of a call for the order alone at the
default pool size.  5x24 at orders 1-12 (seeds 0-3) has 512-524
candidates, so at seeds 0-2 its one call refills the default pool.  Prints
the counts and exits 1 on any mismatch.  Takes under a minute on one CPU.
"""

import sys

from covact import MeasurementOperator, build_gaussian_codebook, skc
from covact.channel import stream

DEFAULT_BLOCK = skc._BLOCK


def mismatches(M, N, seed, draw, orders, blocks):
    """Reports compared and the (block, order) pairs whose one-call report differs from the one-order report."""
    cb = build_gaussian_codebook(M, N, stream(seed, "codebook", draw))
    stacked = MeasurementOperator(cb).stacked_real()
    single = [skc.tau_prime(stacked, order, method="heuristic").as_text() for order in orders]
    bad = []
    for block in blocks:
        skc._BLOCK = block
        together = [report.as_text() for report in skc.tau_prime_heuristic(stacked, orders)]
        bad += [(block, order) for order, a, b in zip(orders, single, together) if a != b]
    skc._BLOCK = DEFAULT_BLOCK
    return len(orders) * len(blocks), bad


def main():
    sweep = [
        (M, N, seed, draw, list(range(1, min(N, 9) + 1)), (512, 60, 16))
        for seed in range(12)
        for M, N in ((4, 17), (3, 10), (5, 20))
        for draw in (0, 1)
    ]
    refill = [(5, 24, seed, 0, list(range(1, 13)), (DEFAULT_BLOCK,)) for seed in range(4)]
    failed = False
    for label, cases in (("sweep", sweep), ("5x24 refill", refill)):
        compared, bad = 0, []
        for M, N, seed, draw, orders, blocks in cases:
            count, wrong = mismatches(M, N, seed, draw, orders, blocks)
            compared += count
            bad += [(f"{M}x{N}", seed, draw, block, order) for block, order in wrong]
        print(f"{label}: {compared} reports, {len(bad)} mismatches")
        for case in bad:
            print("  mismatch (shape, seed, draw, block, order):", case)
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
