"""tau' reports against the bounding schedule and the heuristic's stacking of orders, bit for bit.

Run from a checkout: ``PYTHONPATH=src python tests/sweep_tau_prime_bits.py``.
Two sweeps over Gaussian codebooks, each printing its counts:

- Heuristic: for seeds 0-11, the first two draws of 4x17, 3x10 and 5x20 at
  orders 1..min(N, 9), the ``as_text()`` report of every order of one
  ``tau_prime_heuristic`` call, with the FISTA pool size ``skc._BLOCK`` set
  to 512, 60 and 16, must equal that of a call for the order alone at the
  default pool size.  5x24 at orders 1-12 (seeds 0-3) has 512-524
  candidates, so at every seed its one call refills the default pool of
  480.  The heuristic's pool prunes no row, so every candidate runs to the
  step cap and each order is solved on its own from an incumbent of inf:
  the orders that share a fill and where the pool refills cannot move a
  bit, and this sweep checks that they do not.
- Exact: for seeds 0-11, the first draw of 4x17 at order 8 and of 3x10 and
  5x20 at order 6, the ``as_text()`` reports of ``tau_prime_curve`` with
  (``skc._CHUNK``, ``skc._BLOCK``) set to (25, 64) and (50, 1024) must equal
  those at the default (10, 480).

The SHA-256 of every ``as_text()`` report the sweeps compute, in the order
they compute them, is pinned as REPORTS_SHA256, so a change to the search
that moved every schedule alike would still be caught.  The digest was
recorded before the patterns were bounded on a spectral minorant of G,
and before a pattern left the pool only when pruned or at the step cap:
like the schedules, these only decide which farther patterns are also
solved, and move no bit.  Exits 1 on any mismatch or on another
digest, and prints the time taken, under two minutes on one CPU.
"""

import hashlib
import sys
import time

from covact import MeasurementOperator, build_gaussian_codebook, skc
from covact.channel import stream

DEFAULT_SCHEDULE = (skc._CHUNK, skc._BLOCK)
REPORTS_SHA256 = "1c81453e70b7284b6d03ccfb8be986774898f2093d36f05643c49a2c1cd33c52"
REPORTS = hashlib.sha256()


def texts(reports):
    """The as_text() of each report, each also fed to REPORTS."""
    out = [report.as_text() for report in reports]
    for text in out:
        REPORTS.update(text.encode())
    return out


def stacked_draw(M, N, seed, draw):
    return MeasurementOperator(build_gaussian_codebook(M, N, stream(seed, "codebook", draw))).stacked_real()


def heuristic_mismatches(M, N, seed, draw, orders, blocks):
    """Reports compared and the (setting, order) pairs whose one-call report differs from the one-order report."""
    stacked = stacked_draw(M, N, seed, draw)
    single = texts(skc.tau_prime(stacked, order, method="heuristic") for order in orders)
    bad = []
    for block in blocks:
        skc._BLOCK = block
        together = texts(skc.tau_prime_heuristic(stacked, orders))
        bad += [(f"draw {draw}, block {block}", order) for order, a, b in zip(orders, single, together) if a != b]
    skc._CHUNK, skc._BLOCK = DEFAULT_SCHEDULE
    return len(orders) * len(blocks), bad


def exact_mismatches(M, N, seed, max_order, schedules):
    """Reports compared and the (setting, order) pairs whose curve report differs from the default schedule's."""
    stacked = stacked_draw(M, N, seed, 0)
    default = texts(skc.tau_prime_curve(stacked, max_order))
    bad = []
    for schedule in schedules:
        skc._CHUNK, skc._BLOCK = schedule
        curve = texts(skc.tau_prime_curve(stacked, max_order))
        bad += [("chunk %d, block %d" % schedule, order) for order, (a, b) in enumerate(zip(default, curve), start=1) if a != b]
    skc._CHUNK, skc._BLOCK = DEFAULT_SCHEDULE
    return max_order * (1 + len(schedules)), bad


def main():
    started = time.perf_counter()
    heuristic = [
        (M, N, seed, draw, list(range(1, min(N, 9) + 1)), (512, 60, 16))
        for seed in range(12)
        for M, N in ((4, 17), (3, 10), (5, 20))
        for draw in (0, 1)
    ]
    refill = [(5, 24, seed, 0, list(range(1, 13)), (DEFAULT_SCHEDULE[1],)) for seed in range(4)]
    exact = [(M, N, seed, max_order, ((25, 64), (50, 1024))) for seed in range(12) for M, N, max_order in ((4, 17, 8), (3, 10, 6), (5, 20, 6))]
    failed = False
    for label, check, cases in (
        ("heuristic sweep", heuristic_mismatches, heuristic),
        ("heuristic 5x24 refill", heuristic_mismatches, refill),
        ("exact curve schedules", exact_mismatches, exact),
    ):
        compared, bad = 0, []
        for case in cases:
            count, wrong = check(*case)
            compared += count
            bad += [(f"{case[0]}x{case[1]}", case[2], *where) for where in wrong]
        print(f"{label}: {compared} reports, {len(bad)} mismatches")
        for where in bad:
            print("  mismatch (shape, seed, setting, order):", where)
        failed |= bool(bad)
    digest = REPORTS.hexdigest()
    print(f"reports digest {digest}: {'pinned' if digest == REPORTS_SHA256 else 'differs from the pinned ' + REPORTS_SHA256}")
    failed |= digest != REPORTS_SHA256
    print(f"took {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
