"""Seeded benchmark for covact.

    python3 bench/run.py --workload certify --seed 2024 --seconds 10 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout:
sets it up ``SETUP_REPEATS`` times, then repeats its operation until
``--seconds`` have passed (at least once), checks every CSV the operation
emits (golden.py) and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is traced (tracing.py) and the metrics are the per-layer ones.  The line
before it records the environment and the golden byte matches.  Results and
spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# A traced certify run times the exact enumeration order by order after its
# operation; orders that would end later than this many seconds after the
# run started are skipped (reported as 0), keeping the run under 180 s.
ORDER_TIMING_DEADLINE_S = 150
# One BLAS thread: the matrices are 4x4 to 32x17, where threads only add
# overhead, and it keeps the load within the two cores of the reference box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_covact():
    """Import covact from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import covact

    if Path(covact.__file__).resolve().parent != ROOT / "src" / "covact":
        raise ImportError(f"covact imported from {covact.__file__}, not from {ROOT / 'src'}")


def _cpu_model() -> str:
    import platform

    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(cfg) -> dict:
    import hashlib
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": cfg.seed,
        "config_digest": hashlib.sha256("\n".join(cfg.metadata_lines()).encode()).hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, base_cfg=None) -> dict:
    """Run one workload; returns the result, the checks and the tracer."""
    import resource

    import golden
    import tracing
    from workloads import REFERENCE_SEED, WORKLOADS, run_config, run_operation, set_up

    wl = WORKLOADS[workload]
    cfg = run_config(seed, base_cfg)
    published_cfg = base_cfg is None
    goldens = {}
    for name in wl.outputs:
        path = golden.golden_path(seed, name)
        if published_cfg and path.exists():
            goldens[name] = path.read_text()

    tracer = tracing.Tracer(cfg.while_iterations) if trace else None

    def phase(kind, index):
        if tracer is None:
            return nullcontext()
        tracer.phase = (kind, index)
        return tracer.span(kind)

    run_started = time.perf_counter()
    setup_times, op_times, failures, warnings = [], [], [], []
    first_outputs, byte_matches, byte_compared = None, 0, 0
    with tracer or nullcontext():
        for i in range(SETUP_REPEATS):
            with phase("setup", i):
                t0 = time.perf_counter()
                published = set_up(cfg)
                setup_times.append(time.perf_counter() - t0)
        started = time.perf_counter()
        while True:
            with phase("op", len(op_times)):
                t0 = time.perf_counter()
                try:
                    outputs = run_operation(workload, cfg, published)
                except Exception:
                    op_times.append(time.perf_counter() - t0)
                    failures.append(traceback.format_exc())
                    break
                op_times.append(time.perf_counter() - t0)
            op_failures = []
            for name in wl.outputs:
                found, warned, match = golden.check_output(name, outputs[name], cfg.skc_order, goldens.get(name))
                op_failures += found
                warnings += warned
                if match is not None:
                    byte_compared += 1
                    byte_matches += int(match)
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                op_failures.append("a repeated operation emitted different bytes")
            failures += op_failures
            if op_failures:
                break
            if time.perf_counter() - started >= seconds:
                break
        order_seconds = {}
        if tracer is not None:
            tracer.phase = ("extra", 0)
            if workload == "certify":
                deadline = run_started + ORDER_TIMING_DEADLINE_S
                order_seconds = _time_exact_orders(published.codebook, cfg.skc_order, deadline)

    failed = int(bool(failures))
    if trace:
        metrics = tracer.summarize(SETUP_REPEATS, len(op_times), tracing.wrapper_cost(), order_seconds)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        run_s = statistics.median(op_times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "trials_per_s": wl.trials(cfg) / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failures,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    checks = {
        "golden_seed": REFERENCE_SEED,
        "golden_byte_matches": byte_matches,
        "golden_compared": byte_compared,
        "setup_s_all": setup_times,
        "op_s_all": op_times,
        "failures": failures,
        "warnings": warnings,
    }
    return {"result": result, "checks": checks, "tracer": tracer, "cfg": cfg, "outputs": first_outputs}


def _time_exact_orders(codebook, skc_order: int, deadline: float) -> dict:
    """Seconds of tau_prime(..., s, "exact") for s = 1..skc_order.

    Order skc_order + 1 costs as much as the certification itself; its time
    is taken from the exact curve of the operation instead.  An order whose
    predicted time (2.5 times the previous one) would end past ``deadline``
    is skipped, with the orders above it, so the run stays within its limit.
    """
    from covact import skc
    from covact.codebook import MeasurementOperator

    stacked = MeasurementOperator(codebook).stacked_real()
    out = {}
    for order in range(1, skc_order + 1):
        if out and time.perf_counter() + 2.5 * out[order - 1] > deadline:
            break
        t0 = time.perf_counter()
        skc.tau_prime(stacked, order, method="exact")
        out[order] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "panels"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        _import_covact()
    except ImportError as exc:
        print(f"cannot import covact from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in run["checks"]["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for warning in run["checks"]["warnings"]:
        print(f"SHAPE WARNING: {warning}", file=sys.stderr)
    record = {"environment": environment(run["cfg"]), "checks": run["checks"]}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, "result": run["result"]}, indent=1))
    if run["tracer"] is not None:
        run["tracer"].dump(OUT_DIR / f"{stem}-spans.json.gz", record)
    print(json.dumps(record))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
