"""Outside-in tracing of covact for the benchmark's per-layer metrics.

The tracer wraps, from the outside, every public function that
``covact.experiments`` imports from the other modules, the harness entry
points of ``covact.experiments`` itself, and the ``MeasurementOperator``
and ``HpdMatrix`` methods.  Each wrapped call records a span
``(name, start, end, parent, phase)`` in memory; nothing inside ``src/``
changes.  Spans are summarised into per-layer metrics after the run and
written to disk only at exit.

Phases say which repetition a span belongs to (``setup``, ``op`` or
``extra``).  Every set-up and every operation of one run does identical
work, so per-layer values are reported per set-up plus per operation:
a span counts with weight ``1 / n_setups`` or ``1 / n_ops``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from covact import codebook as cb_mod
from covact import experiments as ex
from covact import hermitian as herm_mod

# Harness entry points the benchmark calls through the experiments module.
HARNESS = ("verified_codebook", "run_figure_a", "run_figure_b", "run_figure_c", "run_figure_d", "run_bounds_table")
# Layers reported as calls and busy seconds only.
COUNTED = (
    *(f"channel.{fn}" for fn in ("simulate_measurements", "sample_covariance", "perturb_hermitian", "draw_sparse_fading", "stream")),
    "codebook.apply_raw",
    "codebook.stacked_real",
    "hermitian.hpd_validations",
    "robustness.delta_radius",
    "robustness.k0_antennas",
)
FAILURES = ("NotConverged", "StepRejected", "NotPositiveDefinite", "SetupFailed")
SKC_ORDERS = tuple(range(1, 9))


def imported_functions():
    """Public functions that covact.experiments imports from other modules."""
    out = {}
    for name, obj in vars(ex).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != ex.__name__:
            out[name] = obj
    return out


def _span_name(fn_name, module, args, kwargs):
    """Layer name of one call; some layers split by argument."""
    short = module.rsplit(".", 1)[-1]
    if fn_name in ("tau_prime", "tau_prime_curve"):
        method = kwargs.get("method", args[2] if len(args) > 2 else "exact")
        return f"skc.{method}"
    if fn_name == "ml_coordinate_descent":
        opts = kwargs.get("opts", args[3] if len(args) > 3 else None)
        return "estimators.ml_warm" if opts is not None and opts.z0 is not None else "estimators.ml_cold"
    if fn_name == "nnls_estimate":
        return "estimators.nnls"
    return f"{short}.{fn_name}"


class Tracer:
    """Records spans and solver counters while installed around covact."""

    def __init__(self, while_iterations: int):
        self.while_iterations = while_iterations
        self.spans = []  # [name, start, end, parent, phase, error]
        self.stack = []
        self.phase = ("extra", 0)
        self.samples = {}  # (metric, phase) -> list of values
        self.draws = []  # stage reached by each draw of the running search
        self.draw_counts = {}
        self._saved = []
        self._last_error = None

    # -- installation -------------------------------------------------
    def __enter__(self):
        op, hpd = cb_mod.MeasurementOperator, herm_mod.HpdMatrix
        targets = [(ex, name, fn, None) for name, fn in imported_functions().items()]
        targets += [(ex, name, getattr(ex, name), f"experiments.{name}") for name in HARNESS]
        targets += [
            (op, "apply_raw", op.apply_raw, "codebook.apply_raw"),
            (op, "stacked_real", op.stacked_real, "codebook.stacked_real"),
            (hpd, "__init__", hpd.__init__, "hermitian.hpd_validations"),
        ]
        for owner, name, fn, layer in targets:
            self._saved.append((owner, name, fn))
            setattr(owner, name, self.wrap(fn, name, layer))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
        return False

    def wrap(self, fn, name, layer=None):
        """Traced version of ``fn``; ``layer`` None names each call by its arguments."""
        module = fn.__module__
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        failed = getattr(self, f"_failed_{name}", None)

        def traced(*args, **kwargs):
            span = [layer or _span_name(name, module, args, kwargs), clock(), 0.0,
                    stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, at the innermost span it leaves.
                if exc is not self._last_error:
                    self._last_error = exc
                    span[5] = type(exc).__name__
                if failed is not None:
                    failed()
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.phase, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    # -- counters gathered at the boundaries ---------------------------
    def _add(self, metric, value):
        self.samples.setdefault((metric, self.phase), []).append(value)

    def _after_ml_coordinate_descent(self, span, args, kwargs, trace):
        self._add(f"{span[0]}.sweeps", trace.sweeps)
        self._add(f"{span[0]}.capped", int(trace.sweeps >= self.while_iterations))
        self._add("estimators.ml.kkt", trace.kkt_residual)
        self._add("estimators.ml.drift", trace.inverse_drift)

    def _after_nnls_estimate(self, span, args, kwargs, result):
        self._add("estimators.nnls.iterations", result.iterations)
        self._add("estimators.nnls.kkt", result.kkt_residual)

    def _after_tau_prime(self, span, args, kwargs, report):
        if span[0] == "skc.exact":
            self._add("skc.exact.patterns", _patterns(args[0].num_users, args[1]))
        elif self.draws:
            self.draws[-1] = "heuristic"

    def _after_tau_prime_curve(self, span, args, kwargs, reports):
        if span[0] == "skc.exact":
            self._add("skc.exact.patterns", _patterns(args[0].num_users, args[1]))
            self._add("skc.exact.curve_s", span[2] - span[1])
        if self.draws:
            self.draws[-1] = "final"

    def _after_build_gaussian_codebook(self, span, args, kwargs, codebook):
        self.draws.append("kernel")

    def _before_verified_codebook(self, args, kwargs):
        self.draws = []

    def _after_verified_codebook(self, span, args, kwargs, verified):
        self._close_search(accepted=True)

    def _failed_verified_codebook(self):
        self._close_search(accepted=False)

    def _close_search(self, accepted):
        draws, self.draws = self.draws, []
        if self.phase[0] != "op":
            return
        rejected = draws[:-1] if accepted else draws
        counts = self.draw_counts
        counts["draws"] = counts.get("draws", 0) + len(draws)
        for stage in ("kernel", "heuristic", "final"):
            key = f"rejected_{stage}"
            counts[key] = counts.get(key, 0) + sum(1 for d in rejected if d == stage)
        counts["final_checks"] = counts.get("final_checks", 0) + sum(1 for d in draws if d == "final")
        counts["final_useful"] = counts.get("final_useful", 0) + int(accepted and bool(draws) and draws[-1] == "final")

    # -- summary --------------------------------------------------------
    def summarize(self, n_setups: int, n_ops: int, overhead_per_span: float, order_seconds: dict) -> dict:
        """Per-layer metrics per set-up plus per operation."""

        def weight(phase):
            kind = phase[0]
            if kind == "setup":
                return 1.0 / n_setups
            if kind == "op":
                return 1.0 / n_ops
            return 0.0

        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, secs, selfs, durs, errors = {}, {}, {}, {}, {}
        for i, (name, start, end, parent, phase, err) in enumerate(self.spans):
            w = weight(phase)
            calls[name] = calls.get(name, 0.0) + w
            secs[name] = secs.get(name, 0.0) + w * (end - start)
            selfs[name] = selfs.get(name, 0.0) + w * (end - start - child[i])
            if w > 0:
                durs.setdefault(name, []).append(end - start)
            if err is not None:
                errors[err] = errors.get(err, 0.0) + w

        def samples(metric):
            out = []
            for (m, phase), vals in self.samples.items():
                if m == metric and weight(phase) > 0:
                    out.extend(vals)
            return out

        def weighted_sum(metric):
            return sum(weight(phase) * sum(vals) for (m, phase), vals in self.samples.items() if m == metric)

        def pct(values, q, scale=1.0):
            return float(np.percentile(values, q)) * scale if values else 0.0

        m = {}
        patterns = weighted_sum("skc.exact.patterns")
        m["skc.exact.calls"] = calls.get("skc.exact", 0.0)
        m["skc.exact.s"] = secs.get("skc.exact", 0.0)
        m["skc.exact.patterns"] = patterns
        m["skc.exact.us_per_pattern"] = 1e6 * m["skc.exact.s"] / patterns if patterns else 0.0
        curve = samples("skc.exact.curve_s")
        for order in SKC_ORDERS:
            value = order_seconds.get(order)
            if value is None and order == SKC_ORDERS[-1] and curve:
                value = curve[-1]
            m[f"skc.exact.order{order}_s"] = value or 0.0
        m["skc.heuristic.calls"] = calls.get("skc.heuristic", 0.0)
        m["skc.heuristic.s"] = secs.get("skc.heuristic", 0.0)

        d = self.draw_counts
        per_op = 1.0 / n_ops
        m["experiments.draws"] = d.get("draws", 0) * per_op
        m["experiments.draws_kernel_rejected"] = d.get("rejected_kernel", 0) * per_op
        m["experiments.draws_heuristic_rejected"] = d.get("rejected_heuristic", 0) * per_op
        m["experiments.draws_exact_rejected"] = d.get("rejected_final", 0) * per_op
        checks = d.get("final_checks", 0)
        m["experiments.exact_useful_ratio"] = d.get("final_useful", 0) / checks if checks else 0.0
        m["experiments.self_s"] = sum(v for k, v in selfs.items() if k.startswith("experiments."))

        for kind in ("ml_cold", "ml_warm"):
            name = f"estimators.{kind}"
            sweeps = samples(f"{name}.sweeps")
            m[f"{name}.calls"] = calls.get(name, 0.0)
            m[f"{name}.s"] = secs.get(name, 0.0)
            m[f"{name}.ms_p50"] = pct(durs.get(name, []), 50, 1e3)
            m[f"{name}.ms_p95"] = pct(durs.get(name, []), 95, 1e3)
            m[f"{name}.sweeps_p50"] = pct(sweeps, 50)
            m[f"{name}.sweeps_max"] = max(sweeps, default=0.0)
            m[f"{name}.capped"] = weighted_sum(f"{name}.capped")
        m["estimators.ml.kkt_max"] = max(samples("estimators.ml.kkt"), default=0.0)
        m["estimators.ml.drift_max"] = max(samples("estimators.ml.drift"), default=0.0)
        for err in FAILURES:
            m[f"estimators.failed.{err}"] = errors.get(err, 0.0)
        m["estimators.nnls.calls"] = calls.get("estimators.nnls", 0.0)
        m["estimators.nnls.s"] = secs.get("estimators.nnls", 0.0)
        m["estimators.nnls.ms_p50"] = pct(durs.get("estimators.nnls", []), 50, 1e3)
        m["estimators.nnls.ms_p95"] = pct(durs.get("estimators.nnls", []), 95, 1e3)
        m["estimators.nnls.iterations"] = weighted_sum("estimators.nnls.iterations")
        m["estimators.nnls.kkt_max"] = max(samples("estimators.nnls.kkt"), default=0.0)

        m["channel.fading_accept_ratio"] = self._fading_accept_ratio()
        for layer in COUNTED:
            m[f"{layer}.calls"] = calls.get(layer, 0.0)
            m[f"{layer}.s"] = secs.get(layer, 0.0)
        for name in HARNESS:
            m[f"experiments.{name}.s"] = secs.get(f"experiments.{name}", 0.0)
        traced = sum(end - start for name, start, end, parent, phase, err in self.spans if parent == -1 and phase[0] != "extra")
        n_spans = sum(1 for span in self.spans if span[4][0] != "extra")
        m["trace.overhead_frac"] = n_spans * overhead_per_span / traced if traced > 0 else 0.0
        return {name: float(value) for name, value in m.items()}

    def _fading_accept_ratio(self):
        """Fading vectors used over fading vectors drawn (panel c rejects some)."""
        drawn = used = 0
        figure_c = {i for i, span in enumerate(self.spans) if span[0] == "experiments.run_figure_c"}
        for span in self.spans:
            if span[4][0] == "extra":
                continue
            if span[0] == "channel.draw_sparse_fading":
                drawn += 1
                if span[3] not in figure_c:
                    used += 1
            elif span[0] == "channel.perturb_hermitian" and span[3] in figure_c:
                used += 1
        return used / drawn if drawn else 0.0

    def dump(self, path, extra: dict) -> None:
        """Write every span, gzip-compressed JSON, next to the run's result."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "phase", "error"]
        payload["span_names"] = names
        payload["spans"] = [
            [index[name], start, end, parent, f"{phase[0]}:{phase[1]}", err]
            for name, start, end, parent, phase, err in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.startswith("ms_"):
        return "ms"
    if last.startswith("us_"):
        return "us"
    if last.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric == "skc.exact.patterns":
        return "count.computed"
    if last in ("kkt_max", "drift_max"):
        return "1"
    return "count"


def _patterns(n: int, order: int) -> int:
    """Sign patterns the exact enumeration visits: sum of C(n, j), j <= order."""
    return sum(math.comb(n, j) for j in range(order + 1))


def wrapper_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured here."""

    def noop(x):
        return x

    tracer = Tracer(while_iterations=1)
    traced = tracer.wrap(noop, "noop")
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(repeats):
            noop(i)
        t1 = time.perf_counter()
        for i in range(repeats):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
        tracer.spans.clear()
    return max(best, 0.0)
