"""Experiment configuration with a plain-text ``key = value`` file format.

Lines are ``key = value`` with ``#`` comments; list-valued keys take
comma-separated entries.  Defaults follow the simulation study: M = 4,
N = 17, order 7, noise covariance 1e-4 times the identity, and trial counts
scaled down from the published 1000 to desk runtimes (the original counts
remain reachable through the file).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInput

ESTIMATOR_NAMES = ("nnls", "ml", "ml_nnls")


@dataclass(frozen=True)
class ExperimentConfig:
    M: int = 4
    N: int = 17
    skc_order: int = 7
    s_values: tuple = tuple(range(1, 9))
    k_grid: tuple = (250, 500, 1000, 2000, 4000, 8000)
    rho_grid: tuple = tuple(np.logspace(-4, -1, 7).tolist())
    trials_fig_b: int = 100
    trials_fig_c: int = 100
    trials_fig_d: int = 50
    sigma_scale: float = 1e-4
    seed: int = 2024
    estimators: tuple = ESTIMATOR_NAMES
    tau_method: str = "exact"
    max_codebook_draws: int = 100
    while_iterations: int = 100
    bounds_eps_grid: tuple = tuple(1e-6 * 2**k for k in range(21))
    bernstein_c: float = 1.0
    target_p: float = 0.9
    beta_fraction: float = 0.5
    eta: float = 1.0

    def __post_init__(self):
        # skc_order lies in [1, N - 1], as the codebook search certifies order skc_order + 1; N is checked first.
        for name in ("M", "N", "skc_order", "trials_fig_b", "trials_fig_c", "trials_fig_d", "while_iterations", "max_codebook_draws"):
            _check_count(name, getattr(self, name), high=self.N - 1 if name == "skc_order" else math.inf)
        _checked_seed(self.seed, generator=False)
        for name, check in (
            ("s_values", lambda s: _check_count("s_values entry", s, high=self.N)),
            ("k_grid", lambda k: _check_count("k_grid entry", k)),
            ("rho_grid", lambda rho: _check_real("rho_grid entry", rho, 0, low_closed=True)),
            ("bounds_eps_grid", lambda eps: _check_real("bounds_eps_grid entry", eps, 0)),
        ):
            if len(getattr(self, name)) == 0:
                raise InvalidInput(f"{name} must be nonempty")
            for value in getattr(self, name):
                check(value)
        for name in ("sigma_scale", "eta", "bernstein_c"):
            _check_real(name, getattr(self, name), 0)
        if self.tau_method not in ("exact", "heuristic"):
            raise InvalidInput("tau_method must be 'exact' or 'heuristic'")
        if not set(self.estimators) <= set(ESTIMATOR_NAMES):
            raise InvalidInput(f"estimators must be among {ESTIMATOR_NAMES}")
        if not self.estimators or len(set(self.estimators)) < len(self.estimators):
            raise InvalidInput("estimators must be nonempty and name each estimator at most once")
        for name in ("beta_fraction", "target_p"):
            _check_real(name, getattr(self, name), 0, 1)

    def metadata_lines(self) -> list:
        """Comment lines recording every experiment knob."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = _format_row(value)
            out.append(f"# {f.name} = {value}")
        return out


def _is_integer(value) -> bool:
    """Whether value is an int or a NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, low=1, high=math.inf) -> None:
    """Raise InvalidInput, naming ``name`` and ``value``, unless value is an integer (by _is_integer) in [low, high]."""
    if not (_is_integer(value) and low <= value <= high):
        at_most = f" and at most {high}" if high < math.inf else ""
        raise InvalidInput(f"{name} must be an integer of at least {low}{at_most}, got {value!r}")


def _check_real(name: str, value, low=-math.inf, high=math.inf, low_closed=False) -> None:
    """Raise InvalidInput, naming ``name`` and ``value``, unless value is a float or an integer (by _is_integer) in (low, high).

    ``low_closed`` also admits value == low, for a finite low; infinite bounds stay open, so NaN and infinities never pass.
    """
    real = isinstance(value, (float, np.floating)) or _is_integer(value)
    if not (real and (low <= value if low_closed else low < value) and value < high):
        words = {(-math.inf, math.inf, False): "", (0, math.inf, False): " and positive", (0, math.inf, True): " and nonnegative"}
        rule = words.get((low, high, low_closed), f" and in {'[' if low_closed else '('}{low:g}, {high:g})")
        raise InvalidInput(f"{name} must be finite{rule}, got {value!r}")


def _checked_seed(seed, generator=True):
    """seed, unchanged; InvalidInput unless it is a nonnegative integer (by _is_integer) or, if ``generator``, a NumPy Generator."""
    if not ((generator and isinstance(seed, np.random.Generator)) or (_is_integer(seed) and seed >= 0)):
        raise InvalidInput(f"seed must be a nonnegative integer{' or a Generator' if generator else ''}, got {seed!r}")
    return seed


def _checked_array(name: str, values, dtype, shape: tuple, copy=False) -> np.ndarray:
    """values as a finite ndarray of ``dtype`` (a fresh copy if ``copy``) with one axis per entry of ``shape``.

    An int entry of ``shape`` fixes the length of its axis; None admits any length of at least 1.  A failed
    conversion, complex entries for a real ``dtype``, other axes or a non-finite entry raises InvalidInput
    naming ``name`` (and a ragged list or tuple's first entry of another shape).
    """
    try:
        complex_entries = dtype is not complex and np.iscomplexobj(values)
        arr = None if complex_entries else (np.array if copy else np.asarray)(values, dtype=dtype)
    except (TypeError, ValueError):
        shapes = [np.array(entry, dtype=object).shape for entry in values] if isinstance(values, (list, tuple)) else []
        ragged = next((k for k, shape in enumerate(shapes) if shape != shapes[0]), 0)
        got = f"entry {ragged} of shape {shapes[ragged]}" if ragged else f"a non-numeric {type(values).__name__}"
    else:
        if complex_entries:
            got = "complex entries"
        elif arr.ndim != len(shape) or arr.size == 0 or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
            got = f"shape {arr.shape}"
        elif not np.isfinite(arr).all():
            got = "a non-finite entry"
        else:
            return arr
    raise InvalidInput(f"{name} must be a finite {dtype.__name__} array of shape {str(shape).replace('None', '*')}, got {got}")


def _format_row(values) -> str:
    """Comma-joined values: floats round-trip exactly as ``%.17g``, the rest as ``str``."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values)


def _write_csv(path, header, rows) -> None:
    """Write a CSV file of ``\\r\\n``-terminated lines, each row formatted by _format_row."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_format_row(row) + "\r\n" for row in (header, *rows))


def _converter(default):
    """Parser of a value: the default's type, or for a tuple comma-separated entries of its entry type."""
    if isinstance(default, tuple):
        entry = type(default[0])
        return lambda text: tuple(entry(v.strip()) for v in text.split(",") if v.strip())
    return type(default)


def parse_config(path) -> ExperimentConfig:
    """Read overrides from a ``key = value`` file on top of the defaults; each key may be set once."""
    defaults = ExperimentConfig()
    keys = {f.name for f in fields(defaults)}
    overrides, set_on = {}, {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise InvalidInput(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in set_on:
            raise InvalidInput(f"{path}:{lineno}: {key!r} is set again; line {set_on[key]} first set it")
        set_on[key] = lineno
        try:
            overrides[key] = _converter(getattr(defaults, key))(value)
        except ValueError:
            raise InvalidInput(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    try:
        return replace(defaults, **overrides)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None
