"""Experiment configuration with a plain-text ``key = value`` file format.

Lines are ``key = value`` with ``#`` comments; list-valued keys take
comma-separated entries.  Defaults follow the simulation study: M = 4,
N = 17, order 7, noise covariance 1e-4 times the identity, and trial counts
scaled down from the published 1000 to desk runtimes (the original counts
remain reachable through the file).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInput

ESTIMATOR_NAMES = ("nnls", "ml", "ml_nnls")


def _rho_default() -> tuple:
    return tuple(float(r) for r in np.logspace(-4, -1, 7))


def _eps_default() -> tuple:
    return tuple(float(1e-6 * 2**k) for k in range(21))


@dataclass(frozen=True)
class ExperimentConfig:
    M: int = 4
    N: int = 17
    skc_order: int = 7
    s_values: tuple = tuple(range(1, 9))
    k_grid: tuple = (250, 500, 1000, 2000, 4000, 8000)
    rho_grid: tuple = field(default_factory=_rho_default)
    trials_fig_b: int = 100
    trials_fig_c: int = 100
    trials_fig_d: int = 50
    sigma_scale: float = 1e-4
    seed: int = 2024
    estimators: tuple = ESTIMATOR_NAMES
    tau_method: str = "exact"
    max_codebook_draws: int = 100
    while_iterations: int = 100
    bounds_eps_grid: tuple = field(default_factory=_eps_default)
    bernstein_c: float = 1.0
    target_p: float = 0.9
    beta_fraction: float = 0.5
    eta: float = 1.0
    out_dir: str = ""

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise InvalidInput("M and N must be positive")
        # The codebook search certifies order skc_order + 1, so that must not exceed N.
        if not 1 <= self.skc_order < self.N:
            raise InvalidInput("skc_order must lie in [1, N - 1]")
        for name in ("trials_fig_b", "trials_fig_c", "trials_fig_d", "while_iterations", "max_codebook_draws"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be at least 1")
        for name, valid, rule in (
            ("s_values", lambda s: 1 <= s <= self.N, "lie in [1, N]"),
            ("k_grid", lambda k: k >= 1, "be at least 1"),
            ("rho_grid", lambda rho: rho >= 0, "be nonnegative"),
            ("bounds_eps_grid", lambda eps: eps > 0, "be positive"),
        ):
            values = getattr(self, name)
            if len(values) == 0:
                raise InvalidInput(f"{name} must be nonempty")
            if not all(valid(v) for v in values):
                raise InvalidInput(f"{name} entries must {rule}")
        if self.sigma_scale <= 0:
            raise InvalidInput("sigma_scale must be positive")
        if self.tau_method not in ("exact", "heuristic"):
            raise InvalidInput("tau_method must be 'exact' or 'heuristic'")
        if not set(self.estimators) <= set(ESTIMATOR_NAMES):
            raise InvalidInput(f"estimators must be among {ESTIMATOR_NAMES}")
        if not self.estimators or len(set(self.estimators)) < len(self.estimators):
            raise InvalidInput("estimators must be nonempty and name each estimator at most once")
        if not 0 < self.beta_fraction < 1:
            raise InvalidInput("beta_fraction must lie in (0, 1)")
        if not 0 < self.target_p < 1:
            raise InvalidInput("target_p must lie in (0, 1)")

    def metadata_lines(self) -> list:
        """Comment lines recording every experiment knob.

        The output directory is a destination, not a parameter, and is left
        out so identical runs emit byte-identical files anywhere.
        """
        out = []
        for f in fields(self):
            if f.name == "out_dir":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = _format_row(value)
            out.append(f"# {f.name} = {value}")
        return out


def _format_row(values) -> str:
    """Comma-joined values: floats round-trip exactly as ``%.17g``, the rest as ``str``."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values)


def _converter(default):
    """Parser of a value: the default's type, or for a tuple comma-separated entries of its entry type."""
    if isinstance(default, tuple):
        entry = type(default[0])
        return lambda text: tuple(entry(v.strip()) for v in text.split(",") if v.strip())
    return type(default)


def parse_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read overrides from a ``key = value`` file on top of the defaults."""
    defaults = ExperimentConfig()
    keys = {f.name for f in fields(defaults)}
    overrides = {}
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
        try:
            overrides[key] = _converter(getattr(defaults, key))(value)
        except ValueError:
            raise InvalidInput(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    return replace(base or defaults, **overrides)
