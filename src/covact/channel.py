"""Sampling of the measurement model and controlled perturbations.

The model observes K antenna snapshots Y = A sqrt(diag(x)) H + E, where H has
i.i.d. CN(0, 1) entries, the noise columns are CN(0, Sigma), and x holds the
nonnegative large-scale fading coefficients.  The circularly symmetric
convention used throughout puts variance Sigma/2 on each of the real and
imaginary parts so that E[y y^H] = Sigma; this is the only convention
consistent with E[(1/K) Y Y^H] = A diag(x) A^H + Sigma.

All randomness flows through named streams derived from a base seed, so
trials can run in parallel without changing any result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .config import _check_count, _check_real, _checked_array, _checked_seed
from .errors import InvalidInput
from .hermitian import HermitianMatrix, as_hpd, hpd_sqrt, operator_norm


def stream(seed, *labels) -> np.random.Generator:
    """Independent, reproducible generator for a (seed, labels...) stream.

    Labels are hashed into the seed sequence, so streams with different
    labels are statistically independent and a fixed (seed, labels) pair is
    bit-reproducible across platforms and process layouts.  A Generator
    passed as ``seed`` spawns an independent child per call instead; any
    other seed must be a nonnegative int or NumPy integer.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(1)[0]
    words = [int(_checked_seed(seed))]
    for label in labels:
        digest = hashlib.blake2s(repr(label).encode(), digest_size=8).digest()
        words.append(int.from_bytes(digest, "big"))
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True, eq=False)
class FadingVector:
    """Nonnegative, at-most-S-sparse vector of large-scale fading coefficients."""

    x: np.ndarray
    sparsity: int

    def __post_init__(self):
        _check_count("sparsity", self.sparsity, low=0)
        arr = _checked_array("x", self.x, float, (None,), copy=True)
        if (arr < 0).any():
            raise InvalidInput("fading coefficients must be nonnegative")
        nnz = int(np.count_nonzero(arr))
        if nnz > self.sparsity:
            raise InvalidInput(f"{nnz} nonzeros exceed the sparsity budget {self.sparsity}")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @property
    def support(self) -> frozenset:
        return frozenset(np.flatnonzero(self.x).tolist())


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Received matrix Y together with the channel and noise factors."""

    Y: np.ndarray
    H: np.ndarray
    E: np.ndarray


def _standard_complex_normal(rng, shape) -> np.ndarray:
    """Independent CN(0, 1) entries: N(0, 1/2) real and imaginary parts, drawn real parts first.

    The parts are scaled by 1/sqrt(2) straight into the real and imaginary
    views; NumPy's division of (re + 1j im) by sqrt(2) multiplies both parts
    by that same reciprocal, so the bits are those of the division.
    """
    parts = rng.standard_normal((2, *shape))
    parts *= 1.0 / np.sqrt(2)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


def sample_complex_gaussian(Sigma, K: int, seed) -> np.ndarray:
    """K i.i.d. columns of a CN(0, Sigma) vector, shape (M, K).

    The columns are built as Sigma^(1/2) g with g having independent
    N(0, 1/2) real and imaginary parts, so E[y y^H] = Sigma exactly and
    scaling Sigma by c**2 scales the samples by c under the same seed.
    """
    _check_count("K", K)
    spd = as_hpd(Sigma)
    rng = np.random.default_rng(_checked_seed(seed))
    return hpd_sqrt(spd).values @ _standard_complex_normal(rng, (spd.dim, K))


def simulate_measurements(codebook: Codebook, fading: FadingVector, Sigma, K: int, seed) -> ChannelRealization:
    """Draw Y = A sqrt(diag(x)) H + E with fresh channel and noise streams."""
    if fading.x.size != codebook.num_users:
        raise InvalidInput("fading vector length does not match the number of users")
    rng_h = stream(seed, "channel")  # first: a Generator seed spawns its children in call order
    E = sample_complex_gaussian(Sigma, K, stream(seed, "noise"))
    if E.shape[0] != codebook.pilot_len:
        raise InvalidInput("noise covariance dimension does not match the pilot length")
    H = _standard_complex_normal(rng_h, (codebook.num_users, K))
    Y = codebook.columns @ (np.sqrt(fading.x)[:, None] * H) + E
    return ChannelRealization(Y=Y, H=H, E=E)


def sample_covariance(Y) -> HermitianMatrix:
    """Sample covariance (1/K) Y Y^H of the antenna snapshots."""
    Y = _checked_array("Y", Y, complex, (None, None))
    K = Y.shape[1]
    return HermitianMatrix(Y @ Y.conj().T / K)


def perturb_hermitian(W0, rho: float, seed) -> HermitianMatrix:
    """Add a unit-operator-norm Hermitian direction scaled by rho to W0.

    The direction is (N + N^H) / ||N + N^H||_{2->2} for a matrix N with
    independent standard Gaussian real and imaginary parts.  A zero draw has
    probability zero and raises InvalidInput.
    """
    _check_real("rho", rho, 0, low_closed=True)
    base = HermitianMatrix(W0)
    if rho == 0.0:
        return base
    M = base.dim
    rng = stream(seed, "perturb", 0)
    raw = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    sym = raw + raw.conj().T
    nrm = operator_norm(HermitianMatrix(sym))
    if nrm == 0:
        raise InvalidInput("drew a zero Hermitian perturbation")
    return HermitianMatrix(base.values + rho * (sym / nrm))


def draw_sparse_fading(N: int, S: int, seed) -> FadingVector:
    """Uniformly random S-sparse nonnegative vector with unit Euclidean norm.

    The support is uniform over the size-S subsets; the nonzero values are
    absolute standard Gaussians normalized to unit l2 norm; an all-zero
    draw has probability zero and raises InvalidInput.
    """
    _check_count("N", N)
    _check_count("S", S, high=N)
    rng = np.random.default_rng(_checked_seed(seed))
    support = rng.choice(N, size=S, replace=False)
    vals = np.abs(rng.standard_normal(S))
    norm = np.linalg.norm(vals)
    if norm == 0.0:
        raise InvalidInput("drew an all-zero fading vector")
    x = np.zeros(N)
    x[support] = vals / norm
    return FadingVector(x=x, sparsity=S)
