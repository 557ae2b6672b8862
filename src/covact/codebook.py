"""Codebook construction and the rank-one-sum measurement operator.

A codebook is an M x N complex matrix whose columns are the pilot sequences.
The measurement operator maps a real coefficient vector z to the Hermitian
matrix sum_n z_n a_n a_n^H; its real vectorization stacks the real and
imaginary parts of the flattened rank-one columns into a 2M^2 x N matrix so
that the Euclidean norm of the stacked image equals the Frobenius norm of the
operator image.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .config import _check_count, _checked_array, _checked_seed, _write_csv
from .errors import InvalidInput
from .hermitian import HermitianMatrix

_PRIME_CAP = 10_000


@functools.cache
def _sieve(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def nth_prime(k: int) -> int:
    """The k-th prime number, with nth_prime(1) == 2.  Valid for k <= 10^4."""
    _check_count("prime index", k, high=_PRIME_CAP)
    # 104729 is the 10^4-th prime; the sieve runs once per process.
    return _sieve(110_000)[k - 1]


def _nonzero_columns(name: str, values, dtype, rule: str) -> np.ndarray:
    """values as a read-only finite matrix copy, or InvalidInput(rule) if a column has norm 0."""
    arr = _checked_array(name, values, dtype, (None, None), copy=True)
    if np.any(np.linalg.norm(arr, axis=0) == 0.0):
        raise InvalidInput(rule)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Codebook:
    """Pilot matrix with columns a_n; every column must be nonzero."""

    columns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", _nonzero_columns("columns", self.columns, complex, "codebook columns must all be nonzero"))

    @property
    def pilot_len(self) -> int:
        return self.columns.shape[0]

    @property
    def num_users(self) -> int:
        return self.columns.shape[1]


def build_deterministic_codebook(M: int, N: int) -> Codebook:
    """Prime-phase codebook with entries of modulus m**-0.5.

    Entry (m, n) is ``m**-0.5 * exp(1j * sqrt(p_m / p_{M+1}) * pi
    / (N + N' + 1 - M**2) * (n - 1 + N'))`` with ``N' = max(M**2 - N, 0)``
    and p_k the k-th prime.  The construction attains the maximal order of
    the signed kernel condition but has a poor robustness constant, so it is
    kept out of the simulation defaults.
    """
    _check_count("M", M)
    _check_count("N", N)
    n_pad = max(M * M - N, 0)
    denom = N + n_pad + 1 - M * M
    m_idx = np.arange(1, M + 1, dtype=float)
    primes = np.array([nth_prime(m) for m in range(1, M + 2)], dtype=float)
    freq = np.sqrt(primes[:M] / primes[M]) * (np.pi / denom)
    shift = np.arange(N, dtype=float) + n_pad
    phases = np.outer(freq, shift)
    cols = (m_idx**-0.5)[:, None] * np.exp(1j * phases)
    return Codebook(cols)


def build_gaussian_codebook(M: int, N: int, seed) -> Codebook:
    """Codebook with i.i.d. circularly symmetric complex Gaussian entries.

    Entries have unit second absolute moment: real and imaginary parts are
    independent N(0, 1/2).  ``seed`` may be an int or a numpy Generator.
    """
    _check_count("M", M)
    _check_count("N", N)
    rng = np.random.default_rng(_checked_seed(seed))
    cols = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / np.sqrt(2)
    return Codebook(cols)


@dataclass(frozen=True, eq=False)
class StackedRealMatrix:
    """Real 2M^2 x N stacking of the vectorized rank-one codebook columns.

    Column n is the column-major flattening of a_n a_n^H with real parts on
    top of imaginary parts, so ``norm(values @ z) == frobenius(A(z))`` for
    every real z and every column has Euclidean norm ``norm(a_n)**2``.
    """

    values: np.ndarray

    def __post_init__(self):
        rule = "stacked columns must all be nonzero: a zero column is a zero pilot, or one whose squared norm underflows"
        object.__setattr__(self, "values", _nonzero_columns("values", self.values, float, rule))

    @property
    def num_users(self) -> int:
        return self.values.shape[1]


class MeasurementOperator:
    """The linear map z -> sum_n z_n a_n a_n^H and its adjoint."""

    __slots__ = ("codebook",)

    def __init__(self, codebook: Codebook):
        self.codebook = codebook

    @property
    def pilot_len(self) -> int:
        return self.codebook.pilot_len

    @property
    def num_users(self) -> int:
        return self.codebook.num_users

    def apply_raw(self, z) -> np.ndarray:
        """Evaluate sum_n z_n a_n a_n^H for real z as an M x M ndarray."""
        return self._apply(_checked_array("z", z, float, (self.num_users,)))

    def _apply(self, z) -> np.ndarray:
        """apply_raw without the check of z, for solver loops that checked it on entry.

        A stack of coefficient vectors (T, N) maps to a stack of matrices (T, M, M).
        """
        A = self.codebook.columns
        return (A * z[..., None, :]) @ A.conj().T

    def adjoint(self, H) -> np.ndarray:
        """Adjoint map: component n is Re(a_n^H H a_n), computed as B^T vec(H) for the stacked B.

        Satisfies <apply_raw(z), H>_F == <z, adjoint(H)> for all real z, which
        makes it the gradient backbone of the least-squares objective.
        """
        herm = HermitianMatrix(H)
        if herm.dim != self.pilot_len:
            raise InvalidInput(
                f"expected a {self.pilot_len} x {self.pilot_len} matrix, got dim {herm.dim}"
            )
        return self.stacked_real().values.T @ _vectorize(herm.values)

    def stacked_real(self) -> StackedRealMatrix:
        """Real vectorization of the operator as a read-only 2M^2 x N matrix: column n is vectorize_hermitian(a_n a_n^H)."""
        A = self.codebook.columns
        return StackedRealMatrix(_vectorize(np.einsum("mn,kn->nmk", A, A.conj())).T)


def vectorize_hermitian(H, M: int) -> np.ndarray:
    """Stack a Hermitian matrix the same way StackedRealMatrix stacks columns."""
    herm = HermitianMatrix(H)
    if herm.dim != M:
        raise InvalidInput(f"expected dimension {M}, got {herm.dim}")
    return _vectorize(herm.values)


def _vectorize(H) -> np.ndarray:
    """vectorize_hermitian of each matrix of a stack (..., M, M), without its checks."""
    flat = np.swapaxes(H, -1, -2).reshape(*H.shape[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def save_codebook_csv(codebook: Codebook, path) -> None:
    """Write a codebook as CSV rows ``m,n,re,im``, 1-based, column-major."""
    rows = ((m + 1, n + 1, v.real, v.imag) for (n, m), v in np.ndenumerate(codebook.columns.T))
    _write_csv(path, ("m", "n", "re", "im"), rows)


def load_codebook_csv(path) -> Codebook:
    """Read a codebook written by save_codebook_csv.

    Raises InvalidInput, naming the file, unless the header matches and every
    entry of the matrix appears exactly once, with 1-based indices and
    numeric parts.
    """
    header = ["m", "n", "re", "im"]
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (found := next(reader, None)) != header:
            raise InvalidInput(f"{path}: expected the header {','.join(header)}, got {found}")
        for line, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                r, c, re, im = fields
                key, value = (int(r) - 1, int(c) - 1), float(re) + 1j * float(im)
            except ValueError:
                raise InvalidInput(f"{path}, line {line}: expected {','.join(header)} numbers, got {fields}") from None
            if min(key) < 0 or key in entries:
                raise InvalidInput(f"{path}, line {line}: {'repeated' if key in entries else 'index below 1 in'} entry {r},{c}")
            entries[key] = value
    if not entries:
        raise InvalidInput(f"{path}: no entries")
    rows = max(r for r, _ in entries) + 1
    cols = max(c for _, c in entries) + 1
    if len(entries) < rows * cols:
        r, c = next((r, c) for c in range(cols) for r in range(rows) if (r, c) not in entries)
        raise InvalidInput(f"{path}: entry {r + 1},{c + 1} of the {rows} x {cols} matrix is missing")
    out = np.zeros((rows, cols), dtype=complex)
    for (r, c), v in entries.items():
        out[r, c] = v
    try:
        return Codebook(out)
    except InvalidInput as err:
        raise InvalidInput(f"{path}: {err}") from None
