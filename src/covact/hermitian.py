"""Complex Hermitian linear algebra: operator norms, HPD roots and inverses.

All matrix types are immutable after construction and safe to share across
threads; every operation is a pure function.  Dimensions stay small (M <= 16
in all experiments), so everything goes through dense LAPACK routines.
"""

from __future__ import annotations

import numpy as np

from .config import _checked_array
from .errors import InvalidInput, NotPositiveDefinite

# Relative floor under which the smallest eigenvalue disqualifies a matrix
# from being treated as positive definite.
HPD_TOL_FACTOR = 1e-12


class HermitianMatrix:
    """A complex square matrix stored in exactly Hermitian form.

    The input is symmetrized to (H + H^H)/2 at construction; this makes the
    entries satisfy H[i, j] == conj(H[j, i]) exactly and zeroes the imaginary
    part of the diagonal exactly.  Downstream formulas assume exact
    Hermitianity, so construction is the single place where floating-point
    asymmetry is killed; an entry that overflows there is refused.  A
    wrapper input shares its read-only values.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        if isinstance(values, HermitianMatrix):
            self.values = values.values
            return
        arr = _checked_array("matrix", values, complex, (None, None))
        if arr.shape[0] != arr.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {arr.shape}")
        arr = _hermitian_part("matrix", arr, (None, None))
        arr.setflags(write=False)
        self.values = arr

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class HpdMatrix(HermitianMatrix):
    """A Hermitian positive definite matrix.

    Construction verifies that the smallest eigenvalue reaches
    ``HPD_TOL_FACTOR * max(1, ||H||_{2->2})`` (see _require_hpd).
    """

    __slots__ = ()

    def __init__(self, values):
        super().__init__(values)
        _require_hpd(self.values[None], [""])


def _ht(X):
    """Conjugate transpose of each matrix in a stack, conjugated first: X + _ht(X) keeps X's memory layout, which later bits depend on."""
    return np.swapaxes(X.conj(), -1, -2)


def _hermitian_part(name, X, shape):
    """(X + X^H) / 2 of the finite stack X, checked by _checked_array(name, ..., shape): an overflow raises, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        H = (X + _ht(X)) / 2
    return _checked_array(name, H, complex, shape)


def _require_hpd(stack, prefixes):
    """Raise NotPositiveDefinite unless each Hermitian H of the stack (T, M, M) passes HpdMatrix's test.

    The smallest eigenvalue must reach HPD_TOL_FACTOR * max(1, ||H||_{2->2}); the message of the first
    failing slice k starts with ``prefixes[k]``, and a non-finite slice fails.
    """
    lam = np.linalg.eigvalsh(stack)
    tol = HPD_TOL_FACTOR * np.maximum(1.0, np.abs(lam).max(axis=-1))
    if not (lam[:, 0] >= tol).all():
        k = int(np.argmin(lam[:, 0] >= tol))
        raise NotPositiveDefinite(f"{prefixes[k]}smallest eigenvalue {lam[k, 0]:.3e} is below the HPD tolerance {tol[k]:.3e}")


def as_hpd(values) -> HpdMatrix:
    """Coerce an array or matrix wrapper into an HpdMatrix; an HpdMatrix skips the eigenvalue check."""
    return values if isinstance(values, HpdMatrix) else HpdMatrix(values)


def operator_norm(H) -> float:
    """Operator norm from l2 to l2 of a Hermitian matrix: max_m |lambda_m|."""
    herm = HermitianMatrix(H)
    return float(np.abs(np.linalg.eigvalsh(herm.values)).max())


def hpd_sqrt(Z) -> HpdMatrix:
    """Unique HPD square root R of an HPD matrix, with R @ R == Z."""
    zpd = as_hpd(Z)
    lam, vec = np.linalg.eigh(zpd.values)
    root = (vec * np.sqrt(lam)) @ vec.conj().T
    return HpdMatrix(root)


def hpd_inverse(Z) -> HpdMatrix:
    """Inverse of an HPD matrix, computed through its eigendecomposition."""
    zpd = as_hpd(Z)
    lam, vec = np.linalg.eigh(zpd.values)
    inv = (vec / lam) @ vec.conj().T
    return HpdMatrix(inv)
