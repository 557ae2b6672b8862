"""Shared fixtures: random matrix helpers, property strategies and the verified codebook."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covact import ExperimentConfig, HermitianMatrix, HpdMatrix
from covact.experiments import verified_codebook


def random_hermitian(rng, dim, scale=1.0) -> HermitianMatrix:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(scale * (raw + raw.conj().T) / 2)


def random_hpd(rng, dim, jitter=0.1) -> HpdMatrix:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HpdMatrix(raw @ raw.conj().T / dim + jitter * np.eye(dim))


# Property tests replay the same examples on every run, so a failure is
# reproducible and the suite's outcome does not depend on a local database.
settings.register_profile("covact", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("covact")


def real_vectors(n, bound=10.0):
    return arrays(np.float64, n, elements=st.floats(-bound, bound))


def complex_arrays(shape, bound=1.0):
    part = arrays(np.float64, shape, elements=st.floats(-bound, bound))
    return st.builds(lambda re, im: re + 1j * im, part, part)


def hermitian_matrices(dim, bound=1.0):
    return complex_arrays((dim, dim), bound).map(lambda raw: HermitianMatrix((raw + raw.conj().T) / 2))


def hpd_matrices(dim, jitter=0.1):
    return complex_arrays((dim, dim)).map(lambda raw: HpdMatrix(raw @ raw.conj().T / dim + jitter * np.eye(dim)))


@pytest.fixture(scope="session")
def default_config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def verified(default_config):
    """The exact-verified Gaussian codebook used by the simulation study."""
    return verified_codebook(default_config)
