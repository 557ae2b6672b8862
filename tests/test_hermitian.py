"""Hermitian core: construction, operator norms, HPD roots and inverses."""

import numpy as np
import pytest

from covact import (
    HermitianMatrix,
    HpdMatrix,
    InvalidInput,
    NotPositiveDefinite,
    hpd_inverse,
    hpd_sqrt,
    operator_norm,
)

from conftest import random_hermitian, random_hpd


class TestConstruction:
    def test_symmetrization_is_exact(self):
        raw = np.array([[1.0 + 0.5j, 2.0 + 1.0j], [0.1 - 0.2j, 3.0 - 0.25j]])
        H = HermitianMatrix(raw).values
        assert np.array_equal(H, H.conj().T)
        assert np.all(np.diag(H).imag == 0.0)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InvalidInput):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            HermitianMatrix(np.array([[np.nan, 0], [0, 1.0]]))

    def test_hpd_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            HpdMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(NotPositiveDefinite):
            HpdMatrix(np.diag([1.0, 0.0]))

    def test_hpd_is_a_hermitian_matrix(self):
        h = HpdMatrix(np.eye(2))
        assert isinstance(h, HermitianMatrix)
        assert HermitianMatrix(h).values is h.values
        assert repr(h) == "HpdMatrix(dim=2)"

    @pytest.mark.parametrize("wrapper", [HermitianMatrix, HpdMatrix])
    def test_wrapper_input_is_unwrapped(self, wrapper):
        h = wrapper(np.array([[2.0, 1j], [-1j, 3.0]]))
        assert np.array_equal(HermitianMatrix(h).values, h.values)

    def test_values_are_immutable(self):
        H = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            H.values[0, 0] = 5.0


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(HermitianMatrix(np.eye(3))) == pytest.approx(1.0)

    def test_sign_case(self):
        assert operator_norm(HermitianMatrix(np.diag([-5.0, 2.0]))) == pytest.approx(5.0)

    def test_random_vector_oracle(self):
        # Each random direction is sharpened by two matrix multiplies before
        # measuring ||H v||; the sup over samples must bracket the norm.
        rng = np.random.default_rng(6)
        H = random_hermitian(rng, 3)
        nrm = operator_norm(H)
        best = 0.0
        for _ in range(10_000):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = H.values @ (H.values @ v)
            scale = np.linalg.norm(w)
            if scale == 0:
                continue
            best = max(best, np.linalg.norm(H.values @ (w / scale)))
        assert nrm >= best - 1e-12
        assert nrm - best <= 1e-3


class TestHpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hpd_sqrt(HpdMatrix(np.eye(2))).values, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        R = hpd_sqrt(HpdMatrix(np.diag([4.0, 9.0]))).values
        np.testing.assert_allclose(R, np.diag([2.0, 3.0]), atol=1e-13)

    def test_square_back(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            Z = random_hpd(rng, 5)
            R = hpd_sqrt(Z).values
            assert np.linalg.norm(R @ R - Z.values) <= 1e-9 * np.linalg.norm(Z.values)


class TestHpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(hpd_inverse(HpdMatrix(np.eye(2))).values, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        inv = hpd_inverse(HpdMatrix(np.diag([2.0, 0.5]))).values
        np.testing.assert_allclose(inv, np.diag([0.5, 2.0]), atol=1e-13)

    def test_product_with_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            Z = random_hpd(rng, 4)
            inv = hpd_inverse(Z).values
            assert np.linalg.norm(Z.values @ inv - np.eye(4)) <= 1e-9 * 4

    def test_involution(self):
        rng = np.random.default_rng(9)
        Z = random_hpd(rng, 4)
        twice = hpd_inverse(hpd_inverse(Z)).values
        assert np.linalg.norm(twice - Z.values) <= 1e-9 * np.linalg.norm(Z.values)
