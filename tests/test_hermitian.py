"""Hermitian core: construction, operator norms, HPD roots and inverses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covact import (
    HermitianMatrix,
    HpdMatrix,
    InvalidInput,
    NotPositiveDefinite,
    hpd_inverse,
    hpd_sqrt,
    operator_norm,
)
from covact.hermitian import HPD_TOL_FACTOR, _hermitian_part, _require_hpd

from conftest import hermitian_matrices, hpd_matrices, random_hermitian, random_hpd


def near_tolerance(seed, norm, factor):
    """A 3 x 3 Hermitian matrix of operator norm ``norm`` whose smallest eigenvalue is ``factor`` times the HPD tolerance."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    lam = np.array([factor * HPD_TOL_FACTOR * max(1.0, norm), norm / 2, norm])
    return HermitianMatrix((Q * lam) @ Q.conj().T).values


# Slices just above and below the tolerance, far from it on either side, positive definite and arbitrary Hermitian ones.
slices = st.one_of(
    st.builds(
        near_tolerance,
        st.integers(0, 2**16),
        st.floats(1e-3, 1e6),
        st.sampled_from([-1.0, 0.0, 0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 2.0, 1e6]),
    ),
    hpd_matrices(3).map(lambda H: H.values),
    hermitian_matrices(3).map(lambda H: H.values),
)


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
        # Finite entries whose symmetrized sum overflows, on the diagonal or off it.
        for values in ([[1e308, 0], [0, 1]], [[0, 1e308], [1e308, 0]], [[0, 1e308j], [-1e308j, 0]]):
            with pytest.raises(InvalidInput, match="got a non-finite entry"):
                HermitianMatrix(values)

    @pytest.mark.parametrize("trials", [1, 1600])
    def test_symmetrized_stack_keeps_the_layout(self, trials):
        # Later matmuls round by the memory layout, so a C-ordered stack must stay C-ordered;
        # past NumPy's buffer size (8,192 entries), X + swapaxes(X, -1, -2).conj() is not.
        X = np.arange(trials * 16, dtype=complex).reshape(trials, 4, 4)
        H = _hermitian_part("W", X, X.shape)
        assert H.flags.c_contiguous
        assert np.array_equal(H, (X + np.swapaxes(X.conj(), -1, -2)) / 2)

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


class TestRequireHpd:
    """The stacked check decides and words each slice as HpdMatrix does."""

    @given(stack=st.lists(slices, min_size=1, max_size=4))
    def test_matches_hpd_matrix_slice_by_slice(self, stack):
        messages = []
        for H in stack:
            try:
                HpdMatrix(H)
            except NotPositiveDefinite as exc:
                messages.append(str(exc))
            else:
                messages.append(None)
        prefixes = [f"slice {k}: " for k in range(len(stack))]
        failing = [k for k, message in enumerate(messages) if message is not None]
        if not failing:
            _require_hpd(np.array(stack), prefixes)
            return
        with pytest.raises(NotPositiveDefinite) as caught:
            _require_hpd(np.array(stack), prefixes)
        assert str(caught.value) == prefixes[failing[0]] + messages[failing[0]]

    def test_names_the_first_failing_slice(self):
        stack = np.array([np.eye(2), np.diag([1.0, 0.5 * HPD_TOL_FACTOR]), np.diag([1.0, -1.0])], dtype=complex)
        with pytest.raises(NotPositiveDefinite, match="^trial 1: smallest eigenvalue 5.000e-13 is below the HPD tolerance 1.000e-12$"):
            _require_hpd(stack, ["trial 0: ", "trial 1: ", "trial 2: "])
        _require_hpd(stack[:1], ["trial 0: "])

    def test_non_finite_slice_fails(self):
        stack = np.array([np.eye(2), np.diag([1.0, np.inf])], dtype=complex)
        with pytest.raises(NotPositiveDefinite, match="^slice 1: "):
            _require_hpd(stack, ["slice 0: ", "slice 1: "])


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
