"""Codebooks and the rank-one-sum measurement operator."""

import numpy as np
import pytest
from hypothesis import example, given

from covact import (
    Codebook,
    InvalidInput,
    MeasurementOperator,
    StackedRealMatrix,
    build_deterministic_codebook,
    build_gaussian_codebook,
    nth_prime,
)
from covact.codebook import load_codebook_csv, save_codebook_csv, vectorize_hermitian
from covact.hermitian import HermitianMatrix

from conftest import hermitian_matrices, real_vectors


def sieve_oracle(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


class TestPrimes:
    def test_first_and_fifth(self):
        assert nth_prime(1) == 2
        assert nth_prime(5) == 11

    def test_twenty_fifth_against_sieve(self):
        assert nth_prime(25) == int(sieve_oracle(200)[24])
        assert nth_prime(25) == 97

    def test_range_errors(self):
        with pytest.raises(InvalidInput):
            nth_prime(0)
        with pytest.raises(InvalidInput):
            nth_prime(10_001)

    def test_large_index(self):
        assert nth_prime(10_000) == 104_729


class TestDeterministicCodebook:
    def test_small_case_values(self):
        cb = build_deterministic_codebook(2, 4)
        # N' = 0, phase denominator 1, so the first column has zero phase.
        assert cb.columns[0, 0] == pytest.approx(1.0)
        assert cb.columns[1, 0] == pytest.approx(2**-0.5)

    def test_row_moduli(self):
        for M, N in [(2, 4), (3, 4), (4, 17), (8, 64)]:
            cb = build_deterministic_codebook(M, N)
            expected = np.arange(1, M + 1, dtype=float) ** -0.5
            np.testing.assert_allclose(
                np.abs(cb.columns), np.broadcast_to(expected[:, None], (M, N)), atol=1e-14
            )

    def test_columns_nonzero_across_sizes(self):
        for M in range(1, 9):
            for N in (1, 4, 16, 64):
                cb = build_deterministic_codebook(M, N)
                assert np.linalg.norm(cb.columns, axis=0).min() > 0

    def test_padded_branch(self):
        # N < M^2 pads the phase index so the denominator stays 1.
        cb = build_deterministic_codebook(3, 4)
        assert cb.columns.shape == (3, 4)
        assert np.all(np.isfinite(cb.columns))


class TestGaussianCodebook:
    def test_deterministic_under_seed(self):
        a = build_gaussian_codebook(3, 7, 123)
        b = build_gaussian_codebook(3, 7, 123)
        assert np.array_equal(a.columns, b.columns)

    def test_unit_second_moment(self):
        cb = build_gaussian_codebook(1000, 1000, 0)
        mean_sq = np.mean(np.abs(cb.columns) ** 2)
        assert 0.99 <= mean_sq <= 1.01

    def test_zero_mean_clt_band(self):
        cb = build_gaussian_codebook(200, 200, 1)
        band = 3.5 / np.sqrt(cb.columns.size)
        assert abs(cb.columns.real.mean()) <= band
        assert abs(cb.columns.imag.mean()) <= band


class TestCodebookType:
    def test_rejects_zero_column(self):
        cols = np.ones((2, 3), dtype=complex)
        cols[:, 1] = 0
        with pytest.raises(InvalidInput):
            Codebook(cols)

    def test_csv_round_trip(self, tmp_path):
        cb = build_gaussian_codebook(3, 5, 42)
        path = tmp_path / "codebook.csv"
        save_codebook_csv(cb, path)
        loaded = load_codebook_csv(path)
        np.testing.assert_allclose(loaded.columns, cb.columns, rtol=0, atol=0)


class TestCodebookCsv:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("m,n,re,im\n1,1,1,0\n2,1,1,0\n1,2,1,0\n", ": entry 2,2 of the 2 x 2 matrix is missing"),
            ("m,n,re,im\n1,1,1,0\n1,1,2,0\n", ", line 3: repeated entry 1,1"),
            ("m,n,re,im\n0,1,1,0\n", ", line 2: index below 1 in entry 0,1"),
            ("row,col,re,im\n1,1,1,0\n", ": expected the header m,n,re,im"),
            ("m,n,re,im\n1,1,one,0\n", ", line 2: expected m,n,re,im numbers"),
            ("m,n,re,im\n1,1,1\n", ", line 2: expected m,n,re,im numbers"),
            ("m,n,re,im\n", ": no entries"),
            ("m,n,re,im\n1,1,nan,0\n", ": columns must be a finite complex array of shape (*, *), got a non-finite entry"),
            ("m,n,re,im\n1,1,1,inf\n", ": columns must be a finite complex array of shape (*, *), got a non-finite entry"),
            ("m,n,re,im\n1,1,1,0\n1,2,0,0\n", ": codebook columns must all be nonzero"),
        ],
        ids=["missing", "repeated", "zero-index", "header", "not-a-number", "short-row", "header-only", "nan", "inf", "zero-column"],
    )
    def test_rejects_malformed_file(self, tmp_path, body, message):
        path = tmp_path / "codebook.csv"
        path.write_text(body)
        with pytest.raises(InvalidInput) as err:
            load_codebook_csv(path)
        assert str(err.value).startswith(str(path) + message)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "codebook.csv"
        path.write_text("m,n,re,im\n1,1,1,0\n\n1,2,0,1\n")
        np.testing.assert_array_equal(load_codebook_csv(path).columns, [[1.0, 1j]])


class TestMeasurementOperator:
    @pytest.fixture()
    def op(self):
        return MeasurementOperator(build_gaussian_codebook(3, 6, 5))

    def test_zero_maps_to_zero(self, op):
        assert np.all(HermitianMatrix(op.apply_raw(np.zeros(6))).values == 0)

    def test_unit_vector_gives_rank_one(self, op):
        for n in range(6):
            e = np.zeros(6)
            e[n] = 1.0
            a = op.codebook.columns[:, n]
            np.testing.assert_allclose(HermitianMatrix(op.apply_raw(e)).values, np.outer(a, a.conj()), atol=1e-14)

    def test_linearity(self, op):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(6)
        np.testing.assert_allclose(
            HermitianMatrix(op.apply_raw(2 * z)).values, 2 * HermitianMatrix(op.apply_raw(z)).values, atol=1e-12
        )

    def test_dimension_mismatch(self, op):
        with pytest.raises(InvalidInput):
            op.apply_raw(np.zeros(5))
        with pytest.raises(InvalidInput, match="expected a 3 x 3 matrix, got dim 2"):
            op.adjoint(np.eye(2))
        with pytest.raises(InvalidInput, match="expected dimension 3, got 2"):
            vectorize_hermitian(np.eye(2), 3)

    def test_rejects_complex_coefficients(self, op):
        # Converting to float would drop the imaginary parts.
        with pytest.raises(InvalidInput, match="got complex entries"):
            op.apply_raw(np.array([1 + 5j, 0, 0, 0, 0, 0]))

    def test_adjoint_identity_entries(self, op):
        adj = op.adjoint(HermitianMatrix(np.eye(3)))
        np.testing.assert_allclose(adj, np.linalg.norm(op.codebook.columns, axis=0) ** 2, atol=1e-12)

    def test_adjoint_rank_one(self, op):
        A = op.codebook.columns
        m = 2
        adj = op.adjoint(HermitianMatrix(np.outer(A[:, m], A[:, m].conj())))
        expected = np.abs(A.conj().T @ A[:, m]) ** 2
        np.testing.assert_allclose(adj, expected, atol=1e-12)

    @given(z=real_vectors(6), H=hermitian_matrices(3, bound=10.0))
    @example(z=np.ones(6), H=HermitianMatrix(np.array([[1e-220, 1e-220j, 0], [-1e-220j, 0, 0], [0, 0, 0]])))
    def test_adjoint_inner_product_identity(self, z, H):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 5))
        lhs = np.real(np.trace(HermitianMatrix(op.apply_raw(z)).values.conj().T @ H.values))
        rhs = float(z @ op.adjoint(H))
        # Both sides sum the terms z_n a_n^H H a_n; bound rounding by their magnitudes.  The
        # Frobenius norm of H is taken as m * norm(H / m): norm(H) underflows to 0 below ~1e-154.
        m = float(np.abs(H.values).max())
        h_norm = m * np.linalg.norm(H.values / m) if m > 0 else 0.0
        scale = float(np.abs(z) @ np.linalg.norm(op.codebook.columns, axis=0) ** 2) * h_norm
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestStackedReal:
    @pytest.mark.parametrize(
        "values", [[[1.0, np.nan]], [[np.inf], [0.0]], [1.0, 2.0], np.zeros((2, 0))], ids=["nan", "inf", "1-d", "no-column"]
    )
    def test_rejects_non_finite_or_non_matrix_values(self, values):
        with pytest.raises(InvalidInput):
            StackedRealMatrix(values)

    def test_single_real_column(self):
        op = MeasurementOperator(Codebook(np.array([[1.0 + 0j]])))
        stacked = op.stacked_real()
        np.testing.assert_allclose(stacked.values, [[1.0], [0.0]])

    @given(z=real_vectors(9))
    def test_norm_bridge(self, z):
        op = MeasurementOperator(build_gaussian_codebook(4, 9, 17))
        lhs = np.linalg.norm(op.stacked_real().values @ z)
        rhs = np.linalg.norm(HermitianMatrix(op.apply_raw(z)).values)
        scale = float(np.abs(z) @ np.linalg.norm(op.codebook.columns, axis=0) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_column_norms(self):
        op = MeasurementOperator(build_gaussian_codebook(4, 9, 18))
        stacked = op.stacked_real().values
        expected = np.linalg.norm(op.codebook.columns, axis=0) ** 2
        np.testing.assert_allclose(np.linalg.norm(stacked, axis=0), expected, atol=1e-12)

    def test_hermitian_vectorization_consistency(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 19))
        rng = np.random.default_rng(20)
        z = rng.standard_normal(5)
        direct = op.stacked_real().values @ z
        via_matrix = vectorize_hermitian(HermitianMatrix(op.apply_raw(z)), 3)
        np.testing.assert_allclose(direct, via_matrix, atol=1e-12)
