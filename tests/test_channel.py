"""Measurement-model sampling, sample covariances and perturbations."""

import math

import numpy as np
import pytest

from covact import (
    FadingVector,
    HermitianMatrix,
    HpdMatrix,
    InvalidInput,
    build_gaussian_codebook,
    draw_sparse_fading,
    operator_norm,
    perturb_hermitian,
    sample_complex_gaussian,
    sample_covariance,
    simulate_measurements,
    stream,
)
from covact import channel
from covact.hermitian import hpd_sqrt

BAD_SEEDS = (-1, 2.7, True)
# The samplers that seed NumPy with their seed argument directly, each as a function of that seed.
SAMPLERS = {
    "draw_sparse_fading": lambda seed: draw_sparse_fading(6, 2, seed).x,
    "sample_complex_gaussian": lambda seed: sample_complex_gaussian(np.eye(2), 3, seed),
    "build_gaussian_codebook": lambda seed: build_gaussian_codebook(2, 3, seed).columns,
}


class TestStreams:
    def test_reproducible(self):
        a = stream(7, "x", 3).standard_normal(5)
        b = stream(7, "x", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_labels_differ(self):
        a = stream(7, "x", 3).standard_normal(5)
        b = stream(7, "x", 4).standard_normal(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "draw, seed",
        [pytest.param(lambda seed: stream(seed, "x"), seed, id=str(seed)) for seed in BAD_SEEDS]
        + [pytest.param(draw, seed, id=f"{name}-{seed}") for name, draw in SAMPLERS.items() for seed in BAD_SEEDS],
    )
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, draw, seed):
        with pytest.raises(InvalidInput, match="seed"):
            draw(seed)

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_samplers_draw_the_bits_of_numpy_generators(self, name):
        # The seed check passes the seed on unchanged: an int, a NumPy integer and the Generator
        # NumPy builds from that int all draw the same bits.
        for seed in (0, 5, 2024, 2**40):
            bits = SAMPLERS[name](seed)
            assert np.array_equal(SAMPLERS[name](np.int64(seed)), bits)
            assert np.array_equal(SAMPLERS[name](np.random.default_rng(seed)), bits)

    def test_generator_seed_spawns_a_child_on_every_call(self):
        g = np.random.default_rng(3)
        first, second = stream(g), stream(g)
        assert first is not g and second is not g
        assert not np.array_equal(first.standard_normal(5), second.standard_normal(5))

    def test_numpy_integer_seed(self):
        assert np.array_equal(stream(np.int64(5), "x").standard_normal(5), stream(5, "x").standard_normal(5))


class TestComplexGaussian:
    def test_empirical_covariance(self):
        Y = sample_complex_gaussian(HpdMatrix(np.eye(2)), 100_000, 0)
        emp = Y @ Y.conj().T / Y.shape[1]
        assert np.linalg.norm(emp - np.eye(2)) <= 0.03

    def test_seed_reproducible(self):
        a = sample_complex_gaussian(HpdMatrix(np.eye(3)), 10, 5)
        b = sample_complex_gaussian(HpdMatrix(np.eye(3)), 10, 5)
        assert np.array_equal(a, b)

    def test_scaling_by_covariance(self):
        a = sample_complex_gaussian(HpdMatrix(np.eye(3)), 10, 5)
        b = sample_complex_gaussian(HpdMatrix(4.0 * np.eye(3)), 10, 5)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)


class TestSimulate:
    @pytest.fixture()
    def codebook(self):
        return build_gaussian_codebook(4, 9, 2)

    def test_zero_fading_gives_noise_only(self, codebook):
        fading = FadingVector(np.zeros(9), sparsity=0)
        real = simulate_measurements(codebook, fading, HpdMatrix(np.eye(4)), 16, 3)
        np.testing.assert_allclose(real.Y, real.E, atol=1e-14)

    def test_single_user_small_noise(self, codebook):
        x = np.zeros(9)
        x[0] = 0.81
        real = simulate_measurements(
            codebook, FadingVector(x, 1), HpdMatrix(1e-12 * np.eye(4)), 8, 4
        )
        expected = np.outer(codebook.columns[:, 0], np.sqrt(0.81) * real.H[0])
        assert np.abs(real.Y - expected).max() <= 1e-5

    def test_model_identity(self, codebook):
        x = draw_sparse_fading(9, 3, 6)
        real = simulate_measurements(codebook, x, HpdMatrix(0.5 * np.eye(4)), 32, 7)
        rebuilt = codebook.columns @ (np.sqrt(x.x)[:, None] * real.H) + real.E
        assert np.linalg.norm(real.Y - rebuilt) <= 1e-12 * np.linalg.norm(real.Y)

    def test_sample_covariance_converges(self, codebook):
        x = draw_sparse_fading(9, 3, 8)
        Sigma = HpdMatrix(0.01 * np.eye(4))
        real = simulate_measurements(codebook, x, Sigma, 100_000, 9)
        op_target = (codebook.columns * x.x) @ codebook.columns.conj().T + Sigma.values
        emp = sample_covariance(real.Y).values
        assert np.linalg.norm(emp - op_target) <= 0.05

    def test_dimension_mismatch(self, codebook):
        with pytest.raises(InvalidInput):
            simulate_measurements(codebook, FadingVector(np.zeros(5), 0), HpdMatrix(np.eye(4)), 4, 0)

    @pytest.mark.parametrize("sigma_dim, K", [(3, 4), (4, 0)])
    def test_rejects_bad_noise_covariance_or_antennas(self, codebook, sigma_dim, K):
        with pytest.raises(InvalidInput):
            simulate_measurements(codebook, draw_sparse_fading(9, 3, 6), HpdMatrix(np.eye(sigma_dim)), K, 0)

    def test_generator_seed_draws_channel_then_noise(self, codebook):
        x = draw_sparse_fading(9, 3, 6)
        Sigma = HpdMatrix(0.5 * np.eye(4))
        real = simulate_measurements(codebook, x, Sigma, 8, np.random.default_rng(12))
        base = np.random.default_rng(12)
        rng_h, rng_e = base.spawn(1)[0], base.spawn(1)[0]
        H = (rng_h.standard_normal((9, 8)) + 1j * rng_h.standard_normal((9, 8))) / np.sqrt(2)
        assert np.array_equal(real.H, H)
        assert np.array_equal(real.E, sample_complex_gaussian(Sigma, 8, rng_e))

    @pytest.mark.parametrize("K", [1, 3, 250, 1000, 8000])
    def test_bits_of_the_full_product(self, K):
        # CN(0, 1) parts scaled into the complex views give the bits of
        # (re + 1j im) / sqrt(2), so H, E and Y = A sqrt(diag(x)) H + E keep theirs
        # at every support size of the simulation's shape.
        codebook = build_gaussian_codebook(4, 17, stream(2024, "codebook", 3))
        raw = stream(K, "sigma").standard_normal((2, 4, 4))
        Sigma = HpdMatrix((raw[0] + 1j * raw[1]) @ (raw[0] + 1j * raw[1]).conj().T / 4 + 1e-4 * np.eye(4))
        for trial in range(36):
            S = trial % 18
            fading = draw_sparse_fading(17, S, stream(K, trial)) if S else FadingVector(np.zeros(17), 0)
            real = simulate_measurements(codebook, fading, Sigma, K, 1000 * K + trial)
            rng_h, rng_e = stream(1000 * K + trial, "channel"), stream(1000 * K + trial, "noise")
            g = (rng_e.standard_normal((4, K)) + 1j * rng_e.standard_normal((4, K))) / np.sqrt(2)
            H = (rng_h.standard_normal((17, K)) + 1j * rng_h.standard_normal((17, K))) / np.sqrt(2)
            E = hpd_sqrt(Sigma).values @ g
            assert np.array_equal(real.H, H)
            assert np.array_equal(real.E, E)
            assert np.array_equal(real.Y, codebook.columns @ (np.sqrt(fading.x)[:, None] * H) + E)

    def test_deviation_decays_like_sqrt_k(self, codebook):
        # With x = 0 the sample covariance concentrates around Sigma at rate 1/sqrt(K).
        Sigma = HpdMatrix(np.eye(4))
        fading = FadingVector(np.zeros(9), 0)
        devs = []
        for K in (100, 1000, 10_000):
            acc = 0.0
            for trial in range(30):
                real = simulate_measurements(codebook, fading, Sigma, K, stream(11, K, trial))
                acc += np.linalg.norm(sample_covariance(real.Y).values - Sigma.values)
            devs.append(acc / 30)
        slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(devs), 1)[0]
        assert -0.6 <= slope <= -0.4


class TestSampleCovariance:
    def test_zero(self):
        assert np.all(sample_covariance(np.zeros((3, 4))).values == 0)

    def test_identity_snapshots(self):
        np.testing.assert_allclose(sample_covariance(np.eye(3)).values, np.eye(3) / 3)

    @pytest.mark.parametrize("Y", [HermitianMatrix(np.eye(2)), [[1.0, 2.0], [3.0]]], ids=["wrapper", "ragged"])
    def test_rejects_non_matrix_snapshots(self, Y):
        with pytest.raises(InvalidInput):
            sample_covariance(Y)

    def test_psd(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        lam = np.linalg.eigvalsh(sample_covariance(Y).values)
        assert lam[0] >= -1e-12


class TestPerturb:
    def test_zero_magnitude_identity(self):
        W0 = HermitianMatrix(np.diag([1.0, 2.0]))
        out = perturb_hermitian(W0, 0.0, 5)
        assert np.array_equal(out.values, W0.values)

    def test_distance_is_rho(self):
        rng = np.random.default_rng(22)
        W0 = HermitianMatrix(np.diag([1.0, 2.0, 3.0]))
        for rho in (1e-3, 0.1, 2.0):
            out = perturb_hermitian(W0, rho, 23)
            dist = operator_norm(HermitianMatrix(out.values - W0.values))
            assert abs(dist - rho) <= 1e-10 * max(1.0, rho)

    def test_seeds_give_distinct_unit_directions(self):
        W0 = HermitianMatrix(np.zeros((3, 3)))
        a = perturb_hermitian(W0, 1.0, 1).values
        b = perturb_hermitian(W0, 1.0, 2).values
        assert not np.allclose(a, b)
        assert operator_norm(HermitianMatrix(a)) == pytest.approx(1.0, abs=1e-10)
        assert operator_norm(HermitianMatrix(b)) == pytest.approx(1.0, abs=1e-10)

    def test_negative_rho_rejected(self):
        # Non-finite magnitudes are refused before any arithmetic (no RuntimeWarning).
        for rho in (-0.1, math.inf, math.nan):
            with pytest.raises(InvalidInput, match="finite and nonnegative"):
                perturb_hermitian(HermitianMatrix(np.eye(2)), rho, 0)

    def test_zero_draw_rejected(self, monkeypatch):
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

        labels = []
        monkeypatch.setattr(channel, "stream", lambda seed, *rest: labels.append(rest) or Zeros())
        with pytest.raises(InvalidInput, match="zero Hermitian perturbation"):
            perturb_hermitian(HermitianMatrix(np.eye(2)), 0.1, 0)
        assert labels == [("perturb", 0)]


class TestSparseFading:
    def test_single_coordinate(self):
        fading = draw_sparse_fading(1, 1, 0)
        np.testing.assert_allclose(fading.x, [1.0])

    def test_sparsity_and_norm(self):
        for seed in range(10):
            fading = draw_sparse_fading(12, 4, seed)
            assert np.count_nonzero(fading.x) == 4
            assert abs(np.linalg.norm(fading.x) - 1.0) <= 1e-14

    def test_support_uniformity(self):
        counts = {}
        for trial in range(10_000):
            fading = draw_sparse_fading(5, 2, stream(33, trial))
            counts[fading.support] = counts.get(fading.support, 0) + 1
        assert len(counts) == 10
        for count in counts.values():
            assert abs(count / 10_000 - 0.1) <= 0.02

    def test_zero_draw_rejected(self):
        class ZeroNormals(np.random.Generator):
            def standard_normal(self, size=None):
                return np.zeros(size)

        with pytest.raises(InvalidInput, match="all-zero fading vector"):
            draw_sparse_fading(5, 2, ZeroNormals(np.random.PCG64(0)))

    def test_invalid_sparsity(self):
        with pytest.raises(InvalidInput):
            draw_sparse_fading(4, 0, 0)
        with pytest.raises(InvalidInput):
            draw_sparse_fading(4, 5, 0)


class TestFadingVector:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInput):
            FadingVector(np.array([0.5, -0.1]), 2)

    def test_rejects_excess_support(self):
        with pytest.raises(InvalidInput):
            FadingVector(np.array([0.5, 0.1, 0.2]), 2)

    def test_rejects_complex_entries(self):
        with pytest.raises(InvalidInput, match="got complex entries"):
            FadingVector(np.array([0.5 + 0.5j, 0.0]), 1)
