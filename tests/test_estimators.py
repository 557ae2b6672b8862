"""NNLS, relaxed-ML coordinate descent and thresholding detection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from covact import (
    Codebook,
    HermitianMatrix,
    HpdMatrix,
    InvalidInput,
    MeasurementOperator,
    MlOptions,
    NnlsOptions,
    NotConverged,
    NotPositiveDefinite,
    StepRejected,
    build_gaussian_codebook,
    coordinate_step,
    draw_sparse_fading,
    kkt_residual,
    ml_coordinate_descent,
    ml_coordinate_descent_batch,
    ml_objective,
    nnls_estimate,
    sherman_morrison_update,
    threshold_detect,
)
from covact.codebook import vectorize_hermitian
from covact.estimators import save_estimate_csv, save_trace_csv

from conftest import complex_arrays, hermitian_matrices, hpd_matrices, random_hermitian, random_hpd


def scalar_setup():
    op = MeasurementOperator(Codebook(np.array([[1.0 + 0j]])))
    Sigma = HpdMatrix(np.array([[1.0 + 0j]]))
    W = HermitianMatrix(np.array([[3.0 + 0j]]))
    return op, Sigma, W


def brute_force_nnls(E, d):
    """Exhaustive-support oracle: unconstrained least squares per pattern,
    keep nonnegative solutions, return the best."""
    n = E.shape[1]
    best = (float(np.linalg.norm(d)), np.zeros(n))
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = E[:, list(support)]
            sol, *_ = np.linalg.lstsq(cols, d, rcond=None)
            if sol.min() < -1e-12:
                continue
            z = np.zeros(n)
            z[list(support)] = np.maximum(sol, 0.0)
            obj = float(np.linalg.norm(E @ z - d))
            if obj < best[0]:
                best = (obj, z)
    return best[1]


class TestNnls:
    def test_zero_truth(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 1))
        Sigma = HpdMatrix(np.eye(3))
        res = nnls_estimate(op, Sigma, HermitianMatrix(np.eye(3)))
        assert np.all(res.z == 0)
        assert res.residual == 0.0

    def test_exact_recovery_under_skc(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 2))
        Sigma = HpdMatrix(0.1 * np.eye(3))
        x = draw_sparse_fading(6, 2, 3).x
        W = HermitianMatrix(op.apply_raw(x) + Sigma.values)
        res = nnls_estimate(op, Sigma, W)
        assert np.linalg.norm(res.z - x) <= 1e-6

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            op = MeasurementOperator(build_gaussian_codebook(2, n, 100 + trial))
            Sigma = HpdMatrix(np.eye(2))
            W = random_hermitian(rng, 2, scale=2.0)
            res = nnls_estimate(op, Sigma, W)
            E = op.stacked_real().values
            d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), 2)
            oracle = brute_force_nnls(E, d)
            assert np.linalg.norm(res.z - oracle) <= 1e-6

    def test_agrees_with_scipy_nnls(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            op = MeasurementOperator(build_gaussian_codebook(3, 8, 6 + trial))
            Sigma = HpdMatrix(np.eye(3))
            W = random_hermitian(rng, 3, scale=2.0)
            res = nnls_estimate(op, Sigma, W)
            d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), 3)
            reference, rnorm = scipy_nnls(op.stacked_real().values, d)
            assert np.linalg.norm(res.z - reference) <= 1e-10
            assert res.residual == pytest.approx(rnorm, rel=1e-10, abs=1e-12)

    @given(W=hermitian_matrices(3, bound=3.0), seed=st.integers(0, 2**16))
    def test_kkt_certificate(self, W, seed):
        op = MeasurementOperator(build_gaussian_codebook(3, 10, seed))
        Sigma = HpdMatrix(np.eye(3))
        opts = NnlsOptions(kkt_tol=1e-9)
        res = nnls_estimate(op, Sigma, W, opts)
        assert np.all(res.z >= 0)
        # Recompute the certificate from the stacked problem, independently of the solver.
        E = op.stacked_real().values
        d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), 3)
        g = E.T @ (E @ res.z - d)
        free = res.z > 1e-12
        worst = max([0.0, *(-g[~free]), *np.abs(g[free])])
        assert worst <= opts.kkt_tol * 10
        assert res.kkt_residual == pytest.approx(worst, abs=1e-12)

    def test_residual_matches_stacked_objective(self):
        rng = np.random.default_rng(9)
        op = MeasurementOperator(build_gaussian_codebook(3, 7, 10))
        Sigma = HpdMatrix(np.eye(3))
        W = random_hermitian(rng, 3, scale=2.0)
        res = nnls_estimate(op, Sigma, W)
        E = op.stacked_real().values
        d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), 3)
        assert res.residual == pytest.approx(float(np.linalg.norm(E @ res.z - d)), abs=1e-10)

    def test_iteration_budget_raises_with_best_iterate(self):
        rng = np.random.default_rng(11)
        op = MeasurementOperator(build_gaussian_codebook(3, 10, 12))
        Sigma = HpdMatrix(np.eye(3))
        W = random_hermitian(rng, 3, scale=3.0)
        with pytest.raises(NotConverged) as err:
            nnls_estimate(op, Sigma, W, NnlsOptions(max_iterations=1))
        assert err.value.z is not None
        assert err.value.residual is not None


class TestMlObjective:
    def test_perfect_fit_value(self):
        rng = np.random.default_rng(13)
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 14))
        Sigma = random_hpd(rng, 3)
        z = np.abs(rng.standard_normal(6))
        W = HpdMatrix(Sigma.values + op.apply_raw(z))
        expected = 3 + 2 * np.log(np.diag(np.linalg.cholesky(W.values)).real).sum()
        assert ml_objective(op, Sigma, W, z) == pytest.approx(expected, rel=1e-10)

    def test_identity_case(self):
        op = MeasurementOperator(build_gaussian_codebook(4, 6, 15))
        Sigma = HpdMatrix(np.eye(4))
        assert ml_objective(op, Sigma, HermitianMatrix(np.eye(4)), np.zeros(6)) == pytest.approx(4.0)

    def test_rejects_negative_coefficients(self):
        op = MeasurementOperator(build_gaussian_codebook(2, 4, 16))
        with pytest.raises(InvalidInput):
            ml_objective(op, HpdMatrix(np.eye(2)), HermitianMatrix(np.eye(2)), np.array([-0.1, 0, 0, 0]))


class TestBoundary:
    """Every estimator entry point checks (op, Sigma, W[, z]) the same way."""

    ENTRY_POINTS = {
        "nnls_estimate": lambda op, Sigma, W, z: nnls_estimate(op, Sigma, W),
        "ml_coordinate_descent": lambda op, Sigma, W, z: ml_coordinate_descent(op, Sigma, W, MlOptions(z0=z)),
        "ml_objective": ml_objective,
        "kkt_residual": kkt_residual,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("sigma_dim, w_dim", [(2, 3), (3, 2)])
    def test_dimension_mismatch(self, entry, sigma_dim, w_dim):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 40))
        with pytest.raises(InvalidInput, match="pilot length"):
            self.ENTRY_POINTS[entry](op, HpdMatrix(np.eye(sigma_dim)), HermitianMatrix(np.eye(w_dim)), np.zeros(5))

    @pytest.mark.parametrize("entry", ["ml_objective", "kkt_residual", "ml_coordinate_descent"])
    @pytest.mark.parametrize(
        "z",
        [
            np.array([0.1, 0, 0, 0, -0.1]),
            np.array([0, 0, np.nan, 0, 0]),
            np.array([0, np.inf, 0, 0, 0]),
            np.zeros(4),
            np.zeros((1, 5)),
        ],
    )
    def test_bad_coefficients(self, entry, z):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 40))
        with pytest.raises(InvalidInput):
            self.ENTRY_POINTS[entry](op, HpdMatrix(np.eye(3)), HermitianMatrix(np.eye(3)), z)

    def test_caller_coefficients_untouched(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 40))
        z0 = np.zeros(5)
        ml_coordinate_descent(op, HpdMatrix(np.eye(3)), HermitianMatrix(2.0 * np.eye(3)), MlOptions(z0=z0))
        assert np.all(z0 == 0)


class TestCoordinateStep:
    def test_scalar_from_zero(self):
        _, Sigma, W = scalar_setup()
        assert coordinate_step(np.array([1.0 + 0j]), Sigma, W, 0.0) == pytest.approx(2.0)

    def test_scalar_clamped(self):
        W = HermitianMatrix(np.array([[3.0 + 0j]]))
        SigmaPrime = HpdMatrix(np.array([[1.0 / 6.0 + 0j]]))
        assert coordinate_step(np.array([1.0 + 0j]), SigmaPrime, W, 5.0) == pytest.approx(-3.0)

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(17)
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 18))
        Sigma = HpdMatrix(np.eye(3))
        x = draw_sparse_fading(6, 2, 19).x
        Z = Sigma.values + op.apply_raw(x)
        SigmaPrime = HpdMatrix(np.linalg.inv(Z))
        W = HermitianMatrix(Z)
        for n in range(6):
            t = coordinate_step(op.codebook.columns[:, n], SigmaPrime, W, x[n])
            assert abs(t) <= 1e-10

    def test_rejects_column_of_wrong_length(self):
        with pytest.raises(InvalidInput, match="a_n"):
            coordinate_step(np.ones(2, dtype=complex), HpdMatrix(np.eye(3)), HermitianMatrix(np.eye(3)), 0.0)


class TestShermanMorrison:
    def test_zero_step_identity(self):
        rng = np.random.default_rng(20)
        S = random_hpd(rng, 3)
        out = sherman_morrison_update(S, rng.standard_normal(3) + 0j, 0.0)
        np.testing.assert_allclose(out.values, S.values, atol=1e-14)

    def test_unit_vector_case(self):
        S = HpdMatrix(np.eye(2))
        out = sherman_morrison_update(S, np.array([1.0 + 0j, 0.0]), 1.0)
        np.testing.assert_allclose(out.values, np.diag([0.5, 1.0]), atol=1e-13)

    def test_rejects_column_of_wrong_length(self):
        with pytest.raises(InvalidInput, match="a_n"):
            sherman_morrison_update(HpdMatrix(np.eye(3)), np.ones(4, dtype=complex), 1.0)

    @given(S=hpd_matrices(4), a=complex_arrays(4), t=st.floats(0.1, 2.0))
    def test_matches_direct_inverse(self, S, a, t):
        out = sherman_morrison_update(S, a, t).values
        direct = np.linalg.inv(np.linalg.inv(S.values) + t * np.outer(a, a.conj()))
        assert np.linalg.norm(out - direct) <= 1e-9 * np.linalg.norm(direct)


class TestCoordinateDescent:
    def test_noise_only_stays_at_zero(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 22))
        Sigma = random_hpd(np.random.default_rng(23), 3)
        trace = ml_coordinate_descent(op, Sigma, HermitianMatrix(Sigma.values), MlOptions())
        assert np.abs(trace.z).max() <= 1e-12
        assert trace.sweeps == 1

    def test_truth_initialization_unchanged(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 24))
        Sigma = HpdMatrix(np.eye(3))
        x = draw_sparse_fading(6, 2, 25).x
        W = HermitianMatrix(Sigma.values + op.apply_raw(x))
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions(z0=x))
        assert np.abs(trace.z - x).max() <= 1e-10
        assert np.ptp(trace.objectives) <= 1e-10 * max(1.0, abs(trace.objectives[0]))

    def test_scalar_chain(self):
        op, Sigma, W = scalar_setup()
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions())
        assert trace.z[0] == pytest.approx(2.0)
        # After the first sweep (one coordinate update) the fit equals W.
        assert trace.objectives[1] == pytest.approx(3.0 / 3.0 + math.log(3.0), rel=1e-12)

    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(9)), noise=st.floats(0.0, 0.5))
    def test_monotone_objectives_random(self, seed, perm, noise):
        op = MeasurementOperator(build_gaussian_codebook(4, 9, seed))
        Sigma = HpdMatrix(0.5 * np.eye(4))
        x = draw_sparse_fading(9, 3, seed + 1).x
        real_w = Sigma.values + op.apply_raw(x) + noise * np.eye(4)
        W = HermitianMatrix(real_w)
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions(permutation=perm, while_iterations=30))
        replay_z, updates = replayed_updates(op, Sigma, W, perm, trace.sweeps)
        np.testing.assert_allclose(replay_z, trace.z, rtol=1e-8, atol=1e-10)
        for objectives in (trace.objectives, updates):
            assert np.all(np.diff(objectives) <= 1e-10 * np.abs(objectives[:-1]))

    @given(seed=st.integers(0, 2**16), noise=st.floats(0.0, 0.5))
    def test_public_step_and_update_replay_a_sweep(self, seed, noise):
        # coordinate_step followed by sherman_morrison_update, coordinate by
        # coordinate, must reproduce one sweep of the descent loop.
        op = MeasurementOperator(build_gaussian_codebook(3, 6, seed))
        Sigma = HpdMatrix(np.eye(3))
        rng = np.random.default_rng(seed)
        W = HermitianMatrix(Sigma.values + op.apply_raw(draw_sparse_fading(6, 2, rng).x) + noise * np.eye(3))
        perm = rng.permutation(6)
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions(permutation=perm, while_iterations=1))
        z = np.zeros(6)
        S = HpdMatrix(np.linalg.inv(Sigma.values))
        for n in perm:
            a = op.codebook.columns[:, n]
            t = coordinate_step(a, S, W, z[n])
            S = sherman_morrison_update(S, a, t)
            z[n] += t
        np.testing.assert_allclose(z, trace.z, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(S.values, trace.sigma_prime.values, rtol=1e-10, atol=1e-12)

    def test_inverse_drift_bounded(self):
        op = MeasurementOperator(build_gaussian_codebook(4, 9, 29))
        Sigma = HpdMatrix(np.eye(4))
        x = draw_sparse_fading(9, 4, 30).x
        W = HermitianMatrix(Sigma.values + op.apply_raw(x))
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions(while_iterations=60))
        assert trace.inverse_drift <= 1e-7 * 4

    def test_rejects_indefinite_observation(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 31))
        Sigma = HpdMatrix(np.eye(3))
        with pytest.raises(InvalidInput):
            ml_coordinate_descent(op, Sigma, HermitianMatrix(np.diag([1.0, 1.0, -0.5])), MlOptions())

    def test_fixed_point_survives_any_permutation(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 7, 32))
        Sigma = HpdMatrix(0.2 * np.eye(3))
        x = draw_sparse_fading(7, 2, 33).x
        W = HermitianMatrix(Sigma.values + op.apply_raw(x))
        first = ml_coordinate_descent(op, Sigma, W, MlOptions(z0=nnls_z(op, Sigma, W)))
        assert first.kkt_residual <= 1e-8
        rng = np.random.default_rng(34)
        for _ in range(3):
            perm = rng.permutation(7)
            again = ml_coordinate_descent(
                op, Sigma, W, MlOptions(z0=first.z, permutation=perm, while_iterations=1)
            )
            assert np.abs(again.z - first.z).max() <= 1e-10
            assert again.kkt_residual <= 1e-8


def replayed_updates(op, Sigma, W, perm, sweeps):
    """A cold-start descent replayed through coordinate_step and sherman_morrison_update.

    Returns the final coefficients and the objective before the first and
    after every coordinate update, for ``sweeps`` sweeps in the order ``perm``.
    """
    z = np.zeros(op.num_users)
    S = HpdMatrix(np.linalg.inv(Sigma.values))
    objectives = [ml_objective(op, Sigma, W, z)]
    for _ in range(sweeps):
        for n in perm:
            a = op.codebook.columns[:, n]
            t = coordinate_step(a, S, W, z[n])
            S = sherman_morrison_update(S, a, t)
            z[n] += t
            objectives.append(ml_objective(op, Sigma, W, z))
    return z, np.array(objectives)


def nnls_z(op, Sigma, W):
    return nnls_estimate(op, Sigma, W).z


def serial_ml(op, Sigma, W, opts):
    """The per-trial coordinate-descent loop that the batched kernel replaced.

    Kept as the reference of TestBatchedMl; returns (z, objectives, sweeps,
    sigma_prime, inverse_drift) with the arithmetic of that loop.
    """
    A = op.codebook.columns
    Sv, Wv = Sigma.values, W.values
    z = np.zeros(op.num_users) if opts.z0 is None else np.array(opts.z0, dtype=float)
    perm = np.arange(op.num_users) if opts.permutation is None else opts.permutation

    def fit():
        return Sv + (A * z) @ A.conj().T

    def objective():
        L = np.linalg.cholesky(fit())
        half = np.linalg.solve(L, Wv)
        trace_term = float(np.real(np.trace(np.linalg.solve(L.conj().T, half))))
        return trace_term + 2.0 * float(np.log(np.real(np.diag(L))).sum())

    def fresh_inverse():
        Z = fit()
        return np.linalg.inv((Z + Z.conj().T) / 2)

    sig = fresh_inverse()
    objectives = [objective()]
    sweeps = 0
    for sweep in range(opts.while_iterations):
        f_prev = objectives[-1]
        for n in perm:
            a = A[:, n]
            u = sig @ a
            q = float(np.real(np.vdot(a, u)))
            r = float(np.real(np.vdot(u, Wv @ u)))
            t = max(-z[n], (r - q) / (q * q))
            sig = sig - (t / (1.0 + t * q)) * np.outer(u, u.conj())
            z[n] += t
        sig = (sig + sig.conj().T) / 2
        sweeps = sweep + 1
        if sweeps % 25 == 0:
            sig = fresh_inverse()
        f_new = objective()
        objectives.append(f_new)
        if f_prev - f_new < opts.objective_tol:
            break
    drift = float(np.linalg.norm(sig @ fit() - np.eye(op.pilot_len)))
    return z, np.asarray(objectives), sweeps, HpdMatrix((sig + sig.conj().T) / 2).values, drift


def mixed_batch(seed, trials=12):
    """Observations and options mixing cold and warm starts, sweep caps,
    tolerances, exact and perturbed covariances."""
    rng = np.random.default_rng(seed)
    N = 17
    op = MeasurementOperator(build_gaussian_codebook(4, N, seed))
    Sigma = HpdMatrix(1e-4 * np.eye(4))
    Ws, opts = [], []
    for trial in range(trials):
        x = draw_sparse_fading(N, 1 + trial % 8, rng).x
        W = HermitianMatrix(Sigma.values + op.apply_raw(x) + (trial % 3 == 2) * 0.05 * random_hpd(rng, 4).values)
        opts.append(
            MlOptions(
                permutation=rng.permutation(N),
                z0=nnls_z(op, Sigma, W) if trial % 2 else None,
                while_iterations=(60, 30, 9)[trial % 3],
                objective_tol=(1e-10, 0.0, 1e-6, 1e-10)[trial % 4],
            )
        )
        Ws.append(W)
    return op, Sigma, Ws, opts


class TestBatchedMl:
    """ml_coordinate_descent_batch against the per-trial reference, bit for bit."""

    @pytest.mark.parametrize("seed", [41, 42])
    def test_matches_serial_loop(self, seed):
        op, Sigma, Ws, opts = mixed_batch(seed)
        traces = ml_coordinate_descent_batch(op, Sigma, Ws, opts)
        sweeps = []
        for W, o, trace in zip(Ws, opts, traces):
            z, objectives, n_sweeps, sigma_prime, drift = serial_ml(op, Sigma, W, o)
            assert np.array_equal(trace.z, z)
            assert np.array_equal(trace.objectives, objectives)
            assert trace.sweeps == n_sweeps
            assert np.array_equal(trace.sigma_prime.values, sigma_prime)
            assert trace.inverse_drift == drift
            assert trace.kkt_residual == kkt_residual(op, Sigma, W, z)
            sweeps.append((n_sweeps, o.while_iterations))
        # The batch holds trials that stop early, pass the refresh and hit their cap.
        assert any(n < cap for n, cap in sweeps)
        assert any(n > 25 for n, cap in sweeps)
        assert any(n == cap for n, cap in sweeps)

    def test_result_does_not_depend_on_the_batch(self):
        op, Sigma, Ws, opts = mixed_batch(43)
        together = ml_coordinate_descent_batch(op, Sigma, Ws, opts)
        order = np.random.default_rng(44).permutation(len(Ws))
        shuffled = ml_coordinate_descent_batch(op, Sigma, [Ws[i] for i in order], [opts[i] for i in order])
        for i, j in enumerate(order):
            for other in (ml_coordinate_descent(op, Sigma, Ws[j], opts[j]), shuffled[i]):
                assert np.array_equal(other.z, together[j].z)
                assert np.array_equal(other.objectives, together[j].objectives)
                assert np.array_equal(other.sigma_prime.values, together[j].sigma_prime.values)
                assert (other.sweeps, other.kkt_residual, other.inverse_drift) == (
                    together[j].sweeps, together[j].kkt_residual, together[j].inverse_drift
                )

    def test_empty_batch(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 45))
        assert ml_coordinate_descent_batch(op, HpdMatrix(np.eye(3)), [], []) == []

    def test_negative_eigenvalue_names_trial(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 46))
        Sigma = HpdMatrix(np.eye(3))
        Ws = [Sigma, Sigma, HermitianMatrix(np.diag([1.0, 1.0, -0.5]))]
        with pytest.raises(InvalidInput, match="trial 2: W has a negative eigenvalue"):
            ml_coordinate_descent_batch(op, Sigma, Ws, [MlOptions()] * 3)

    def test_step_rejected_names_trial(self):
        # Started at z = 2 with Sigma and W at 1.5e-12, the step back to zero
        # leaves 1 + t a^H S a = 7.5e-13, below the 1e-12 floor.
        op = MeasurementOperator(Codebook(np.array([[1.0 + 0j]])))
        Sigma = HpdMatrix(np.array([[1.5e-12 + 0j]]))
        with pytest.raises(StepRejected, match="trial 1: rank-one update denominator"):
            ml_coordinate_descent_batch(op, Sigma, [Sigma, Sigma], [MlOptions(), MlOptions(z0=[2.0])])

    def test_not_positive_definite_names_trial(self):
        # Sigma = 1.5e-12 I leaves the tracked inverse with eigenvalues 1/3 and
        # 6.7e11 once the first user fits W: too ill-conditioned to be HPD.
        op = MeasurementOperator(Codebook(np.array([[1.0 + 0j], [0.0]])))
        Sigma = HpdMatrix(1.5e-12 * np.eye(2))
        Ws = [Sigma, HermitianMatrix(np.diag([3.0, 1.5e-12]))]
        with pytest.raises(NotPositiveDefinite, match="trial 1: tracked inverse"):
            ml_coordinate_descent_batch(op, Sigma, Ws, [MlOptions(), MlOptions()])


class TestKktResidual:
    def test_zero_at_exact_fit(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 6, 35))
        Sigma = HpdMatrix(np.eye(3))
        x = np.abs(np.random.default_rng(36).standard_normal(6))
        W = HermitianMatrix(Sigma.values + op.apply_raw(x))
        assert kkt_residual(op, Sigma, W, x) <= 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 38))
        Sigma = HpdMatrix(np.eye(3))
        W = random_hpd(rng, 3)
        z = np.abs(rng.standard_normal(5)) + 0.5
        h = 1e-6
        Z = Sigma.values + op.apply_raw(z)
        S = np.linalg.inv(Z)
        A = op.codebook.columns
        grads = []
        for n in range(5):
            up = z.copy()
            up[n] += h
            down = z.copy()
            down[n] -= h
            fd = (ml_objective(op, Sigma, W, up) - ml_objective(op, Sigma, W, down)) / (2 * h)
            a = A[:, n]
            grad = float(np.real(a.conj() @ S @ a) - np.real(a.conj() @ S @ W.values @ S @ a))
            assert fd == pytest.approx(grad, rel=1e-4, abs=1e-8)
            grads.append(grad)
        # Every coordinate is free, so the residual is the largest |derivative|.
        assert kkt_residual(op, Sigma, W, z) == pytest.approx(max(np.abs(grads)), rel=1e-10)

    def test_active_coordinates_count_only_descent(self):
        # At z = 0 with Sigma = I and W = w I the derivative is (1 - w) ||a_n||^2:
        # a violated bound for w > 1, a satisfied one for w <= 1.
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 38))
        Sigma = HpdMatrix(np.eye(3))
        z = np.zeros(5)
        norms = np.linalg.norm(op.codebook.columns, axis=0) ** 2
        assert kkt_residual(op, Sigma, HermitianMatrix(4.0 * np.eye(3)), z) == pytest.approx(3.0 * norms.max(), rel=1e-12)
        assert kkt_residual(op, Sigma, HermitianMatrix(0.25 * np.eye(3)), z) == 0.0


class TestThresholdDetect:
    def test_worked_example(self):
        z = np.array([0.9, 0.05, 0.6, 0.01])
        out = threshold_detect(z, 0.2, {0, 2})
        assert out.above_threshold == frozenset({0, 2})
        assert out.largest == frozenset({0, 2})
        assert out.threshold_exact and out.largest_exact

    def test_zero_vector(self):
        out = threshold_detect(np.zeros(4), 0.5, {1})
        assert out.above_threshold == frozenset()
        assert len(out.largest) == 1

    def test_tie_break_lowest_index(self):
        out = threshold_detect(np.array([0.5, 0.5, 0.5]), 0.1, {2})
        assert out.largest == frozenset({0})

    def test_accurate_estimate_detects_support(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            x = draw_sparse_fading(10, 3, rng).x
            gap = x[x > 0].min()
            eps = 0.4 * gap
            z = np.clip(x + rng.uniform(-eps, eps, size=10) * 0.99, 0.0, None)
            # ||x - z||_inf <= eps < gap / 2 forces both detections to match.
            out = threshold_detect(z, eps, set(np.flatnonzero(x)))
            assert out.threshold_exact and out.largest_exact

    def test_requires_positive_threshold(self):
        with pytest.raises(InvalidInput):
            threshold_detect(np.ones(3), 0.0, {0})


class TestCsvOutputs:
    def test_estimate_and_trace_files(self, tmp_path):
        op, Sigma, W = scalar_setup()
        trace = ml_coordinate_descent(op, Sigma, W, MlOptions())
        save_estimate_csv(trace.z, tmp_path / "estimate.csv")
        save_trace_csv(trace, tmp_path / "trace.csv")
        est_lines = (tmp_path / "estimate.csv").read_text().strip().splitlines()
        assert est_lines[0] == "n,z_n"
        assert len(est_lines) == 2
        trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "sweep,objective,kkt_residual"
