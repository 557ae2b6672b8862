"""NNLS, relaxed-ML coordinate descent and thresholding detection."""

import contextlib
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
    nnls_estimate_batch,
    sherman_morrison_update,
    threshold_detect,
)
from covact import estimators
from covact.codebook import vectorize_hermitian
from covact.estimators import _kkt_violation, _lstsq, save_estimate_csv, save_trace_csv

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


def nnls_active_set_reference(E, d):
    """The Lawson-Hanson loop as first written, with index arrays, a masked argmax and norm calls.

    _nnls_active_set must return its bits: the same z, residual, KKT residual
    and iteration count, or NotConverged with the same best iterate.  It
    reads the kernel's budget and KKT tolerance, which tests patch.
    """
    max_iterations, kkt_tol = estimators._NNLS_MAX_ITERATIONS, estimators._NNLS_KKT_TOL
    n = E.shape[1]
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    banned = np.zeros(n, dtype=bool)
    w = E.T @ d
    resid = float(np.linalg.norm(d))
    best = (resid, z.copy())
    outer = 0
    while True:
        candidates = ~passive & ~banned & (w > kkt_tol)
        if not candidates.any():
            break
        if outer >= max_iterations:
            raise NotConverged("active-set iteration budget exhausted", z=best[1], residual=best[0])
        outer += 1
        j = int(np.flatnonzero(candidates)[np.argmax(w[candidates])])
        passive[j] = True
        for _ in range(max_iterations):
            idx = np.flatnonzero(passive)
            s_passive, *_ = np.linalg.lstsq(E[:, idx], d, rcond=None)
            s = np.zeros(n)
            s[idx] = s_passive
            if s_passive.size and s_passive.min() > 0:
                z = s
                break
            shrink = passive & (s <= 0) & (z > 0)
            if not shrink.any():
                passive[j] = False
                banned[j] = True
                z[~passive] = 0.0
                break
            alpha = float((z[shrink] / (z[shrink] - s[shrink])).min())
            z = z + alpha * (s - z)
            passive &= z > 1e-14
            z[~passive] = 0.0
        resid_vec = d - E @ z
        w = E.T @ resid_vec
        resid = float(np.linalg.norm(resid_vec))
        if resid < best[0] - 1e-15 * max(1.0, best[0]):
            best = (resid, z.copy())
            banned[:] = False
    return z, resid, float(_kkt_violation(-w, z)), outer


@contextlib.contextmanager
def nnls_budget(max_iterations):
    """The NNLS kernel's budget of outer steps set to ``max_iterations`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_NNLS_MAX_ITERATIONS", max_iterations)
        yield


def _nnls_active_set(E, d):
    """The NNLS kernel on a batch of one: (z, residual, kkt_residual, iterations) of data vector d."""
    (res,) = estimators._nnls_active_set(E, d[None])
    return res.z, res.residual, res.kkt_residual, res.iterations


def assert_nnls_matches_reference(E, d):
    """_nnls_active_set returns the reference's bits, or raises NotConverged with its best iterate."""
    try:
        expected = nnls_active_set_reference(E, d)
    except NotConverged as exc:
        with pytest.raises(NotConverged) as caught:
            _nnls_active_set(E, d)
        assert np.array_equal(caught.value.z, exc.z) and caught.value.residual == exc.residual
        return None
    z, *rest = _nnls_active_set(E, d)
    assert np.array_equal(z, expected[0]) and tuple(rest) == expected[1:]
    return expected


def nnls_instances():
    """The random instances of the oracle and SciPy comparisons below, in their draw order."""
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        yield MeasurementOperator(build_gaussian_codebook(2, n, 100 + trial)), HpdMatrix(np.eye(2)), random_hermitian(rng, 2, scale=2.0)
    rng = np.random.default_rng(5)
    for trial in range(10):
        yield MeasurementOperator(build_gaussian_codebook(3, 8, 6 + trial)), HpdMatrix(np.eye(3)), random_hermitian(rng, 3, scale=2.0)


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
        res = nnls_estimate(op, Sigma, W)
        assert np.all(res.z >= 0)
        # Recompute the certificate from the stacked problem, independently of the solver.
        E = op.stacked_real().values
        d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), 3)
        g = E.T @ (E @ res.z - d)
        free = res.z > 1e-12
        worst = max([0.0, *(-g[~free]), *np.abs(g[free])])
        assert worst <= estimators._NNLS_KKT_TOL * 10
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

    def test_residual_and_certificate_at_returned_z(self):
        for op, Sigma, W in nnls_instances():
            res = nnls_estimate(op, Sigma, W)
            E = op.stacked_real().values
            d = vectorize_hermitian(HermitianMatrix(W.values - Sigma.values), op.pilot_len)
            assert res.residual == float(np.linalg.norm(d - E @ res.z))
            assert res.kkt_residual == pytest.approx(_kkt_violation(E.T @ (E @ res.z - d), res.z), abs=1e-12)

    def test_iteration_budget_raises_with_best_iterate(self):
        rng = np.random.default_rng(11)
        op = MeasurementOperator(build_gaussian_codebook(3, 10, 12))
        Sigma = HpdMatrix(np.eye(3))
        W = random_hermitian(rng, 3, scale=3.0)
        with nnls_budget(max_iterations=1), pytest.raises(NotConverged) as err:
            nnls_estimate(op, Sigma, W)
        assert err.value.z is not None
        assert err.value.residual is not None


    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 10),
        n=st.integers(1, 12),
        parallel=st.booleans(),
        max_iterations=st.sampled_from([1, 2, 3, 300]),
    )
    def test_matches_reference_loop_bit_for_bit(self, seed, m, n, parallel, max_iterations):
        rng = np.random.default_rng(seed)
        E, d = rng.standard_normal((m, n)), rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        if parallel and n > 1:
            E[:, 1] = -E[:, 0] * rng.uniform(0.5, 2.0)
        with nnls_budget(max_iterations):
            assert_nnls_matches_reference(E, d)

    def test_matches_reference_on_the_panel_operators(self):
        for op, Sigma, W in nnls_instances():
            d = vectorize_hermitian(W.values - Sigma.values, op.pilot_len)
            assert assert_nnls_matches_reference(op.stacked_real().values, d) is not None

    def test_matches_reference_when_a_column_is_banned(self):
        # Column 1 is column 0 negated up to a part that lstsq's rank cutoff
        # drops: it enters with w_1 = 1e-8 > kkt_tol, takes a negative
        # coefficient and is banned, so two iterations end with z_1 = 0.
        E = np.array([[1.0, -1.0], [0.0, 1e-16], [0.0, 0.0]])
        z, resid, kkt, iterations = assert_nnls_matches_reference(E, np.array([1.0, 1e8, 0.0]))
        assert z.tolist() == [1.0, 0.0] and iterations == 2 and kkt > estimators._NNLS_KKT_TOL

    def test_matches_reference_at_zero_data(self):
        E = np.random.default_rng(3).standard_normal((6, 5))
        z, resid, kkt, iterations = assert_nnls_matches_reference(E, np.zeros(6))
        assert not z.any() and resid == kkt == 0.0 and iterations == 0

    def test_matches_reference_when_the_budget_runs_out(self):
        rng = np.random.default_rng(11)
        E, d = rng.standard_normal((8, 10)), rng.standard_normal(8)
        with nnls_budget(max_iterations=1):
            with pytest.raises(NotConverged):
                _nnls_active_set(E, d)
            assert_nnls_matches_reference(E, d)


def assert_batch_matches_reference(E, D):
    """Every row of one kernel batch returns the reference's bits for that row alone.

    If rows exhaust the budget, the batch raises NotConverged for the lowest
    of them, naming that row and carrying the reference's best iterate; the
    other rows are then checked in a batch of their own.  Returns the
    reference result (or error) of each row.
    """
    expected = []
    for d in D:
        try:
            expected.append(nnls_active_set_reference(E, d))
        except NotConverged as exc:
            expected.append(exc)
    failing = [i for i, e in enumerate(expected) if isinstance(e, NotConverged)]
    if failing:
        first = failing[0]
        with pytest.raises(NotConverged, match=f"^trial {first}: active-set iteration budget exhausted$") as caught:
            estimators._nnls_active_set(E, D)
        assert np.array_equal(caught.value.z, expected[first].z) and caught.value.residual == expected[first].residual
    rows = [i for i in range(len(D)) if i not in failing]
    if rows:
        for i, res in zip(rows, estimators._nnls_active_set(E, D[rows])):
            z, *rest = expected[i]
            assert np.array_equal(res.z, z) and (res.residual, res.kkt_residual, res.iterations) == tuple(rest), i
    return expected


class TestBatchedNnls:
    """The NNLS kernel on stacks of data vectors against the per-trial reference, bit for bit."""

    def test_mixed_batch_matches_reference_row_by_row(self):
        rng = np.random.default_rng(21)
        E = rng.standard_normal((12, 9))
        D = [E @ (rng.uniform(0.5, 2.0, 9) * (rng.permutation(9) < size)) + 0.01 * rng.standard_normal(12) for size in range(1, 8)]
        D = np.array(D + [np.zeros(12), 10.0 * rng.standard_normal(12), rng.standard_normal(12)])
        expected = assert_batch_matches_reference(E, D)
        # The rows end on passive sets of several sizes, the zero row without a single iteration.
        assert len({np.count_nonzero(z) for z, *_ in expected}) >= 5
        assert expected[7][1:] == (0.0, 0.0, 0)
        # An outer step adds one passive column, so under a budget of 3 the
        # rows whose solutions have more nonzeros exhaust it; the others finish.
        with nnls_budget(max_iterations=3):
            capped = assert_batch_matches_reference(E, D)
        exhausted = [isinstance(e, NotConverged) for e in capped]
        assert exhausted == [np.count_nonzero(e[0]) > 3 for e in expected] and 0 < sum(exhausted) < len(D)

    def test_batch_with_a_banned_column(self):
        # The matrix of test_matches_reference_when_a_column_is_banned: the
        # first row bans column 1, the others never need to.
        E = np.array([[1.0, -1.0], [0.0, 1e-16], [0.0, 0.0]])
        D = np.array([[1.0, 1e8, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [-1.0, 0.0, 3.0], [1.0, 1e8, 0.0]])
        expected = assert_batch_matches_reference(E, D)
        assert expected[0][0].tolist() == [1.0, 0.0] and expected[0][3] == 2
        # The banning rows need two outer steps; the others finish within one.
        with nnls_budget(max_iterations=1):
            capped = assert_batch_matches_reference(E, D)
        assert [isinstance(e, NotConverged) for e in capped] == [True, False, False, False, True]

    def test_batch_where_a_step_empties_the_passive_set(self):
        # Columns 0-2 are nearly parallel.  On the first data vector an inner
        # step drops every passive column at once; the next lstsq has no
        # column, and the entering column is banned as when it cannot leave zero.
        E = np.array(
            [
                [-2.1239705899729655, 2.21482072897128, -2.1239705890890295, -1.4517165964571983, -0.1838168016169913],
                [-0.5495917260101165, 0.5730998126738674, -0.5495917269774175, 0.09739438431358367, 0.06510919403732737],
            ]
        )
        D = np.array([[1.0829990184383975, -0.6699227899994218], [1.0, 0.0], [0.0, 0.0], [-1.0, 2.0]])
        expected = assert_batch_matches_reference(E, D)
        assert expected[0][3] == 9

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 10),
        n=st.integers(1, 12),
        parallel=st.booleans(),
        trials=st.integers(1, 6),
        max_iterations=st.sampled_from([1, 2, 3, 300]),
    )
    def test_matches_reference_on_stacks(self, seed, m, n, parallel, trials, max_iterations):
        # Stacks of the instances of test_matches_reference_loop_bit_for_bit: one E, a data vector per row.
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((m, n))
        D = np.array([rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4) for _ in range(trials)])
        if parallel and n > 1:
            E[:, 1] = -E[:, 0] * rng.uniform(0.5, 2.0)
        with nnls_budget(max_iterations):
            assert_batch_matches_reference(E, D)

    @pytest.mark.parametrize("kkt_tol", [1e-11, 1e-6])
    def test_result_does_not_depend_on_the_batch(self, monkeypatch, kkt_tol):
        monkeypatch.setattr(estimators, "_NNLS_KKT_TOL", kkt_tol)
        op, Sigma, Ws, _ = mixed_batch(47)
        together = nnls_estimate_batch(op, Sigma, Ws)
        order = np.random.default_rng(48).permutation(len(Ws))
        shuffled = nnls_estimate_batch(op, Sigma, [Ws[i] for i in order])
        for i, j in enumerate(order):
            for other in (nnls_estimate(op, Sigma, Ws[j]), shuffled[i]):
                assert np.array_equal(other.z, together[j].z)
                assert (other.residual, other.kkt_residual, other.iterations) == (
                    together[j].residual, together[j].kkt_residual, together[j].iterations
                )

    def test_not_converged_names_trial_with_its_best_iterate(self, monkeypatch):
        # Trials 0 and 1 (one and two active users) finish within a budget
        # of three outer steps; trial 2 (three users and a perturbed
        # covariance) is the first to exhaust it.
        op, Sigma, Ws, _ = mixed_batch(49, trials=4)
        monkeypatch.setattr(estimators, "_NNLS_MAX_ITERATIONS", 3)
        for W in Ws[:2]:
            nnls_estimate(op, Sigma, W)
        d = vectorize_hermitian(Ws[2].values - Sigma.values, op.pilot_len)
        with pytest.raises(NotConverged) as expected:
            nnls_active_set_reference(op.stacked_real().values, d)
        with pytest.raises(NotConverged, match="^trial 2: active-set iteration budget exhausted$") as caught:
            nnls_estimate_batch(op, Sigma, Ws)
        assert np.array_equal(caught.value.z, expected.value.z)
        assert caught.value.residual == expected.value.residual

    def test_empty_batch(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 50))
        assert nnls_estimate_batch(op, HpdMatrix(np.eye(3)), []) == []

    def test_rejects_invalid_observation_in_batch(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 52))
        with pytest.raises(InvalidInput, match="pilot length"):
            nnls_estimate_batch(op, HpdMatrix(np.eye(3)), [np.eye(3), np.eye(2)])


class TestStackedLstsq:
    """The stacked private lstsq gufunc call returns the public np.linalg.lstsq bits.

    A NumPy release that changes numpy.linalg._umath_linalg.lstsq must fail
    here rather than move a byte of the NNLS results.
    """

    def test_column_subsets_of_every_size(self):
        rng = np.random.default_rng(53)
        E = rng.standard_normal((32, 17))
        for k in range(1, 18):
            cols = np.array([np.sort(rng.permutation(17)[:k]) for _ in range(4)] + [np.arange(k)])
            D = rng.standard_normal((len(cols), 32))
            # E.T[cols] swapped to (G, 32, k) is a strided view, as the kernel passes it.
            x = _lstsq(np.swapaxes(E.T[cols], 1, 2), D)
            for g, (c, d) in enumerate(zip(cols, D)):
                assert x[g].tobytes() == np.linalg.lstsq(E[:, c], d, rcond=None)[0].tobytes(), (k, c)

    def test_rank_deficient_system(self):
        rng = np.random.default_rng(54)
        E = rng.standard_normal((32, 17))
        E[:, 5] = 2.0 * E[:, 3]
        E[:, 9] = E[:, 3] - E[:, 7]
        cols = np.array([[1, 3, 5, 7, 9, 12], [0, 2, 4, 6, 8, 10]])
        assert np.linalg.matrix_rank(E[:, cols[0]]) == 4
        D = rng.standard_normal((2, 32))
        x = _lstsq(np.swapaxes(E.T[cols], 1, 2), D)
        for g in range(2):
            assert x[g].tobytes() == np.linalg.lstsq(E[:, cols[g]], D[g], rcond=None)[0].tobytes()

    @pytest.mark.parametrize("wide", [True, False])
    def test_cutoff_takes_the_larger_dimension(self, wide):
        # The singular value ratio 5.8e-16 lies between 2 eps and 4 eps, so
        # the rank, hence the solution, depends on the cutoff being eps * max(m, k).
        A = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0 + 2.6e-15, 1.0, 1.0]]) / 2
        A, b = (A, np.array([1.0, 2.0])) if wide else (A.T.copy(), np.array([1.0, 2.0, -1.0, 0.5]))
        eps = np.finfo(float).eps
        assert not np.array_equal(np.linalg.lstsq(A, b, rcond=2 * eps)[0], np.linalg.lstsq(A, b, rcond=4 * eps)[0])
        assert _lstsq(A[None], b[None])[0].tobytes() == np.linalg.lstsq(A, b, rcond=None)[0].tobytes()

    def test_failed_svd_raises_as_the_public_call(self):
        A = np.ones((1, 4, 2))
        A[0, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least Squares"):
            np.linalg.lstsq(A[0], np.ones(4), rcond=None)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least Squares"):
            _lstsq(A, np.ones((1, 4)))


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
            np.array([0, 0, 0.5j, 0, 0]),
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


class TestBatchBoundary:
    """The batches check all their observations and starts at once; a bad one fails the batch wherever it sits."""

    BATCHES = {
        "nnls_estimate_batch": lambda op, Sigma, Ws: nnls_estimate_batch(op, Sigma, Ws),
        "ml_coordinate_descent_batch": lambda op, Sigma, Ws: ml_coordinate_descent_batch(op, Sigma, Ws, [MlOptions()] * len(Ws)),
    }

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad_W",
        [
            np.eye(2),
            np.eye(3)[:, :2],
            np.ones(3),
            np.diag([1.0, np.nan, 1.0]),
            np.diag([1.0, 1.0, np.inf]),
            # Finite, but (W + W^H) / 2 overflows on the diagonal, or off it.
            np.diag([1e308, 1.0, 1.0]),
            np.array([[1.0, 1e308, 0], [1e308, 1.0, 0], [0, 0, 1.0]]),
        ],
    )
    def test_rejects_a_bad_observation_anywhere(self, batch, position, bad_W):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 40))
        Ws = [HermitianMatrix(2.0 * np.eye(3)), 2.0 * np.eye(3)] * 2 + [HermitianMatrix(3.0 * np.eye(3))]
        Ws[position] = bad_W
        with pytest.raises(InvalidInput):
            self.BATCHES[batch](op, HpdMatrix(np.eye(3)), Ws)

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad_z0", [np.array([0.1, 0, 0, 0, -0.1]), np.array([0, 0, np.nan, 0, 0]), np.zeros(4)])
    def test_rejects_a_bad_start_anywhere(self, position, bad_z0):
        # A start of another length is named with its shape, or the first start after it with theirs.
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 40))
        z0s = [None, np.zeros(5), None, np.full(5, 0.1), None]
        z0s[position] = bad_z0
        message = r"z entries must be nonnegative|z must be a finite float array of shape \(5, 5\), got (a non-finite entry|entry [1-4] of shape \((4|5),\))"
        with pytest.raises(InvalidInput, match=message):
            ml_coordinate_descent_batch(op, HpdMatrix(np.eye(3)), [2.0 * np.eye(3)] * 5, [MlOptions(z0=z0) for z0 in z0s])

    def test_plain_arrays_give_the_bits_of_wrapped_ones(self):
        # Observations that are not exactly Hermitian are symmetrized once for
        # the whole batch, with the bits HermitianMatrix gives each of them.
        op, Sigma, Ws, opts = mixed_batch(50)
        rng = np.random.default_rng(51)
        plain = [W.values + 1e-9 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) for W in Ws]
        assert not any(np.array_equal(P, P.conj().T) for P in plain)
        wrapped = [HermitianMatrix(P) for P in plain]
        for a, b in zip(nnls_estimate_batch(op, Sigma, plain), nnls_estimate_batch(op, Sigma, wrapped)):
            assert np.array_equal(a.z, b.z) and (a.residual, a.kkt_residual, a.iterations) == (b.residual, b.kkt_residual, b.iterations)
        for a, b in zip(ml_coordinate_descent_batch(op, Sigma, plain, opts), ml_coordinate_descent_batch(op, Sigma, wrapped, opts)):
            assert np.array_equal(a.z, b.z) and np.array_equal(a.objectives, b.objectives)
            assert np.array_equal(a.sigma_prime, b.sigma_prime)
            assert (a.sweeps, a.kkt_residual, a.inverse_drift) == (b.sweeps, b.kkt_residual, b.inverse_drift)
        for P, H in zip(plain, wrapped):
            assert ml_objective(op, Sigma, P, np.ones(17)) == ml_objective(op, Sigma, H, np.ones(17))
            assert kkt_residual(op, Sigma, P, np.ones(17)) == kkt_residual(op, Sigma, H, np.ones(17))

    def test_sigma_prime_is_read_only(self):
        op, Sigma, Ws, opts = mixed_batch(52, trials=2)
        trace = ml_coordinate_descent_batch(op, Sigma, Ws, opts)[0]
        assert trace.sigma_prime.shape == (4, 4)
        with pytest.raises(ValueError):
            trace.sigma_prime[0, 0] = 1.0


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

    @pytest.mark.parametrize(
        "a_n, W, x_n, match",
        [
            (np.ones(2), np.eye(3), 0.0, "W must have shape"),
            (np.ones(2), np.eye(2), math.nan, "x_n"),
            (np.ones(2), np.eye(2), -1.0, "x_n"),
            (np.array([math.nan, 1.0]), np.eye(2), 0.0, "a_n must be a finite"),
        ],
        ids=["W-dimension", "nan-x_n", "negative-x_n", "nan-a_n"],
    )
    def test_rejects_invalid_input(self, a_n, W, x_n, match):
        with pytest.raises(InvalidInput, match=match):
            coordinate_step(a_n, np.eye(2), W, x_n)


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

    @pytest.mark.parametrize(
        "a_n, t, match", [(np.array([math.nan, 1.0]), 1.0, "a_n must be a finite"), (np.ones(2), math.nan, "t must be finite")]
    )
    def test_rejects_non_finite_input(self, a_n, t, match):
        with pytest.raises(InvalidInput, match=match):
            sherman_morrison_update(np.eye(2), a_n, t)

    @given(S=hpd_matrices(4), a=complex_arrays(4), t=st.floats(0.1, 2.0))
    def test_matches_direct_inverse(self, S, a, t):
        out = sherman_morrison_update(S, a, t).values
        direct = np.linalg.inv(np.linalg.inv(S.values) + t * np.outer(a, a.conj()))
        assert np.linalg.norm(out - direct) <= 1e-9 * np.linalg.norm(direct)


class TestCoordinateDescent:
    @pytest.mark.parametrize("perm", [[0.6, 1.9, 2.2], [0, 0, 1], [1, 2, 3]])
    def test_options_reject_bad_permutation(self, perm):
        with pytest.raises(InvalidInput, match="permutation"):
            MlOptions(permutation=perm)

    @pytest.mark.parametrize(
        "options, field", [(lambda: MlOptions(while_iterations=2.5), "while_iterations")], ids=["ml-fractional-sweeps"]
    )
    def test_options_reject_bad_values(self, options, field):
        with pytest.raises(InvalidInput, match=field):
            options()

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
        np.testing.assert_allclose(S.values, trace.sigma_prime, rtol=1e-10, atol=1e-12)

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
        if f_prev - f_new < estimators._ML_OBJECTIVE_TOL:
            break
    drift = float(np.linalg.norm(sig @ fit() - np.eye(op.pilot_len)))
    return z, np.asarray(objectives), sweeps, HpdMatrix((sig + sig.conj().T) / 2).values, drift


def mixed_batch(seed, trials=12):
    """Observations and options mixing cold and warm starts, sweep caps,
    exact and perturbed covariances."""
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
            assert np.array_equal(trace.sigma_prime, sigma_prime)
            assert trace.inverse_drift == drift
            assert trace.kkt_residual == kkt_residual(op, Sigma, W, z)
            by_test = objectives[-2] - objectives[-1] < estimators._ML_OBJECTIVE_TOL
            sweeps.append((n_sweeps, o.while_iterations, by_test))
        # The batch holds trials that stop by the objective test before their
        # cap, pass the refresh, and stop at their cap with the test unmet.
        assert any(by_test and n < cap for n, cap, by_test in sweeps)
        assert any(n > 25 for n, cap, by_test in sweeps)
        assert any(n == cap and not by_test for n, cap, by_test in sweeps)

    def test_result_does_not_depend_on_the_batch(self):
        op, Sigma, Ws, opts = mixed_batch(43)
        together = ml_coordinate_descent_batch(op, Sigma, Ws, opts)
        order = np.random.default_rng(44).permutation(len(Ws))
        shuffled = ml_coordinate_descent_batch(op, Sigma, [Ws[i] for i in order], [opts[i] for i in order])
        for i, j in enumerate(order):
            for other in (ml_coordinate_descent(op, Sigma, Ws[j], opts[j]), shuffled[i]):
                assert np.array_equal(other.z, together[j].z)
                assert np.array_equal(other.objectives, together[j].objectives)
                assert np.array_equal(other.sigma_prime, together[j].sigma_prime)
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

    def test_rejects_a_count_of_options_other_than_of_observations(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 45))
        Sigma = HpdMatrix(np.eye(3))
        with pytest.raises(InvalidInput, match="2 observations but 1 option sets"):
            ml_coordinate_descent_batch(op, Sigma, [Sigma, Sigma], [MlOptions()])

    def test_rejects_a_permutation_of_another_length(self):
        op = MeasurementOperator(build_gaussian_codebook(3, 5, 45))
        Sigma = HpdMatrix(np.eye(3))
        opts = [MlOptions(), MlOptions(permutation=np.arange(4))]
        with pytest.raises(InvalidInput, match="trial 1: permutation length does not match the number of users"):
            ml_coordinate_descent_batch(op, Sigma, [Sigma, Sigma], opts)

    def test_step_rejected_names_the_trial_whose_inverse_is_not_positive(self):
        S = np.stack([np.eye(2), -np.eye(2)]).astype(complex)
        a = np.ones((2, 2, 1), dtype=complex)
        with pytest.raises(StepRejected, match=r"trial 8: a\^H S a <= 0"):
            estimators._steps(S, S, a, estimators._ht(a), np.zeros(2), np.array([3, 8]))

    def test_cholesky_names_the_first_failing_trial(self):
        Z = np.stack([np.eye(2), np.diag([1.0, -1.0]), -np.eye(2)])
        with pytest.raises(NotPositiveDefinite, match="trial 9: matrix is not positive definite"):
            estimators._cholesky(Z, np.array([5, 9, 11]))

    def test_cholesky_failure_no_trial_reproduces_is_raised_as_is(self, monkeypatch):
        # A stacked failure that every single-trial factorization passes
        # cannot be put on a trial: it propagates unchanged.
        cholesky = np.linalg.cholesky

        def stacked_fails(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("stacked")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", stacked_fails)
        with pytest.raises(np.linalg.LinAlgError, match="stacked"):
            estimators._cholesky(np.stack([np.eye(2), np.eye(2)]), np.array([0, 1]))

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

    @pytest.mark.parametrize("z, eps", [(np.ones(3), math.nan), (np.array([1.0, math.nan, 0.0]), 0.5)], ids=["nan-eps", "nan-entry"])
    def test_rejects_nan(self, z, eps):
        with pytest.raises(InvalidInput):
            threshold_detect(z, eps, {0})


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
