"""Robustness constant, signed kernel condition and adversarial witnesses."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covact import (
    Codebook,
    InvalidInput,
    MeasurementOperator,
    NoAdversary,
    NotConverged,
    TooLarge,
    adversarial_fading,
    build_deterministic_codebook,
    build_gaussian_codebook,
    skc_holds,
    tau_prime,
    tau_prime_curve,
)
from covact import skc
from covact.channel import stream
from covact.experiments import _kernel_vector
from covact.skc import _pattern_minimum, _project_simplex, _simplex_qp, _split_witness

from conftest import real_vectors


def stacked_for(columns):
    return MeasurementOperator(Codebook(columns)).stacked_real()


class TestSmallCases:
    def test_single_column_value(self):
        stacked = stacked_for(np.array([[2.0 + 0j]]))
        report = tau_prime(stacked, 1)
        assert report.tau_prime == pytest.approx(4.0, rel=1e-12)

    def test_single_column_norm_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        stacked = stacked_for(a[:, None])
        report = tau_prime(stacked, 1)
        assert report.tau_prime == pytest.approx(float(np.linalg.norm(a) ** 2), rel=1e-10)

    def test_duplicated_columns_break_order_one(self):
        cb = build_gaussian_codebook(3, 4, 2)
        cols = np.c_[cb.columns[:, :1], cb.columns[:, :1], cb.columns[:, 1:3]]
        stacked = stacked_for(cols)
        report = tau_prime(stacked, 1)
        assert report.tau_prime <= 1e-10
        assert not skc_holds(stacked, 1)
        # The witness pair is supported on the duplicated columns.
        support = set(np.flatnonzero(report.witness_z + report.witness_x))
        assert support == {0, 1}

    def test_witness_ratio_matches_constant(self):
        stacked = stacked_for(build_gaussian_codebook(3, 6, 3).columns)
        report = tau_prime(stacked, 2)
        v = report.witness_z - report.witness_x
        ratio = float(np.linalg.norm(stacked.values @ v) / np.abs(v).sum())
        assert ratio == pytest.approx(report.tau_prime, abs=1e-6)


class TestSimplexQp:
    def test_iteration_cap_raises(self):
        # The equality-constrained solution (1.5, -0.5) is infeasible: the
        # first iteration steps to the vertex (1, 0), the second certifies it.
        Q = np.array([[1.0, 2.0], [2.0, 5.0]])
        val, u = _simplex_qp(Q, max_iter=2)
        assert val == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)
        with pytest.raises(NotConverged) as err:
            _simplex_qp(Q, max_iter=1)
        np.testing.assert_allclose(err.value.z, [1.0, 0.0], atol=1e-15)
        assert err.value.residual == pytest.approx(1.0, rel=1e-12)


@pytest.fixture
def qp_calls(monkeypatch):
    """The flip-index tuple of every exact pattern solve, in call order."""
    calls = []

    def counted(G, flip_idx):
        calls.append(tuple(flip_idx))
        return _pattern_minimum(G, flip_idx)

    monkeypatch.setattr(skc, "_pattern_minimum", counted)
    return calls


def simplex_projection_reference(V):
    """Row-wise sort-based projection: running sums and minima along each row."""
    minus_top_sums = np.cumsum(np.sort(-V, axis=1), axis=1)
    theta = -((minus_top_sums + 1.0) / np.arange(1, V.shape[1] + 1)).min(axis=1)
    return np.maximum(V - theta[:, None], 0.0)


def full_enumeration(stacked, max_order):
    """Reference curve: every sign pattern solved exactly, in (size, combinations) order.

    Entry s - 1 is the (value, v) of the first pattern of size <= s that
    attains the minimum, as the exhaustive enumeration reports it.
    """
    G = stacked.values.T @ stacked.values
    best, curve = (math.inf, None), []
    for size in range(max_order + 1):
        for J in itertools.combinations(range(stacked.num_users), size):
            val, v = _pattern_minimum(G, J)
            if val < best[0]:
                best = (val, v)
        curve.append(best)
    return curve[1:]


class TestBoundAndPrune:
    # (M, N, max_order, seed); N = M^2 + 1 gives a one-dimensional kernel.
    CASES = [(2, 5, 4, 1), (2, 5, 4, 2), (3, 10, 5, 3), (3, 10, 5, 4), (2, 6, 4, 5), (3, 8, 4, 6), (4, 12, 4, 7)]

    @staticmethod
    def assert_matches_full_enumeration(stacked, max_order):
        reference = full_enumeration(stacked, max_order)
        for report, (val, v) in zip(tau_prime_curve(stacked, max_order), reference, strict=True):
            witness_z, witness_x = _split_witness(v)
            assert report.tau_prime == math.sqrt(max(val, 0.0))
            assert np.array_equal(report.witness_z, witness_z)
            assert np.array_equal(report.witness_x, witness_x)
            assert 0.0 <= report.lower_bound <= report.tau_prime

    @pytest.mark.parametrize("M,N,max_order,seed", CASES)
    def test_matches_full_enumeration(self, M, N, max_order, seed):
        stacked = stacked_for(build_gaussian_codebook(M, N, seed).columns)
        assert (_kernel_vector(stacked.values) is not None) == (N == M * M + 1)
        self.assert_matches_full_enumeration(stacked, max_order)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("M,N,max_order,seed", CASES)
    def test_refilled_pool_matches_full_enumeration(self, monkeypatch, M, N, max_order, seed, block):
        # Pools smaller than one pattern size make every size refill the pool
        # many times, so rows that entered at different checks iterate together.
        monkeypatch.setattr(skc, "_BLOCK", block)
        self.assert_matches_full_enumeration(stacked_for(build_gaussian_codebook(M, N, seed).columns), max_order)

    @pytest.mark.parametrize("M,N,size,seed", [(2, 5, 2, 1), (3, 8, 3, 6)])
    def test_pool_bounds_are_valid(self, M, N, size, seed):
        G = stacked_for(build_gaussian_codebook(M, N, seed).columns).values
        G = G.T @ G
        patterns = list(itertools.combinations(range(N), size))
        minima = np.array([_pattern_minimum(G, J)[0] for J in patterns])
        margin = skc._rounding_margin(G)
        # No incumbent, and the smallest value (pruning everything else early).
        for incumbent in (math.inf, float(minima.min())):
            bounds, kept = skc._fista_bounds(G, patterns, incumbent, margin, math.inf)
            assert bounds.shape == minima.shape
            assert np.all(bounds <= minima + margin)
            assert sorted(kept) == list(range(len(patterns)))
            assert all(tuple(np.flatnonzero(kept[i] < 0)) == J for i, J in enumerate(patterns))

    def test_ties_keep_enumeration_order(self):
        # Columns 0 and 2 are parallel, so patterns (0,) and (2,) both reach
        # the same rounding-level minimum to the last bit; the first in
        # (size, combinations) order must win, as in the full enumeration.
        cols = np.array([[2, 0, 3, 1, 2, 0], [2, 2, 3, -1, -2, 3]], dtype=complex)
        self.assert_matches_full_enumeration(stacked_for(cols), 3)

    def test_prunes_most_patterns(self, qp_calls):
        stacked = stacked_for(build_gaussian_codebook(3, 10, 3).columns)
        tau_prime_curve(stacked, 5)
        patterns = sum(math.comb(10, j) for j in range(6))
        assert 0 < len(qp_calls) < patterns / 10

    def test_verified_bracket_is_tight(self, verified):
        for report in verified.reports:
            assert 0.0 <= report.lower_bound <= report.tau_prime
        for order in range(1, 8):
            report = verified.report(order)
            assert report.lower_bound >= 0.999 * report.tau_prime

    def test_verified_curve_bits(self, verified):
        # The published codebook (seed 2024, draw 3) has a one-dimensional
        # kernel; its certified bracket for orders 1..8 is pinned bit for bit.
        assert verified.draws_used == 4
        assert [r.tau_prime.hex() for r in verified.reports] == [
            "0x1.3c99ab2ebfeb5p-2", "0x1.963d79ea3f58cp-3", "0x1.0130ca4743986p-3", "0x1.0d6cd744e5904p-5",
            "0x1.0d02fda932fe2p-6", "0x1.40d3b5e17186fp-7", "0x1.0ce1ef0c716c0p-8", "0x1.080e33de5f2b1p-26",
        ]
        assert [r.lower_bound.hex() for r in verified.reports] == [
            "0x1.3c99ab2e94a93p-2", "0x1.963d79e9b87f5p-3", "0x1.0130ca466e942p-3", "0x1.0d6cd7382fb85p-5",
            "0x1.0d02fd7649b01p-6", "0x1.40d3b536ab1c7p-7", "0x1.0ce1ebdd5a968p-8", "0x0.0p+0",
        ]

    @given(real_vectors(6))
    def test_simplex_projection(self, v):
        u = _project_simplex(v[None, :])[0]
        assert u.min() >= 0.0
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        # u = max(v - theta, 0) with one threshold theta for every coordinate.
        theta = v[u > 0] - u[u > 0]
        np.testing.assert_allclose(theta, theta[0], atol=1e-12)
        assert np.all(v[u == 0] <= theta[0] + 1e-12)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 200), st.integers(1, 20)),
            elements=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.25, -1.0])),
        ).map(lambda V: np.vstack([V, V[:1]]))
    )
    @example(np.array([[3.0], [-2.0], [0.0]]))
    @example(np.array([[0.5, 0.5, 0.5, -1.0], [0.5, 0.5, 0.5, -1.0], [2.0, 2.0, 0.0, 0.0]]))
    @example(np.random.default_rng(0).standard_normal((300, 17)))
    def test_simplex_projection_matches_row_reference(self, V):
        # Few and many rows (the running sums take two routes), n = 1, tied
        # entries and equal rows.
        assert np.array_equal(_project_simplex(V), simplex_projection_reference(V))


def serial_candidates(B, S, seed, n_starts=48, iters=200):
    """Reference explorer: the heuristic's projected-gradient starts, run one at a time."""
    G = B.T @ B
    n = B.shape[1]
    step = 1.0 / max(float(np.linalg.eigvalsh(G)[-1]), 1e-30)
    rng = stream(seed, "skc-heuristic")
    _, _, vt = np.linalg.svd(B, full_matrices=False)
    starts = [sign * row for row in vt[-min(3, vt.shape[0]) :] for sign in (1.0, -1.0)]
    while len(starts) < n_starts:
        v = np.abs(rng.standard_normal(n))
        v[rng.choice(n, size=min(S, n), replace=False)] *= -1.0
        starts.append(v)

    def project(v):
        neg = np.flatnonzero(v < 0)
        if neg.size > S:
            keep = neg[np.argsort(v[neg])[:S]]
            clipped = np.maximum(v, 0.0)
            clipped[keep] = v[keep]
            v = clipped
        nrm = float(np.abs(v).sum())
        return None if nrm <= 0 else v / nrm

    patterns = {()}
    for v in starts:
        v = project(v)
        if v is None:
            continue
        for _ in range(iters):
            v_new = project(v - step * 2.0 * (G @ v))
            if v_new is None:
                break
            moved, v = np.abs(v_new - v).max(), v_new
            if moved <= 1e-14:
                break
        patterns.add(tuple(np.flatnonzero(v < 0).tolist()))
    return patterns


def polished(G, candidates):
    """Reference heuristic: every candidate solved exactly; the first strict minimum in sorted order wins."""
    best = (math.inf, None)
    for J in sorted(candidates):
        val, v = _pattern_minimum(G, J)
        if val < best[0]:
            best = (val, v)
    return best


def simulation_size_draw(seed):
    """First codebook draw of the simulation's size (M=4, N=17) at a seed."""
    return build_gaussian_codebook(4, 17, stream(seed, "codebook", 0)).columns


class TestHeuristic:
    # The ties case is the parallel-column codebook of test_ties_keep_enumeration_order.
    CASES = [
        pytest.param(lambda: simulation_size_draw(1), range(1, 9), id="M4N17-seed1"),
        pytest.param(lambda: simulation_size_draw(3), (2, 5, 8), id="M4N17-seed3"),
        pytest.param(lambda: np.array([[2, 0, 3, 1, 2, 0], [2, 2, 3, -1, -2, 3]], dtype=complex), (1, 2, 3), id="ties"),
    ] + [
        pytest.param(lambda seed=seed: build_gaussian_codebook(3, 5 + seed % 4, 50 + seed).columns, (1, 3), id=f"small{seed}")
        for seed in range(6)
    ]

    @pytest.mark.parametrize("columns, orders", CASES)
    def test_matches_serial_explorer_and_full_polish(self, columns, orders):
        stacked = stacked_for(columns())
        G = stacked.values.T @ stacked.values
        for order in orders:
            serial = serial_candidates(stacked.values, order, seed=order)
            assert skc._heuristic_candidates(stacked.values, G, order, seed=order) == sorted(serial)
            report = tau_prime(stacked, order, method="heuristic")
            val, v = polished(G, serial)
            witness_z, witness_x = _split_witness(v)
            assert report.tau_prime == math.sqrt(max(val, 0.0))
            assert np.array_equal(report.witness_z, witness_z)
            assert np.array_equal(report.witness_x, witness_x)

    def test_prunes_most_candidates(self, qp_calls):
        stacked = stacked_for(simulation_size_draw(1))
        candidates = skc._heuristic_candidates(stacked.values, stacked.values.T @ stacked.values, 7, seed=7)
        tau_prime(stacked, 7, method="heuristic")
        assert 0 < len(qp_calls) < len(candidates) / 4


class TestDeterministicCodebook:
    def test_order_from_construction(self):
        # M = 2 guarantees the signed kernel condition up to order
        # ceil(M^2 / 2) - 1 = 1.
        stacked = stacked_for(build_deterministic_codebook(2, 4).columns)
        assert skc_holds(stacked, 1, tol=0.0)


class TestMethods:
    def test_exact_and_heuristic_agree_on_small_instances(self):
        for seed in range(6):
            N = 5 + seed % 4
            stacked = stacked_for(build_gaussian_codebook(3, N, 50 + seed).columns)
            for order in (1, 2, 3):
                exact = tau_prime(stacked, order, method="exact").tau_prime
                heur = tau_prime(stacked, order, method="heuristic").tau_prime
                assert heur == pytest.approx(exact, rel=1e-4, abs=1e-10)

    def test_exact_budget_guard(self):
        stacked = stacked_for(build_gaussian_codebook(4, 30, 9).columns)
        with pytest.raises(TooLarge):
            tau_prime(stacked, 10, method="exact")

    def test_order_validation(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 10).columns)
        with pytest.raises(InvalidInput):
            tau_prime(stacked, 0)
        with pytest.raises(InvalidInput):
            tau_prime(stacked, 6)
        with pytest.raises(InvalidInput):
            tau_prime(stacked, 2, method="annealing")


class TestCurve:
    def test_matches_individual_calls_and_monotone(self):
        stacked = stacked_for(build_gaussian_codebook(3, 7, 11).columns)
        curve = tau_prime_curve(stacked, 3)
        values = [r.tau_prime for r in curve]
        assert values == sorted(values, reverse=True)
        for order, report in enumerate(curve, start=1):
            single = tau_prime(stacked, order)
            assert report.tau_prime == pytest.approx(single.tau_prime, rel=1e-12, abs=1e-15)

    def test_unknown_method_rejected(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 10).columns)
        with pytest.raises(InvalidInput):
            tau_prime_curve(stacked, 2, method="annealing")


class TestAdversarial:
    def test_unit_norm_sparse_output(self):
        stacked = stacked_for(build_gaussian_codebook(3, 6, 12).columns)
        report = tau_prime(stacked, 2)
        fading = adversarial_fading(report)
        assert np.linalg.norm(fading.x) == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(fading.x) <= 2

    def test_no_sparse_part_raises(self):
        # With a single column the minimizing difference never needs a
        # negative coordinate, so there is no adversarial sparse witness.
        stacked = stacked_for(np.array([[1.0 + 0j]]))
        report = tau_prime(stacked, 1)
        assert np.all(report.witness_x == 0)
        with pytest.raises(NoAdversary):
            adversarial_fading(report)

    def test_report_text_round_trip_fields(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 13).columns)
        report = tau_prime(stacked, 1)
        text = report.as_text()
        assert "order = 1" in text
        assert "tau_prime =" in text
        assert "method = exact-enumeration" in text
        assert f"lower_bound = {report.lower_bound:.17g}" in text

    def test_heuristic_lower_bound_is_zero(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 13).columns)
        assert tau_prime(stacked, 2, method="heuristic").lower_bound == 0.0
