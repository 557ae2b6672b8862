"""Robustness constant, signed kernel condition and adversarial witnesses."""

import itertools
import math
import multiprocessing
import os
from fractions import Fraction

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
    tau_prime,
    tau_prime_curve,
)
from covact import skc
from covact.channel import stream
from covact.experiments import _kernel_vector
from covact.skc import SKC_ZERO_TOL, _pattern_minimum, _project_simplex, _simplex_qp, _split_witness

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
        assert not tau_prime(stacked, 1).tau_prime > SKC_ZERO_TOL
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

    def counted(G, sig):
        calls.append(tuple(np.flatnonzero(sig < 0)))
        return _pattern_minimum(G, sig)

    monkeypatch.setattr(skc, "_pattern_minimum", counted)
    return calls


def simplex_projection_reference(V):
    """Row-wise sort-based projection: running sums and minima along each row."""
    minus_top_sums = np.cumsum(np.sort(-V, axis=1), axis=1)
    theta = -((minus_top_sums + 1.0) / np.arange(1, V.shape[1] + 1)).min(axis=1)
    return np.maximum(V - theta[:, None], 0.0)


def sign_row(n, J):
    """The +-1 row of length n with negatives on the flip indices J."""
    sig = np.ones(n)
    sig[list(J)] = -1.0
    return sig


def full_enumeration(stacked, max_order):
    """Reference curve: every sign pattern solved exactly, in (size, combinations) order.

    Entry s - 1 is the (value, v) of the first pattern of size <= s that
    attains the minimum, as the exhaustive enumeration reports it.
    """
    G = stacked.values.T @ stacked.values
    best, curve = (math.inf, None), []
    for size in range(max_order + 1):
        for J in itertools.combinations(range(stacked.num_users), size):
            val, v = _pattern_minimum(G, sign_row(stacked.num_users, J))
            if val < best[0]:
                best = (val, v)
        curve.append(best)
    return curve[1:]


# Columns 0 and 2 are parallel.
TIES = np.array([[2, 0, 3, 1, 2, 0], [2, 2, 3, -1, -2, 3]], dtype=complex)


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

    @pytest.mark.parametrize("M,N,max_order,seed", [*CASES[::3], (2, 6, 3, "ties")])
    def test_worker_processes_give_the_serial_bits(self, monkeypatch, M, N, max_order, seed):
        stacked = stacked_for(TIES if seed == "ties" else build_gaussian_codebook(M, N, seed).columns)

        def curve_bits():
            return [
                (r.tau_prime.hex(), r.lower_bound.hex(), [x.hex() for x in r.witness_z], [x.hex() for x in r.witness_x])
                for r in tau_prime_curve(stacked, max_order)
            ]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pooled = curve_bits()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert curve_bits() == pooled

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

    # In the 3 x 10 case (N = M^2 + 1) one pattern of the size holds the
    # one-dimensional kernel of B, so its iterates drive f = u^T Q u to 0.
    @pytest.mark.parametrize("M,N,size,seed", [(2, 5, 2, 1), (3, 8, 3, 6), (3, 10, 4, 3)])
    def test_pool_bounds_are_valid(self, M, N, size, seed):
        G = stacked_for(build_gaussian_codebook(M, N, seed).columns).values
        G = G.T @ G
        patterns = list(itertools.combinations(range(N), size))
        minima = np.array([_pattern_minimum(G, sign_row(N, J))[0] for J in patterns])
        margin = skc._rounding_margin(G)
        bounds, kept, incumbent = skc._fista_bounds(G, patterns, [len(patterns)], margin)
        assert bounds.shape == minima.shape
        assert np.all(bounds <= minima + margin)
        assert incumbent >= minima.min() - margin
        # Every pattern the search may solve keeps its sign row.
        assert set(np.flatnonzero(bounds <= incumbent + margin)) <= set(kept)
        assert all(tuple(np.flatnonzero(kept[i] < 0)) == patterns[i] for i in kept)

    def test_budget_counts_visited_patterns(self, monkeypatch):
        # Sizes 0..5 of N = 10 are 638 patterns; the full sign enumeration's
        # count C(10, 5) * 2^5 = 8,064 would refuse order 5 at a budget of 1,000.
        stacked = stacked_for(build_gaussian_codebook(3, 10, 3).columns)
        monkeypatch.setattr(skc, "EXACT_BUDGET", 637)
        with pytest.raises(TooLarge, match=r"C\(10,s\) = 638 sign patterns"):
            tau_prime_curve(stacked, 5)
        monkeypatch.setattr(skc, "EXACT_BUDGET", 1000)
        self.assert_matches_full_enumeration(stacked, 5)

    def test_ties_keep_enumeration_order(self):
        # Columns 0 and 2 are parallel, so patterns (0,) and (2,) both reach
        # the same rounding-level minimum to the last bit; the first in
        # (size, combinations) order must win, as in the full enumeration.
        self.assert_matches_full_enumeration(stacked_for(TIES), 3)

    def test_prunes_most_patterns(self, qp_calls, monkeypatch):
        # One CPU keeps the search in this process, where qp_calls counts it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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

    @pytest.mark.parametrize("chunk, block", [(10, 64), (50, 1024)])
    def test_curve_does_not_depend_on_the_bounding_schedule(self, monkeypatch, verified, chunk, block):
        # Checks every 10 steps in pools of 64, or every 50 in pools of 1024,
        # prune other patterns at other times; the reports keep their bits.
        stacked = MeasurementOperator(verified.codebook).stacked_real()
        monkeypatch.setattr(skc, "_CHUNK", chunk)
        monkeypatch.setattr(skc, "_BLOCK", block)
        assert [r.as_text() for r in tau_prime_curve(stacked, 8)] == [r.as_text() for r in verified.reports]

    @pytest.mark.parametrize("M,N,max_order,seed", CASES)
    def test_bracket_comes_from_the_exact_solves(self, monkeypatch, M, N, max_order, seed):
        # Each size's lower bound is the smallest Frank-Wolfe bound at the
        # exact minimizers of the solved patterns, less the margin; every
        # pattern within the margin of the size's minimum is solved, and the
        # smallest bound is taken at one of them.  Each solved pattern's
        # bound is its value to within the margin.
        G = stacked_for(build_gaussian_codebook(M, N, seed).columns).values
        G = G.T @ G
        margin = skc._rounding_margin(G)
        for size in range(max_order + 1):
            solved = {}

            def spy(G, sig):
                val, v = _pattern_minimum(G, sig)
                solved[tuple(np.flatnonzero(sig < 0))] = (val, 2.0 * float((sig * (G @ v)).min()) - val)
                return val, v

            monkeypatch.setattr(skc, "_pattern_minimum", spy)
            _, lower = skc._size_search(G, size)
            monkeypatch.undo()
            bound = {J: e for J, (_, e) in solved.items()}
            assert lower == min(bound.values()) - margin
            assert all(abs(val - e) <= margin for val, e in solved.values())
            minima = {J: _pattern_minimum(G, sign_row(N, J))[0] for J in itertools.combinations(range(N), size)}
            near = {J for J, val in minima.items() if val <= min(minima.values()) + margin}
            assert near <= set(solved)
            assert min(bound, key=bound.get) in near

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
        val, v = _pattern_minimum(G, sign_row(G.shape[0], J))
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
            assert skc._heuristic_candidates(stacked.values, G, [order]) == [sorted(serial)]
            report = tau_prime(stacked, order, method="heuristic")
            val, v = polished(G, serial)
            witness_z, witness_x = _split_witness(v)
            assert report.tau_prime == math.sqrt(max(val, 0.0))
            assert np.array_equal(report.witness_z, witness_z)
            assert np.array_equal(report.witness_x, witness_x)

    def test_prunes_most_candidates(self, qp_calls):
        stacked = stacked_for(simulation_size_draw(1))
        [candidates] = skc._heuristic_candidates(stacked.values, stacked.values.T @ stacked.values, [7])
        tau_prime(stacked, 7, method="heuristic")
        assert 0 < len(qp_calls) < len(candidates) / 4


class TestStackedHeuristic:
    @given(
        st.tuples(st.integers(1, 60), st.integers(1, 20)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0])),
                arrays(np.intp, shape[0], elements=st.integers(0, shape[1] + 1)),
            )
        )
    )
    @example((np.array([[-1.0, -1.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, -2.0, -1.0, -2.0]]), np.array([2, 1, 3])))
    def test_rank_scatter_matches_double_argsort(self, case):
        # Many ties, an all-zero row and a sparsity of its own for every row,
        # against the ranks of argsort(argsort(V)).
        V, S = case
        rank = np.argsort(np.argsort(V, axis=1), axis=1)
        clipped = np.where((V < 0) & (rank < S[:, None]), V, np.maximum(V, 0.0))
        nrm = np.abs(clipped).sum(axis=1)
        projected, nonzero = skc._project_sparse(V, S)
        assert np.array_equal(nonzero, nrm > 0)
        assert np.array_equal(projected, clipped / np.where(nrm > 0, nrm, 1.0)[:, None])

    CASES = (
        [pytest.param(lambda seed=seed: build_gaussian_codebook(2, 4, seed).columns, id=f"2x4-seed{seed}") for seed in range(3)]
        + [pytest.param(lambda: TIES, id="ties")]
        + [pytest.param(lambda: simulation_size_draw(1), id="M4N17-seed1")]
    )

    @pytest.mark.parametrize("block", [1, 7, 20, 60, 512])
    @pytest.mark.parametrize("columns", CASES)
    def test_matches_one_order_at_a_time(self, monkeypatch, columns, block):
        # Small pools refill many times: the rows of several orders iterate
        # together in one fill, and an order's candidates enter over several.
        stacked = stacked_for(columns())
        orders = list(range(1, min(stacked.num_users, 8) + 1))
        single = [tau_prime(stacked, order, method="heuristic").as_text() for order in orders]
        monkeypatch.setattr(skc, "_BLOCK", block)
        assert [report.as_text() for report in skc.tau_prime_heuristic(stacked, orders)] == single
        assert [report.as_text() for report in skc.tau_prime_heuristic(stacked, orders[::-1])] == single[::-1]

    def test_refilled_default_pool_matches_one_order_at_a_time(self):
        # 5 x 24 at orders 1-12 has more candidates than the default pool holds.
        stacked = stacked_for(build_gaussian_codebook(5, 24, stream(0, "codebook", 0)).columns)
        orders = list(range(1, 13))
        G = stacked.values.T @ stacked.values
        assert sum(map(len, skc._heuristic_candidates(stacked.values, G, orders))) > skc._BLOCK
        single = [tau_prime(stacked, order, method="heuristic").as_text() for order in orders]
        assert [report.as_text() for report in skc.tau_prime_heuristic(stacked, orders)] == single

    def test_checks_every_order(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 10).columns)
        assert skc.tau_prime_heuristic(stacked, []) == []
        with pytest.raises(InvalidInput):
            skc.tau_prime_heuristic(stacked, [1, 6])


class TestDeterministicCodebook:
    def test_order_from_construction(self):
        # M = 2 guarantees the signed kernel condition up to order
        # ceil(M^2 / 2) - 1 = 1.
        stacked = stacked_for(build_deterministic_codebook(2, 4).columns)
        assert tau_prime(stacked, 1).tau_prime > 0.0


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

    def test_unknown_method_rejected(self):
        stacked = stacked_for(build_gaussian_codebook(3, 5, 10).columns)
        with pytest.raises(InvalidInput, match="annealing"):
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


def exact_solve(A, b):
    """Solution of the square system A x = b in Fractions by Gauss-Jordan elimination, or None if A is singular."""
    n = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_curve(stacked, max_order):
    """Squared robustness constants of orders 1..max_order in exact arithmetic.

    G = B^T B is formed exactly from the float entries of B.  For a sign
    pattern s, the minimum of u^T Q u, Q = diag(s) G diag(s), over the
    simplex is attained at a minimizer of least support F, where the bordered
    KKT system [2 Q_FF, -1; 1^T, 0] [u_F; mu] = [0; 1] is nonsingular and
    u_F >= 0; there u^T Q u = mu / 2.  So the minimum is the least mu / 2 over
    the supports whose system has a nonnegative solution; order s takes the
    least over the patterns with at most s negative signs.
    """
    n = stacked.num_users
    G = exact_gram(stacked)
    curve, best = [], None
    for size in range(max_order + 1):
        for J in itertools.combinations(range(n), size):
            value = exact_pattern_minimum(G, sign_row(n, J))
            best = value if best is None else min(best, value)
        curve.append(best)
    return curve[1:]


def exact_gram(stacked):
    """G = B^T B in Fractions, formed exactly from the float entries of B."""
    B = [[Fraction(x) for x in row] for row in stacked.values.tolist()]
    return [[sum(row[i] * row[j] for row in B) for j in range(stacked.num_users)] for i in range(stacked.num_users)]


def exact_pattern_minimum(G, sig):
    """Minimum of u^T Q u over the simplex, Q = diag(sig) G diag(sig), in Fractions (see exact_curve)."""
    n, best = len(G), None
    for F in (F for k in range(1, n + 1) for F in itertools.combinations(range(n), k)):
        k = len(F)
        kkt = [[2 * int(sig[i] * sig[j]) * G[i][j] for j in F] + [-1] for i in F] + [[1] * k + [0]]
        sol = exact_solve(kkt, [0] * k + [1])
        if sol is not None and min(sol[:k]) >= 0 and (best is None or sol[k] / 2 < best):
            best = sol[k] / 2
    return best


class TestExactOracle:
    CASES = (
        [pytest.param(build_gaussian_codebook(2, 4, seed).columns, 3, id=f"2x4-seed{seed}") for seed in range(3)]
        + [pytest.param(TIES, 3, id="ties")]
        + [pytest.param(build_gaussian_codebook(2, 5, seed).columns, 2, id=f"2x5-seed{seed}") for seed in range(3)]
    )

    @pytest.mark.parametrize("columns, max_order", CASES)
    def test_reports_bracket_the_exact_constant(self, columns, max_order):
        # Every certified bracket holds the exact constant, within the rounding margin the
        # search prunes by, and so does the exact value of its witness; the heuristic never
        # reports a value below it.
        stacked = stacked_for(columns)
        B = [[Fraction(x) for x in row] for row in stacked.values.tolist()]
        margin = Fraction(skc._rounding_margin(stacked.values.T @ stacked.values))
        curve = tau_prime_curve(stacked, max_order)
        for order, report, exact in zip(range(1, max_order + 1), curve, exact_curve(stacked, max_order), strict=True):
            assert Fraction(report.lower_bound) ** 2 <= exact
            assert abs(Fraction(report.tau_prime) ** 2 - exact) <= margin
            v = [Fraction(z) - Fraction(x) for z, x in zip(report.witness_z, report.witness_x)]
            witness_value = sum(sum(b * vi for b, vi in zip(row, v)) ** 2 for row in B) / sum(abs(vi) for vi in v) ** 2
            assert exact <= witness_value <= exact + margin
            assert Fraction(tau_prime(stacked, order, method="heuristic").tau_prime) ** 2 >= exact - margin

    @given(
        st.integers(2, 3),
        st.integers(4, 6),
        st.integers(0, 2**16),
        st.booleans(),
        st.sets(st.integers(0, 5)),
        st.sampled_from(["simplex", "scaled", "kernel"]),
        arrays(np.float64, 6, elements=st.floats(0.0, 1.0)),
        st.floats(1 / 8, 2),
    )
    @example(2, 4, 0, True, {1}, "kernel", np.zeros(6), 1.0)
    @example(3, 6, 5, True, {0, 3}, "kernel", np.zeros(6), 1.0)
    @example(2, 5, 26, False, {0, 2, 4}, "kernel", np.zeros(6), 1.0)
    @example(2, 6, 37, False, {1, 2}, "kernel", np.full(6, 1e-9), 1.0)
    def test_iterate_bound_is_below_the_exact_minimum(self, M, N, seed, parallel, J, kind, w, scale):
        # u near the kernel of B diag(s) has f = u^T Q u = 0 up to rounding: with
        # columns 0 and 1 equal, B (e_0 + e_1) = 0 and a pattern flipping exactly
        # one of them has such a u; 2 x 5 and 2 x 6 have a kernel of their own,
        # and the 2 x 5 and 2 x 6 examples round min(Q u) above 0 there.
        columns = build_gaussian_codebook(M, N, seed).columns.copy()
        if parallel:
            columns[:, 1] = columns[:, 0]
        stacked = stacked_for(columns)
        G = stacked.values.T @ stacked.values
        margin = skc._rounding_margin(G)
        sig = sign_row(N, J & set(range(N)))
        if kind == "kernel":
            # Near the kernel: the last right singular vector, plus a small w.
            u = np.abs(np.linalg.svd(stacked.values * sig)[2][-1]) + 1e-6 * w[:N]
        else:  # an all-zero draw becomes the simplex's centre
            u = w[:N] + (w[:N].sum() == 0)
        u /= u.sum()
        if kind == "scaled":
            # Off the simplex: the bounds hold at any u >= 0.
            u *= scale
        f, bound = skc._iterate_bounds(G, sig[None], u[None], margin)
        assert Fraction(float(bound[0])) <= exact_pattern_minimum(exact_gram(stacked), sig) + Fraction(margin)
        qu = sig * ((sig * u[None]) @ G)
        assert bound[0] >= 2.0 * qu.min() - f[0]


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
