"""Robustness constant, signed kernel condition and adversarial witnesses."""

import dataclasses
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
from covact.skc import SKC_ZERO_TOL, _pattern_minimum, _simplex_qp, _split_witness


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
    def test_iteration_cap_raises(self, monkeypatch):
        # The equality-constrained solution (1.5, -0.5) is infeasible: the
        # first iteration steps to the vertex (1, 0), the second certifies it.
        Q = np.array([[1.0, 2.0], [2.0, 5.0]])
        monkeypatch.setattr(skc, "_QP_MAX_ITERS", 2)
        val, u = _simplex_qp(Q)
        assert val == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)
        monkeypatch.setattr(skc, "_QP_MAX_ITERS", 1)
        with pytest.raises(NotConverged) as err:
            _simplex_qp(Q)
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


def fista_bounds_seen(G, patterns, margin, prune=True):
    """_fista_bounds over the patterns, and every bound on the minorant, less its allowance, that it computed for each pattern.

    The bounds are read through a spy on _iterate_bounds, as the certificate fixture reads them.
    """
    index, allowance, seen = {J: i for i, J in enumerate(patterns)}, skc._minorant(G)[1], [[] for _ in patterns]
    iterate_bounds = skc._iterate_bounds

    def spy(M, s, u, margin):
        f, bound = iterate_bounds(M, s, u, margin)
        for row, b in zip(s, bound):
            seen[index[tuple(np.flatnonzero(row < 0).tolist())]].append(b - allowance)
        return f, bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skc, "_iterate_bounds", spy)
        kept, incumbent = skc._fista_bounds(G, patterns, margin, prune)
    return kept, incumbent, seen


# Columns 0 and 2 are parallel.
TIES = np.array([[2, 0, 3, 1, 2, 0], [2, 2, 3, -1, -2, 3]], dtype=complex)


# Warnings are errors: a kernel pattern drives a row's value to 0, and its value
# on the minorant of G to about the minorant's shift, where its nonnegative form
# is unbounded or nearly so, and that must produce no NaN, inf or warning.
@pytest.mark.filterwarnings("error")
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
        for prune in (True, False):
            kept, incumbent, seen = fista_bounds_seen(G, patterns, margin, prune)
            assert all(max(bounds) <= minimum + margin for bounds, minimum in zip(seen, minima, strict=True))
            assert incumbent >= minima.min() - margin
            # Every pattern the search may solve is kept, with one of its bounds and its sign row.
            assert set(np.flatnonzero(minima <= incumbent + margin)) <= set(kept)
            assert {i for i, bounds in enumerate(seen) if max(bounds) <= incumbent + margin} <= set(kept)
            for i, (bound, sig) in kept.items():
                assert bound in seen[i]
                assert tuple(np.flatnonzero(sig < 0)) == patterns[i]
        # Without pruning every pattern is kept, with a bound at most its minimum plus the margin.
        assert incumbent == math.inf and sorted(kept) == list(range(len(patterns)))
        assert all(kept[i][0] <= minimum + margin for i, minimum in enumerate(minima))

    def test_keeps_only_unpruned_patterns(self, verified):
        # FISTA prunes all but a few dozen of the 24,310 patterns of size 8 of the published operator.
        stacked = MeasurementOperator(verified.codebook).stacked_real()
        G = stacked.values.T @ stacked.values
        patterns = list(itertools.combinations(range(stacked.num_users), 8))
        kept, _ = skc._fista_bounds(G, patterns, skc._rounding_margin(G), prune=True)
        assert 0 < len(kept) < len(patterns) / 100

    def test_row_whose_value_rounds_to_zero_keeps_finite_bounds(self, monkeypatch):
        # With two equal columns, flipping one puts the centre of the simplex in
        # the kernel: that row's value is 0 at every iterate, while the unflipped
        # row (value 1 everywhere) is pruned.  Both rows iterate on the minorant
        # M, whose equal diagonal keeps them at the centre, where each bound is
        # (Q_M 1/2)_0 less the allowance: (M_00 +- M_01) / 2 - a, exactly.
        G = np.ones((2, 2))
        M, a = skc._minorant(G)
        kept, incumbent, seen = fista_bounds_seen(G, [(), (1,)], skc._rounding_margin(G))
        assert [max(bounds) for bounds in seen] == [(M[0, 0] + M[0, 1]) / 2 - a, (M[0, 0] - M[0, 1]) / 2 - a]
        assert incumbent == 0.0
        assert list(kept) == [1] and kept[1][0] == max(seen[1])
        # A minorant whose value f_M rounds to 0 on a row (here M = G, a = 0) must
        # leave that row unscaled, with no NaN, inf or warning.
        monkeypatch.setattr(skc, "_minorant", lambda G: (G, 0.0))
        kept, incumbent, seen = fista_bounds_seen(G, [(), (1,)], skc._rounding_margin(G))
        assert [max(bounds) for bounds in seen] == [1.0, 0.0]
        assert incumbent == 0.0
        assert list(kept) == [1] and kept[1][0] == 0.0

    def test_check_interval_need_not_divide_the_step_cap(self, monkeypatch):
        # Checked every 30 steps, a row stops at 180 of the 200 allowed, as a
        # further check would pass the cap.
        stacked = stacked_for(build_gaussian_codebook(3, 10, 3).columns)
        default = [report.as_text() for report in tau_prime_curve(stacked, 4)]
        monkeypatch.setattr(skc, "_CHUNK", 30)
        assert [report.as_text() for report in tau_prime_curve(stacked, 4)] == default

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

    def test_published_search_work(self, qp_calls, monkeypatch, verified):
        # The exact solves and the bound checks of the published codebook's
        # searches are fixed work: the curve makes 39 solves and bounds 133,772
        # pool rows, and the heuristic of orders 1-8 makes 22 solves.  A pruning
        # regression that multiplies the solves, or a check schedule whose checks
        # cost more than the steps they save (checks every 5 steps bound
        # 203,475 rows; the bound leaves a 20% margin), fails here without
        # moving a bit.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        stacked = MeasurementOperator(verified.codebook).stacked_real()
        rows, iterate_bounds = [], skc._iterate_bounds

        def counted(M, s, u, margin):
            rows.append(len(s))
            return iterate_bounds(M, s, u, margin)

        monkeypatch.setattr(skc, "_iterate_bounds", counted)
        tau_prime_curve(stacked, 8)
        assert 0 < len(qp_calls) < 74
        assert 0 < sum(rows) < 160_000
        qp_calls.clear()
        skc.tau_prime_heuristic(stacked, range(1, 9))
        assert 0 < len(qp_calls) < 28

    def test_verified_bracket_is_tight(self, verified):
        for report in verified.reports:
            assert 0.0 <= report.lower_bound <= report.tau_prime
        for order in range(1, 8):
            report = verified.report(order)
            assert report.lower_bound >= 0.999 * report.tau_prime

    @pytest.mark.parametrize("chunk, block", [(25, 64), (50, 1024)])
    def test_curve_does_not_depend_on_the_bounding_schedule(self, monkeypatch, verified, chunk, block):
        # Checks every 25 steps in pools of 64, or every 50 in pools of 1024,
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

    @given(
        st.tuples(st.integers(1, 8), st.integers(1, 20)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1e6, 1e6))),
                arrays(np.intp, shape[0], elements=st.integers(0, shape[1] - 1)),
                arrays(np.float64, shape[0], elements=st.floats(-1e6, 1e6).filter(bool)),
            )
        )
    )
    def test_maps_every_nonzero_row_to_a_nonzero_row(self, case):
        # Why _heuristic_candidates keeps every start: for each S in 1..n, a
        # nonzero finite row keeps its positive entries or else its most
        # negative one, so it never projects to zero.
        V, column, pivot = case
        V[np.arange(V.shape[0]), column] = pivot
        for S in range(1, V.shape[1] + 1):
            projected, nonzero = skc._project_sparse(V, np.full(V.shape[0], S))
            assert nonzero.all()
            assert ((projected < 0).sum(axis=1) <= S).all()
            np.testing.assert_allclose(np.abs(projected).sum(axis=1), 1.0, rtol=1e-12)

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
        exact = exact_pattern_minimum(exact_gram(stacked), sig)
        assert Fraction(float(bound[0])) <= exact + Fraction(margin)
        qu = sig * ((sig * u[None]) @ G)
        assert bound[0] >= 2.0 * qu.min() - f[0]
        # The same holds for the bound on the spectral minorant of G, less its allowance.
        assert_minorant_bound_is_below(G, sig, u, exact)

    @pytest.mark.parametrize("G", [np.ones((2, 2)), np.array([[0.3]])], ids=["ones-2x2", "1x1"])
    def test_minorant_of_small_grams(self, G):
        n = G.shape[0]
        for J in (J for k in range(n + 1) for J in itertools.combinations(range(n), k)):
            sig = sign_row(n, J)
            assert_minorant_bound_is_below(G, sig, np.full(n, 1.0 / n), exact_pattern_minimum([[Fraction(x) for x in row] for row in G.tolist()], sig))


def assert_minorant_bound_is_below(G, sig, u, exact):
    """0 <= M <= G + a I exactly, and the bound on M at u less a is at most the pattern's exact minimum plus the margin."""
    M, a = skc._minorant(G)
    assert minorant_facts(G, M, a) == (True, True)
    bound = skc._iterate_bounds(M, sig[None], u[None], margin := skc._rounding_margin(G))[1][0] - a
    assert Fraction(float(bound)) <= exact + Fraction(margin)


def exact_psd(A):
    """Whether the symmetric Fraction matrix A is positive semidefinite, by rational LDL^T.

    Each pivot must be >= 0, and a zero pivot's column below it zero; the
    Schur complement of a positive pivot is then eliminated exactly.
    """
    A, n = [row[:] for row in A], len(A)
    for k in range(n):
        if A[k][k] < 0 or (A[k][k] == 0 and any(A[i][k] for i in range(k + 1, n))):
            return False
        for i in range(k + 1, n):
            if A[i][k]:
                factor = A[i][k] / A[k][k]
                A[i][k + 1 :] = [x - factor * y for x, y in zip(A[i][k + 1 :], A[k][k + 1 :])]
    return True


def minorant_facts(G, M, a):
    """Whether M >= 0 and whether G - M + a I >= 0, both in exact arithmetic on the float entries."""
    M = [[Fraction(x) for x in row] for row in M.tolist()]
    gap = [[Fraction(g) - m + (Fraction(a) if i == j else 0) for j, (g, m) in enumerate(zip(g_row, m_row))] for i, (g_row, m_row) in enumerate(zip(G.tolist(), M))]
    return exact_psd(M), exact_psd(gap)


def check_certificate(G, M, a, reports, masks, U):
    """Check an exact tau' curve against iterates U[i] >= 0 of the sign patterns with flip-index bitmasks masks[i].

    Shares no code with the search.  The minorant must satisfy
    0 <= M <= G + a I, checked in Fractions, so that a bound on min v^T Q_M v
    over the simplex, Q_M = diag(s) M diag(s), less a bounds min v^T Q v
    (|v|_2 <= |v|_1 = 1).  Every pattern of size <= the last order needs an
    iterate; at each, the Frank-Wolfe bound on its minimum over the simplex,
    max(2 m - f, m^2 / f) with m = min(Q u) and f = u^T Q u, is recomputed in
    float64 for G and for M with m lowered and f raised by the rounding
    allowance gamma_(n+2) |u|^T |A| of Q u for that matrix A (Higham, Thm
    3.5), and less a few eps for its own arithmetic; M's bound less a, and
    the larger of the two is kept.  Each order's claimed lower_bound^2 must
    not exceed the smallest bound over its sizes (or 0, as G is positive
    semidefinite), and its witness must have at most ``order`` negatives and
    attain its tau_prime within the allowance.
    """
    n, eps = G.shape[0], np.finfo(float).eps
    positive, below = minorant_facts(G, M, a)
    assert positive, "the minorant is not positive semidefinite"
    assert below, "the minorant is not below G + a I"
    gamma = (n + 2) * eps / (1 - (n + 2) * eps)
    S = 1.0 - 2.0 * ((masks[:, None] >> np.arange(n)) & 1)

    def bounds(A, allowance):
        qu, slack = S * ((S * U) @ A), gamma * (U @ np.abs(A))
        m, f = (qu - slack).min(axis=1), np.einsum("ij,ij->i", U, qu + 2.0 * slack)
        return np.maximum(2.0 * m - f, np.maximum(m, 0.0) ** 2 / f) - allowance - 4.0 * eps * (2.0 * np.abs(m) + f + allowance)

    bound = np.maximum(bounds(G, 0.0), bounds(M, a))
    patterns = np.array(sorted(sum(1 << j for j in J) for k in range(reports[-1].order + 1) for J in itertools.combinations(range(n), k)))
    best = np.full(patterns.size, -np.inf)
    np.maximum.at(best, np.searchsorted(patterns, masks), bound)
    assert np.all(best > -np.inf), "a sign pattern has no iterate"
    size_min = np.minimum.accumulate([best[np.bitwise_count(patterns) == k].min() for k in range(reports[-1].order + 1)])
    for report, low in zip(reports, size_min[1:], strict=True):
        assert Fraction(max(float(low), 0.0)) >= Fraction(report.lower_bound) ** 2, f"a bound of order {report.order} is below lower_bound^2"
        assert np.count_nonzero(report.witness_x) <= report.order, f"the witness of order {report.order} has too many negatives"
        v = report.witness_z - report.witness_x
        value, allowance = v @ G @ v / np.abs(v).sum() ** 2, 4.0 * gamma * (np.abs(v) @ np.abs(G) @ np.abs(v)) / np.abs(v).sum() ** 2
        assert abs(value - report.tau_prime**2) <= allowance + 4.0 * eps * value, f"the witness of order {report.order} does not attain tau_prime"


@pytest.fixture(scope="module")
def certificate(verified):
    """G, the minorant (M, a) the search bounded on, the published curve recomputed in this process, and one iterate per pattern.

    A pattern's iterate is its exact minimizer if solved, else the iterate of its best minorant bound.
    """
    stacked = MeasurementOperator(verified.codebook).stacked_real()
    G, n, rows, minorants = stacked.values.T @ stacked.values, stacked.num_users, [], []
    minorant, iterate_bounds, pattern_minimum = skc._minorant, skc._iterate_bounds, skc._pattern_minimum

    def spy_minorant(G):
        minorants.append(minorant(G))
        return minorants[-1]

    def spy_bounds(M, s, u, margin):
        f, bound = iterate_bounds(M, s, u, margin)
        rows.append(((s < 0) @ (1 << np.arange(n)), bound, u.copy()))
        return f, bound

    def spy_minimum(G, sig):
        val, v = pattern_minimum(G, sig)
        rows.append(((sig[None] < 0) @ (1 << np.arange(n)), np.array([np.inf]), np.abs(v)[None]))
        return val, v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(skc, "_minorant", spy_minorant)
        patch.setattr(skc, "_iterate_bounds", spy_bounds)
        patch.setattr(skc, "_pattern_minimum", spy_minimum)
        reports = tau_prime_curve(stacked, 8)
    assert [r.as_text() for r in reports] == [r.as_text() for r in verified.reports]
    (M, a), *others = minorants
    assert all(np.array_equal(M, other) and a == other_a for other, other_a in others)
    masks, bounds, U = (np.concatenate(column) for column in zip(*rows))
    order = np.lexsort((bounds, masks))
    last = np.r_[masks[order][1:] != masks[order][:-1], True]
    return G, M, a, reports, masks[order][last], U[order][last]


class TestIndependentChecker:
    def test_published_curve_passes(self, certificate):
        G, M, a, reports, masks, U = certificate
        assert masks.size == 2**16
        check_certificate(G, M, a, reports, masks, U)

    def test_rejects_a_dropped_pattern(self, certificate):
        G, M, a, reports, masks, U = certificate
        with pytest.raises(AssertionError, match="no iterate"):
            check_certificate(G, M, a, reports, masks[masks != masks[1000]], U[masks != masks[1000]])

    def test_rejects_a_bound_below_the_claim(self, certificate):
        # The order-1 minimizer's pattern, read at the centre of the simplex.
        G, M, a, reports, masks, U = certificate
        J = (reports[0].witness_x > 0) @ (1 << np.arange(G.shape[0]))
        with pytest.raises(AssertionError, match="order 1 is below"):
            check_certificate(G, M, a, reports, masks, np.where((masks == J)[:, None], 1.0 / G.shape[0], U))

    def test_rejects_a_witness_with_too_many_negatives(self, certificate):
        G, M, a, reports, masks, U = certificate
        x = reports[0].witness_x + 1e-300 * (reports[0].witness_z == 0)
        with pytest.raises(AssertionError, match="too many negatives"):
            check_certificate(G, M, a, [dataclasses.replace(reports[0], witness_x=x), *reports[1:]], masks, U)

    @pytest.mark.parametrize("sign, message", [(1.0, "not below G"), (-1.0, "not positive semidefinite")])
    def test_rejects_a_minorant_moved_by_its_top_eigenvalue(self, certificate, sign, message):
        # M + lam_r e_0 e_0^T rises above G in the directions M shares with G's
        # smallest eigenvectors; M - lam_r e_0 e_0^T falls below 0 along e_0.
        G, M, a, reports, masks, U = certificate
        raised = M.copy()
        raised[0, 0] += sign * np.linalg.eigvalsh(M)[-1]
        with pytest.raises(AssertionError, match=message):
            check_certificate(G, raised, a, reports, masks, U)


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
