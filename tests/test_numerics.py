"""Numerics kernel tests: linear solves, uniformized exponentials, LCP solvers."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm, lu_factor, lu_solve
from scipy.stats import poisson

from parisian.numerics import (
    LCPOperator,
    LCPProblem,
    LCPStatus,
    complementarity_residual,
    factor_dense,
    factor_tridiag,
    generator_expm,
    lemke_solve,
    low_rank_factor,
    poisson_weights,
    policy_solve,
    require_solved,
    solve_dense,
    solve_tridiag,
)
from parisian.oracle import lcp_by_enumeration, random_generator


def random_pd_lcp(rng, n):
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    q = 2.0 * rng.normal(size=n)
    return A, q


def random_tridiagonal_m_matrix(rng, n):
    """Strictly diagonally dominant tridiagonal M-matrix, dense."""
    sub, sup = -rng.uniform(0.1, 3.0, size=n - 1), -rng.uniform(0.1, 3.0, size=n - 1)
    A = np.diag(sub, -1) + np.diag(sup, 1)
    A[np.diag_indices(n)] = np.abs(A).sum(axis=1) + rng.uniform(0.05, 1.0, size=n)
    return A


def bands(A):
    """The (3, n) LAPACK bands ab[1 + i - j, j] = A[i, j] of a dense
    tridiagonal A."""
    ab = np.zeros((3, len(A)))
    ab[0, 1:] = np.diagonal(A, 1)
    ab[1] = np.diagonal(A)
    ab[2, :-1] = np.diagonal(A, -1)
    return ab


class TestBandedOperator:
    """An operator built from its bands is held as them and solves its free
    blocks from them; the dense matrix is the reference."""

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            LCPOperator(sparse.diags([np.ones(3), np.ones(3)], [0, 1], shape=(3, 4)))
        for ab in (np.ones((2, 4)), np.ones((4, 4)), np.ones(3), np.ones((3, 4, 1))):
            with pytest.raises(ValueError, match=r"\(3, n\)"):
                LCPOperator.from_bands(ab)

    def test_identity_solve_returns_rhs(self):
        n = 7
        op = LCPOperator.from_bands(bands(np.eye(n)))
        assert op.is_sparse
        b = np.arange(n, dtype=float)
        x, made = op.solve_free(np.ones(n, dtype=bool), b)
        assert made == 1
        np.testing.assert_array_equal(x, b)

    def test_two_by_two_forced_solution(self):
        # blocks of 1 and 2 rows, which the LAPACK wrapper rejects unpadded
        op = LCPOperator.from_bands(bands(np.array([[2.0, 1.0], [1.0, 2.0]])))
        x, _ = op.solve_free(np.ones(2, dtype=bool), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)
        x, _ = op.solve_free(np.array([False, True]), np.array([3.0]))
        assert np.allclose(x, [1.5], atol=1e-14)

    def test_free_blocks_match_dense_solves_on_masks_with_gaps(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 9, 50):
            A = random_tridiagonal_m_matrix(rng, n)
            op = LCPOperator.from_bands(bands(A))
            masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
            for size in (1, 2):  # with a gap wherever n allows one
                if size <= n:
                    mask = np.zeros(n, dtype=bool)
                    mask[[0, n - 1][:size]] = True
                    masks.append(mask)
            masks += [rng.uniform(size=n) < p for p in (0.3, 0.5, 0.8) for _ in range(4)]
            for free in masks:
                idx = np.flatnonzero(free)
                b = rng.normal(size=idx.size)
                x, _ = op.solve_free(free, b)
                ref = np.linalg.solve(A[np.ix_(idx, idx)], b)
                scale = np.max(np.abs(ref), initial=1.0)
                assert np.max(np.abs(x - ref), initial=0.0) <= 1e-12 * scale

    def test_singular_system_raises(self):
        # a zero row makes every cut block through it singular, as it does
        # for the dense operator
        A = random_tridiagonal_m_matrix(np.random.default_rng(8), 6)
        A[3] = 0.0
        for free in (np.ones(6, dtype=bool), np.arange(6) >= 2,
                     np.arange(6) == 3):
            for op in (LCPOperator.from_bands(bands(A)), LCPOperator(A)):
                with pytest.raises(np.linalg.LinAlgError):
                    op.solve_free(free, np.ones(int(free.sum())))

    def test_transposed_factor_solves_with_the_block_itself(self):
        # row but not column diagonally dominant: partial pivoting swaps
        # rows on the block itself and none on its transpose, the one
        # factor_tridiag makes
        from scipy.linalg.lapack import dgttrf

        A = np.array([[2.0, -1.5, 0.0], [-3.0, 4.0, -0.5], [0.0, -1.0, 2.0]])
        assert np.any(dgttrf(np.diag(A, -1), np.diag(A), np.diag(A, 1))[4] != [1, 2, 3])
        rng = np.random.default_rng(12)
        for block in [A] + [random_tridiagonal_m_matrix(rng, n) for n in (1, 2, 40)]:
            n = len(block)
            factor = factor_tridiag(bands(block), np.arange(n))
            lu = factor[0]
            np.testing.assert_array_equal(lu[4][:n], np.arange(1, n + 1))
            assert not np.any(lu[3])
            b = rng.uniform(0.1, 1.0, size=(n, 3))
            ref = np.linalg.solve(block, b)
            x = solve_tridiag(factor, b)
            assert x.shape == (n, 3) and np.all(x >= 0.0)
            np.testing.assert_allclose(x, ref, rtol=1e-13)
            np.testing.assert_allclose(solve_tridiag(factor, b[:, 0]), ref[:, 0],
                                       rtol=1e-13)

    def test_contiguous_range_factors_as_the_general_path(self):
        # a contiguous range takes the bands' slices; its factors equal bit
        # for bit those of the neighbour search over any sorted index set,
        # here rebuilt with the general path's fancy indexing
        from scipy.linalg.lapack import dgttrf

        def general(ab, idx):
            n = len(idx)
            m = max(n, 3)
            d = np.ones(m)
            d[:n] = ab[1, idx]
            dl, du = np.zeros(m - 1), np.zeros(m - 1)  # of the transpose
            near = np.flatnonzero(np.diff(idx) == 1)
            du[near] = ab[2, idx[near]]
            dl[near] = ab[0, idx[near] + 1]
            return dgttrf(dl, d, du)[:5]

        ab = bands(random_tridiagonal_m_matrix(np.random.default_rng(21), 9))
        for length in (1, 2, 3):
            for start in (0, 4, 9 - length):  # start, middle and end of the bands
                idx = np.arange(start, start + length)
                lu, n = factor_tridiag(ab, idx)
                assert n == length
                for got, want in zip(lu, general(ab, idx)):
                    np.testing.assert_array_equal(got, want)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        A = random_tridiagonal_m_matrix(rng, 5)
        op = LCPOperator.from_bands(bands(A))
        np.testing.assert_array_equal(op.to_dense(), A)
        x = rng.normal(size=5)
        assert np.allclose(op @ x, A @ x, rtol=1e-15, atol=0.0)

    def test_policy_solve_keeps_the_per_state_iteration_cap(self):
        # on the mirrored string (states in reverse order) the free set is a
        # suffix, so nothing jumps and the contact point travels one node per
        # iteration: more iterations than the dense cap, within the 4n of a
        # sparse one
        A, psi, _ = obstacle_problem(500)
        A, psi = A[::-1, ::-1].copy(), psi[::-1].copy()
        op = LCPOperator.from_bands(bands(A))
        assert op.is_sparse
        sol = policy_solve(LCPProblem(op, psi))
        assert sol.solved and 200 < sol.iterations <= 4 * 500
        dense = policy_solve(LCPProblem(A, psi))
        assert dense.status is LCPStatus.MAX_ITERATIONS


class TestDenseFactor:
    """``factor_dense``/``solve_dense`` call LAPACK as scipy's
    ``lu_factor``/``lu_solve`` do, without their per-call checks."""

    def test_bits_match_scipy(self):
        # the factor of A^T, solved with trans='T'
        rng = np.random.default_rng(31)
        A = rng.normal(size=(40, 40))  # no dominance: partial pivoting swaps
        lu, piv = factor_dense(A.copy())
        ref = lu_factor(A.T)
        assert np.any(ref[1] != np.arange(40))
        assert lu.tobytes() == ref[0].tobytes()
        np.testing.assert_array_equal(piv, ref[1])
        for b in (rng.normal(size=40), rng.normal(size=(40, 7))):
            x = solve_dense((lu, piv), b)
            assert x.shape == b.shape
            assert x.tobytes() == lu_solve(ref, b, trans=1).tobytes()
            np.testing.assert_allclose(A @ x, b, rtol=0.0, atol=1e-10)

    def test_transposed_factor_of_a_c_ordered_array_is_made_in_place(self):
        rng = np.random.default_rng(32)
        A = random_generator(30, rng, density=1.0)
        Q = 0.5 * np.eye(30) - A  # C order: Q^T is Fortran-ordered
        lu, piv = factor_dense(Q)
        assert np.shares_memory(lu, Q)
        # Q^T is column diagonally dominant: no row interchange
        np.testing.assert_array_equal(piv, np.arange(30))

    def test_empty_right_hand_side_and_block(self):
        rng = np.random.default_rng(33)
        factor = factor_dense(np.eye(4) + 0.1 * rng.normal(size=(4, 4)))
        assert solve_dense(factor, np.zeros((4, 0))).shape == (4, 0)
        empty = factor_dense(np.zeros((0, 0)))
        for shape in ((0,), (0, 3), (0, 0)):
            assert solve_dense(empty, np.zeros(shape)).shape == shape

    def test_singular_block_raises(self):
        # a zero column or row at 5: singular on any free set through it,
        # the prefixes {0..k-1} with k > 5 included.  The whole factor of
        # A^T fails, so the operator cuts and factors each block: the
        # prefixes that stop short of 5 solve, one factorization each
        rng = np.random.default_rng(34)
        base = 0.2 * np.eye(8) - random_generator(8, rng, density=1.0)
        for zero in ((slice(None), 5), 5):
            A = base.copy()
            A[zero] = 0.0
            with pytest.raises(np.linalg.LinAlgError):
                factor_dense(A.copy())
            # dense, and the tridiagonal part of A held as its bands
            for op in (LCPOperator(A), LCPOperator.from_bands(bands(A))):
                for free in (np.ones(8, dtype=bool), np.arange(8) >= 4,
                             np.arange(8) < 6):
                    with pytest.raises(np.linalg.LinAlgError):
                        op.solve_free(free, np.ones(int(free.sum())))
                # a prefix that stops short of the zero solves
                for k in (5, 3):
                    x, made = op.solve_free(np.arange(8) < k, np.ones(k))
                    assert made == 1
                    np.testing.assert_allclose(op.to_dense()[:k, :k] @ x, np.ones(k),
                                               rtol=1e-13)


class TestGeneratorExpm:
    def test_matches_scaling_and_squaring(self):
        rng = np.random.default_rng(11)
        G = random_generator(18, rng, density=1.0, scale=2.0)
        assert np.max(np.abs(generator_expm(G, 0.9) - expm(0.9 * G))) <= 1e-12

    def test_subgenerator_rows(self):
        rng = np.random.default_rng(12)
        G = random_generator(10, rng, density=1.0, scale=2.0)
        G[0] = 0.0           # absorbing row
        G[4, 4] -= 3.0       # leaky row (killing)
        U = generator_expm(G, 1.7)
        assert np.max(np.abs(U - expm(1.7 * G))) <= 1e-12
        assert U.min() >= -1e-15
        assert U.sum(axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("r", [119.0, 700.0, 800.0])
    def test_large_uniformization_mean_matches_expm(self, r):
        # a = (r + 1) t: 120 is summed at a / 4 and squared twice; 800 passes
        # 745, where e^{-a} underflows
        G = np.array([[-r, r], [r, -r - 1.0]])
        U = generator_expm(G, 1.0)
        assert U.min() > 0.3
        assert np.max(np.abs(U - expm(G))) <= 1e-12

    def test_rejects_negative_off_diagonal(self):
        G = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ValueError):
            generator_expm(G, 1.0)

    @pytest.mark.parametrize(
        "G",
        [
            [[0.0, 1.0], [0.0, 0.0]],  # no diagonal rate: exp(G) is not I
            [[-1.0, 3.0], [0.5, -1.0]],  # P = I + G/rate is not substochastic
        ],
    )
    def test_rejects_positive_row_sum(self, G):
        with pytest.raises(ValueError, match=r"row sums <= 0; the largest is [12]\b"):
            generator_expm(np.array(G), 1.0)

    @pytest.mark.parametrize(
        "mean", [0.01, 3.0, 3.7, 14.9, 41.9, 49.9, 50.1, 120.0, 800.0]
    )
    def test_blocked_series_matches_expm(self, mean):
        # the Poisson mean a = rate t sets the degree d and the block length
        # s = round(sqrt(d + 1)): d = 5 at 0.01; d + 1 = 25 = 5^2 at 3.0, so
        # every block is full; a partial last block at 3.7, 14.9, 41.9 and
        # 49.9; and the squaring branch past 50
        rng = np.random.default_rng(13)
        G = random_generator(12, rng, conservative=False, density=0.8, scale=2.0)
        t = mean / -G.diagonal().min()
        U = generator_expm(G, t)
        assert np.max(np.abs(U - expm(t * G))) <= 1e-12
        assert U.min() >= 0.0

    def test_stiff_subgenerator_is_nonnegative(self):
        # row rates spread over six decades, with killing; a = 400 is summed
        # at a / 8 and squared three times
        rng = np.random.default_rng(14)
        G = random_generator(20, rng, conservative=False, density=0.7)
        G *= np.logspace(-3.0, 3.0, 20)[:, None]
        U = generator_expm(G, 400.0 / -G.diagonal().min())
        assert U.min() >= 0.0
        assert U.sum(axis=1).max() <= 1.0 + 1e-12

    def test_agrees_with_term_by_term_series(self):
        rng = np.random.default_rng(15)
        n, t = 16, 1.3
        G = random_generator(n, rng, conservative=False, density=0.8, scale=2.0)
        rate = -G.diagonal().min()
        a = rate * t
        assert a < 50.0  # no squaring: the series is the whole result
        P = np.eye(n) + G / rate
        term = np.eye(n)
        weight = consumed = math.exp(-a)
        ref, j = weight * term, 0
        while not (1.0 - consumed < 1e-14 and j > a):
            j += 1
            term = term @ P
            weight *= a / j
            ref += weight * term
            consumed += weight
        U = generator_expm(G, t)
        assert np.max(np.abs(U - ref)) <= 1e-14 * np.abs(ref).max()

    def test_zero_time_is_identity(self):
        G = random_generator(7, np.random.default_rng(16), conservative=False)
        assert np.array_equal(generator_expm(G, 0.0), np.eye(7))


class TestPoissonWeights:
    @pytest.mark.parametrize("tail", [1e-14, 1e-16])
    @pytest.mark.parametrize("a", [0.01, 3.0, 49.9, 120.0, 800.0, 2000.0])
    def test_matches_the_pmf_and_cuts_where_the_tail_drops_below(self, a, tail):
        # past a = 745, e^{-a} underflows: the weights are built from the mode
        w = poisson_weights(a, tail)
        d = len(w) - 1
        ref = poisson.pmf(np.arange(d + 1), a)
        kept = ref > 1e-280
        np.testing.assert_allclose(w[kept], ref[kept], rtol=1e-11, atol=0)
        assert w.sum() <= 1.0 + 1e-15
        assert poisson.sf(d, a) < tail * (1 + 1e-6) <= poisson.sf(d - 1, a) * (1 + 2e-6)


class TestLowRankFactor:
    EPS = np.finfo(float).eps

    def test_narrow_block_draws_no_sketch(self, monkeypatch):
        # no sketch is narrower than the block: B itself with W = I, and no
        # Gaussian column drawn
        class NoDraws:
            def standard_normal(self, size):
                raise AssertionError("a sketch was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        for width in (8, 1, 0):
            B = np.ones((60, width))
            U, W, residual = low_rank_factor(B, 4 * self.EPS)
            assert U is B and residual == 0.0
            np.testing.assert_array_equal(W, np.eye(width))

    def test_low_rank_block_gets_the_first_width_that_meets_the_bound(self):
        # the sketches of width 8 and 16 are cut to the blocks' ranks
        rng = np.random.default_rng(4)
        for rank, width in ((3, 3), (12, 12)):
            B = rng.uniform(size=(60, rank)) @ rng.uniform(size=(rank, 50))
            U, W, residual = low_rank_factor(B, 4 * self.EPS)
            assert U.shape == (60, width) and W.shape == (width, 50)
            np.testing.assert_allclose(U.T @ U, np.eye(width), atol=1e-14)
            # the residual returned is the factor's own, computed exactly
            assert residual == np.linalg.norm(B - U @ W)
            assert residual <= 4 * self.EPS * np.linalg.norm(B)
            # the sketch has its own seed: the same B, the same factor
            U2, W2, _ = low_rank_factor(B, 4 * self.EPS)
            assert np.array_equal(U, U2) and np.array_equal(W, W2)

    def test_a_cut_that_meets_the_bound_forms_one_residual(self, monkeypatch):
        # ||B||_F for the bound and the cut factor's residual: the width-8
        # sketch's own residual is not formed
        norms = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, *a, **k: norms.append(x.shape) or norm(x, *a, **k))
        rng = np.random.default_rng(4)
        B = rng.uniform(size=(60, 3)) @ rng.uniform(size=(3, 50))
        U, W, _ = low_rank_factor(B, 4 * self.EPS)
        assert U.shape == (60, 3) and norms == [B.shape, B.shape]

    def test_sketch_width_is_kept_when_the_cut_factor_misses_the_bound(self):
        # singular values 1, 1, 1 and seventeen of 1e-3: the width-16 sketch
        # meets the bound, its singular-value tail past 3 does too, but the
        # width-3 factor's exact residual does not
        rng = np.random.default_rng(7)
        X = np.linalg.qr(rng.normal(size=(30, 20)))[0]
        Y = np.linalg.qr(rng.normal(size=(20, 20)))[0]
        B = (X * np.r_[np.ones(3), np.full(17, 1e-3)]) @ Y.T
        rtol = 2.2e-3
        bound = rtol * np.linalg.norm(B)
        U, W, residual = low_rank_factor(B, rtol)
        assert U.shape == (30, 16) and W.shape == (16, 20)
        np.testing.assert_allclose(U.T @ U, np.eye(16), atol=1e-14)
        assert residual == np.linalg.norm(B - U @ W) <= bound
        Uw, sv, _ = np.linalg.svd(W, full_matrices=False)
        assert np.linalg.norm(sv[3:]) <= bound < np.linalg.norm(sv[2:])
        U3 = np.linalg.qr(U @ Uw[:, :3])[0]
        assert np.linalg.norm(B - U3 @ (U3.T @ B)) > bound

    def test_full_rank_or_narrow_block_is_its_own_factor(self):
        rng = np.random.default_rng(5)
        for shape in ((60, 50), (60, 8), (60, 1)):
            B = rng.uniform(size=shape)
            U, W, residual = low_rank_factor(B, 4 * self.EPS)
            assert U is B and residual == 0.0
            np.testing.assert_array_equal(W, np.eye(shape[1]))


class TestLemke:
    def test_nonnegative_psi_gives_zero(self):
        sol = lemke_solve(LCPProblem(np.eye(4), np.array([0.0, 1.0, 2.0, 0.5])))
        assert sol.solved and np.allclose(sol.z, 0.0)

    def test_identity_negative_psi(self):
        sol = lemke_solve(LCPProblem(np.eye(3), -np.ones(3)))
        assert sol.solved
        assert np.allclose(sol.z, 1.0, atol=1e-12)
        assert sol.complementarity <= 1e-12

    def test_fuzz_terminates_with_definite_status(self):
        rng = np.random.default_rng(123)
        counts = {s: 0 for s in LCPStatus}
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            A = rng.normal(size=(n, n))
            q = rng.normal(size=n)
            sol = lemke_solve(LCPProblem(A, q), max_pivots=2000)
            counts[sol.status] += 1
            if sol.solved:
                w = A @ sol.z + q
                assert np.min(sol.z) >= -1e-8
                assert np.min(w) >= -1e-7 * (1 + np.abs(q).max())
        assert counts[LCPStatus.SOLVED] > 0
        # indefinite matrices legitimately hit rays; cycling would show up
        # as MAX_ITERATIONS dominating
        assert counts[LCPStatus.MAX_ITERATIONS] <= 5

    def test_ray_termination_reported(self):
        # A maps everything negative: no complementary solution with q < 0
        A = -np.eye(2)
        sol = lemke_solve(LCPProblem(A, np.array([-1.0, -1.0])))
        assert sol.status is LCPStatus.RAY_TERMINATION

    def test_require_solved_raises_on_unsolved(self):
        sol = lemke_solve(LCPProblem(-np.eye(2), np.array([-1.0, -1.0])))
        with pytest.raises(RuntimeError, match="toy problem.*ray_termination"):
            require_solved(sol, "toy problem")
        ok = lemke_solve(LCPProblem(np.eye(2), -np.ones(2)))
        assert require_solved(ok, "toy problem") is ok


def obstacle_problem(n=200, load=8.0, left_height=1.0):
    """Taut string with fixed left end pushed onto a zero obstacle.

    u'' = load where u > 0, u(0) = left_height, u(1) = 0; contact starts at
    s = sqrt(2*left_height/load) (= 0.5 for the defaults).
    """
    h = 1.0 / (n + 1)
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    psi = np.full(n, load)
    psi[0] = load - left_height / h**2  # Dirichlet value folded into the rhs
    return A, psi, math.sqrt(2.0 * left_height / load)


def price_chain(rng, n, jumps):
    """(log-price nodes x, A = r I - G) for a random Black-Scholes chain on
    [log 20, log 400] with dividends, plus double-exponential jumps (dense)
    when ``jumps``: strictly row diagonally dominant, tridiagonal without
    jumps.  A call's exercise region lies above a boundary, a put's below."""
    x = np.linspace(math.log(20.0), math.log(400.0), n)
    h = x[1] - x[0]
    sigma, r, delta = rng.uniform(0.15, 0.4), rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.1)
    mu = r - delta - sigma**2 / 2
    G = (np.diag(np.full(n - 1, sigma**2 / (2 * h * h) + mu / (2 * h)), 1)
         + np.diag(np.full(n - 1, sigma**2 / (2 * h * h) - mu / (2 * h)), -1))
    if jumps:
        eta, lam = rng.uniform(5.0, 15.0), rng.uniform(0.5, 3.0)
        G += lam * h * eta / 2 * np.exp(-eta * np.abs(x[:, None] - x[None, :]))
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return x, r * np.eye(n) - G


def chain_lcps(seed, put=False):
    """American call (put) LCPs on random chains, z = V - payoff, banded and
    dense: (A, the operator to solve with, psi, the Lemke solution)."""
    rng = np.random.default_rng(seed)
    for jumps in (False, True, False, True):
        n = int(rng.integers(30, 90))
        x, A = price_chain(rng, n, jumps)
        strike = rng.uniform(60.0, 200.0)
        payoff = np.maximum((strike - np.exp(x)) if put else (np.exp(x) - strike), 0.0)
        psi = A @ payoff
        op = LCPOperator(A) if jumps else LCPOperator.from_bands(bands(A))
        yield A, op, psi, lemke_solve(LCPProblem(A, psi)).z


class TestPsorAndFriends:
    """Policy iteration (the production solver) against the Lemke reference."""

    def test_agrees_with_lemke_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            A, q = random_pd_lcp(rng, n)
            prob = LCPProblem(A, q)
            z_l = lemke_solve(prob).z
            z_pi = policy_solve(prob).z
            assert np.max(np.abs(z_pi - z_l)) <= 1e-7

    def test_obstacle_contact_point(self):
        n = 200
        A, psi, s = obstacle_problem(n)
        prob = LCPProblem(A, psi)
        for solver in (policy_solve, lemke_solve):
            sol = solver(prob)
            assert sol.solved
            # first index where the string touches the obstacle (z == 0)
            touching = np.flatnonzero(sol.z <= 1e-9)
            contact_idx = touching[0]
            predicted = s * (n + 1) - 1
            assert abs(contact_idx - predicted) <= 1.0, solver.__name__

    def test_policy_solve_sparse_matches_dense(self):
        rng = np.random.default_rng(31)
        n = 60
        A, q = random_pd_lcp(rng, n)
        A = np.where(np.abs(A) < 1.0, 0.0, A) + n * np.eye(n)
        dense = policy_solve(LCPProblem(A, q))
        sp = policy_solve(LCPProblem(sparse.csr_matrix(A), q))
        assert dense.solved and sp.solved
        assert np.max(np.abs(dense.z - sp.z)) <= 1e-9


class TestLCPOperator:
    """One operator across solves: a prefix free set is solved from the one
    factor of A^T, any other free block is factored once per set."""

    @pytest.mark.parametrize("fmt", ["dense", "sparse", "bands"])
    def test_factor_reused_only_on_the_same_free_set(self, fmt):
        # every free set of the string is a prefix {0..k-1}: on bands and
        # dense, the first solve factors A^T and no later one factors again
        A, psi, _ = obstacle_problem(60)
        build = {
            "dense": lambda: LCPOperator(A),
            "sparse": lambda: LCPOperator(sparse.csr_matrix(A)),
            "bands": lambda: LCPOperator.from_bands(bands(A)),
        }[fmt]
        one_factor = fmt != "sparse"
        op = build()
        first = policy_solve(LCPProblem(op, psi))
        assert first.solved and first.factorizations == (
            1 if one_factor else first.iterations)
        # a scaled load keeps the contact set: the next "slice" factors nothing
        warm = first.z <= 0.0
        again = policy_solve(LCPProblem(op, 1.001 * psi), active0=warm)
        assert again.solved and again.factorizations == 0
        fresh = policy_solve(LCPProblem(build(), 1.001 * psi),
                             active0=warm)
        assert fresh.factorizations == 1
        np.testing.assert_array_equal(again.z, fresh.z)
        # a lower left end moves the contact point: one new factorization
        _, psi_low, _ = obstacle_problem(60, left_height=0.5)
        low = policy_solve(LCPProblem(build(), psi_low))
        moved = low.z <= 0.0
        assert not np.array_equal(moved, warm)
        changed = policy_solve(LCPProblem(op, psi_low), active0=moved)
        assert changed.solved and changed.factorizations == (0 if one_factor else 1)
        np.testing.assert_array_equal(changed.z, low.z)

    @pytest.mark.parametrize("fmt", ["dense", "bands"])
    def test_prefix_sets_solve_from_one_factor_of_the_transpose(self, fmt):
        rng = np.random.default_rng(15)
        n = 40
        if fmt == "bands":
            A = random_tridiagonal_m_matrix(rng, n)
            op = LCPOperator.from_bands(bands(A))
        else:  # a strictly row diagonally dominant M-matrix
            A = 0.2 * np.eye(n) - random_generator(n, rng, density=1.0)
            op = LCPOperator(A.copy())
        made = 0
        for k in (1, 2, 3, n, 2, n, 1, 3, 17):
            b = rng.normal(size=k)
            x, m = op.solve_free(np.arange(n) < k, b)
            made += m
            ref = np.linalg.solve(A[:k, :k], b)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref)), k
        assert made == 1
        np.testing.assert_array_equal(op.to_dense(), A)  # not factored in place
        # a set with a gap still cuts and factors its own block, once
        gap = np.arange(n) % 3 > 0
        b = rng.normal(size=int(gap.sum()))
        for expected in (1, 0):
            x, m = op.solve_free(gap, b)
            assert m == expected
            np.testing.assert_allclose(x, np.linalg.solve(A[np.ix_(gap, gap)], b),
                                       rtol=1e-12)

    @pytest.mark.parametrize("fmt", ["dense", "bands"])
    def test_interchange_keeps_one_factor_per_free_set(self, fmt):
        # not row diagonally dominant: the factor of A^T swaps rows, so its
        # leading blocks do not factor those of A^T and every set, prefix or not,
        # is cut and factored on its own (after the one whole factor that
        # found the interchange)
        rng = np.random.default_rng(16)
        n = 12
        if fmt == "bands":  # superdiagonal above the diagonal
            A = (np.diag(rng.uniform(0.5, 1.0, size=n))
                 + np.diag(rng.uniform(1.5, 2.5, size=n - 1), 1)
                 - np.diag(rng.uniform(1.0, 2.0, size=n - 1), -1))
            op = LCPOperator.from_bands(bands(A))
            piv = factor_tridiag(bands(A), np.arange(n))[0][4] - 1
        else:
            A = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
            op = LCPOperator(A)
            piv = factor_dense(A.copy())[1]
        assert np.any(piv != np.arange(n))
        sets = [np.arange(n) < k for k in (n, 5, 1)] + [np.arange(n) >= 4,
                                                      np.arange(n) % 2 == 0]
        made = 0
        for free in sets + sets[:2]:
            idx = np.flatnonzero(free)
            b = rng.normal(size=idx.size)
            x, m = op.solve_free(free, b)
            made += m
            ref = np.linalg.solve(A[np.ix_(idx, idx)], b)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert made == 1 + len(sets) + 2

    def test_sparse_input_stored_dense_from_half_full(self):
        rng = np.random.default_rng(14)
        # a 4x4 with 8 stored entries is half full: dense; with 7, CSC
        off = [(i, j) for i in range(4) for j in range(4) if i != j]
        for nnz, stays_sparse in ((8, False), (7, True)):
            A = 10.0 * np.eye(4)
            for k in rng.permutation(len(off))[: nnz - 4]:
                A[off[k]] = -rng.uniform(0.5, 2.0)
            assert LCPOperator(sparse.csr_matrix(A)).is_sparse is stays_sparse
        # a full M-matrix stored dense solves like the dense operator, bit
        # for bit; a banded one is held as CSC (only bands handed over make a
        # band operator) and solves like the operator on its bands
        full = 0.1 * np.eye(30) - random_generator(30, rng, density=1.0, scale=2.0)
        q = 2.0 * rng.normal(size=30)
        op = LCPOperator(sparse.csr_matrix(full))
        assert not op.is_sparse
        np.testing.assert_array_equal(op.to_dense(), full)
        got = policy_solve(LCPProblem(op, q))
        assert got.solved
        np.testing.assert_array_equal(got.z, policy_solve(LCPProblem(full, q)).z)
        banded, psi, _ = obstacle_problem(60)
        op = LCPOperator(sparse.csr_matrix(banded))
        assert op.is_sparse and op.bands is None
        np.testing.assert_array_equal(op.to_dense(), banded)
        got = policy_solve(LCPProblem(op, psi))
        ref = policy_solve(LCPProblem(LCPOperator.from_bands(bands(banded)), psi))
        # only the band operator has a prefix factor to jump with
        assert got.solved and ref.iterations <= 2 < got.iterations
        np.testing.assert_allclose(got.z, ref.z, rtol=0.0, atol=1e-12)

    def test_problem_holds_one_operator(self):
        A, q = random_pd_lcp(np.random.default_rng(6), 5)
        op = LCPOperator(A)
        assert LCPProblem(op, q).A is op
        wrapped = LCPProblem(A, q).A
        assert isinstance(wrapped, LCPOperator) and wrapped.to_dense() is A

    def test_lemke_accepts_an_operator(self):
        rng = np.random.default_rng(5)
        A, q = random_pd_lcp(rng, 6)
        plain = lemke_solve(LCPProblem(A, q))
        wrapped = lemke_solve(LCPProblem(LCPOperator(A), q))
        assert wrapped.solved and wrapped.factorizations == 0
        np.testing.assert_array_equal(wrapped.z, plain.z)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LCPOperator(np.zeros((2, 3)))


class TestPrefixBoundary:
    """The Brennan-Schwartz sweep reads a prefix free set off the factor of
    A^T, and policy iteration jumps to it once."""

    @pytest.mark.parametrize("fmt", ["dense", "bands"])
    def test_sweep_is_the_size_of_the_free_set(self, fmt):
        # random M-matrices with a made solution: z* > 0 exactly on {0..k-1}
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 7, 40):
            for k in {0, 1, n // 2, n - 1, n}:
                if fmt == "bands":
                    A = random_tridiagonal_m_matrix(rng, n)
                    op = LCPOperator.from_bands(bands(A))
                else:
                    A = 0.2 * np.eye(n) - random_generator(n, rng, density=1.0)
                    op = LCPOperator(A)
                z = np.where(np.arange(n) < k, rng.uniform(0.1, 1.0, size=n), 0.0)
                w = np.where(np.arange(n) < k, 0.0, rng.uniform(0.1, 1.0, size=n))
                assert op.prefix_boundary(A @ z - w)[0] == k
            assert op.prefix_boundary(np.zeros(n))[0] == 0  # no y_j > 0
        # a rising obstacle on a price chain: the call's free set
        for A, op, psi, z in chain_lcps(42):
            free = z > 0.0
            k = int(free.sum())
            assert 0 < k < len(z) and free[:k].all()
            assert op.prefix_boundary(-psi)[0] == k

    def test_cold_and_wrong_warm_prefixes_jump(self):
        for A, op, psi, ref in chain_lcps(43):
            n, k = len(ref), int(np.count_nonzero(ref > 0.0))
            starts = [None] + [np.arange(n) >= j
                               for j in {1, k - 5, k - 1, k + 1, k + 5, n - 1} if 0 < j < n]
            for active0 in starts:
                sol = policy_solve(LCPProblem(op, psi), active0=active0)
                assert sol.solved and sol.iterations <= 2
                np.testing.assert_allclose(sol.z, ref, rtol=0.0,
                                           atol=1e-9 * np.max(np.abs(ref)))

    def test_put_never_jumps(self, monkeypatch):
        # a put's free set is a suffix: iteration 1 never proposes a prefix
        sweeps = []
        sweep = LCPOperator.prefix_boundary

        def spy(self, rhs):
            sweeps.append(len(rhs))
            return sweep(self, rhs)

        monkeypatch.setattr(LCPOperator, "prefix_boundary", spy)
        walked = 0
        for A, op, psi, ref in chain_lcps(44, put=True):
            n, k = len(ref), int(np.count_nonzero(ref > 0.0))
            for active0 in (None, np.arange(n) < n - k + 3, np.arange(n) < n - k - 3):
                sol = policy_solve(LCPProblem(op, psi), active0=active0)
                assert sol.solved
                np.testing.assert_allclose(sol.z, ref, rtol=0.0,
                                           atol=1e-9 * np.max(np.abs(ref)))
                walked = max(walked, sol.iterations)
        assert sweeps == [] and walked > 2

    def test_factorizations_count_the_sweeps_factor(self):
        A, op, psi, ref = next(chain_lcps(45))
        n, k = len(ref), int(np.count_nonzero(ref > 0.0))
        # a free set with a gap factors its own block; the sweep that jumps
        # from it to the prefix makes the factor of A^T, which iteration 2 uses
        gap = (np.arange(n) == 0) | (np.arange(n) >= k)
        sol = policy_solve(LCPProblem(op, psi), active0=gap)
        assert sol.solved and sol.iterations == 2 and sol.factorizations == 2
        np.testing.assert_allclose(sol.z, ref, rtol=0.0, atol=1e-9 * np.max(np.abs(ref)))
        assert op.prefix_boundary(-psi) == (k, 0)  # the factor is kept
        assert LCPOperator.from_bands(bands(A)).prefix_boundary(-psi) == (k, 1)
        # no prefix factor: CSC, or a row interchange (tried once, counted)
        assert LCPOperator(sparse.csr_matrix(A)).prefix_boundary(-psi) == (None, 0)
        swaps = LCPOperator(np.array([[1.0, 4.0], [2.0, 1.0]]))
        assert swaps.prefix_boundary(np.ones(2)) == (None, 1)
        assert swaps.prefix_boundary(np.ones(2)) == (None, 0)


class TestSolutionInvariants:
    def test_every_solved_solution_is_complementary(self):
        rng = np.random.default_rng(77)
        solvers = [lemke_solve, policy_solve]
        for trial in range(20):
            n = int(rng.integers(2, 10))
            A, q = random_pd_lcp(rng, n)
            prob = LCPProblem(A, q)
            for solver in solvers:
                sol = solver(prob)
                if not sol.solved:
                    continue
                w = A @ sol.z + q
                tol = 1e-8 * (1 + np.abs(q).max())
                assert np.min(sol.z) >= -tol
                assert np.min(w) >= -tol
                assert abs(sol.z @ w) <= 1e-8 * (
                    1 + np.linalg.norm(sol.z) * np.linalg.norm(w)
                )
                assert complementarity_residual(prob, sol.z) <= 1e-7 * (
                    1 + np.abs(q).max()
                )

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            LCPProblem(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            LCPProblem(np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            LCPProblem(np.eye(2), np.array([np.nan, 0.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lemke_solution_matches_enumeration_property(n, seed):
    rng = np.random.default_rng(seed)
    A, q = random_pd_lcp(rng, n)
    z_ref, _ = lcp_by_enumeration(A, q)
    for solver in (lemke_solve, policy_solve):
        sol = solver(LCPProblem(A, q))
        assert sol.solved, solver.__name__
        assert np.max(np.abs(sol.z - z_ref)) <= 1e-8, solver.__name__


def test_one_dense_lu_path():
    # every production dense LU goes through factor_dense/solve_dense; only
    # the oracles, which check that code, may call scipy's own wrappers
    import ast

    import parisian

    banned = {"inv", "lu_factor", "lu_solve"}
    offenders = []
    for path in sorted(Path(parisian.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        aliases = set()  # names bound to scipy.linalg itself
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                for alias in node.names:
                    if alias.name in banned and node.module.startswith("scipy.linalg"):
                        offenders.append(f"{path.name}: from {node.module} import {alias.name}")
                    if alias.name == "linalg":
                        aliases.add(alias.asname or "linalg")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "scipy.linalg":
                        aliases.add(alias.asname or "scipy.linalg")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in banned:
                if ast.unparse(node.value) in aliases:
                    offenders.append(f"{path.name}: {ast.unparse(node)}")
    assert offenders == []
