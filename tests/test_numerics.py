"""Numerics kernel tests: linear solves, uniformized exponentials, LCP solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from parisian.numerics import (
    LCPOperator,
    LCPProblem,
    LCPStatus,
    complementarity_residual,
    generator_expm,
    lemke_solve,
    policy_solve,
    require_solved,
)


def brute_force_lcp(A, q, tol=1e-9):
    """Enumerate all 2^n complementary bases (independent oracle)."""
    n = len(q)
    for mask in range(1 << n):
        free = [i for i in range(n) if mask >> i & 1]
        z = np.zeros(n)
        if free:
            try:
                z[free] = np.linalg.solve(A[np.ix_(free, free)], -q[free])
            except np.linalg.LinAlgError:
                continue
        w = A @ z + q
        if np.all(z >= -tol) and np.all(w >= -tol):
            return np.maximum(z, 0.0)
    return None


def random_pd_lcp(rng, n):
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    q = 2.0 * rng.normal(size=n)
    return A, q


def random_generator(rng, n):
    G = rng.exponential(size=(n, n))
    np.fill_diagonal(G, 0.0)
    G[np.arange(n), np.arange(n)] = -G.sum(axis=1)
    return G


def random_tridiagonal_m_matrix(rng, n):
    """Strictly diagonally dominant tridiagonal M-matrix, dense."""
    sub, sup = -rng.uniform(0.1, 3.0, size=n - 1), -rng.uniform(0.1, 3.0, size=n - 1)
    A = np.diag(sub, -1) + np.diag(sup, 1)
    A[np.diag_indices(n)] = np.abs(A).sum(axis=1) + rng.uniform(0.05, 1.0, size=n)
    return A


class TestBandedOperator:
    """A sparse tridiagonal operator is held as its bands and solves its free
    blocks from them; the dense matrix is the reference."""

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            LCPOperator(sparse.diags([np.ones(3), np.ones(3)], [0, 1], shape=(3, 4)))

    def test_identity_solve_returns_rhs(self):
        n = 7
        op = LCPOperator(sparse.identity(n, format="csr"))
        assert op.bands is not None and op.is_sparse
        b = np.arange(n, dtype=float)
        x, made = op.solve_free(np.ones(n, dtype=bool), b)
        assert made == 1
        np.testing.assert_array_equal(x, b)

    def test_two_by_two_forced_solution(self):
        # blocks of 1 and 2 rows, which the LAPACK wrapper rejects unpadded
        op = LCPOperator(sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert op.bands is not None
        x, _ = op.solve_free(np.ones(2, dtype=bool), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)
        x, _ = op.solve_free(np.array([False, True]), np.array([3.0]))
        assert np.allclose(x, [1.5], atol=1e-14)

    def test_free_blocks_match_dense_solves_on_masks_with_gaps(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 9, 50):
            A = random_tridiagonal_m_matrix(rng, n)
            op = LCPOperator(sparse.csc_matrix(A))
            assert op.bands is not None
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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_raises(self):
        # a zero row makes every cut block through it singular, as it does
        # for the dense operator
        A = random_tridiagonal_m_matrix(np.random.default_rng(8), 6)
        A[3] = 0.0
        for free in (np.ones(6, dtype=bool), np.arange(6) >= 2,
                     np.arange(6) == 3):
            for op in (LCPOperator(sparse.csr_matrix(A)), LCPOperator(A)):
                with pytest.raises(np.linalg.LinAlgError):
                    op.solve_free(free, np.ones(int(free.sum())))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        A = random_tridiagonal_m_matrix(rng, 5)
        op = LCPOperator(sparse.csr_matrix(A))
        np.testing.assert_array_equal(op.to_dense(), A)
        x = rng.normal(size=5)
        assert np.allclose(op @ x, A @ x, rtol=1e-15, atol=0.0)

    def test_policy_solve_keeps_the_per_state_iteration_cap(self):
        # the contact point of the string travels one node per iteration:
        # more iterations than the dense cap, within the 4n of a sparse one
        A, psi, _ = obstacle_problem(500)
        op = LCPOperator(sparse.csr_matrix(A))
        assert op.bands is not None and op.is_sparse
        sol = policy_solve(LCPProblem(op, psi))
        assert sol.solved and 200 < sol.iterations <= 4 * 500
        dense = policy_solve(LCPProblem(A, psi))
        assert dense.status is LCPStatus.MAX_ITERATIONS


class TestGeneratorExpm:
    def test_matches_scaling_and_squaring(self):
        rng = np.random.default_rng(11)
        G = random_generator(rng, 18)
        assert np.max(np.abs(generator_expm(G, 0.9) - expm(0.9 * G))) <= 1e-12

    def test_subgenerator_rows(self):
        rng = np.random.default_rng(12)
        G = random_generator(rng, 10)
        G[0] = 0.0           # absorbing row
        G[4, 4] -= 3.0       # leaky row (killing)
        U = generator_expm(G, 1.7)
        assert np.max(np.abs(U - expm(1.7 * G))) <= 1e-12
        assert U.min() >= -1e-15
        assert U.sum(axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("r", [700.0, 800.0])
    def test_large_uniformization_mean_matches_expm(self, r):
        # a = (r + 1) t passes 745 at r = 800, where e^{-a} underflows
        G = np.array([[-r, r], [r, -r - 1.0]])
        U = generator_expm(G, 1.0)
        assert U.min() > 0.3
        assert np.max(np.abs(U - expm(G))) <= 1e-12

    def test_rejects_negative_off_diagonal(self):
        G = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ValueError):
            generator_expm(G, 1.0)


class TestLemke:
    def test_nonnegative_psi_gives_zero(self):
        sol = lemke_solve(LCPProblem(np.eye(4), np.array([0.0, 1.0, 2.0, 0.5])))
        assert sol.solved and np.allclose(sol.z, 0.0)

    def test_identity_negative_psi(self):
        sol = lemke_solve(LCPProblem(np.eye(3), -np.ones(3)))
        assert sol.solved
        assert np.allclose(sol.z, 1.0, atol=1e-12)
        assert sol.complementarity <= 1e-12

    def test_matches_enumeration_on_p_matrices(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            A, q = random_pd_lcp(rng, n)
            sol = lemke_solve(LCPProblem(A, q))
            z_ref = brute_force_lcp(A, q)
            assert sol.solved, f"trial {trial}: status {sol.status}"
            assert np.max(np.abs(sol.z - z_ref)) <= 1e-9, f"trial {trial}"
            # identical active sets
            assert np.array_equal(sol.z > 1e-9, z_ref > 1e-9)

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
    """One operator across solves: the free block is factored once per set."""

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_factor_reused_only_on_the_same_free_set(self, fmt):
        A, psi, _ = obstacle_problem(60)
        matrix = sparse.csr_matrix(A) if fmt == "sparse" else A
        op = LCPOperator(matrix)
        first = policy_solve(LCPProblem(op, psi))
        assert first.solved and first.factorizations == first.iterations
        # a scaled load keeps the contact set: the next "slice" factors nothing
        warm = first.z <= 0.0
        again = policy_solve(LCPProblem(op, 1.001 * psi), active0=warm)
        assert again.solved and again.factorizations == 0
        fresh = policy_solve(LCPProblem(LCPOperator(matrix), 1.001 * psi),
                             active0=warm)
        assert fresh.factorizations == 1
        np.testing.assert_array_equal(again.z, fresh.z)
        # a lower left end moves the contact point: one new factorization
        _, psi_low, _ = obstacle_problem(60, left_height=0.5)
        low = policy_solve(LCPProblem(LCPOperator(matrix), psi_low))
        moved = low.z <= 0.0
        assert not np.array_equal(moved, warm)
        changed = policy_solve(LCPProblem(op, psi_low), active0=moved)
        assert changed.solved and changed.factorizations == 1
        np.testing.assert_array_equal(changed.z, low.z)

    def test_sparse_input_stored_dense_from_half_full(self):
        rng = np.random.default_rng(14)
        # a 4x4 with 8 stored entries is half full: dense; with 7, CSC
        off = [(i, j) for i in range(4) for j in range(4) if i != j]
        for nnz, stays_sparse in ((8, False), (7, True)):
            A = 10.0 * np.eye(4)
            for k in rng.permutation(len(off))[: nnz - 4]:
                A[off[k]] = -rng.uniform(0.5, 2.0)
            assert LCPOperator(sparse.csr_matrix(A)).is_sparse is stays_sparse
        # a full M-matrix stored dense solves like the dense operator, a
        # banded one is held as its bands and solves like the banded operator
        full = 0.1 * np.eye(30) - random_generator(rng, 30)
        banded, psi, _ = obstacle_problem(60)
        cases = ((full, 2.0 * rng.normal(size=30), LCPOperator(full)),
                 (banded, psi, LCPOperator(sparse.csc_matrix(banded))))
        for A, q, same in cases:
            op = LCPOperator(sparse.csr_matrix(A))
            assert op.is_sparse is same.is_sparse
            assert (op.bands is None) is (same.bands is None) is (A is full)
            np.testing.assert_array_equal(op.to_dense(), A)
            got = policy_solve(LCPProblem(op, q))
            assert got.solved
            np.testing.assert_array_equal(got.z, policy_solve(LCPProblem(same, q)).z)

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
    z_ref = brute_force_lcp(A, q)
    for solver in (lemke_solve, policy_solve):
        sol = solver(LCPProblem(A, q))
        assert sol.solved, solver.__name__
        assert np.max(np.abs(sol.z - z_ref)) <= 1e-8, solver.__name__
