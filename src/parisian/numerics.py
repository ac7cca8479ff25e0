"""Core numerical kernels.

Tridiagonal solves, uniformized matrix exponentials and linear-complementarity
(LCP) solvers.  The LCP convention throughout is

    find z >= 0 with w = A z + psi >= 0 and z . w = 0.

``policy_solve`` (primal-dual active-set iteration) is the one production
solver: every pricing LCP has an M-matrix (rate I - G, I - dt G or a duration
ladder operator), on which it converges in finitely many steps.  It works on
an ``LCPOperator``, which holds A once in solving form (CSC when A is sparse
and less than half full, dense otherwise) together with the LU factors of the
last principal block A_FF it solved; a recursion that passes one operator to
every clock slice factors A_FF once per distinct free set instead of once per
iteration.  ``lemke_solve`` (pivoting) is kept as an independent reference
for tests and ``parisian verify``.  Functions are pure apart from the factor
an operator caches, so an operator must not be shared across threads; calls
on distinct operators are safe in parallel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve, solve_banded
from scipy.sparse.linalg import splu


# ---------------------------------------------------------------------------
# tridiagonal matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriDiag:
    """Tridiagonal matrix stored as (sub, main, super) diagonal arrays."""

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        n = len(self.main)
        if len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise ValueError(
                f"diagonal lengths must be ({n-1}, {n}, {n-1}); got "
                f"({len(self.sub)}, {n}, {len(self.sup)})"
            )

    @property
    def n(self) -> int:
        return len(self.main)

    def to_banded(self) -> np.ndarray:
        """LAPACK banded layout (3, n) with rows (super, main, sub)."""
        n = self.n
        ab = np.zeros((3, n))
        ab[0, 1:] = self.sup
        ab[1, :] = self.main
        ab[2, :-1] = self.sub
        return ab

    def to_dense(self) -> np.ndarray:
        n = self.n
        out = np.diag(self.main)
        out[np.arange(n - 1) + 1, np.arange(n - 1)] = self.sub
        out[np.arange(n - 1), np.arange(n - 1) + 1] = self.sup
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = self.main * x
        out[:-1] += self.sup * x[1:]
        out[1:] += self.sub * x[:-1]
        return out

    def norm_inf(self) -> float:
        rowsum = np.abs(self.main).astype(float)
        rowsum[:-1] += np.abs(self.sup)
        rowsum[1:] += np.abs(self.sub)
        return float(rowsum.max()) if self.n else 0.0


MatrixLike = Union[np.ndarray, TriDiag, sparse.spmatrix]


def _as_dense(A: MatrixLike) -> np.ndarray:
    if isinstance(A, LCPOperator):
        A = A.matrix
    if isinstance(A, TriDiag):
        return A.to_dense()
    if sparse.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


def _matvec(A: MatrixLike, x: np.ndarray) -> np.ndarray:
    if isinstance(A, TriDiag):
        return A.matvec(x)
    return A @ x


def solve_tridiag(A: TriDiag, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for tridiagonal A (b may be a vector or a matrix)."""

    try:
        return solve_banded((1, 1), A.to_banded(), b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal system ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# uniformized matrix exponentials
# ---------------------------------------------------------------------------


def generator_expm(G: MatrixLike, t: float, tol: float = 1e-14) -> np.ndarray:
    """Dense exp(t G) for a (sub-)generator G via uniformization.

    Requires nonnegative off-diagonal entries and row sums <= 0 so that
    P = I + G/rate is substochastic; the Poisson-weighted power series then
    has nonnegative terms and is truncated once the remaining Poisson tail
    drops below ``tol``.  Exact to truncation level (no time-step bias).
    """

    if t < 0:
        raise ValueError("t must be nonnegative")
    Gd = _as_dense(G)
    n = Gd.shape[0]
    if t == 0.0 or n == 0:
        return np.eye(n)
    rate = float(-Gd.diagonal().min())
    if rate <= 0.0:
        # zero generator (all rates vanish)
        return np.eye(n)
    off = Gd - np.diag(Gd.diagonal())
    if off.min() < -1e-10 * max(rate, 1.0):
        raise ValueError("generator_expm needs nonnegative off-diagonals")
    P = Gd / rate + np.eye(n)
    a = rate * t
    weight = math.exp(-a)
    term = np.eye(n)
    out = weight * term
    consumed = weight
    kmax = int(a + 40.0 * math.sqrt(a + 1.0) + 40)
    for j in range(1, kmax + 1):
        term = term @ P
        weight *= a / j
        out += weight * term
        consumed += weight
        if 1.0 - consumed < tol and j > a:
            break
    return out


# ---------------------------------------------------------------------------
# linear complementarity problems
# ---------------------------------------------------------------------------


class LCPOperator:
    """The matrix A of a family of LCPs, held once in solving form.

    A sparse A with fewer than n^2/2 stored entries is converted to CSC once;
    anything else, a sparse A at least half full included, is held dense,
    where a dense LU is cheaper than a sparse one.  The operator also keeps
    the LU factors (``lu_factor`` dense, ``splu`` sparse) of the last principal
    block A_FF that ``solve_free`` solved, keyed by the free index set F.  A
    solve on the same F reuses them; a different F drops them before the new
    block is extracted, so at most one factor is alive.
    Policy iteration solves every A_FF exactly, so reusing the factor leaves
    every solution as it was.  The factor lives as long as the operator, and
    an operator is not meant to be shared across threads.
    """

    def __init__(self, A: MatrixLike):
        self.is_sparse = sparse.issparse(A) and 2 * A.nnz < math.prod(A.shape)
        self.matrix = A.tocsc() if self.is_sparse else _as_dense(A)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("A must be square")
        self._free: Optional[np.ndarray] = None
        self._lu = None

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def solve_free(self, free: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Solve A_FF x = rhs for the free mask ``free``.

        Returns x and the number of factorizations made (0 or 1).
        """

        factorizations = 0
        if self._lu is None or not np.array_equal(free, self._free):
            self._lu = self._free = None
            idx = np.flatnonzero(free)
            if self.is_sparse:
                self._lu = splu(self.matrix[idx][:, idx])
            else:
                block = self.matrix[np.ix_(idx, idx)]
                lu = lu_factor(block, overwrite_a=True, check_finite=False)
                if not np.all(np.diagonal(lu[0])):
                    raise np.linalg.LinAlgError("singular free block A_FF")
                self._lu = lu
            self._free = free.copy()
            factorizations = 1
        if self.is_sparse:
            return self._lu.solve(rhs), factorizations
        return lu_solve(self._lu, rhs, check_finite=False), factorizations


class LCPStatus(enum.Enum):
    SOLVED = "solved"
    RAY_TERMINATION = "ray_termination"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LCPProblem:
    """LCP data (A, psi): find z >= 0, A z + psi >= 0, z.(A z + psi) = 0.

    ``A`` is a matrix or an ``LCPOperator`` built on one.
    """

    A: Union[MatrixLike, LCPOperator]
    psi: np.ndarray

    def __post_init__(self):
        n = self.A.n if isinstance(self.A, TriDiag) else self.A.shape[0]
        shape = self.A.shape if not isinstance(self.A, TriDiag) else (n, n)
        if shape[0] != shape[1]:
            raise ValueError("A must be square")
        if len(self.psi) != n:
            raise ValueError("psi length must match A dimension")
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("psi must be finite")

    @property
    def n(self) -> int:
        return self.A.n if isinstance(self.A, TriDiag) else self.A.shape[0]

    def residual_w(self, z: np.ndarray) -> np.ndarray:
        return _matvec(self.A, z) + self.psi


@dataclass(frozen=True)
class LCPSolution:
    z: np.ndarray
    complementarity: float
    iterations: int
    status: LCPStatus
    factorizations: int = 0  # LU factorizations of free blocks made

    @property
    def solved(self) -> bool:
        return self.status is LCPStatus.SOLVED


def require_solved(sol: LCPSolution, what: str) -> LCPSolution:
    """Return ``sol``; raise RuntimeError naming ``what`` if it is unsolved."""

    if not sol.solved:
        raise RuntimeError(f"{what}: LCP solver failed with {sol.status.value}")
    return sol


def complementarity_residual(problem: LCPProblem, z: np.ndarray) -> float:
    """max_i |min(z_i, (A z + psi)_i)|, the natural LCP residual."""

    w = problem.residual_w(z)
    return float(np.max(np.abs(np.minimum(z, w)))) if len(z) else 0.0


def _finish(problem, z, iters, status, factorizations=0, res=None) -> LCPSolution:
    if res is None:
        res = complementarity_residual(problem, z)
    return LCPSolution(
        z=np.asarray(z, dtype=float),
        complementarity=res,
        iterations=iters,
        status=status,
        factorizations=factorizations,
    )


def lemke_solve(
    problem: LCPProblem,
    max_pivots: Optional[int] = None,
    tol: float = 1e-11,
) -> LCPSolution:
    """Lemke's complementary pivoting with an all-ones covering vector.

    Ties in the minimum-ratio test are broken lexicographically (comparing
    against the running basis-inverse columns), which rules out cycling.  Ray
    termination is reported, never silently converted into a solution.
    """

    n = problem.n
    psi = np.asarray(problem.psi, dtype=float)
    if max_pivots is None:
        max_pivots = 50 * n + 1000
    if np.min(psi, initial=0.0) >= 0.0:
        return _finish(problem, np.zeros(n), 0, LCPStatus.SOLVED)

    A = _as_dense(problem.A)
    # tableau rows: basic-variable equations over columns
    # [w_0..w_{n-1} | z_0..z_{n-1} | z_art | rhs]
    T = np.zeros((n, 2 * n + 2))
    T[:, :n] = np.eye(n)
    T[:, n : 2 * n] = -A
    T[:, 2 * n] = -1.0
    T[:, 2 * n + 1] = psi
    basis = np.arange(n)  # w_i basic everywhere
    art = 2 * n
    rhs = 2 * n + 1
    scale = max(1.0, float(np.abs(T).max()))

    def pivot(row, col):
        T[row] = T[row] / T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T[...] -= np.outer(colvals, T[row])
        left = basis[row]
        basis[row] = col
        return left

    # drive the artificial variable in against the most negative slack
    row = int(np.argmin(T[:, rhs]))
    leaving = pivot(row, art)
    entering = leaving + n  # complement of the w that just left

    lex_cols = [rhs] + list(range(n))
    for it in range(1, max_pivots + 1):
        col = T[:, entering]
        eligible = np.flatnonzero(col > tol * scale)
        if eligible.size == 0:
            z = np.zeros(n)
            in_z = (basis >= n) & (basis < 2 * n)
            z[basis[in_z] - n] = T[in_z, rhs]
            return _finish(problem, z, it, LCPStatus.RAY_TERMINATION)
        # lexicographic minimum-ratio test
        cand = eligible
        for c in lex_cols:
            ratios = T[cand, c] / T[cand, entering]
            best = ratios.min()
            cand = cand[ratios <= best + tol * max(1.0, abs(best))]
            if cand.size == 1:
                break
        row = int(cand[0])
        left = pivot(row, entering)
        if left == art:
            z = np.zeros(n)
            in_z = (basis >= n) & (basis < 2 * n)
            z[basis[in_z] - n] = T[in_z, rhs]
            z = np.maximum(z, 0.0)
            return _finish(problem, z, it, LCPStatus.SOLVED)
        entering = left + n if left < n else left - n
    z = np.zeros(n)
    in_z = (basis >= n) & (basis < 2 * n)
    z[basis[in_z] - n] = T[in_z, rhs]
    return _finish(problem, z, max_pivots, LCPStatus.MAX_ITERATIONS)


# policy iteration: sign tolerance on z and w relative to their scales, and
# the iteration cap, which grows with n on sparse operators
_POLICY_TOL = 1e-10
_POLICY_MAX_ITER = 200
_POLICY_ITER_PER_STATE = 4


def policy_solve(
    problem: LCPProblem,
    active0: Optional[np.ndarray] = None,
) -> LCPSolution:
    """Primal-dual active-set (policy) iteration.

    Maintains a guess of the active set {i : z_i = 0}, starting from
    ``active0`` (default: the states where psi >= 0); on the complement F it
    solves the reduced linear system A_FF z_F = -psi_F exactly, then updates
    the sets from the signs of z and w = A z + psi.  Converges in finitely
    many iterations from any starting set for the M-matrix systems produced
    by the pricers.
    ``problem.A`` may be an ``LCPOperator`` (a plain matrix is wrapped in a
    new one): an iteration whose F equals the one the operator solved last,
    in this call or an earlier one, reuses its factor, and
    ``LCPSolution.factorizations`` counts the ones made.  For banded
    operators the free boundary can travel only one node per iteration, so
    the iteration cap scales with the problem size when ``A`` is sparse
    (where an iteration is cheap).
    """

    n = problem.n
    psi = np.asarray(problem.psi, dtype=float)
    op = problem.A if isinstance(problem.A, LCPOperator) else LCPOperator(problem.A)
    max_iter = _POLICY_MAX_ITER
    if op.is_sparse:
        max_iter = max(max_iter, _POLICY_ITER_PER_STATE * n)

    active = (psi >= 0.0) if active0 is None else np.array(active0, dtype=bool)
    prev_active = None
    factorizations = 0
    for it in range(1, max_iter + 1):
        free = ~active
        z = np.zeros(n)
        idx = np.flatnonzero(free)
        if idx.size:
            z[idx], made = op.solve_free(free, -psi[idx])
            factorizations += made
        w = op @ z + psi
        w[idx] = 0.0  # exact by construction; remove round-off
        new_active = (z - w) < 0.0
        # tolerances follow the problem's scale: z lives on the solution
        # scale, w on the scale of psi
        z_scale = max(1.0, float(np.max(np.abs(z), initial=0.0)))
        w_scale = max(1.0, float(np.max(np.abs(psi), initial=0.0)))
        if prev_active is not None and np.array_equal(new_active, active):
            z = np.maximum(z, 0.0)
            res = complementarity_residual(problem, z)
            ok = res <= max(100 * _POLICY_TOL, 1e-8) * z_scale
            status = LCPStatus.SOLVED if ok else LCPStatus.MAX_ITERATIONS
            return _finish(problem, z, it, status, factorizations, res)
        if (
            np.min(z, initial=0.0) >= -_POLICY_TOL * z_scale
            and np.min(w, initial=0.0) >= -_POLICY_TOL * w_scale
        ):
            return _finish(
                problem, np.maximum(z, 0.0), it, LCPStatus.SOLVED, factorizations
            )
        prev_active = active
        active = new_active
    return _finish(
        problem, np.maximum(z, 0.0), max_iter, LCPStatus.MAX_ITERATIONS,
        factorizations,
    )
