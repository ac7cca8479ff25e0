"""Core numerical kernels.

Uniformized matrix exponentials, banded tridiagonal factorizations and
linear-complementarity (LCP) solvers.  The LCP convention throughout is

    find z >= 0 with w = A z + psi >= 0 and z . w = 0.

``policy_solve`` (primal-dual active-set iteration) is the one production
solver: every pricing LCP has an M-matrix (rate I - G, I - dt G or a duration
ladder operator), on which it converges in finitely many steps.  It works on
an ``LCPOperator``, which holds A once in solving form (three bands when A is
sparse and tridiagonal, CSC when it is otherwise sparse and less than half
full, dense otherwise) together with the LU factors of the last principal
block A_FF it solved; a recursion that passes one operator to
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
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu


MatrixLike = Union[np.ndarray, sparse.spmatrix]


def _as_dense(A: MatrixLike) -> np.ndarray:
    if isinstance(A, LCPOperator):
        return A.to_dense()
    if sparse.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


# ---------------------------------------------------------------------------
# tridiagonal free blocks
# ---------------------------------------------------------------------------


def _tridiagonal_bands(A: sparse.spmatrix) -> Optional[np.ndarray]:
    """The (3, n) LAPACK bands of a square sparse A of bandwidth <= 1:
    ``ab[1 + i - j, j] = A[i, j]``; None for any other A."""

    n = A.shape[0]
    if A.shape[1] != n or A.nnz > 3 * n:
        return None
    coo = A.tocoo()
    if np.any(np.abs(coo.col - coo.row) > 1):
        return None
    ab = np.zeros((3, n))
    np.add.at(ab, (1 + coo.row - coo.col, coo.col), coo.data)
    return ab


def factor_tridiag(ab: np.ndarray, idx: np.ndarray) -> tuple:
    """LU factors (LAPACK ``dgttrf``) of the principal block on the sorted
    indices ``idx`` of the tridiagonal matrix with bands ``ab``.

    The block is tridiagonal too: rows idx[k] and idx[k+1] couple only when
    they are neighbours, so every coupling across a gap in ``idx`` is 0.  The
    LAPACK wrapper rejects fewer than 3 rows, so a smaller block is padded
    with an identity block, which ``solve_tridiag`` drops again.
    """

    n = len(idx)
    m = max(n, 3)
    d = np.ones(m)
    d[:n] = ab[1, idx]
    dl, du = np.zeros(m - 1), np.zeros(m - 1)
    near = np.flatnonzero(np.diff(idx) == 1)
    dl[near] = ab[2, idx[near]]
    du[near] = ab[0, idx[near] + 1]
    *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise np.linalg.LinAlgError("singular free block A_FF")
    return lu, n


def solve_tridiag(factor: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A_FF x = b (a vector) with the factor of ``factor_tridiag``."""

    lu, n = factor
    rhs = np.zeros(len(lu[1]))
    rhs[:n] = b
    return dgttrs(*lu, rhs, overwrite_b=1)[0][:n]


# ---------------------------------------------------------------------------
# uniformized matrix exponentials
# ---------------------------------------------------------------------------


def generator_expm(G: MatrixLike, t: float, tol: float = 1e-14) -> np.ndarray:
    """Dense exp(t G) for a (sub-)generator G via uniformization.

    Requires nonnegative off-diagonal entries and row sums <= 0 so that
    P = I + G/rate is substochastic; the Poisson-weighted power series then
    has nonnegative terms and is truncated once the remaining Poisson tail
    drops below ``tol``.  Exact to truncation level (no time-step bias).
    The series starts from the weight e^{-a}, a = rate t, which underflows
    once a passes about 745; past a = 500 the series runs on exp((t / 2^k) G)
    with a / 2^k <= 500 instead and the result is squared k times, which
    keeps it nonnegative.
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
    squarings = max(0, math.ceil(math.log2(a / 500.0)))
    a /= 2**squarings
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
    for _ in range(squarings):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# linear complementarity problems
# ---------------------------------------------------------------------------


class LCPOperator:
    """The matrix A of a family of LCPs, held once in solving form.

    A sparse A of bandwidth <= 1 (a tridiagonal chain's slice operator) is
    held as its three bands ``bands`` in LAPACK (3, n) layout, which is also
    the data of a DIA matrix with offsets (1, 0, -1); any other sparse A with
    fewer than n^2/2 stored entries is converted to CSC once; anything else,
    a sparse A at least half full included, is held dense, where a dense LU
    is cheaper than a sparse one.  ``is_sparse`` is true for bands and CSC.
    The operator also keeps the LU factors (``factor_tridiag`` on bands,
    ``splu`` on CSC, ``lu_factor`` dense) of the last principal block A_FF
    that ``solve_free`` solved, keyed by the free index set F.  A solve on
    the same F reuses them; a different F drops them before the new block is
    cut, so at most one factor is alive.
    Policy iteration solves every A_FF exactly, so reusing the factor leaves
    every solution as it was.  The factor lives as long as the operator, and
    an operator is not meant to be shared across threads.
    """

    def __init__(self, A: MatrixLike):
        self.bands = _tridiagonal_bands(A) if sparse.issparse(A) else None
        if self.bands is not None:
            self.matrix = sparse.dia_matrix((self.bands, (1, 0, -1)), shape=A.shape)
        elif sparse.issparse(A) and 2 * A.nnz < math.prod(A.shape):
            self.matrix = A.tocsc()
        else:
            self.matrix = _as_dense(A)
        self.is_sparse = sparse.issparse(self.matrix)
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

    def to_dense(self) -> np.ndarray:
        """A as a dense array (the operator's own array when held dense)."""

        return self.matrix.toarray() if self.is_sparse else self.matrix

    def solve_free(self, free: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Solve A_FF x = rhs for the free mask ``free``.

        Returns x and the number of factorizations made (0 or 1).
        """

        factorizations = 0
        if self._lu is None or not np.array_equal(free, self._free):
            self._lu = self._free = None
            idx = np.flatnonzero(free)
            if self.bands is not None:
                self._lu = factor_tridiag(self.bands, idx)
            elif self.is_sparse:
                self._lu = splu(self.matrix[idx][:, idx])
            else:
                block = self.matrix[np.ix_(idx, idx)]
                lu = lu_factor(block, overwrite_a=True, check_finite=False)
                if not np.all(np.diagonal(lu[0])):
                    raise np.linalg.LinAlgError("singular free block A_FF")
                self._lu = lu
            self._free = free.copy()
            factorizations = 1
        if self.bands is not None:
            return solve_tridiag(self._lu, rhs), factorizations
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
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if len(self.psi) != self.n:
            raise ValueError("psi length must match A dimension")
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("psi must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def residual_w(self, z: np.ndarray) -> np.ndarray:
        return self.A @ z + self.psi


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
