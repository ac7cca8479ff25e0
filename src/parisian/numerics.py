"""Core numerical kernels.

Uniformized matrix exponentials, dense, tridiagonal and general band LU
factorizations, randomized low-rank factors and linear-complementarity (LCP)
solvers.  Every dense and tridiagonal LU factor is of the transpose, which
swaps no rows on the blocks the pricers factor (``ctmc.block_inverse``).
``generator_expm`` sums the uniformized series of a sub-generator,
a degree-d polynomial in P = I + G/rate with Poisson weights, in the
Paterson-Stockmeyer order: about 2 sqrt(d) matrix products instead of d, and
every term nonnegative, so exp(t G) >= 0 entrywise.  The LCP convention
throughout is

    find z >= 0 with w = A z + psi >= 0 and z . w = 0.

``policy_solve`` (primal-dual active-set iteration) is the one production
solver: every pricing LCP has an M-matrix (rate I - G, I - dt G or a duration
ladder operator), on which it converges in finitely many steps.  Every
``LCPProblem`` holds its A as an ``LCPOperator``, in the one solving form
chosen when the operator is built: three bands when the builder hands them
over (``LCPOperator.from_bands``), CSC for a sparse A less than half full,
dense otherwise.  The operator solves every block A_FF on a prefix free set
{0..k-1} from one LU factor of A^T, which also gives a call-like LCP its
exercise boundary in one sweep (``policy_solve`` jumps there once), and
keeps the factor of the last other block; a recursion that passes one
operator to every clock slice factors once, plus once per new non-prefix
set, not once per iteration.
``lemke_solve`` (pivoting) is an independent reference for tests and
``parisian verify``.  Functions are pure apart from the factors an operator
caches, so an operator must not be shared across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs, dgttrf, dgttrs, dtrtrs
from scipy.sparse.linalg import splu


# ---------------------------------------------------------------------------
# dense and tridiagonal LU factors
# ---------------------------------------------------------------------------


def factor_dense(A: np.ndarray) -> tuple:
    """LU factors (LAPACK ``dgetrf``, partial pivoting) of the transpose of
    the square A, with which ``solve_dense`` solves with A (trans='T').

    A is handed over: the transpose of a C-ordered A is Fortran-ordered and
    factored in place, any other is copied once by the wrapper.  Raises
    ``LinAlgError`` on an exactly zero pivot.
    """

    a = A.T
    if not a.size:  # LAPACK rejects an empty matrix
        return a, np.zeros(0, dtype=np.int32)
    lu, piv, info = dgetrf(a, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("singular dense block")
    return lu, piv


def solve_dense(factor: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A x = b (a vector, or a matrix column by column) with the
    factor of ``factor_dense``."""

    lu, piv = factor
    if not np.size(b):  # the wrapper rejects an empty right-hand side
        return np.zeros(np.shape(b))
    return dgetrs(lu, piv, b, trans=1)[0]


def factor_tridiag(ab: np.ndarray, idx: np.ndarray) -> tuple:
    """LU factors (LAPACK ``dgttrf``) of the transpose of the principal
    block on the sorted indices ``idx`` of the tridiagonal matrix with bands
    ``ab``, with which ``solve_tridiag`` solves with the block (trans='T').

    The block is tridiagonal too: rows idx[k] and idx[k+1] couple only when
    they are neighbours, so every coupling across a gap in ``idx`` is 0.  The
    LAPACK wrapper rejects fewer than 3 rows, so a smaller block is padded
    with an identity block, which ``solve_tridiag`` drops again.
    """

    n = len(idx)
    m = max(n, 3)
    d = np.ones(m)
    dl, du = np.zeros(m - 1), np.zeros(m - 1)  # of the transpose
    if n and idx[-1] - idx[0] == n - 1:  # a contiguous range: the bands' slices
        a = idx[0]
        d[:n] = ab[1, a:a + n]
        du[:n - 1] = ab[2, a:a + n - 1]
        dl[:n - 1] = ab[0, a + 1:a + n]
    else:
        d[:n] = ab[1, idx]
        near = np.flatnonzero(np.diff(idx) == 1)
        du[near] = ab[2, idx[near]]
        dl[near] = ab[0, idx[near] + 1]
    *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise np.linalg.LinAlgError("singular free block A_FF")
    return lu, n


def solve_tridiag(factor: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A_FF x = b (a vector, or a matrix column by column) with the
    factor of ``factor_tridiag``."""

    lu, n = factor
    if np.ndim(b) == 2 and not np.shape(b)[1]:  # dgttrs corrupts the heap
        return np.zeros((n, 0))
    pad = len(lu[1]) - n  # the identity rows of a padded block solve to 0
    if pad:
        b = np.concatenate([b, np.zeros((pad,) + np.shape(b)[1:])])
    return dgttrs(*lu, b, trans="T")[0][:n]


def factor_banded(ab: np.ndarray, kl: int, ku: int) -> tuple:
    """LU factors (LAPACK ``dgbtrf``) of the matrix with ``kl`` sub- and
    ``ku`` super-diagonals in LAPACK's band storage, ab[kl + ku + i - j, j] =
    A[i, j], under ``kl`` rows for the fill; ab is handed over."""

    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError("singular band matrix")
    return lu, piv, kl, ku


def solve_banded(factor: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A x = b with the factor of ``factor_banded``; b is handed over."""

    lu, piv, kl, ku = factor
    return dgbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0]


@dataclass(frozen=True)
class _Inverse:
    """A^-1 held as an LU factor: ``self @ b`` solves A x = b (column by
    column for a matrix b) with ``solve_tridiag``, ``solve_dense`` or a
    caller's solve on a ``factor_banded`` factor."""

    solve: Callable
    factor: tuple

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(self.factor, b)


# ---------------------------------------------------------------------------
# low-rank factors
# ---------------------------------------------------------------------------

# the range finder's first sketch width and its seed (fixed, so that a
# factor and everything built on it are reproducible bit for bit)
_SKETCH_COLUMNS = 8
_SKETCH_SEED = 20110531


def low_rank_factor(
    B: np.ndarray, rtol: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """(U, W, residual) with residual = ||B - U W||_F <= rtol ||B||_F, U with
    orthonormal columns, as few as B's numerical rank allows.

    A randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53(2),
    2011): U is an orthonormal basis of the sketch B Omega for a Gaussian
    Omega of k = 8, 16, 32, ... columns and W = U^T B, cut to the numerical
    rank (sec. 5 there): with the SVD W = Uw S Vw^T, r is the fewest columns
    whose tail ||S[r:]||_F meets the bound, U_r an orthonormal basis of
    U Uw[:, :r] (one QR: the product alone is orthonormal only to rounding,
    which its residual shows) and W_r = U_r^T B.  The width-r factor is
    returned if its exact residual meets ``rtol``, else (or if r = k) the
    width-k one if its own does, else k doubles: U_r W_r projects B on part
    of U's range, so the common case forms one exact residual, ``residual``.
    Once k would reach B's column count, at once if B has no more than k
    columns, the factor is B itself, ``(B, I, 0.0)``: W is always a matrix.
    The sketch draws from its own seeded generator, so a given B always gets
    the same factor.
    """

    n_cols = B.shape[1]
    rng = np.random.default_rng(_SKETCH_SEED)
    bound = rtol * np.linalg.norm(B)
    Y = np.empty((B.shape[0], 0))
    k = _SKETCH_COLUMNS
    while k < n_cols:
        Y = np.hstack([Y, B @ rng.standard_normal((n_cols, k - Y.shape[1]))])
        U = np.linalg.qr(Y)[0]
        W = U.T @ B
        Uw, sv, _ = np.linalg.svd(W, full_matrices=False)
        tails = np.sqrt(np.cumsum(sv[::-1] ** 2))[::-1]  # ||S[r:]||_F
        r = int(np.count_nonzero(tails > bound))
        if r < k:
            Ur = np.linalg.qr(U @ Uw[:, :r])[0]
            Wr = Ur.T @ B
            residual = np.linalg.norm(B - Ur @ Wr)
            if residual <= bound:
                return Ur, Wr, float(residual)
        residual = np.linalg.norm(B - U @ W)
        if residual <= bound:
            return U, W, float(residual)
        k *= 2
    return B, np.eye(n_cols), 0.0


# ---------------------------------------------------------------------------
# uniformized matrix exponentials
# ---------------------------------------------------------------------------


# the largest Poisson mean the uniformized series is summed at
_EXPM_MAX_MEAN = 50.0
# the Poisson tail mass at which the uniformized series is truncated
_EXPM_TAIL = 1e-14


def generator_expm(G: np.ndarray, t: float) -> np.ndarray:
    """Dense exp(t G) for a dense (sub-)generator G via uniformization.

    Requires nonnegative off-diagonal entries and row sums <= 0, so that
    P = I + G/rate is substochastic; otherwise it raises ``ValueError``.
    exp(t G) = sum_k pi_k P^k with Poisson(a) weights pi_k, a = rate t, and
    the series is cut at the first d whose Poisson tail lies below
    ``_EXPM_TAIL`` (``poisson_weights``), which bounds the error since every
    P^k is substochastic.
    Exact to truncation level (no time-step bias).

    The degree-d polynomial is evaluated in the Paterson-Stockmeyer order
    (Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973; Higham, Functions of
    Matrices, 2008, sec. 4.2): with s = round(sqrt(d + 1)) and the powers
    P^2..P^s, the blocks B_j = sum_{i<s} pi_{js+i} P^i are combined by
    Horner's rule in P^s.  That takes about 2 sqrt(d) matrix products where
    term-by-term summation takes d.  Every weight and every power is >= 0,
    so every block and every Horner step is too, and the result is
    nonnegative without cancellation.

    d grows like a, so past a = ``_EXPM_MAX_MEAN`` the series runs on
    exp((t / 2^k) G) with a / 2^k <= 50 instead and the result is squared k
    times, which keeps it nonnegative.
    """

    if t < 0:
        raise ValueError("t must be nonnegative")
    Gd = np.asarray(G, dtype=float)
    n = Gd.shape[0]
    if t == 0.0 or n == 0:
        return np.eye(n)
    rate = float(-Gd.diagonal().min())
    scale = 1e-10 * max(rate, 1.0)
    off = Gd - np.diag(Gd.diagonal())
    if off.min() < -scale:
        raise ValueError("generator_expm needs nonnegative off-diagonals")
    worst = float(Gd.sum(axis=1).max())
    if worst > scale:
        raise ValueError(f"generator_expm needs row sums <= 0; the largest is {worst:.6g}")
    if rate <= 0.0:
        # zero generator (all rates vanish)
        return np.eye(n)
    P = Gd / rate + np.eye(n)
    a = rate * t
    squarings = max(0, math.ceil(math.log2(a / _EXPM_MAX_MEAN)))
    a /= 2**squarings
    weights = poisson_weights(a, _EXPM_TAIL)
    d = len(weights) - 1
    s = round(math.sqrt(d + 1))
    # P^0..P^s, s - 1 products
    powers = np.empty((s + 1, n, n))
    powers[0] = np.eye(n)
    powers[1] = P
    for i in range(2, s + 1):
        np.matmul(powers[i - 1], P, out=powers[i])
    stacked = powers[:s].reshape(s, n * n)
    out = None
    for j in reversed(range(0, d + 1, s)):
        w = weights[j : j + s]
        block = (w @ stacked[: len(w)]).reshape(n, n)
        out = block if out is None else out @ powers[s] + block
    for _ in range(squarings):
        out = out @ out
    return out


def poisson_weights(a: float, tail: float) -> np.ndarray:
    """The Poisson(a) weights pi_0..pi_d, d the first index whose tail mass
    sum_{k>d} pi_k lies below ``tail``.

    The weights are built by their ratios outwards from the mode and
    normalised over all of their mass (to a + 40 sqrt(a) + 40, far past any
    cut), so neither e^{-a}, which underflows once a passes about 745, nor
    a^k / k!, which then overflows, is ever formed.  The tails are summed
    from the far end, so a cut near the rounding of 1 is still met.  A call
    is a dozen ufunc calls (not ``np.cumprod``'s wrapper) on views, in place.
    """

    mode = int(a)
    top = int(a + 40.0 * math.sqrt(a) + 40.0)
    k = np.arange(1.0, top + 1)
    w = np.ones(top + 1)
    np.multiply.accumulate(a / k[mode:], out=w[mode + 1:])
    np.multiply.accumulate(k[:mode][::-1] / a, out=w[:mode][::-1])
    w /= w.sum()
    # the tails sum_{k>=j} pi_k below the cut are a run from j = top down
    return w[:top + 1 - np.count_nonzero(np.add.accumulate(w[::-1]) < tail)]


# ---------------------------------------------------------------------------
# linear complementarity problems
# ---------------------------------------------------------------------------


class LCPOperator:
    """The matrix A of a family of LCPs, held once in solving form.

    The code that builds A picks the form.  ``LCPOperator.from_bands`` takes
    a tridiagonal A (a tridiagonal chain's slice operator) as its three
    bands ``bands`` in LAPACK (3, n) layout, ``ab[1 + i - j, j] = A[i, j]``;
    the operator keeps a DIA view on them for its products.
    ``LCPOperator(A)`` takes any other A: a sparse A with fewer than n^2/2
    stored entries is converted to CSC once, and anything else, a sparse A
    at least half full included, is held dense, where a dense LU is cheaper
    than a sparse one.  ``is_sparse`` is true for bands and CSC.
    On bands and dense, the first prefix free set F = {0..k-1} factors the
    whole A (``factor_tridiag``/``factor_dense``, both of the transpose).
    That factor makes no interchange when A is row diagonally dominant, as
    every pricing operator is (see ``ctmc.block_inverse``), and every prefix
    block is then solved from its leading block (a dense one copied when k
    changes).  With an interchange or a singular A, as for any other F and
    every F on CSC, A_FF is cut and factored (``factor_tridiag``, ``splu``
    or ``factor_dense``) and kept while F stays.  A reused factor solves as
    a fresh one would; the factors live as long as the operator.
    """

    def __init__(self, A: Union[np.ndarray, sparse.spmatrix]):
        if not sparse.issparse(A):
            self._hold(np.asarray(A, dtype=float))
        elif 2 * A.nnz < math.prod(A.shape):
            self._hold(A.tocsc())
        else:
            self._hold(A.toarray())

    @classmethod
    def from_bands(cls, ab: np.ndarray) -> "LCPOperator":
        """The tridiagonal operator with the (3, n) LAPACK bands ``ab``, which
        it holds without a copy, as it does a dense A (the two corners
        outside the matrix are never read)."""

        ab = np.asarray(ab, dtype=float)
        if ab.ndim != 2 or ab.shape[0] != 3:
            raise ValueError(f"bands must have shape (3, n), got {ab.shape}")
        op = cls.__new__(cls)
        n = ab.shape[1]
        op._hold(sparse.dia_matrix((ab, (1, 0, -1)), shape=(n, n)), ab)
        return op

    def _hold(self, matrix, bands: Optional[np.ndarray] = None) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("A must be square")
        self.matrix = matrix
        self.bands = bands
        self.is_sparse = sparse.issparse(matrix)
        self._free: Optional[np.ndarray] = None
        self._lu = None
        # the factor of A^T for prefix sets: None until made, False if unusable
        self._whole = False if self.is_sparse and bands is None else None
        self._lead = None  # (k, copy of a dense _whole's leading k x k block)

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

        Returns x and the number of factorizations made (0, 1 or 2).
        """

        factorizations = 0
        k = int(np.count_nonzero(free))
        if k and self._whole is not False and free[:k].all():
            if self._whole is None:
                self._whole, factorizations = self._factor_whole(), 1
            if self._whole is not False:
                return self._solve_prefix(k, rhs), factorizations
        if self._lu is None or not np.array_equal(free, self._free):
            self._lu = self._free = None
            idx = np.flatnonzero(free)
            if self.bands is not None:
                self._lu = factor_tridiag(self.bands, idx)
            elif self.is_sparse:
                self._lu = splu(self.matrix[idx][:, idx])
            else:
                self._lu = factor_dense(self.matrix[np.ix_(idx, idx)])
            self._free = free.copy()
            factorizations += 1
        if self.bands is not None:
            return solve_tridiag(self._lu, rhs), factorizations
        if self.is_sparse:
            return self._lu.solve(rhs), factorizations
        return solve_dense(self._lu, rhs), factorizations

    def prefix_boundary(self, rhs: np.ndarray) -> Tuple[Optional[int], int]:
        """(k, factorizations made): the sweep k = 1 + max{j : y_j > 0}, 0 if
        none, for y = (U^T)^{-1} rhs and A^T = L U the factor of prefix sets,
        or None without one (CSC, interchanges, singular A); see policy_solve."""

        made = 0
        if self._whole is None:
            self._whole, made = self._factor_whole(), 1
        if self._whole is False:
            return None, made
        if self.bands is None:
            y = dtrtrs(self._whole[0], rhs, lower=0, trans=1)[0]
        else:  # dgttrs(trans='T') with L's multipliers zeroed stops at U^T
            (dl, *lu), n = self._whole
            y = solve_tridiag(([np.zeros_like(dl)] + lu, n), rhs)
        return int(np.max(np.flatnonzero(y > 0.0) + 1, initial=0)), made

    def _factor_whole(self):
        """The factor of A^T, or False if A^T is singular or swapped rows."""

        try:  # dense: the transpose of a C-ordered copy, factored in place
            whole = (factor_tridiag(self.bands, np.arange(self.n))
                     if self.bands is not None else factor_dense(self.matrix.copy()))
        except np.linalg.LinAlgError:
            return False
        piv = whole[0][4] - 1 if self.bands is not None else whole[1]  # 0-based
        return whole if np.array_equal(piv, np.arange(len(piv))) else False

    def _solve_prefix(self, k: int, rhs: np.ndarray) -> np.ndarray:
        """Solve A_FF x = rhs on F = {0..k-1} from the leading block of ``_whole``."""

        if self.bands is None:  # dense: a copy of the block, made when k changes
            lu, piv = self._whole
            if k < self.n and (self._lead is None or self._lead[0] != k):
                self._lead = k, lu[:k, :k].copy(order="F")
            return solve_dense((lu if k == self.n else self._lead[1], piv[:k]), rhs)
        (dl, d, du, du2, ipiv), _ = self._whole
        m = max(k, 3)  # the wrapper's least, padded as in factor_tridiag
        lu = [dl[:m - 1], d[:m], du[:m - 1], du2[:m - 2], ipiv[:m]]
        if k < 3:  # rows past k: an uncoupled identity block
            pad = np.zeros(3 - k)
            lu[:3] = np.r_[dl[:k - 1], pad], np.r_[d[:k], pad + 1], np.r_[du[:k - 1], pad]
        return solve_tridiag((lu, k), rhs)


class LCPStatus(enum.Enum):
    SOLVED = "solved"
    RAY_TERMINATION = "ray_termination"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LCPProblem:
    """LCP data (A, psi): find z >= 0, A z + psi >= 0, z.(A z + psi) = 0.

    ``A`` is given as an ``LCPOperator`` or as a matrix, which is wrapped in
    a new one here; either way the problem holds an operator.
    """

    A: LCPOperator
    psi: np.ndarray

    def __post_init__(self):
        if not isinstance(self.A, LCPOperator):
            object.__setattr__(self, "A", LCPOperator(self.A))
        if len(self.psi) != self.n:
            raise ValueError("psi length must match A dimension")
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("psi must be finite")

    @property
    def n(self) -> int:
        return self.A.n

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

    A = problem.A.to_dense()
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
    ``problem.A`` keeps its factors across calls (see ``LCPOperator``), and
    ``LCPSolution.factorizations`` counts the ones made.  Once per solve, a
    proper prefix free set proposed by iteration 1 jumps to {0..k-1} with
    k = ``A.prefix_boundary(-psi)`` from A^T = L U (Brennan & Schwartz,
    J. Finance 32(2), 1977), where A has that factor.  For an M-matrix whose
    solution is free on {0..k*-1}, k = k*: rows 0..j of A z = -psi + w give
    z_j = y_j + [(U^T)^{-1} w]_j, y = (U^T)^{-1}(-psi), where z vanishes past
    j; (U^T)^{-1} >= 0 and w >= 0 give y_j <= 0 for j >= k*, and w = 0 on the
    free set gives y_{k*-1} = z_{k*-1} > 0.  Else the jump only sets a start,
    which the iteration checks.  Where nothing jumps (a put's suffix free
    set, CSC, pivoting) the free boundary of a banded operator travels one
    node per iteration, so the iteration cap scales with n when ``A`` is
    sparse (where an iteration is cheap).
    """

    n = problem.n
    psi = np.asarray(problem.psi, dtype=float)
    op = problem.A
    max_iter = _POLICY_MAX_ITER
    if op.is_sparse:
        max_iter = max(max_iter, _POLICY_ITER_PER_STATE * n)

    active = (psi >= 0.0) if active0 is None else np.array(active0, dtype=bool)
    # tolerances follow the problem's scale: z lives on the solution scale,
    # w on the scale of psi
    w_scale = max(1.0, float(np.max(np.abs(psi), initial=0.0)))
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
        z_scale = max(1.0, float(np.max(np.abs(z), initial=0.0)))
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
        if it == 1 and new_active[-1] and not new_active[0]:  # the one jump
            k = n - int(np.count_nonzero(new_active))
            if not new_active[:k].any():  # a proper prefix free set
                k, made = op.prefix_boundary(-psi)
                factorizations += made
                if k is not None:
                    new_active = np.arange(n) >= k
        prev_active = active
        active = new_active
    return _finish(
        problem, np.maximum(z, 0.0), max_iter, LCPStatus.MAX_ITERATIONS,
        factorizations,
    )
