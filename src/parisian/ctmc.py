"""Spatial grid and generator construction for the approximating chain.

The state space is a piecewise-uniform grid with the barrier placed exactly
on a node and the strike exactly midway between two adjacent nodes.  Each
state owns the half-open cell between the midpoints towards its neighbours
(unbounded at both ends).  Transition rates combine central (or upwind)
finite differences of the drift/diffusion with cell-integrated jump masses;
mass landing in a state's own cell is folded into the local second moment
and the jump-drift correction instead of a self-rate.  Cell masses are
differences of jump tails evaluated once per cell edge and row.  Spatial
boundary states are absorbing (identically zero rows).

The jump part of a generator (far rates, neighbour masses, row sums and the
small-jump moments) depends only on the measure and the grid, so it is
assembled once into a frozen ``JumpPart``; the per-slice generators of a
time-dependent model whose measure declares itself time-homogeneous share
that one assembly and rebuild only their drift and diffusion rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .models import JumpMeasure, ModelSpec

_CHUNK_ROWS = 512


class NegativeRateError(ValueError):
    """Raised when a rate construction produces negative off-diagonals."""


# ---------------------------------------------------------------------------
# spatial grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialGrid:
    """Ordered states with cell geometry and barrier/strike placement.

    ``states`` has n+1 entries y_0 < ... < y_n.  ``cell_edges`` has n+2
    entries: -inf, the n midpoints, +inf; state j owns
    [cell_edges[j], cell_edges[j+1]).  ``idx_l_plus`` indexes the barrier
    node (smallest state >= barrier; the barrier is on-grid), and
    ``idx_l_minus = idx_l_plus - 1`` the largest state below it.
    """

    states: np.ndarray
    barrier: float
    strike: float
    segment_counts: Tuple[int, int, int]

    def __post_init__(self):
        s = self.states
        if len(s) < 3 or np.any(np.diff(s) <= 0):
            raise ValueError("states must be strictly increasing, length >= 3")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def idx_l_plus(self) -> int:
        return int(self.below_mask.sum())

    @property
    def idx_l_minus(self) -> int:
        return self.idx_l_plus - 1

    @property
    def below_mask(self) -> np.ndarray:
        return self.below_barrier()

    def below_barrier(self, level: Optional[float] = None) -> np.ndarray:
        """Mask of the states strictly below ``level`` (default: ``barrier``).

        A state within 1e-12 relative of the level counts as on it.  The
        states increase strictly (checked at construction), so the mask is
        always a prefix: the below-barrier block is states 0..m-1, which the
        pricers' block eliminations rely on.
        """

        L = self.barrier if level is None else float(level)
        return self.states < L - 1e-12 * max(1.0, abs(L))

    @property
    def cell_edges(self) -> np.ndarray:
        mids = 0.5 * (self.states[:-1] + self.states[1:])
        return np.concatenate([[-np.inf], mids, [np.inf]])

    @property
    def delta_plus(self) -> np.ndarray:
        d = np.diff(self.states)
        return np.concatenate([d, [d[-1]]])

    @property
    def delta_minus(self) -> np.ndarray:
        d = np.diff(self.states)
        return np.concatenate([[d[0]], d])

    @property
    def delta(self) -> np.ndarray:
        return 0.5 * (self.delta_plus + self.delta_minus)

    def interp(
        self, values: np.ndarray, x: float, mask: Optional[np.ndarray] = None
    ) -> float:
        """Linear interpolation at position x of values on the states
        (on ``states[mask]`` when a mask is given).

        Raises ValueError when x is not finite or lies outside those states:
        the end states are absorbing, so clamping would quietly quote a
        boundary value.
        """

        states = self.states if mask is None else self.states[mask]
        x = float(x)
        if not (states.size and math.isfinite(x) and states[0] <= x <= states[-1]):
            span = f"[{states[0]!r}, {states[-1]!r}]" if states.size else "(none)"
            raise ValueError(f"position {x!r} lies outside the states {span}")
        return float(np.interp(x, states, np.asarray(values, dtype=float)))


def _split_counts(n: int, lengths: Sequence[float]) -> Tuple[int, int, int]:
    """Proportional interval counts, remainder pushed to the middle segment."""

    total = sum(lengths)
    raw = [length / total * n for length in lengths]
    n1, n3 = max(1, round(raw[0])), max(1, round(raw[2]))
    n2 = n - n1 - n3
    while n2 < 1 and max(n1, n3) > 1:
        if n1 >= n3:
            n1 -= 1
        else:
            n3 -= 1
        n2 += 1
    return n1, n2, n3


def build_grid(
    y_min: float,
    y_max: float,
    barrier: float,
    strike: float,
    n: int,
    split: Union[str, Tuple[int, int, int]] = "proportional",
) -> SpatialGrid:
    """Piecewise-uniform grid of n intervals (n+1 states) on [y_min, y_max].

    Three uniform runs with the barrier shared as an exact node and the
    strike exactly midway between two adjacent nodes.  ``split`` is either
    "proportional" (interval counts proportional to segment lengths, the
    rounding remainder going to the middle segment), "sqrt" (proportional
    to square roots of the lengths, concentrating nodes near the
    barrier/strike band on wide domains), or an explicit (n1, n2, n3)
    triple with n1+n2+n3 = n.
    """

    lo, hi = min(barrier, strike), max(barrier, strike)
    if not (y_min < lo and hi < y_max):
        raise ValueError("need y_min < min(barrier, strike) <= max < y_max")
    if hi - lo <= 0:
        raise ValueError("barrier and strike must differ")
    if n < 8:
        raise ValueError("need at least 8 intervals")

    if split == "proportional":
        n1, n2, n3 = _split_counts(n, [lo - y_min, hi - lo, y_max - hi])
    elif split == "sqrt":
        n1, n2, n3 = _split_counts(
            n, [math.sqrt(lo - y_min), math.sqrt(hi - lo), math.sqrt(y_max - hi)]
        )
    else:
        n1, n2, n3 = split
    if n1 + n2 + n3 != n or min(n1, n2, n3) < 1:
        raise ValueError(
            f"infeasible segment counts ({n1}, {n2}, {n3}) for n={n}"
        )

    if strike > barrier:
        # middle run: barrier node up to strike - h2, then a double-width
        # cell so the strike sits exactly midway between strike -/+ h2
        h2 = (strike - barrier) / n2
        if strike + h2 >= y_max:
            raise ValueError("strike too close to y_max for requested split")
        left = np.linspace(y_min, barrier, n1 + 1)
        mid = barrier + h2 * np.arange(n2)           # barrier .. strike-h2
        right = np.linspace(strike + h2, y_max, n3 + 1)
        states = np.concatenate([left[:-1], mid, right])
    else:
        # mirrored: strike below the barrier
        h2 = (barrier - strike) / n2
        if strike - h2 <= y_min:
            raise ValueError("strike too close to y_min for requested split")
        left = np.linspace(y_min, strike - h2, n1 + 1)
        mid = strike + h2 + h2 * np.arange(n2)       # strike+h2 .. barrier
        right = np.linspace(barrier, y_max, n3 + 1)
        states = np.concatenate([left, mid, right[1:]])
    return SpatialGrid(
        states=states,
        barrier=float(barrier),
        strike=float(strike),
        segment_counts=(n1, n2, n3),
    )


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform clock lattice: slices {0, dt, 2dt, ...} up to just past T.

    ``n_exercise`` is the index of the last slice <= T (exercise allowed
    there); ``t_plus`` is the first slice strictly beyond T, where a finite
    contract is worthless.
    """

    dt: float
    horizon: float

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < 0:
            raise ValueError("need dt > 0 and horizon >= 0")

    @property
    def n_exercise(self) -> int:
        return int(math.floor(self.horizon / self.dt * (1.0 + 1e-12)))

    @property
    def idx_t_plus(self) -> int:
        return self.n_exercise + 1

    @property
    def t_plus(self) -> float:
        return self.idx_t_plus * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.idx_t_plus + 1)


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpPart:
    """The jump rates of a generator, as assembled once for a measure and grid.

    ``far`` holds rates to states two or more cells away (neighbour entries
    and the boundary rows zero), ``up``/``down`` the mass landing in the
    adjacent cells, ``far_sums`` the row sums of ``far``, and ``mu_bar`` /
    ``s2_bar`` the small-jump drift correction and in-cell second moment
    (see ``build_generator``).  Every array is read-only, so generators of
    several clock slices can share one assembly.
    """

    far: np.ndarray
    up: np.ndarray
    down: np.ndarray
    far_sums: np.ndarray
    mu_bar: np.ndarray
    s2_bar: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


@dataclass(frozen=True)
class GeneratorMatrix:
    """Spatial generator at one time slice.

    ``up``/``down`` hold nearest-neighbour rates (drift/diffusion plus the
    jump mass landing in the adjacent cells); ``jump`` holds the read-only
    rates to states two or more cells away, from the jump part ``jumps``
    (both None for jump-free models); ``diag`` makes every interior row sum
    to zero.  Boundary rows are identically zero.
    """

    grid: SpatialGrid
    t: float
    up: np.ndarray
    down: np.ndarray
    diag: np.ndarray
    jumps: Optional[JumpPart]

    @property
    def jump(self) -> Optional[np.ndarray]:
        return None if self.jumps is None else self.jumps.far

    @property
    def dimension(self) -> int:
        return len(self.diag)

    @property
    def is_tridiagonal(self) -> bool:
        return self.jump is None

    def as_dense(self) -> np.ndarray:
        return self.dense_rows(np.arange(self.dimension))

    def dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the dense rate matrix, without forming the others."""
        n = self.dimension
        out = np.zeros((len(rows), n)) if self.jump is None else self.jump[rows]
        k = np.arange(len(rows))
        out[k, rows] = self.diag[rows]
        up, down = rows < n - 1, rows > 0
        out[k[up], rows[up] + 1] = self.up[rows[up]]
        out[k[down], rows[down] - 1] = self.down[rows[down]]
        return out

    def row_sums(self) -> np.ndarray:
        n = self.dimension
        s = self.diag.copy()
        s[:-1] += self.up[:-1]
        s[1:] += self.down[1:]
        if self.jumps is not None:
            s += self.jumps.far_sums
        return s


def dense_rates(gen: Union[GeneratorMatrix, np.ndarray]) -> np.ndarray:
    """Dense rate matrix of a generator or of a plain (hand-built) matrix."""

    if isinstance(gen, GeneratorMatrix):
        return gen.as_dense()
    return np.asarray(gen, dtype=float)


def rate_rows(gen: Union[GeneratorMatrix, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """``dense_rates(gen)[rows]`` without forming the other rows."""

    if isinstance(gen, GeneratorMatrix):
        return gen.dense_rows(rows)
    return np.asarray(gen, dtype=float)[rows]


def slice_matrix(gen: Union[GeneratorMatrix, np.ndarray], a0: float, cG: float):
    """a0 I - cG G: sparse tridiagonal for a tridiagonal chain, dense otherwise.

    An ``LCPOperator`` holds the tridiagonal form as its three bands, so each
    policy iteration on it is one O(N) banded factorization instead of a
    dense solve.
    """

    if isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal:
        return sparse.diags(
            [-cG * gen.down[1:], a0 - cG * gen.diag, -cG * gen.up[:-1]],
            offsets=[-1, 0, 1],
        )
    # built in place on a fresh copy: no N x N temporaries beside it
    if isinstance(gen, GeneratorMatrix):
        A = gen.as_dense()
    else:
        A = np.array(gen, dtype=float)
    A *= -cG
    A[np.diag_indices(A.shape[0])] += a0
    return A


def slice_generators(model, grid, times, rate_policy="error", gen=None) -> list:
    """One generator per clock slice ``times``: ``gen`` (a sequence of that
    length, checked, or one generator shared by every slice), else built
    from ``model``, once if it is time-homogeneous and per slice if not.

    A time-dependent model whose jump measure is time-homogeneous pays for
    its jump part once: the first slice's generator assembles it and every
    later slice shares that read-only ``JumpPart``, rebuilding only the
    drift and diffusion rates.
    """

    if gen is None:
        if not model.time_homogeneous:
            first = build_generator(model, grid, float(times[0]), rate_policy)
            jm = model.jump_measure
            shared = first.jumps if jm is not None and jm.time_homogeneous else None
            return [first] + [
                build_generator(model, grid, float(t), rate_policy, jumps=shared)
                for t in times[1:]
            ]
        gen = build_generator(model, grid, 0.0, rate_policy)
    if isinstance(gen, (list, tuple)):
        if len(gen) != len(times):
            raise ValueError(f"need {len(times)} generators, got {len(gen)}")
        return list(gen)
    return [gen] * len(times)


def slice_operators(gens: Sequence, build: Callable) -> Iterator[tuple]:
    """Pairs (j, build(gens[j])) for the backward slices j = len(gens)-2..0.

    An operator is built only when a slice's generator is not the one of the
    slice after it, and only the current one is kept: a time-homogeneous
    recursion builds one operator, whose cached factor every slice can reuse;
    a time-dependent one builds one per slice and never holds them all.
    """

    gen = op = None
    for j in range(len(gens) - 2, -1, -1):
        if gens[j] is not gen:
            op = None  # drop this reference to the old operator first
            gen, op = gens[j], build(gens[j])
        yield j, op


def _tail_masses(jm, t: float, xs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Jump mass beyond each offset z != 0, away from the origin.

    [z, +inf) for z > 0 and (-inf, z) for z < 0, from one ``interval_mass``
    call; ``xs`` (a column of states) broadcasts against ``z``.
    """

    pos = z > 0.0
    lo = np.where(pos, z, -np.inf)
    hi = np.where(pos, np.inf, z)
    return np.asarray(jm.interval_mass(t, xs, lo, hi), dtype=float)


def jump_part(jm: JumpMeasure, grid: SpatialGrid, t: float = 0.0) -> JumpPart:
    """Assemble the jump rates of measure ``jm`` on ``grid`` at time ``t``.

    Jump masses come from tails: one ``interval_mass`` evaluation per cell
    edge and row gives the mass beyond that edge, and a cell's mass is the
    difference of its two edge tails.  The small-jump masses behind mu_bar
    reuse the same tails, clamped at +-1.  Offsets are taken per row, so
    measures that depend on the state are handled.
    """

    x = grid.states
    N = grid.n_states
    edges = grid.cell_edges
    far = np.zeros((N, N))
    mu_bar = np.zeros(N)
    s2_bar = np.zeros(N)
    inner = edges[1:-1]
    for i0 in range(1, N - 1, _CHUNK_ROWS):
        i1 = min(i0 + _CHUNK_ROWS, N - 1)
        rows = np.arange(i0, i1)
        local = rows - i0
        xs = x[rows, None]
        z = inner[None, :] - xs
        # tails at every cell edge, zero at the +-inf outer edges; the
        # mass of a cell off the own one is the difference of its two
        # edge tails (both edges lie on the same side of the state)
        tails = np.zeros((len(rows), N + 1))
        tails[:, 1:-1] = _tail_masses(jm, t, xs, z)
        mass = np.abs(tails[:, :-1] - tails[:, 1:])
        mass[local, rows] = 0.0
        far[i0:i1] = mass
        # small-jump cell masses (jumps within [-1, 1]) from the same
        # tails: every edge beyond +-1 reads the tail at +-1
        unit = _tail_masses(jm, t, xs, np.array([[-1.0, 1.0]]))
        clamped = np.where(np.abs(z) <= 1.0, tails[:, 1:-1],
                           np.where(z > 0.0, unit[:, 1:], unit[:, :1]))
        tails[:, 1:-1] = clamped
        tails[:, 0], tails[:, -1] = unit[:, 0], unit[:, 1]
        small = np.abs(tails[:, :-1] - tails[:, 1:])
        small[local, rows] = 0.0
        mu_bar[i0:i1] = ((x[None, :] - xs) * small).sum(axis=1)
        s2_bar[i0:i1] = np.asarray(
            jm.small_jump_second_moment(
                t, x[rows], edges[rows] - x[rows], edges[rows + 1] - x[rows]
            ),
            dtype=float,
        )

    # neighbour jump mass rides on the tridiagonal rates
    idx = np.arange(1, N - 1)
    up = np.zeros(N)
    down = np.zeros(N)
    up[idx] = far[idx, idx + 1]
    down[idx] = far[idx, idx - 1]
    far[idx, idx + 1] = 0.0
    far[idx, idx - 1] = 0.0
    far[0, :] = 0.0
    far[N - 1, :] = 0.0
    return JumpPart(far=far, up=up, down=down, far_sums=far.sum(axis=1),
                    mu_bar=mu_bar, s2_bar=s2_bar)


def build_generator(
    model: ModelSpec,
    grid: SpatialGrid,
    t: float = 0.0,
    rate_policy: str = "error",
    jumps: Optional[JumpPart] = None,
) -> GeneratorMatrix:
    """Assemble the chain generator for ``model`` on ``grid`` at time ``t``.

    Interior up/down rates follow the central construction

        up   = (mu - mu_bar) d-/(2 d+ d) + (s2 + s2_bar)/(2 d+ d) + neighbour mass
        down = -(mu - mu_bar) d+/(2 d- d) + (s2 + s2_bar)/(2 d- d) + neighbour mass

    where s2_bar is the jump second moment inside the state's own cell and
    mu_bar sums displacement times small-jump cell mass over other cells.
    ``rate_policy`` controls what happens when the central form turns an
    off-diagonal negative: "error" raises NegativeRateError, and "upwind"
    switches the drift part of the affected states to one-sided differencing
    (nonnegative by construction, first-order accurate there).

    The jump part (``jump_part``) is assembled from the model's measure at
    ``t`` unless ``jumps`` passes one in, as ``slice_generators`` does for a
    measure that does not change with time; the generator then shares it.
    """

    if rate_policy not in ("error", "upwind"):
        raise ValueError(f"unknown rate policy {rate_policy!r}")
    x = grid.states
    N = grid.n_states
    dp, dm, dav = grid.delta_plus, grid.delta_minus, grid.delta

    mu = np.asarray(model.drift(t, x), dtype=float)
    s2 = np.asarray(model.diffusion_sq(t, x), dtype=float)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(s2))):
        raise ValueError("model coefficients must be finite on the grid")

    jm = model.jump_measure
    if jumps is None and jm is not None:
        jumps = jump_part(jm, grid, t)
    elif jumps is not None and (jm is None or jumps.far.shape != (N, N)):
        raise ValueError("jump part does not fit the model and grid")

    if jumps is None:
        drift_eff, diffusion = mu, s2
    else:
        drift_eff, diffusion = mu - jumps.mu_bar, s2 + jumps.s2_bar
    up = np.zeros(N)
    down = np.zeros(N)
    interior = slice(1, N - 1)
    idx = np.arange(1, N - 1)

    central_up = (
        drift_eff[idx] * dm[idx] / (2.0 * dp[idx] * dav[idx])
        + diffusion[idx] / (2.0 * dp[idx] * dav[idx])
    )
    central_down = (
        -drift_eff[idx] * dp[idx] / (2.0 * dm[idx] * dav[idx])
        + diffusion[idx] / (2.0 * dm[idx] * dav[idx])
    )
    up[interior] = central_up
    down[interior] = central_down

    neg = np.minimum(up, 0.0) + np.minimum(down, 0.0)
    if np.any(neg < 0):
        worst = float(neg.min())
        if rate_policy == "error":
            raise NegativeRateError(
                f"central rate construction produced negative rates "
                f"(worst {worst:.4g} at state index {int(np.argmin(neg))}); "
                f"rerun with rate_policy='upwind'"
            )
        # upwind only where central failed, keeping second order elsewhere
        bad = np.zeros(N, dtype=bool)
        bad[interior] = (central_up < 0.0) | (central_down < 0.0)
        j = np.flatnonzero(bad)
        up[j] = (
            np.maximum(drift_eff[j], 0.0) / dp[j]
            + diffusion[j] / (2.0 * dp[j] * dav[j])
        )
        down[j] = (
            np.maximum(-drift_eff[j], 0.0) / dm[j]
            + diffusion[j] / (2.0 * dm[j] * dav[j])
        )

    if jumps is not None:
        up += jumps.up
        down += jumps.down

    up[0] = down[0] = up[N - 1] = down[N - 1] = 0.0

    diag = -(up + down)
    if jumps is not None:
        diag -= jumps.far_sums
    diag[0] = diag[N - 1] = 0.0

    return GeneratorMatrix(
        grid=grid, t=t, up=up, down=down, diag=diag, jumps=jumps
    )


def resolve_rate_policy(flag: Optional[str], model: ModelSpec) -> str:
    """User flag wins; otherwise the model's hint; otherwise strict."""

    if flag:
        return flag
    if model.rate_policy_hint == "upwind":
        return "upwind"
    return "error"


def validate_generator(gen: GeneratorMatrix, rel_tol: float = 1e-12) -> None:
    """Raise if sign pattern, row sums or absorbing boundaries are violated."""

    N = gen.dimension
    if np.min(gen.up) < 0 or np.min(gen.down) < 0:
        raise ValueError("negative nearest-neighbour rate")
    if gen.jump is not None and gen.jump.min() < 0:
        raise ValueError("negative far jump rate")
    scale = max(1.0, float(np.abs(gen.diag).max()))
    sums = gen.row_sums()
    if np.max(np.abs(sums[1 : N - 1])) > rel_tol * scale:
        raise ValueError(
            f"interior row sums not zero (max {np.abs(sums[1:N-1]).max():.3e})"
        )
    boundary_mass = abs(gen.diag[0]) + abs(gen.diag[-1]) + gen.up[0] + gen.down[-1]
    if gen.jump is not None:
        boundary_mass += np.abs(gen.jump[0]).sum() + np.abs(gen.jump[-1]).sum()
    if boundary_mass != 0.0:
        raise ValueError("boundary rows must be identically zero (absorbing)")


def dump_generator_csv(gen: GeneratorMatrix, path) -> None:
    """Write nonzero entries as rows ``i,j,rate``."""

    dense = gen.as_dense()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rate"])
        for i, j in zip(*np.nonzero(dense)):
            writer.writerow([int(i), int(j), repr(float(dense[i, j]))])
