"""Spatial grid and generator construction for the approximating chain.

The state space is a piecewise-uniform grid with the barrier placed exactly
on a node and the strike exactly midway between two adjacent nodes.  Each
state owns the half-open cell between the midpoints towards its neighbours
(unbounded at both ends).  Transition rates combine central (or upwind)
finite differences of the drift/diffusion with cell-integrated jump masses;
mass landing in a state's own cell is folded into the local second moment
and the jump-drift correction instead of a self-rate.  Cell masses are
differences of jump tails evaluated once per cell edge and row, except
that a state-independent measure evaluates the tails inside each exact
lattice run of the grid once per distinct offset.  Spatial boundary
states are absorbing (identically zero rows).

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
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .models import JumpMeasure, ModelSpec
from .numerics import LCPOperator

# cells (rows x states) per jump assembly chunk, so that a chunk's
# temporaries take the same memory on every grid
_CHUNK_CELLS = 1 << 18


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
    [cell_edges[j], cell_edges[j+1]).  The barrier is a grid node, state
    ``n_below`` (checked at construction).  ``lattice_runs`` finds the runs
    of states that lie on an exact lattice, as ``build_grid``'s outer runs
    do.
    """

    states: np.ndarray
    barrier: float
    strike: float
    segment_counts: Tuple[int, int, int]

    def __post_init__(self):
        s = self.states
        if len(s) < 3 or np.any(np.diff(s) <= 0):
            raise ValueError("states must be strictly increasing, length >= 3")
        if self.n_below == len(s) or not self.is_barrier(s[self.n_below]):
            raise ValueError(f"barrier {self.barrier!r} is not a grid node")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_below(self) -> int:
        """Index of the barrier node: the states below the barrier are
        0..n_below-1, a prefix, since the states increase strictly."""
        return int(np.searchsorted(self.states, self.barrier - self._barrier_tol))

    @property
    def _barrier_tol(self) -> float:
        # a state within 1e-12 relative of the barrier counts as on it
        return 1e-12 * max(1.0, abs(self.barrier))

    @property
    def below_mask(self) -> np.ndarray:
        return np.arange(self.n_states) < self.n_below

    def is_barrier(self, level: float) -> bool:
        """Whether ``level`` is the barrier, within the grid's tolerance."""
        return abs(float(level) - self.barrier) <= self._barrier_tol

    @property
    def lattice_runs(self) -> List[Tuple[int, int]]:
        """The maximal runs ``states[s:e]`` of at least three states that
        lie exactly on a lattice: every step in a run is the same float,
        and both it and each sum of two neighbours (twice a cell edge) are
        exact.  The offset from state i of a run to a cell edge k between
        two of its states is then the float of (k - i - 1/2) times the
        step, the same for every pair with the same k - i."""

        lo, hi = self.states[:-1], self.states[1:]
        step = hi - lo
        exact = _exact_sum(hi, -lo) & _exact_sum(hi, lo)
        joined = exact[:-1] & exact[1:] & (step[:-1] == step[1:])
        flips = np.diff(np.concatenate([[0], joined.astype(np.int8), [0]]))
        starts, stops = np.flatnonzero(flips == 1), np.flatnonzero(flips == -1)
        return [(int(s), int(e) + 2) for s, e in zip(starts, stops)]

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

    def interp(self, values: np.ndarray, x: float, n: Optional[int] = None) -> float:
        """Linear interpolation at position x of values on the states (on
        the first ``n`` states when ``n`` is given).

        Raises ValueError when x is not finite or lies outside those states:
        the end states are absorbing, so clamping would quietly quote a
        boundary value.
        """

        states = self.states[:n]
        x = float(x)
        if not (states.size and math.isfinite(x) and states[0] <= x <= states[-1]):
            span = f"[{states[0]!r}, {states[-1]!r}]" if states.size else "(none)"
            raise ValueError(f"position {x!r} lies outside the states {span}")
        return float(np.interp(x, states, np.asarray(values, dtype=float)))


def _exact_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each float sum a + b is exact: the sum less one operand
    gives back the other (exact for the larger one, Dekker's Fast2Sum)."""

    s = a + b
    return (s - a == b) & (s - b == a)


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

    The end nodes are y_min and y_max and the barrier node is the barrier,
    bit for bit.  Between them, each outer run is anchor + k*h in floating
    point, exactly: h is a multiple of u, the smallest power of two with
    2 max|y| < 2^53 u/2, and the anchors are the barrier and the outer
    node next to the strike (strike +- h2, rounded to a multiple of u).
    Every state, cell edge and offset (k - i - 1/2) h from a run state to a
    run edge is then an exact float, which lets ``jump_part`` share tails
    along a run; the barrier's run is exact while its states stay below
    the power of two above |barrier| in magnitude (when the barrier has
    bits below u).  Rounding h moves a node by at most u/2 per step from
    its anchor; the end cells take up the difference.  The middle run,
    the barrier or strike +- h2 plus multiples of h2, is left as it is.
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

    # the lattice quantum of the outer runs (see above)
    u = math.ldexp(1.0, math.frexp(2.0 * max(-y_min, y_max))[1] - 52)

    def on_lattice(v: float) -> float:
        return u * round(v / u)

    # middle run from the barrier towards the strike, h2 apart, with a
    # double-width cell so the strike sits midway between its two nodes
    if strike > barrier:
        h2 = (strike - barrier) / n2
        if strike + h2 >= y_max:
            raise ValueError("strike too close to y_max for requested split")
        low, high = barrier, on_lattice(strike + h2)
        mid = barrier + h2 * np.arange(1, n2)        # barrier+h2 .. strike-h2
    else:
        # mirrored: strike below the barrier
        h2 = (barrier - strike) / n2
        if strike - h2 <= y_min:
            raise ValueError("strike too close to y_min for requested split")
        low, high = on_lattice(strike - h2), barrier
        mid = strike + h2 + h2 * np.arange(n2 - 1)   # strike+h2 .. barrier-h2
    h1 = on_lattice((low - y_min) / n1)
    h3 = on_lattice((y_max - high) / n3)
    states = np.concatenate([
        [y_min],
        low - h1 * np.arange(n1 - 1, -1, -1),        # .. low, down from low
        mid,
        high + h3 * np.arange(n3),                   # high .., up from high
        [y_max],
    ])
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
        if self.dt is None or not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"clock step dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(
                f"horizon must be nonnegative and finite, got {self.horizon}")

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
        return rate_block(self, slice(None), slice(None))

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


def rate_block(
    gen: Union[GeneratorMatrix, np.ndarray], rows: slice, cols: slice,
    shift: float = 0.0, scale: float = 1.0, order: str = "C",
) -> np.ndarray:
    """The block (``rows``, ``cols``) of shift I + scale R, for R the rate
    matrix of a generator or a plain (hand-built) one, as a fresh array in
    ``order``; ``rows`` and ``cols`` are contiguous ranges.

    One pass over the block: a generator's read-only jump rates (or zeros)
    are scaled straight into it and its three local bands written over the
    entries they own, so no other part of R is formed.  Every entry is
    rounded as in a0 I - cG R formed from the whole dense R.
    """

    n = gen.dimension if isinstance(gen, GeneratorMatrix) else len(gen)
    r0, r1, _ = rows.indices(n)
    c0, c1, _ = cols.indices(n)
    shape = (max(r1 - r0, 0), max(c1 - c0, 0))
    out = np.empty(shape, order=order)
    flat = out.reshape(-1, order=order)  # out[p, q] is flat[p * sp + q * sq]
    sp, sq = (shape[1], 1) if order == "C" else (1, shape[0])

    def diagonal(offset):
        """(i0, view): the block's entries (i, i + offset) of R, from i0 on."""
        lo, hi = max(r0, c0 - offset), min(r1, c1 - offset)
        start, step = (lo - r0) * sp + (lo + offset - c0) * sq, sp + sq
        return lo, flat[start:start + max(hi - lo, 0) * step:step]

    if not isinstance(gen, GeneratorMatrix):
        np.multiply(np.asarray(gen, dtype=float)[r0:r1, c0:c1], scale, out=out)
    else:
        if gen.jump is None:
            out.fill(0.0)
        else:  # the jump block is 0 on the three bands
            np.multiply(gen.jump[r0:r1, c0:c1], scale, out=out)
        for offset, band in ((0, gen.diag), (1, gen.up), (-1, gen.down)):
            lo, entries = diagonal(offset)
            np.multiply(band[lo:lo + len(entries)], scale, out=entries)
    _, entries = diagonal(0)
    entries += shift
    return out


def slice_bands(gen: GeneratorMatrix, a0: float, cG: float) -> np.ndarray:
    """The (3, N) LAPACK bands ``ab[1 + i - j, j]`` of a0 I - cG G for a
    tridiagonal chain; the two corners outside the matrix are 0."""

    ab = np.zeros((3, gen.dimension))
    ab[0, 1:] = -cG * gen.up[:-1]
    ab[1] = a0 - cG * gen.diag
    ab[2, :-1] = -cG * gen.down[1:]
    return ab


def slice_operator(
    gen: Union[GeneratorMatrix, np.ndarray], a0: float, cG: float
) -> LCPOperator:
    """The slice operator a0 I - cG G: held as its ``slice_bands`` on a
    tridiagonal chain, so that each policy iteration on it is one O(N)
    banded factorization instead of a dense solve, and dense otherwise."""

    if isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal:
        return LCPOperator.from_bands(slice_bands(gen, a0, cG))
    return LCPOperator(rate_block(gen, slice(None), slice(None), a0, -cG))


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
    """Triples (j, build(gens[j]), new) for the backward slices
    j = len(gens)-2..0.

    An operator is built only when a slice's generator is not the one of the
    slice after it, and ``new`` is true on the slice that built it: a
    time-homogeneous recursion builds one operator, whose cached factor
    every slice can reuse; a time-dependent one builds one per slice.  Only
    the current operator is kept here; a caller that deletes its own
    reference at the end of each slice, and keeps no copy (``new`` says when
    per-operator work is due), never holds two while the next is built.
    """

    gen = op = None
    for j in range(len(gens) - 2, -1, -1):
        new = gens[j] is not gen
        if new:
            op = None  # drop this reference to the old operator first
            gen, op = gens[j], build(gens[j])
        yield j, op, new


def _tail_masses(jm, t: float, xs: np.ndarray, z: np.ndarray, up: bool) -> np.ndarray:
    """Jump mass beyond the offsets z, away from the origin: [z, +inf) if
    ``up`` (every z > 0), else (-inf, z) (every z < 0), from one
    ``interval_mass`` call; ``xs`` (the states) broadcasts against ``z``."""

    lo, hi = (z, np.inf) if up else (-np.inf, z)
    return np.asarray(jm.interval_mass(t, xs, lo, hi), dtype=float)


def _run_tables(jm, t: float, x: np.ndarray, inner: np.ndarray, runs) -> list:
    """Per lattice run ``states[s:e]`` the tails at every offset from a run
    state to a cell edge between two run states, as (s, e, rows): row w
    holds the tails of state e-1-w at the edges s+1..e-1.

    The 2(e-s-1) distinct offsets, k - i from s+2-e to e-1-s, are read
    off the last state (k - i <= 0, every edge below it) and the first
    (every edge above it); the tails of all runs come from one
    ``interval_mass`` call per side.
    """

    if not runs:
        return []
    sizes = [e - s - 1 for s, e in runs]

    def side(ends, up):
        z = [inner[s:e - 1] - x[i] for (s, e), i in zip(runs, ends)]
        return _tail_masses(jm, t, np.repeat(x[ends], sizes), np.concatenate(z), up)

    down = side([e - 1 for _, e in runs], up=False)
    up = side([s for s, _ in runs], up=True)
    cuts = np.cumsum([0] + sizes)
    return [
        (s, e, np.lib.stride_tricks.sliding_window_view(
            np.concatenate([down[lo:hi], up[lo:hi]]), e - s - 1))
        for (s, e), lo, hi in zip(runs, cuts[:-1], cuts[1:])
    ]


def jump_part(jm: JumpMeasure, grid: SpatialGrid, t: float = 0.0) -> JumpPart:
    """Assemble the jump rates of measure ``jm`` on ``grid`` at time ``t``.

    Jump masses come from tails: one ``interval_mass`` evaluation per cell
    edge and row gives the mass beyond that edge, and a cell's mass is the
    difference of its two edge tails.  The small-jump masses behind mu_bar
    reuse the same tails, clamped at +-1.  Offsets are taken per row, so
    measures that depend on the state are handled.

    A measure whose tails do not depend on the state (its tails at +-1,
    asked for every interior row, come back as one row) takes the tails
    between the states and cell edges of each of the grid's
    ``lattice_runs`` from a table: a run's offsets repeat along its
    diagonals, so its 2 n_r - 2 distinct tails are evaluated once and
    gathered.  The states and edges of a run are exact lattice values, so
    each offset in the table has the bits of every per-row offset it
    stands for, and the part equals the per-row assembly's bit for bit.
    Every other pair (across runs, at the end cells, on a state-dependent
    measure all of them) is evaluated per row.

    Rows are assembled in chunks of about ``_CHUNK_CELLS`` cells (rows x
    states), so a chunk's temporaries take the same memory on every grid.
    The rows of a chunk inside one run, or between two, take the tails
    left and right of them from one ``_tail_masses`` call per side, and
    rows between runs those among them from one call below and one above.
    Only the edges within +-1 of the chunk's rows are clamped.  Every row
    is computed on its own, so neither the arrays nor the cells evaluated
    depend on the chunk size.
    """

    x = grid.states
    N = grid.n_states
    edges = grid.cell_edges
    far = np.zeros((N, N))
    mu_bar = np.zeros(N)
    s2_bar = np.zeros(N)
    inner = edges[1:-1]
    # tails at the +-1 clamps of the small-jump masses, one call per side
    # for every interior row (a state-independent measure returns one row)
    units = np.concatenate([_tail_masses(jm, t, x[1:-1, None], np.array([[v]]), v > 0)
                            for v in (-1.0, 1.0)], axis=1)
    runs = grid.lattice_runs if len(units) < N - 2 else []
    tables = _run_tables(jm, t, x, inner, runs)
    units = np.broadcast_to(units, (N - 2, 2))
    # the rows as pieces (s, e, table): the states s..e-1 of one run and
    # its table, or those between two runs (None; maybe empty)
    pieces, a = [], 1
    for s, e, table in tables:
        pieces += [(a, s, None), (s, e, table)]
        a = e
    pieces.append((a, N - 1, None))
    step = max(1, _CHUNK_CELLS // N)
    for i0 in range(1, N - 1, step):
        i1 = min(i0 + step, N - 1)
        rows = np.arange(i0, i1)
        xs = x[rows, None]
        z = inner[None, :] - xs
        # tails at every cell edge, zero at the +-inf outer edges; the
        # mass of a cell off the own one is the difference of its two
        # edge tails (both edges lie on the same side of the state)
        tails = np.zeros((len(rows), N + 1))
        edge_tails = tails[:, 1:-1]
        for s, e, table in pieces:
            a, b = max(s, i0), min(e, i1)  # the piece's rows in the chunk
            if a >= b:
                continue
            r = slice(a - i0, b - i0)
            block, zb = edge_tails[r], z[r]
            if table is None:
                # the edges among the rows: below or above each
                lo, hi, m = a, b - 1, b - a
                for (p, q), up in ((np.tril_indices(m, -1, m - 1), False),
                                   (np.triu_indices(m, 0, m - 1), True)):
                    block[p, a + q] = _tail_masses(jm, t, x[a + p], zb[p, a + q], up)
            else:
                lo, hi = s, e - 1
                block[:, lo:hi] = table[e - b:e - a][::-1]
            block[:, :lo] = _tail_masses(jm, t, xs[r], zb[:, :lo], up=False)
            block[:, hi:] = _tail_masses(jm, t, xs[r], zb[:, hi:], up=True)
        mass = np.subtract(tails[:, :-1], tails[:, 1:], out=far[i0:i1])
        np.abs(mass, out=mass)
        mass[rows - i0, rows] = 0.0
        # small-jump cell masses (jumps within [-1, 1]) from the same
        # tails, clamped in place: an edge beyond +-1 reads the tail at
        # +-1, so only the cells klo..khi, around the edges within +-1 of
        # some row, can hold any
        klo = np.searchsorted(z[0], -1.0)
        khi = np.searchsorted(z[-1], 1.0, side="right")
        unit, zw, clamped = units[i0 - 1:i1 - 1], z[:, klo:khi], tails[:, klo:khi + 2]
        clamped[:, 0], clamped[:, -1] = unit[:, 0], unit[:, 1]
        np.copyto(clamped[:, 1:-1], unit[:, :1], where=zw < -1.0)
        np.copyto(clamped[:, 1:-1], unit[:, 1:], where=zw > 1.0)
        moment = np.zeros((len(rows), N))
        small = np.abs(clamped[:, :-1] - clamped[:, 1:])
        moment[:, klo:khi + 1] = (x[klo:khi + 1] - xs) * small
        moment[rows - i0, rows] = 0.0
        mu_bar[i0:i1] = moment.sum(axis=1)
    s2_bar[1:-1] = jm.small_jump_second_moment(
        t, x[1:-1], edges[1:-2] - x[1:-1], edges[2:-1] - x[1:-1])

    # neighbour jump mass rides on the tridiagonal rates (end rows are 0)
    up, down = np.zeros(N), np.zeros(N)
    up[:-1], down[1:] = np.diagonal(far, 1), np.diagonal(far, -1)
    np.fill_diagonal(far[:, 1:], 0.0)
    np.fill_diagonal(far[1:], 0.0)
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


def dump_generator_csv(gen: GeneratorMatrix, path) -> None:
    """Write nonzero entries as rows ``i,j,rate``."""

    dense = gen.as_dense()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rate"])
        for i, j in zip(*np.nonzero(dense)):
            writer.writerow([int(i), int(j), repr(float(dense[i, j]))])
