"""Down-out Parisian option pricing on duration-augmented chains.

A down-out contract dies once the spot stays below the barrier for the
window length, so the excursion duration is part of the state.  The chain
is augmented with a duration ladder: level 0 carries every spatial state,
levels 1..K carry only the below-barrier states, and a Poisson clock with
rate 1/dtick advances the level while the spot is below the barrier.  Any
up-cross resets the level to 0; the top level (first duration value past
the window) is absorbing and worthless, which encodes the knock-out.

Finite-maturity prices run a backward slice recursion
min(((1 + rate dt) I - dt A) C(t) - C(t + dt), C - payoff) = 0 from zero past
the horizon.  A perpetual price is the same recursion's one-slice case: no
continuation and the operator rate I - A, min((rate I - A) C, C - payoff) = 0,
one LCP solved from a cold start.
Every LCP is solved by policy iteration, and the route follows from the
payoff alone: whenever it vanishes below the barrier, no exercise happens on
levels >= 1, so those levels are eliminated down to base-level problems of
the spatial size ("reduced"); the base-level operator stays banded sparse on
tridiagonal chains and dense on jump chains.  Otherwise the LCP is solved on
the stacked ladder operator ("stacked"), assembled sparse and stored dense
by its ``LCPOperator`` only when at least half full.  A recursion keeps one
slice operator alive, rebuilt only when the slice's generator changes, and
passes it to every slice it serves; a slice whose exercise region did not
move reuses the factor of the one after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.linalg import inv

from .ctmc import (
    GeneratorMatrix,
    SpatialGrid,
    TimeGrid,
    dense_rates,
    rate_rows,
    slice_generators,
    slice_matrix,
    slice_operators,
)
from .models import ModelSpec
from .numerics import LCPOperator
from .pricer_downin import (
    ContractSpec,
    Flavor,
    american_surface,
    bermudan_slice,
    require_horizon,
)


@dataclass(frozen=True)
class DurationLadder:
    """Slot bookkeeping for the (duration level, spatial state) chain.

    Level 0 holds all ``n_states`` spatial states in grid order; levels
    1..n_ticks hold the ``n_below`` below-barrier states.  Level n_ticks is
    the first duration strictly past the window (the knock-out level).
    """

    n_states: int
    below: np.ndarray
    n_ticks: int
    dtick: float

    def __post_init__(self):
        if self.n_ticks < 1:
            raise ValueError("need at least one duration tick past zero")
        if self.dtick <= 0:
            raise ValueError("duration tick must be positive")
        if len(self.below) != self.n_states:
            raise ValueError("below mask length must match state count")

    @property
    def n_below(self) -> int:
        return int(np.sum(self.below))

    @property
    def total(self) -> int:
        return self.n_states + self.n_ticks * self.n_below

    @property
    def below_indices(self) -> np.ndarray:
        return np.flatnonzero(self.below)

    def slot(self, level: int, state: int) -> int:
        """Flat index of (duration level, spatial state)."""
        if level == 0:
            return state
        if not self.below[state]:
            raise IndexError("only below-barrier states exist above level 0")
        pos = int(np.searchsorted(self.below_indices, state))
        return self.n_states + (level - 1) * self.n_below + pos

    def level_slice(self, level: int) -> slice:
        """Slots of one duration level (level 0 spans all states)."""
        if level == 0:
            return slice(0, self.n_states)
        start = self.n_states + (level - 1) * self.n_below
        return slice(start, start + self.n_below)

    def stack_payoff(self, f: np.ndarray) -> np.ndarray:
        """Payoff on the ladder: zero on the knock-out level."""
        f = np.asarray(f, dtype=float)
        fb = f[self.below]
        parts = [f] + [fb] * (self.n_ticks - 1) + [np.zeros(self.n_below)]
        return np.concatenate(parts)


def build_ladder(
    window: float,
    dtick: float,
    below: np.ndarray,
) -> DurationLadder:
    """Duration ladder whose top level is the first tick past the window."""

    if window <= 0 or dtick <= 0:
        raise ValueError("window and duration tick must be positive")
    below = np.asarray(below, dtype=bool)
    n_ticks = int(math.floor(window / dtick * (1 + 1e-12))) + 1
    return DurationLadder(
        n_states=len(below), below=below, n_ticks=n_ticks, dtick=dtick
    )


def duration_generator(
    gen: Union[GeneratorMatrix, np.ndarray],
    ladder: DurationLadder,
) -> sparse.csr_matrix:
    """Generator of the augmented (duration, state) chain, in CSR form.

    Rows follow the ladder layout.  While below the barrier the duration
    clock ticks up at rate 1/dtick and spatial moves keep the level, except
    that up-crosses land on level 0; the top level is absorbing.
    """

    if isinstance(gen, GeneratorMatrix) and not np.array_equal(
        gen.grid.below_mask, ladder.below
    ):
        raise ValueError("generator below mask disagrees with the ladder")
    R = dense_rates(gen)
    N = ladder.n_states
    m = ladder.n_below
    bi = ladder.below_indices
    tick = 1.0 / ladder.dtick
    total = ladder.total
    # COO triplets, level by level; the -tick entries on the diagonal are
    # summed into R's diagonal when the matrix is assembled
    level = np.arange(N)  # slot of each state on the current level
    r0, c0 = np.nonzero(R)  # level 0: full spatial coupling
    rows = [r0, bi, bi]
    cols = [c0, bi, N + np.arange(m)]
    vals = [R[r0, c0], np.full(m, -tick), np.full(m, tick)]
    # levels 1..n_ticks-1: below-only spatial block, up-crosses reset to
    # level 0; the top level is absorbing (no entries)
    kb, yb = np.nonzero(R[bi])
    below_vals = R[bi[kb], yb]
    for lvl in range(1, ladder.n_ticks):
        base = N + (lvl - 1) * m
        own = base + np.arange(m)
        level[bi] = own
        rows += [base + kb, own, own]
        cols += [level[yb], own, own + m]
        vals += [below_vals, np.full(m, -tick), np.full(m, tick)]
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )


@dataclass(frozen=True)
class PerpetualDownOutResult:
    """Value on the duration ladder; quoting happens at duration level 0."""

    values: np.ndarray
    ladder: DurationLadder
    model: ModelSpec
    grid: SpatialGrid

    @property
    def level0(self) -> np.ndarray:
        return self.values[: self.ladder.n_states]

    def level_values(self, level: int) -> np.ndarray:
        return self.values[self.ladder.level_slice(level)]

    def value_at(self, spot: float, level: int = 0) -> float:
        x = float(np.asarray(self.model.state_of_price(spot)))
        if level == 0:
            return self.grid.interp(self.level0, x)
        return self.grid.interp(self.level_values(level), x, self.ladder.below)


def price_perpetual_downout(
    gen: GeneratorMatrix,
    contract: ContractSpec,
    model: ModelSpec,
    dtick: float,
) -> PerpetualDownOutResult:
    """Perpetual down-out value: the down-out recursion's one-slice case.

    With no continuation, the price is row 0 of a two-slice recursion whose
    last row is zero, run with the perpetual operator rate I - A
    (``dt=None``).  Reduced (duration levels eliminated, spatial-size
    problem) whenever the payoff vanishes below the barrier; stacked
    otherwise.  Either way it is one LCP, solved by policy iteration from a
    cold start.
    """

    if not contract.is_perpetual:
        raise ValueError("contract must be perpetual")
    if contract.flavor is not Flavor.DOWN_OUT:
        raise ValueError("contract flavor must be down-out")
    if not model.time_homogeneous:
        raise ValueError("perpetual pricing needs a time-homogeneous model")
    if not isinstance(gen, GeneratorMatrix):
        raise ValueError("need a GeneratorMatrix: its grid places the barrier")
    grid = gen.grid

    below = grid.below_barrier(contract.barrier_state(model))
    ladder = build_ladder(contract.window, dtick, below)
    f0 = contract.payoff_states(model, grid.states)
    route = _reduced if _reducible(f0, ladder) else _stacked
    return PerpetualDownOutResult(
        values=route([gen, gen], ladder, f0, contract.rate, None)[0],
        ladder=ladder,
        model=model,
        grid=grid,
    )


# ---------------------------------------------------------------------------
# elimination of the strictly-below duration levels
# ---------------------------------------------------------------------------


def _reducible(f0: np.ndarray, ladder: DurationLadder) -> bool:
    """Level elimination applies: below-barrier states with zero payoff."""

    return ladder.n_below > 0 and bool(np.all(f0[ladder.below] == 0.0))


class _ReducedLadderOps:
    """Closes the duration levels >= 1 in terms of the base level.

    When the payoff is identically zero on the below-barrier states, no
    exercise can happen while the duration clock is running, so every slot
    on levels 1..n_ticks-1 satisfies a plain linear equation

        Q C_k = source_k + B C_0[coupled] + cup * C_{k+1},    C_top = 0,

    with the same below-barrier block Q for every level.  B holds the rates
    from the below-barrier rows to the above-barrier states they reach (the
    "coupled" columns: one for a diffusion, all of them for a jump chain).
    Backward substitution gives C_1 = M_1 + P_1 C_0[coupled]; plugging it
    into the base-level rows leaves a complementarity problem over the
    spatial states alone, with the level coupling folded into the below
    diagonal and the coupled columns.  That operator A_eff is banded sparse
    plus the coupled columns on a tridiagonal chain and dense otherwise.
    ``dt`` picks the operator as in ``_slice_coefficients``.

    Q is inverted explicitly, once, and the explicit Q^-1 serves P_1 (the
    Horner loop becomes matrix products), the per-slice sources and the level
    values (matrix-vector products).  That is safe here: Q = (a0 + cup) I -
    cG R_bb, with R_bb the below block of a generator (off-diagonals >= 0,
    rows summing to <= 0) and a0 > 0, is a strictly diagonally dominant
    M-matrix, so Q^-1 >= 0 entrywise.  With B >= 0, every term of the
    Horner sum for P_1 is nonnegative: nothing cancels, and the products
    keep the relative accuracy of Q^-1 itself.
    """

    def __init__(
        self,
        gen: Union[GeneratorMatrix, np.ndarray],
        ladder: DurationLadder,
        rate: float,
        dt: Optional[float] = None,
    ):
        if ladder.n_below == 0:
            raise ValueError("level elimination needs below-barrier states")
        bi = ladder.below_indices
        ai = np.flatnonzero(~ladder.below)
        a0, cG = _slice_coefficients(rate, dt)
        cup = cG * (1.0 / ladder.dtick)
        m = len(bi)

        Rb = rate_rows(gen, bi)
        coupled = ai[np.any(Rb[:, ai] != 0.0, axis=0)]
        # Q = (a0 + cup) I - cG R_bb in Fortran order, which LAPACK inverts
        # in place: no second m x m array is alive while A_eff is built
        Q = np.multiply(Rb[:, bi], -cG, order="F")
        Q[np.diag_indices(m)] += a0 + cup
        Qinv = inv(Q, overwrite_a=True, check_finite=False)
        B = cG * Rb[:, coupled]
        # P_1 by Horner from the knock-out level (P = 0 there); it stays the
        # zero map when the first tick already knocks out.  The loop
        # allocates nothing per level; its scratch is freed before the
        # larger A_eff assembly below.
        P = np.zeros_like(B)
        rhs = np.empty_like(B)
        for _ in range(ladder.n_ticks - 1):
            np.multiply(P, cup, out=rhs)
            rhs += B
            np.matmul(Qinv, rhs, out=P)
        del rhs

        A = slice_matrix(gen, a0, cG)
        if sparse.issparse(A):
            rows = np.concatenate([bi, np.repeat(bi, len(coupled))])
            cols = np.concatenate([bi, np.tile(coupled, m)])
            vals = np.concatenate([np.full(m, cup), -cup * P.ravel()])
            A = A + sparse.coo_matrix((vals, (rows, cols)), shape=A.shape)
        else:
            A[bi, bi] += cup
            A[np.ix_(bi, coupled)] -= cup * P

        self.ladder = ladder
        self.bi = bi
        self.coupled = coupled
        self.B = B
        self.cup = cup
        self.Qinv = Qinv
        self.A_eff = LCPOperator(A)

    def sources(self, c_next: np.ndarray) -> np.ndarray:
        """Base-level source q from the next clock slice: its level-0 values
        plus the level-1 feed-in cup M_1 on the below rows."""

        ladder = self.ladder
        M = np.zeros(ladder.n_below)
        for k in range(ladder.n_ticks - 1, 0, -1):
            M = self.Qinv @ (c_next[ladder.level_slice(k)] + self.cup * M)
        q = np.array(c_next[: ladder.n_states], dtype=float, copy=True)
        q[self.bi] += self.cup * M
        return q

    def expand(self, c0: np.ndarray, c_next: np.ndarray) -> np.ndarray:
        """Stacked ladder values from the base-level solution ``c0``;
        ``c_next`` is the next clock slice."""

        ladder = self.ladder
        out = np.zeros(ladder.total)
        out[: ladder.n_states] = c0
        feed = self.B @ c0[self.coupled]
        level = np.zeros(ladder.n_below)  # the knock-out level
        for k in range(ladder.n_ticks - 1, 0, -1):
            rhs = feed + self.cup * level + c_next[ladder.level_slice(k)]
            level = self.Qinv @ rhs
            out[ladder.level_slice(k)] = level
        return out


@dataclass(frozen=True)
class FiniteDownOutResult:
    """Price surface over (clock slice, ladder slot)."""

    values: np.ndarray
    times: np.ndarray
    ladder: DurationLadder
    model: ModelSpec
    grid: SpatialGrid

    @property
    def level0(self) -> np.ndarray:
        return self.values[:, : self.ladder.n_states]

    def value_at(self, spot: float, slice_idx: int = 0, level: int = 0) -> float:
        x = float(np.asarray(self.model.state_of_price(spot)))
        if level == 0:
            return self.grid.interp(self.level0[slice_idx], x)
        vals = self.values[slice_idx, self.ladder.level_slice(level)]
        return self.grid.interp(vals, x, self.ladder.below)


def price_finite_downout(
    model: ModelSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    contract: ContractSpec,
    dtick: float,
    gen: Optional[Union[GeneratorMatrix, Sequence[GeneratorMatrix]]] = None,
    rate_policy: str = "error",
) -> FiniteDownOutResult:
    """Backward recursion for the finite-maturity down-out surface.

    Slice values are prices at that slice (not pre-discounted): each step
    back multiplies the continuation by 1/(1 + rate dt).

    Reduced (duration levels eliminated, base-level problems only) whenever
    the payoff vanishes below the barrier; stacked otherwise.  Each slice LCP
    is solved by policy iteration, warm-started from the slice after it.
    """

    if contract.is_perpetual:
        raise ValueError("contract must have finite maturity")
    if contract.flavor is not Flavor.DOWN_OUT:
        raise ValueError("contract flavor must be down-out")
    require_horizon(timegrid, contract)

    dt = timegrid.dt
    times = timegrid.times
    below = grid.below_barrier(contract.barrier_state(model))
    ladder = build_ladder(contract.window, dtick, below)
    gens = slice_generators(model, grid, times, rate_policy, gen)

    f0 = contract.payoff_states(model, grid.states)
    route = _reduced if _reducible(f0, ladder) else _stacked
    return FiniteDownOutResult(
        values=route(gens, ladder, f0, contract.rate, dt),
        times=times,
        ladder=ladder,
        model=model,
        grid=grid,
    )


def _slice_coefficients(rate: float, dt: Optional[float]):
    """(a0, cG) of a slice operator a0 I - cG A: the backward slice
    (1 + rate dt) I - dt A, or the perpetual rate I - A when ``dt`` is None."""

    return (rate, 1.0) if dt is None else (1.0 + rate * dt, dt)


def _ladder_slice_operator(gen, ladder, rate, dt) -> LCPOperator:
    """The stacked slice operator a0 I - cG A of the ladder (see
    ``_slice_coefficients``)."""

    a0, cG = _slice_coefficients(rate, dt)
    eye = sparse.identity(ladder.total, format="csr")
    return LCPOperator(a0 * eye - cG * duration_generator(gen, ladder))


def _stacked(gens, ladder, f0, rate, dt):
    """Recursion on the stacked ladder, from zero past the last slice:
    surface over (slice, ladder slot).  ``dt=None`` solves the perpetual
    problem at every slice."""

    f = ladder.stack_payoff(f0)
    return american_surface(
        gens, lambda g: _ladder_slice_operator(g, ladder, rate, dt),
        [f] * len(gens),
    )


def _reduced(gens, ladder, f0, rate, dt):
    """``_stacked`` with the duration levels eliminated; needs a payoff that
    vanishes below the barrier."""

    if not _reducible(f0, ladder):
        raise ValueError(
            "level elimination needs a payoff that vanishes below the barrier"
        )
    C = np.zeros((len(gens), ladder.total))
    ops = slice_operators(gens, lambda g: _ReducedLadderOps(g, ladder, rate, dt=dt))
    warm = None
    for j, red in ops:
        c0, warm = bermudan_slice(red.A_eff, red.sources(C[j + 1]), f0, warm)
        C[j] = red.expand(c0, C[j + 1])
    return C
