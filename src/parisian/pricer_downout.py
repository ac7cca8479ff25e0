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
any below-barrier slot, level 0 included, so every such slot is eliminated
and each LCP runs over the above-barrier states only ("reduced"); its
operator is tridiagonal, held as its three bands, on a tridiagonal chain and
dense on a jump chain.  Otherwise the LCP is solved on the stacked ladder
operator ("stacked"), assembled sparse and stored dense by its
``LCPOperator`` only when at least half full.  A recursion keeps one slice
operator alive, rebuilt only when the slice's generator changes, and passes
it to every slice it serves; a slice whose exercise region did not move
reuses the factor of the one after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def n_below(self) -> int:
        return len(self.below_indices)

    @property
    def total(self) -> int:
        return self.n_states + self.n_ticks * self.n_below

    @cached_property
    def below_indices(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.below))

    @cached_property
    def above_indices(self) -> np.ndarray:
        return _read_only(np.flatnonzero(~self.below))

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

    def below_slots(self, level: int) -> Union[np.ndarray, slice]:
        """Slots of one level's below-barrier states (indices on level 0)."""
        return self.below_indices if level == 0 else self.level_slice(level)

    def stack_payoff(self, f: np.ndarray) -> np.ndarray:
        """Payoff on the ladder: zero on the knock-out level."""
        f = np.asarray(f, dtype=float)
        fb = f[self.below]
        parts = [f] + [fb] * (self.n_ticks - 1) + [np.zeros(self.n_below)]
        return np.concatenate(parts)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    (``dt=None``).  Reduced (below-barrier slots eliminated, an
    above-barrier problem) whenever the payoff vanishes below the barrier;
    stacked otherwise.  Either way it is one LCP, solved by policy iteration
    from a cold start.
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
# elimination of the below-barrier slots
# ---------------------------------------------------------------------------


def _reducible(f0: np.ndarray, ladder: DurationLadder) -> bool:
    """Elimination applies: below-barrier states with zero payoff."""

    return ladder.n_below > 0 and bool(np.all(f0[ladder.below] == 0.0))


class _ReducedLadderOps:
    """Closes every below-barrier slot in terms of the above-barrier states.

    When the payoff is identically zero on the below-barrier states, no
    exercise happens there (see below), so the below-barrier slots of every
    level 0..n_ticks-1 satisfy a plain linear equation

        Q C_k = source_k + B C_0[coupled] + cup * C_{k+1},    C_top = 0,

    with the same below-barrier block Q for every level: level 0's below
    states tick into level 1 like any other level's, and an up-cross from
    any level lands on level 0.  B holds the rates from the below-barrier
    rows to the above-barrier states they reach (the "coupled" columns: one
    for a diffusion, all of them for a jump chain).  Backward substitution
    gives C_0[below] = M_0 + P_0 C_0[coupled]; plugging it into level 0's
    above-barrier rows of A = a0 I - cG G leaves a complementarity problem
    over the N - m above-barrier states alone, with the operator and source

        A_eff = A_aa + A_ab P_0,    q = c_next[above] - A_ab M_0,

    the product landing on the coupled columns only.  A_eff is a Schur
    complement of the stacked slice operator, a nonsingular M-matrix, so it
    is one too (Berman & Plemmons 1994).  On a tridiagonal chain the barrier
    node is the only above-barrier state that reaches or is reached from
    below, so A_eff is A_aa with the barrier node's diagonal changed:
    tridiagonal, held by its ``LCPOperator`` as three bands.  It is dense
    otherwise.  ``dt`` picks the operator as in ``_slice_coefficients``.

    No exercise is lost below the barrier, even where the payoff is negative
    above it: Q^-1 >= 0, P_0 >= 0 and A_ab <= 0, and the next slice's values
    are >= 0 (zero past the horizon, and by this argument slice by slice), so
    M_0 >= 0 and q >= 0.  The solution c of the reduced LCP has A_eff c >= q,
    and A_eff^-1 >= 0 gives c >= A_eff^-1 q >= 0; the eliminated values
    M_0 + P_0 c[coupled] are then >= 0, the payoff there, and with them the
    stacked LCP holds with equality on every below-barrier row.

    Q is inverted explicitly, once, and the explicit Q^-1 serves P_0 (the
    Horner loop becomes matrix products), the per-slice sources and the
    eliminated values (matrix-vector products).  That is safe here: Q = (a0 +
    cup) I - cG R_bb, with R_bb the below block of a generator (off-diagonals
    >= 0, rows summing to <= 0) and a0 > 0, is a strictly diagonally dominant
    M-matrix, so Q^-1 >= 0 entrywise.  With B >= 0, every term of the Horner
    sum for P_0 is nonnegative: nothing cancels, and the products keep the
    relative accuracy of Q^-1 itself.  A jump chain forms only the rows of
    its rate matrix the blocks need, never the dense N x N slice matrix.
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
        bi, ai = ladder.below_indices, ladder.above_indices
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
        del Rb
        # P_0 by Horner from the knock-out level (P = 0 there): n_ticks - 1
        # steps reach level 1, one more reaches level 0.  The loop allocates
        # nothing per level; its scratch is freed before A_eff is assembled.
        P = np.zeros_like(B)
        rhs = np.empty_like(B)
        for _ in range(ladder.n_ticks):
            np.multiply(P, cup, out=rhs)
            rhs += B
            np.matmul(Qinv, rhs, out=P)
        del rhs

        # level 0's above-barrier rows of a0 I - cG G: sliced from the
        # sparse tridiagonal slice matrix (O(N)) on a tridiagonal chain, whose
        # A_eff stays tridiagonal and is held as its bands; dense otherwise
        if isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal:
            A = slice_matrix(gen, a0, cG).tocsr()[ai]
            feeders = np.flatnonzero(A[:, bi].getnnz(axis=1))
        else:
            A = np.multiply(rate_rows(gen, ai), -cG)
            A[np.arange(len(ai)), ai] += a0
            feeders = np.flatnonzero(np.any(A[:, bi] != 0.0, axis=1))
        # A_ab, kept on the rows that reach below ("feeders") only
        A_ab = A[np.ix_(feeders, bi)]
        fix = A_ab @ P
        del P
        A = A[:, ai]
        cols = np.searchsorted(ai, coupled)
        if sparse.issparse(A):
            rows = np.repeat(feeders, len(cols))
            cols = np.tile(cols, len(feeders))
            A = A + sparse.coo_matrix((fix.ravel(), (rows, cols)),
                                      shape=A.shape)
        else:
            A[np.ix_(feeders, cols)] += fix

        self.ladder = ladder
        self.coupled = coupled
        self.feeders = feeders
        self.A_ab = A_ab
        self.B = B
        self.cup = cup
        self.Qinv = Qinv
        self.A_eff = LCPOperator(A)

    def sources(self, c_next: np.ndarray) -> np.ndarray:
        """Source q of the above-barrier LCP from the next clock slice: its
        level-0 above-barrier values less the feed-in A_ab M_0."""

        ladder = self.ladder
        M = np.zeros(ladder.n_below)
        for k in range(ladder.n_ticks - 1, -1, -1):
            M = self.Qinv @ (c_next[ladder.below_slots(k)] + self.cup * M)
        q = c_next[ladder.above_indices]
        q[self.feeders] -= self.A_ab @ M
        return q

    def expand(self, c_above: np.ndarray, c_next: np.ndarray) -> np.ndarray:
        """Stacked ladder values from the above-barrier solution
        ``c_above``; ``c_next`` is the next clock slice."""

        ladder = self.ladder
        out = np.zeros(ladder.total)
        out[ladder.above_indices] = c_above
        feed = self.B @ out[self.coupled]
        level = np.zeros(ladder.n_below)  # the knock-out level
        for k in range(ladder.n_ticks - 1, -1, -1):
            slots = ladder.below_slots(k)
            level = self.Qinv @ (feed + self.cup * level + c_next[slots])
            out[slots] = level
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

    Reduced (below-barrier slots eliminated, above-barrier problems only)
    whenever the payoff vanishes below the barrier; stacked otherwise.  Each
    slice LCP is solved by policy iteration, warm-started from the slice
    after it.
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
    """``_stacked`` with every below-barrier slot eliminated: each slice
    solves one LCP over the above-barrier states against the payoff there,
    and ``expand`` recovers the ladder; needs a payoff that vanishes below
    the barrier (see ``_ReducedLadderOps`` for why nothing is exercised
    there)."""

    if not _reducible(f0, ladder):
        raise ValueError(
            "level elimination needs a payoff that vanishes below the barrier"
        )
    C = np.zeros((len(gens), ladder.total))
    f_above = f0[ladder.above_indices]
    ops = slice_operators(gens, lambda g: _ReducedLadderOps(g, ladder, rate, dt=dt))
    warm = None
    for j, red in ops:
        q = red.sources(C[j + 1])
        c, warm = bermudan_slice(red.A_eff, q, f_above, warm)
        C[j] = red.expand(c, C[j + 1])
    return C
