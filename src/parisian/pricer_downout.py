"""Down-out Parisian option pricing on duration-augmented chains.

A down-out contract dies once the spot stays below the barrier for the
window length, so the excursion duration is part of the state.  The chain
is augmented with a duration ladder: level 0 carries every spatial state,
levels 1..K-1 carry only the below-barrier states, and a Poisson clock with
rate 1/dtick advances the level while the spot is below the barrier.  Any
up-cross resets the level to 0.  The tick past level K-1 (the first
duration past the window) is the knock-out: the option is then worth 0, so
no level stores it and that tick is a kill at rate 1/dtick.

Finite-maturity prices run a backward slice recursion
min(((1 + rate dt) I - dt A) C(t) - C(t + dt), C - payoff) = 0 from zero past
the horizon, on prices at every slice (the discounted variable e^{-rt} C(t)
is internal to the down-in recursion).  A perpetual price is the same
recursion's one-slice case: no continuation and the operator rate I - A,
min((rate I - A) C, C - payoff) = 0, one LCP solved from a cold start.
Every LCP is solved by policy iteration, and the route follows from the
payoff alone: whenever it vanishes below the barrier, no exercise happens on
any below-barrier slot, level 0 included, so every such slot is eliminated
and each LCP runs over the above-barrier states only ("reduced"); its
operator is tridiagonal, held as its three bands, on a tridiagonal chain and
dense on a jump chain.  Otherwise the LCP is solved on the stacked ladder
operator ("stacked"), assembled sparse and stored dense by its
``LCPOperator`` only when at least half full.  A recursion keeps one slice
operator alive, rebuilt only when the slice's generator changes, and passes
it to every slice it serves, which reuse its LU factors.  Either price is a
``PriceSurface`` over (clock slice, ladder slot), one slice for a perpetual
contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .ctmc import (
    GeneratorMatrix,
    SpatialGrid,
    TimeGrid,
    block_inverse,
    rate_block,
    slice_bands,
    slice_generators,
    slice_operators,
)
from .models import ModelSpec
from .numerics import (
    LCPOperator,
    _Inverse,
    factor_banded,
    low_rank_factor,
    solve_banded,
)
from .pricer_downin import (
    ContractSpec,
    Flavor,
    PriceSurface,
    american_surface,
    bermudan_slice,
    require_contract,
)


@dataclass(frozen=True)
class DurationLadder:
    """Slot bookkeeping for the (duration level, spatial state) chain.

    Level 0 holds all ``n_states`` spatial states in grid order; levels
    1..n_ticks-1 hold the below-barrier states, the first ``n_below`` (the
    barrier node is state ``n_below``).  Level n_ticks, the first duration
    strictly past the window, is the knock-out: its value is 0 by
    definition and it holds no slots.
    """

    n_states: int
    n_below: int
    n_ticks: int
    dtick: float

    def __post_init__(self):
        if self.n_ticks < 1:
            raise ValueError("need at least one duration tick past zero")
        if self.dtick <= 0:
            raise ValueError("duration tick must be positive")
        if not 0 <= self.n_below <= self.n_states:
            raise ValueError("below-barrier state count outside 0..n_states")

    @property
    def total(self) -> int:
        return self.n_states + (self.n_ticks - 1) * self.n_below

    @cached_property
    def slot_states(self) -> np.ndarray:
        """Spatial state of every slot, in ladder order."""
        deeper = [np.arange(self.n_below)] * (self.n_ticks - 1)
        slots = np.concatenate([np.arange(self.n_states)] + deeper)
        slots.flags.writeable = False
        return slots

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n_ticks:
            raise IndexError(
                f"duration level {level} outside the ladder's 0..{self.n_ticks - 1}"
            )

    def level_slice(self, level: int) -> slice:
        """Slots of one duration level (level 0 spans all states)."""
        self._check_level(level)
        if level == 0:
            return slice(0, self.n_states)
        start = self.n_states + (level - 1) * self.n_below
        return slice(start, start + self.n_below)

    def below_slots(self, level: int) -> slice:
        """Slots of one level's below-barrier states."""
        start = self.level_slice(level).start
        return slice(start, start + self.n_below)

    def stack_payoff(self, f: np.ndarray) -> np.ndarray:
        """Payoff on the ladder: each slot's spatial state's."""
        return np.asarray(f, dtype=float)[self.slot_states]


def build_ladder(
    window: float,
    dtick: float,
    n_states: int,
    n_below: int,
) -> DurationLadder:
    """Duration ladder whose ``n_ticks``-th tick passes the window, over
    ``n_states`` states of which the first ``n_below`` lie below the
    barrier."""

    for name, value in (("window", window), ("duration tick dtick", dtick)):
        if value is None or not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    n_ticks = int(math.floor(window / dtick * (1 + 1e-12))) + 1
    return DurationLadder(
        n_states=n_states, n_below=n_below, n_ticks=n_ticks, dtick=dtick
    )


def duration_generator(
    gen: Union[GeneratorMatrix, np.ndarray],
    ladder: DurationLadder,
) -> sparse.csr_matrix:
    """Generator of the augmented (duration, state) chain, in CSR form.

    Rows follow the ladder layout.  While below the barrier the duration
    clock ticks up at rate 1/dtick and spatial moves keep the level, except
    that up-crosses land on level 0; a tick from the last level knocks the
    option out, so it leaves the diagonal entry and no column.
    """

    if isinstance(gen, GeneratorMatrix) and gen.grid.n_below != ladder.n_below:
        raise ValueError("generator barrier node disagrees with the ladder")
    R = rate_block(gen, slice(None), slice(None))
    N = ladder.n_states
    m = ladder.n_below
    tick = 1.0 / ladder.dtick
    total = ladder.total
    # COO triplets; the -tick entries on the diagonal are summed into R's
    # diagonal when the matrix is assembled.  The clock on the below-barrier
    # slots of every level (level 0's first m, every deeper level's all):
    # -tick on the diagonal, +tick into the same state one level deeper (m
    # slots on), but for the last
    clock = np.concatenate([np.arange(m), np.arange(N, total)])
    r0, c0 = np.nonzero(R)  # level 0: full spatial coupling
    rows = [r0, clock, clock[: len(clock) - m]]
    cols = [c0, clock, clock[m:]]
    vals = [R[r0, c0], np.full(len(clock), -tick),
            np.full(len(clock) - m, tick)]
    # levels 1..n_ticks-1: below-only spatial block, up-crosses reset to
    # level 0
    level = np.arange(N)  # slot of each state on the current level
    kb, yb = np.nonzero(R[:m])
    below_vals = R[kb, yb]
    for lvl in range(1, ladder.n_ticks):
        base = ladder.level_slice(lvl).start
        level[:m] = base + np.arange(m)
        rows.append(base + kb)
        cols.append(level[yb])
        vals.append(below_vals)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )


def price_perpetual_downout(
    model: ModelSpec,
    grid: SpatialGrid,
    contract: ContractSpec,
    dtick: float,
    gen: Optional[Union[GeneratorMatrix, np.ndarray]] = None,
    rate_policy: str = "error",
) -> PriceSurface:
    """Perpetual down-out value: the down-out recursion's one-slice case.

    With no continuation, the price is row 0 of a two-slice recursion whose
    last row is zero, run with the perpetual operator rate I - A
    (``dt=None``): one LCP, solved by policy iteration from a cold start, on
    the route ``_price_downout`` picks.
    """

    require_contract(contract, Flavor.DOWN_OUT, model, grid)
    ladder = build_ladder(contract.window, dtick, grid.n_states, grid.n_below)
    gens = slice_generators(model, grid, None, rate_policy, gen)
    return _price_downout(gens, grid, ladder, contract, model, None, np.zeros(1))


def price_finite_downout(
    model: ModelSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    contract: ContractSpec,
    dtick: float,
    gen: Optional[Union[GeneratorMatrix, Sequence[GeneratorMatrix]]] = None,
    rate_policy: str = "error",
) -> PriceSurface:
    """Backward recursion for the finite-maturity down-out surface.

    Slice values are prices at that slice (not pre-discounted): each step
    back multiplies the continuation by 1/(1 + rate dt).  Each slice LCP is
    solved by policy iteration, warm-started from the slice after it, on the
    route ``_price_downout`` picks.
    """

    require_contract(contract, Flavor.DOWN_OUT, model, grid, timegrid)
    ladder = build_ladder(contract.window, dtick, grid.n_states, grid.n_below)
    gens = slice_generators(model, grid, timegrid.times, rate_policy, gen)
    return _price_downout(gens, grid, ladder, contract, model, timegrid.dt,
                          timegrid.times)


def _price_downout(gens, grid, ladder, contract, model, dt, times) -> PriceSurface:
    """The surface over (clock slice ``times``, ``ladder`` slot) of the
    recursion on the slice generators ``gens``, of which ``times`` keeps the
    first rows: reduced (below-barrier slots eliminated, above-barrier
    problems only) whenever the payoff vanishes below the barrier, stacked
    otherwise."""

    f0 = contract.payoff_states(model, grid.states)
    route = _reduced if _reducible(f0, ladder) else _stacked
    return PriceSurface(
        values=route(gens, ladder, f0, contract.rate, dt)[:len(times)],
        times=times,
        model=model,
        grid=grid,
        ladder=ladder,
    )


# ---------------------------------------------------------------------------
# elimination of the below-barrier slots
# ---------------------------------------------------------------------------


def _reducible(f0: np.ndarray, ladder: DurationLadder) -> bool:
    """Elimination applies: below-barrier states with zero payoff."""

    return ladder.n_below > 0 and bool(np.all(f0[:ladder.n_below] == 0.0))


# Relative Frobenius error allowed in the factor B ~ U W of the Horner loop.
# The loop's first solve Q X = B is backward stable: the computed X solves
# (Q + dQ) X = B with ||dQ|| of order gamma_3m ||Q||, gamma_3m ~ 3m eps / 2
# (Higham 2002, secs. 9.3 and 9.5), so X errs by up to about
# gamma_3m ||Q^-1|| ||Q|| ||X|| >= gamma_3m ||Q^-1|| ||B||, while a factor
# error E moves X by at most ||Q^-1||_2 ||E||_F; with ||E||_F <= 4 eps ||B||_F
# that stays inside the solve's own bound for every m >= 8 below-barrier
# states.
_FACTOR_RTOL = 4.0 * np.finfo(float).eps


class _ReducedLadderOps:
    """Closes every below-barrier slot in terms of the above-barrier states.

    When the payoff is identically zero on the below-barrier states, no
    exercise happens there (see below), so the below-barrier slots of every
    level 0..n_ticks-1 satisfy a plain linear equation

        Q C_k = source_k + B C_0[coupled] + cup * C_{k+1},    C_{n_ticks} = 0,

    the knock-out C_{n_ticks} holding no slots, and with the same
    below-barrier block Q for every level: level 0's below states tick
    into level 1 like any other level's, and an up-cross from
    any level lands on level 0.  B holds the rates from the below-barrier
    rows to the above-barrier states they reach (the "coupled" columns: one
    for a diffusion, all of them for a jump chain; ``coupled`` is the range
    that spans them, numbered among the above-barrier states, and
    ``feeders`` the range of above-barrier rows that reach below).  Backward
    substitution gives every level as C_k = M_k + P_k C_0[coupled], with M_k
    from the next slice alone (the levels of ``sources``) and the level maps
    P_k = sum_{j=0..n_ticks-1-k} cup^j Q^-(j+1) B; plugging C_0[below] into
    level 0's above-barrier rows of A = a0 I - cG G leaves a
    complementarity problem over the N - m above-barrier states alone, with
    the operator and source

        A_eff = A_aa + A_ab P_0,    q = c_next[above] - A_ab M_0,

    the product landing on the coupled columns only.  A_eff is a Schur
    complement of the stacked slice operator, a nonsingular M-matrix, so it
    is one too (Berman & Plemmons 1994).  On a tridiagonal chain the barrier
    node is the only above-barrier state that reaches or is reached from
    below, so A_eff is A_aa with the barrier node's diagonal lowered by
    A[b, b-1] P_0[b-1]: tridiagonal, built as its three bands and held so by
    its ``LCPOperator``.  It is dense otherwise.  ``dt`` picks the operator
    as in ``_slice_coefficients``.

    No exercise is lost below the barrier, even where the payoff is negative
    above it: Q^-1 >= 0, P_0 >= 0 and A_ab <= 0, and the next slice's values
    are >= 0 (zero past the horizon, and by this argument slice by slice), so
    M_0 >= 0 and q >= 0.  The solution c of the reduced LCP has A_eff c >= q,
    and A_eff^-1 >= 0 gives c >= A_eff^-1 q >= 0; the eliminated values
    M_0 + P_0 c[coupled] are then >= 0, the payoff there, and with them the
    stacked LCP holds with equality on every below-barrier row.

    Q, the below block of (a0 + cup) I - cG G, is an M-matrix (see
    ``ctmc.block_inverse``), so Q^-1 >= 0 entrywise.  ``Qinv`` applies Q^-1
    with ``@`` in the Horner loop for the level maps and in the per-slice
    sources, with a factor made once per slice generator:
    ``block_inverse``'s (bands on a tridiagonal chain, where A_aa is bands
    too and nothing of size m x m is formed; dense otherwise), whose solves
    with b >= 0 are >= 0 as computed, so with the exact B >= 0 every term of
    the Horner sum for P_0 is too; or, where the group record found the
    below block of far jump rates separable, as Kou's is, ``dgbtrf``'s of
    the separable form (``_separable_rows``): each slice writes Q's three
    local bands into the record's band system of 3m unknowns and factors it
    in O(m).  That system is no M-matrix and its factor pivots, so there x
    >= 0 holds up to rounding only.  On a jump chain A_aa (and Q on the
    dense form) is written in one pass by ``rate_block``, and neither the
    dense rate matrix nor any of its rows is formed.  That choice, and where
    the A_ab P_0 term lands in A_eff, are all that differ between chains:
    the cross-barrier blocks come from one record on every chain (below).

    ``sources`` reads neither B nor its factor, so every M_k is free of the
    factor's error, and >= 0 as computed on the tridiagonal and dense forms.
    ``expand`` forms the eliminated values M_k + P_k c[coupled] from the M_k
    that ``sources`` found and the level maps that the Horner loop for P_0
    passed through, with no solve, and clamps them at 0.

    The level maps are built on a factor B ~ U W, of one shape on every
    chain, and the Horner loop runs on U: P_k = P_{U,k} W for
    P_{U,k} = sum_j cup^j Q^-(j+1) U, and ``expand`` forms
    P_{U,k} (W c[coupled]).  B has low numerical rank on a jump chain (a Kou
    far-jump rate splits into a row factor times a column factor, and the VG
    kernel is an integral of such terms), so ``low_rank_factor`` returns U of
    k columns at B's numerical rank, k << nc (2 on every Kou reference grid
    and 15-16 on VG, against 174-890 columns), or U = B and W = I where no
    narrower factor meets the bound.  The maps are linear, so A_eff and the
    eliminated values are the exact ones for B + E with
    ||E||_F <= 4 eps ||B||_F (``_FACTOR_RTOL``; the loop's own rounding comes
    on top).  The signs above are not kept term by term, since U has entries
    of both signs: eliminated values near 0 may come out negative, and
    ``expand`` clamps them at 0.  The exact value is >= 0, so the clamp
    never moves a value away from it.  At the finest reference grids, before
    the clamp, 1,980 of 13,453 eliminated values of VG perpetual down-out
    were negative, the worst at -1.4e-17 of its level's maximum; VG finite
    down-out (499,895 values) and both Kou down-outs had none, and the
    sigma(t) Kou term-structure down-out none of 190,564, on the dense form
    and on the separable one.

    The factor and A_ab come from the slice's group record ``cross`` (a
    ``_CrossBlocks``; without one, the slice is a group of its own).  A group
    is every slice whose generator holds the same jump rates, or none: its
    slices differ in their local bands alone, and the only band entries in B
    and A_ab are cG R[m-1, m] and -cG R[m, m-1].  B_ref ~ U W is factored
    once per group, on the reference slice, the one with the smallest
    |R[m-1, m]|.  A slice with the reference's band entry takes (U, W); any
    other, B_t = B_ref + d e_{m-1} e_0^T, takes U_t = [U | e_{m-1}] and
    W_t = [W ; d e_0^T], so B_t - U_t W_t is the reference's residual.  That
    band entry is the only entry of B that differs within a group, so
    ||B_t||_F >= ||B_ref||_F, and the residual that meets the reference's
    bound meets every slice's 4 eps ||B_t||_F.  A_ab's band entry enters the
    feeder row of state m in A_eff and in ``sources`` as the slice's d_ab.
    On the sigma(t) Kou term-structure down-out (61 slices, one jump block)
    that is one ``low_rank_factor`` where there were 61, and the Horner loop
    carries 3 columns on every slice but the reference instead of 2.  A
    measure assembled per slice has one slice per group.  A chain without
    jumps has nothing to share: its record is the rank-0 factor (U of shape
    (m, 0), W of shape (0, nc), nc = 1 on the one column that crosses the
    barrier) and zero A_ab on one row, to which each slice adds its two band
    entries; the Horner loop carries e_{m-1}, every P_k is one nonnegative
    m-vector, d in W is the band entry itself, the eliminated values sum
    nonnegative terms and the clamp moves nothing, with nothing of size
    m x (N - m) formed.
    """

    def __init__(
        self,
        gen: Union[GeneratorMatrix, np.ndarray],
        ladder: DurationLadder,
        rate: float,
        dt: Optional[float] = None,
        cross: Optional[_CrossBlocks] = None,
    ):
        if ladder.n_below == 0:
            raise ValueError("level elimination needs below-barrier states")
        a0, cG = _slice_coefficients(rate, dt)
        cup = cG * (1.0 / ladder.dtick)
        if cross is None:  # a group of its own
            cross = _CrossBlocks.build([gen], ladder, cG)
        U, W, d_ab = cross.slice_factor(gen)
        coupled, feeders, A_ab = cross.coupled, cross.feeders, cross.A_ab
        banded = isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal
        Qinv, A = _ladder_blocks(gen, ladder, a0, cG, cup, cross.jump_rows, banded)
        self.form = ("tridiagonal" if banded else
                     "dense" if cross.jump_rows is None else "separable")

        # P_0 = P_U W by Horner from the knock-out (P = 0, no slots) on the
        # factor B ~ U W: n_ticks - 1 steps reach level 1, one more reaches
        # level 0.  Every iterate P_{U,k} is kept, in ``levels_down`` order,
        # for ``expand``
        level_maps = np.empty((ladder.n_ticks,) + U.shape)
        P = np.zeros_like(U)
        for k in range(ladder.n_ticks):
            P = level_maps[k] = Qinv @ (U + cup * P)
        # A_eff = A_aa + A_ab P_0 on the feeder rows and coupled columns,
        # with this slice's own entry A[m, m-1] (feeder row 0) as a rank-one
        # term
        fix = A_ab @ P
        if d_ab:
            fix[0] += d_ab * P[-1]
        fix = fix @ W
        if not banded:
            A[feeders, coupled] += fix
        elif fix.size:  # the barrier node's diagonal, in A_aa's bands
            A[1, 0] += fix[0, 0]

        self.ladder = ladder
        # below-barrier slots of levels n_ticks - 1 down to 0
        self.levels_down = [ladder.below_slots(k)
                            for k in range(ladder.n_ticks - 1, -1, -1)]
        self.coupled = coupled
        self.factor_width = P.shape[1]  # columns the Horner loop carried
        self.feeders = feeders
        self.A_ab = A_ab
        self.d_ab = d_ab
        self.level_maps = level_maps
        self.W = W
        self.cup = cup
        self.Qinv = Qinv
        self.A_eff = LCPOperator.from_bands(A) if banded else LCPOperator(A)

    def sources(self, c_next: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(q, levels) from the next clock slice: the source q of the
        above-barrier LCP, its level-0 above-barrier values less the feed-in
        A_ab M_0, and the level values M_k, one row per level in
        ``levels_down`` order, for ``expand``."""

        m, N = self.ladder.n_below, self.ladder.n_states
        levels = np.empty((self.ladder.n_ticks, m))
        M = np.zeros(m)
        for k, slots in enumerate(self.levels_down):
            M = levels[k] = self.Qinv @ (c_next[slots] + self.cup * M)
        q = c_next[m:N].copy()
        q[self.feeders] -= self.A_ab @ M
        if self.d_ab:  # the slice's own A[m, m-1]
            q[0] -= self.d_ab * M[-1]
        return q, levels

    def expand(self, c_above: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Stacked ladder values from the above-barrier solution
        ``c_above`` and the ``levels`` that ``sources`` returned:
        M_k + P_k c_above[coupled] on each level, with no solve."""

        ladder = self.ladder
        g = self.W @ c_above[self.coupled]
        # clamp the round-off of a factor of B or of the separable form (see
        # the class); no value moves on an exact B with the other two forms
        values = np.maximum(levels + self.level_maps @ g, 0.0)
        out = np.zeros(ladder.total)
        out[ladder.n_below:ladder.n_states] = c_above
        for slots, value in zip(self.levels_down, values):
            out[slots] = value
        return out


def _ladder_blocks(gen, ladder, a0, cG, cup, jump_rows, banded):
    """(Q^-1, A_aa) for ``_ReducedLadderOps``: Q, the leading m x m block
    of (a0 + cup) I - cG G, from ``block_inverse``, or on the separable form
    when the group record holds ``jump_rows`` (see ``_separable_rows``),
    with this slice's three local bands of Q written into the x_i rows; and
    level 0's above-barrier block of a0 I - cG G, as bands when ``banded``."""

    m = ladder.n_below
    if jump_rows is None:
        Qinv = block_inverse(gen, slice(0, m), a0 + cup, cG)
    else:  # Q's bands rounded as rate_block writes them
        ab = jump_rows.copy(order="F")
        ab[10, 1::3] = gen.diag[:m] * -cG + (a0 + cup)  # Q[i, i]
        ab[7, 4::3] = gen.up[:m - 1] * -cG  # Q[i, i + 1]
        ab[13, 1:3 * m - 3:3] = gen.down[1:m] * -cG  # Q[i, i - 1]
        Qinv = _Inverse(_solve_separable, factor_banded(ab, 5, 5))
    if banded:
        A_aa = slice_bands(gen, a0, cG)[:, m:].copy()
        A_aa[0, :1] = 0.0  # A[m-1, m] sits in the below rows
        return Qinv, A_aa
    # in Fortran order: the LCP's BLAS calls round differently on a C-order
    # one (jump down-out prices moved by up to 3e-13 relative)
    above = slice(m, ladder.n_states)
    return Qinv, rate_block(gen, above, above, a0, -cG, order="F")


def _solve_separable(factor, b: np.ndarray) -> np.ndarray:
    """Q x = b on the separable form's factor: b on the x_i rows, 0 else."""

    rhs = np.zeros((3 * len(b),) + np.shape(b)[1:], order="F")
    rhs[1::3] = b
    return solve_banded(factor, rhs)[1::3]


# Relative deviation allowed between a far rate F[i, j], |i - j| >= 3, of
# the below block and rho_i F[i -/+ 1, j] (``_separable_rows``): Kou's
# deviate by at most 4.7e-14 on every reference grid (3.0e-15 with a
# state-dependent intensity), VG's by 0.34.  The recursion reaches F[i, j]
# in |i - j| - 2 steps, so it solves with F to within about that many times
# this, entry by entry.
_SEPARABLE_RTOL = 1e-12


def _chain_ratios(F: np.ndarray) -> Optional[np.ndarray]:
    """rho_i = F[i, i+3] / F[i+1, i+3] (0 where F[i+1, i+3] is 0, and for
    i > m - 4) of the m x m block F, when every F[i, j], j >= i + 3, is
    rho_i F[i+1, j] within ``_SEPARABLE_RTOL``, else None: checked 64 rows
    at a time, stopping at the first chunk that fails."""

    m, k = len(F), max(len(F) - 3, 0)
    i = np.arange(k)
    den = F[i + 1, i + 3]
    rho = np.zeros(m)
    np.divide(F[i, i + 3], den, out=rho[:k], where=den != 0.0)
    for r0 in range(0, k, 64):
        r1 = min(r0 + 64, k)
        block = F[r0:r1, r0 + 3:]  # column r0 + 3 + q, entries with q >= p
        dev = np.abs(block - rho[r0:r1, None] * F[r0 + 1:r1 + 1, r0 + 3:])
        if np.any(np.triu(dev > _SEPARABLE_RTOL * np.abs(block))):
            return None
    return rho


def _separable_rows(gen, m: int, cG: float) -> Optional[np.ndarray]:
    """The slice-independent rows of Q's separable form, in LAPACK band
    storage ab[10 + r - c, c] = A[r, c] with Q's local bands 0, or None
    unless the generator's below block F of far jump rates (``JumpPart.far``)
    is separable: F[i, j] = rho+_i F[i+1, j] for j >= i + 3 and rho-_i
    F[i-1, j] for j <= i - 3, as for Kou's exponential tails.  The far sums
    s_i = sum_{j >= i+2} F[i, j] x_j = rho+_i s_{i+1} + F[i, i+2] x_{i+2} and
    t_i = sum_{j <= i-2} F[i, j] x_j = rho-_i t_{i-1} + F[i, i-2] x_{i-2}
    make Q x = b, on (t_i, x_i, s_i) interleaved, a system with 5 sub- and 5
    super-diagonals whose x_i row holds Q's three local bands and
    -cG (t_i + s_i) (Toivanen, SIAM J. Sci. Comput. 30(4), 2008)."""

    jumps = getattr(gen, "jumps", None)
    if jumps is None:  # a plain rate matrix, or no jumps
        return None
    F = jumps.far[:m, :m]
    up = _chain_ratios(F)
    down = None if up is None else _chain_ratios(F[::-1, ::-1])
    if down is None:
        return None
    down = down[::-1]  # rho-_i, 0 for i < 3
    ab = np.zeros((16, 3 * m))
    ab[10, 0::3] = ab[10, 2::3] = 1.0  # t_i and s_i
    ab[13, 0:3 * m - 3:3] = -down[1:]  # t_i - rho-_i t_{i-1}
    ab[15, 1:3 * m - 6:3] = -np.diagonal(F, -2)  # - F[i, i-2] x_{i-2}
    ab[11, 0::3] = ab[9, 2::3] = -cG  # x_i's row: -cG (t_i + s_i)
    ab[7, 5::3] = -up[:m - 1]  # s_i - rho+_i s_{i+1}
    ab[5, 7::3] = -np.diagonal(F, 2)  # - F[i, i+2] x_{i+2}
    return ab


def _band_entries(gen, m: int, cG: float) -> Tuple[float, float]:
    """(cG R[m-1, m], -cG R[m, m-1]): the entries of the cross-barrier
    blocks B and A_ab that a slice's local bands own (every other entry is
    a jump rate), rounded as ``rate_block`` writes them."""

    if isinstance(gen, GeneratorMatrix):
        return float(gen.up[m - 1] * cG), float(gen.down[m] * -cG)
    return float(gen[m - 1, m] * cG), float(gen[m, m - 1] * -cG)


@dataclass(frozen=True)
class _CrossBlocks:
    """The cross-barrier blocks of a group of slices whose generators share
    one jump block, or have none, built once on the group's reference slice
    (see ``_ReducedLadderOps``).

    ``U`` and ``W`` are ``low_rank_factor`` of the reference's below->above
    block B_ref on the ``coupled`` columns, and ``to_above`` its band entry
    cG R[m-1, m]; ``A_ab`` is the reference's above->below block on the
    ``feeders`` rows and ``from_above`` its band entry -cG R[m, m-1].  Both
    spans cover every slice of the group, so each slice differs from the
    reference only in the two band entries, which ``slice_factor`` adds.  A
    group without jumps has the rank-0 record: U of shape (m, 0), W of shape
    (0, nc) for the one column (and row) that crosses the barrier, zero
    blocks and band entries, so every slice adds both of its own.
    ``jump_rows`` are the rows of the below block's separable form
    (``_separable_rows``), None where it is not separable.
    """

    U: np.ndarray
    W: np.ndarray
    to_above: float
    from_above: float
    coupled: slice
    feeders: slice
    A_ab: np.ndarray
    cG: float
    jump_rows: Optional[np.ndarray]

    @classmethod
    def build(cls, group: Sequence, ladder: DurationLadder, cG: float) -> _CrossBlocks:
        """The record of ``group`` (generators or plain rate matrices with
        one jump block, or tridiagonal generators), on the slice with the
        smallest |cG R[m-1, m]|: its ||B||_F is the group's smallest, so its
        factor's bound the tightest.  Without jumps, the rank-0 record."""

        m = ladder.n_below
        entries = np.array([_band_entries(g, m, cG) for g in group])
        if isinstance(group[0], GeneratorMatrix) and group[0].is_tridiagonal:
            # no jump rates to share: B and A_ab are the band entries alone,
            # on the one column and row that cross the barrier (states m-1
            # and m)
            nc, nf = np.any(entries != 0.0, axis=0).astype(int)
            return cls(np.zeros((m, 0)), np.zeros((0, nc)), 0.0, 0.0,
                       slice(0, nc), slice(0, nf), np.zeros((nf, m)), cG, None)
        i = int(np.argmin(np.abs(entries[:, 0])))
        ref, (to_above, from_above) = group[i], entries[i]
        below, above = slice(0, m), slice(m, ladder.n_states)
        B = rate_block(ref, below, above, scale=cG)
        A_ab = rate_block(ref, above, below, scale=-cG)
        reach = np.any(B != 0.0, axis=0)
        reach[:1] |= np.any(entries[:, 0] != 0.0)  # state m, from any slice
        coupled = _span(reach)
        feed = np.any(A_ab != 0.0, axis=1)
        feed[:1] |= np.any(entries[:, 1] != 0.0)
        feeders = _span(feed)
        U, W, _ = low_rank_factor(B[:, coupled], _FACTOR_RTOL)
        return cls(U, W, float(to_above), float(from_above), coupled, feeders,
                   A_ab[feeders], cG, _separable_rows(ref, m, cG))

    def slice_factor(self, gen) -> Tuple[np.ndarray, np.ndarray, float]:
        """(U_t, W_t, d_ab) of one slice of the group: B_t = U_t W_t up to
        the reference's residual, and d_ab, its A_ab entry (state m, m-1)
        less the reference's.

        A slice with the reference's band entry gets (U, W).  Any other has
        B_t = B_ref + d e_{m-1} e_0^T, for d the change in the band entry
        (state m is coupled column 0 whenever d != 0), and gets
        U_t = [U | e_{m-1}] and W_t = [W ; d e_0^T], which leave
        B_t - U_t W_t = B_ref - U W.
        """

        m = len(self.U)
        to_above, from_above = _band_entries(gen, m, self.cG)
        d_b, d_ab = to_above - self.to_above, from_above - self.from_above
        if not d_b:
            return self.U, self.W, d_ab
        r = self.U.shape[1]
        U = np.zeros((m, r + 1))
        U[:, :r] = self.U
        U[m - 1, r] = 1.0
        W = np.zeros((r + 1, self.W.shape[1]))
        W[:r] = self.W
        W[r, 0] = d_b
        return U, W, d_ab


def _cross_records(gens: Sequence, ladder: DurationLadder, cG: float):
    """g -> the ``_CrossBlocks`` of g's group.

    A group is every generator in ``gens`` whose jump rates are one object:
    ``g.jumps`` of a ``GeneratorMatrix`` (None on every tridiagonal one),
    the array itself of a plain rate matrix.  A record is built from its
    group's distinct generators at the group's first request and kept until
    a slice of another group asks, so a recursion holds one record at a
    time, and builds one per group when each group's slices are adjacent, as
    ``slice_generators`` lays them out.
    """

    def key(g):
        return id(g.jumps if isinstance(g, GeneratorMatrix) else g)

    groups = {}  # key -> {id: generator}, each distinct generator once
    for g in gens:
        groups.setdefault(key(g), {})[id(g)] = g
    held = {}

    def record(g):
        k = key(g)
        if k not in held:
            held.clear()  # the last group's record goes first
            held[k] = _CrossBlocks.build(list(groups[k].values()), ladder, cG)
        return held[k]

    return record


def _span(nonzero: np.ndarray) -> slice:
    """The shortest range holding every nonzero entry of ``nonzero``."""

    idx = np.flatnonzero(nonzero)
    return slice(idx[0], idx[-1] + 1) if len(idx) else slice(0, 0)


def _slice_coefficients(rate: float, dt: Optional[float]):
    """(a0, cG) of a slice operator a0 I - cG A: the backward slice
    (1 + rate dt) I - dt A, or the perpetual rate I - A when ``dt`` is None."""

    return (rate, 1.0) if dt is None else (1.0 + rate * dt, dt)


def _ladder_slice_operator(gen, ladder, rate, dt) -> LCPOperator:
    """The stacked slice operator a0 I - cG A of the ladder (see
    ``_slice_coefficients``).  A one-level ladder on a tridiagonal chain is
    the chain's own operator with the knock-out tick on the below-barrier
    diagonal, held as its bands; any other is assembled sparse."""

    a0, cG = _slice_coefficients(rate, dt)
    tridiagonal = isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal
    if ladder.n_ticks == 1 and tridiagonal:
        ab = slice_bands(gen, a0, cG)
        ab[1, :ladder.n_below] += cG / ladder.dtick
        return LCPOperator.from_bands(ab)
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
    there).  The slice operators of a group of slices sharing one jump
    block, or having none, share one record of their cross-barrier blocks
    (``_cross_records``)."""

    if not _reducible(f0, ladder):
        raise ValueError(
            "level elimination needs a payoff that vanishes below the barrier"
        )
    C = np.zeros((len(gens), ladder.total))
    f_above = f0[ladder.n_below:]
    cross = _cross_records(gens[:-1], ladder, _slice_coefficients(rate, dt)[1])
    ops = slice_operators(gens, lambda g: _ReducedLadderOps(
        g, ladder, rate, dt=dt, cross=cross(g)))
    warm = None
    for j, red, new in ops:
        if j == len(gens) - 2:  # the zero row past the last slice: no solves
            q = np.zeros_like(f_above)
            levels = np.zeros((ladder.n_ticks, ladder.n_below))
        else:
            q, levels = red.sources(C[j + 1])
        if new:  # A_eff @ f_above, once per operator
            Af = red.A_eff @ f_above
        c, warm = bermudan_slice(red.A_eff, q, f_above, warm, Af)
        C[j] = red.expand(c, levels)
        del red  # gone before the next generator's operator is built
    return C
