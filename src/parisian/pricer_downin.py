"""Down-in Parisian option pricing.

One backward slice recursion prices every down-in, in the discounted
variable C~(t) = e^{-rt} C(t), for tridiagonal, dense and time-dependent
chains alike; the variable is internal to the recursion, whose surfaces are
un-discounted once at the end.  Each slice couples the barrier-crossing
kernels H+/H- (crossing before the next clock tick), the within-window
trigger term v, and the window-interrupted terms u+/u- through one two-block
linear system on below/above blocks, built once per slice generator: in
bands on a tridiagonal chain, where a step crosses at the barrier alone.
u+ is a sum over all later slices; it is accumulated in Horner form (one
below-block solve per slice while the generator is unchanged).

A perpetual contract is the recursion's one-slice case.  Its value is
H_p(r) c_p, for c_p the perpetual American value on the chain and
H_p(r, x, y) = E_x[e^{-r tau} 1{Y_tau = y}], tau the first time the stay
below the barrier reaches the window length.  Discounting at r is killing
at an exponential time of rate r, as each finite slice does at rate 1/dt,
so H_p(r) c_p is one slice at dt = 1/r on the payoff rows [c_p, 0], and
H_p(r) itself the same slice on unit payoffs.

Every pricing LCP, here and in ``pricer_downout``, is one exercise step,
``bermudan_slice``, on a slice operator A.  ``american_surface`` runs it
backwards over the clock slices, rebuilding A (and its LU factors) only when
the generator changes: the vanilla Bermudan surface (A = I - dt G) and, as
its one-slice case, the perpetual value (rate I - G).

Every pricer, here and in ``pricer_downout``, returns a ``PriceSurface``:
prices over (clock slice, slot), one slice for a perpetual contract.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .ctmc import (
    GeneratorMatrix,
    SpatialGrid,
    TimeGrid,
    rate_block,
    slice_bands,
    slice_generators,
    slice_operator,
    slice_operators,
)
from .models import ModelSpec
from .numerics import (
    LCPOperator,
    LCPProblem,
    _Inverse,
    factor_dense,
    factor_tridiag,
    generator_expm,
    poisson_weights,
    policy_solve,
    require_solved,
    solve_dense,
    solve_tridiag,
)

if TYPE_CHECKING:
    from .pricer_downout import DurationLadder

# the tail mass of the Poisson count of ticks in a window past which
# ``_finite_downin`` skips later slices
_POISSON_SKIP = 1e-16


class Flavor(enum.Enum):
    DOWN_IN = "down-in"
    DOWN_OUT = "down-out"


def american_call(strike: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vanilla call payoff max(S - K, 0) in price units."""

    def payoff(s):
        return np.maximum(np.asarray(s, dtype=float) - strike, 0.0)

    return payoff


@dataclass(frozen=True)
class ContractSpec:
    """American-style Parisian contract.

    ``payoff`` maps prices (not grid states) to exercise values and must be
    Lipschitz on the grid range; log-coordinate models are handled by
    composing with the state-to-price map.  ``maturity`` is math.inf for
    perpetual contracts (which require rate > 0).
    """

    payoff: Callable[[np.ndarray], np.ndarray]
    barrier: float
    window: float
    maturity: float
    rate: float
    flavor: Flavor

    def __post_init__(self):
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if not self.maturity > 0:  # False for NaN too
            raise ValueError(
                f"maturity must be positive (math.inf = perpetual), got {self.maturity}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be nonnegative and finite, got {self.rate}")
        if self.is_perpetual and self.rate <= 0:
            raise ValueError("perpetual contracts require a positive rate")

    @property
    def is_perpetual(self) -> bool:
        return math.isinf(self.maturity)

    def payoff_states(self, model: ModelSpec, states: np.ndarray) -> np.ndarray:
        return np.asarray(self.payoff(model.price_of_state(states)), dtype=float)

    def barrier_state(self, model: ModelSpec) -> float:
        return float(model.state_of_price(self.barrier))


@dataclass(frozen=True)
class PriceSurface:
    """Prices over (clock slice, slot) of any of the four contract classes.

    A perpetual contract has one slice, with ``times == [0.0]``.  A down-out's
    slots are its duration ``ladder``'s; a down-in has no ladder, and its
    slots are the grid states.  ``vanilla`` is a down-in's vanilla surface,
    in prices too (None on a down-out).
    """

    values: np.ndarray
    times: np.ndarray
    model: ModelSpec
    grid: SpatialGrid
    ladder: Optional[DurationLadder] = None
    vanilla: Optional[np.ndarray] = None

    def level_values(self, level: int, slice_idx: int = 0) -> np.ndarray:
        """Prices on one duration level (level 0 spans all states) at one
        clock slice.

        Raises IndexError outside the slices 0..len(values) - 1 (a negative
        index would silently count back from the zero row past the horizon)
        or the ladder's levels; a down-in has level 0 only.
        """

        if not 0 <= slice_idx < len(self.values):
            raise IndexError(
                f"clock slice {slice_idx} outside the surface's "
                f"0..{len(self.values) - 1}"
            )
        row = self.values[slice_idx]
        if self.ladder is not None:
            return row[self.ladder.level_slice(level)]
        if level != 0:
            raise IndexError(f"duration level {level} outside a down-in's 0..0")
        return row

    def value_at(self, spot: float, slice_idx: int = 0, level: int = 0) -> float:
        """Price at ``spot``, interpolated over one level's states at one
        clock slice."""

        x = float(np.asarray(self.model.state_of_price(spot)))
        vals = self.level_values(level, slice_idx)
        return self.grid.interp(vals, x, self.ladder.n_below if level else None)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def require_contract(contract: ContractSpec, flavor: Flavor, model: ModelSpec,
                     grid: Optional[SpatialGrid],
                     timegrid: Optional[TimeGrid] = None) -> None:
    """Raise ValueError unless a ``flavor`` pricer can price ``contract``:
    perpetual on a time-homogeneous model without a ``timegrid``, else finite
    and ending at the timegrid's horizon; the barrier at the node of ``grid``
    (a perpetual pricer's ``gen.grid``: None for a plain rate matrix)."""

    if contract.flavor is not flavor:
        raise ValueError(f"contract flavor must be {flavor.value}")
    if timegrid is None:
        if not contract.is_perpetual:
            raise ValueError("contract must be perpetual (maturity = inf)")
        if not model.time_homogeneous:
            raise ValueError("perpetual pricing needs a time-homogeneous model")
    elif contract.is_perpetual:
        raise ValueError("contract must have finite maturity")
    elif not math.isclose(timegrid.horizon, contract.maturity, rel_tol=1e-12):
        raise ValueError(
            f"time grid horizon {timegrid.horizon} differs from the contract "
            f"maturity {contract.maturity}"
        )
    if not isinstance(grid, SpatialGrid):
        raise ValueError("need a SpatialGrid to place the barrier on (a perpetual "
                         "pricer reads it off its GeneratorMatrix)")
    level = contract.barrier_state(model)
    if not grid.is_barrier(level):
        raise ValueError(
            f"contract barrier state {level!r} is not the grid's barrier node "
            f"{grid.barrier!r}"
        )


# ---------------------------------------------------------------------------
# the exercise step
# ---------------------------------------------------------------------------


def bermudan_slice(
    A: LCPOperator, c_next: np.ndarray, obstacle: np.ndarray, warm=None,
    A_obstacle: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One exercise step: min(A c - c_next, c - obstacle) = 0 by policy
    iteration from the active-set guess ``warm``; returns the values and
    their exercise mask.

    ``A`` is the slice operator: I - dt G, rate I - G or a duration-ladder
    operator.  A caller passes one to every slice it serves, so a slice can
    reuse its factors, and A @ obstacle as ``A_obstacle`` if it has it.
    Discounting is the caller's job.
    """

    obstacle = np.asarray(obstacle, dtype=float)
    A_obstacle = A @ obstacle if A_obstacle is None else A_obstacle
    sol = require_solved(
        policy_solve(LCPProblem(A, A_obstacle - c_next), active0=warm),
        "exercise step",
    )
    return obstacle + sol.z, sol.z <= 0.0


def american_surface(
    gens: Sequence, operator: Callable, obstacles: Sequence
) -> np.ndarray:
    """Exercise recursion from zero past the last slice: the surface over
    (slice, state).  Slice j is ``bermudan_slice`` on ``operator(gens[j])``
    (built only when the generator changes, see ``slice_operators``) against
    ``obstacles[j]``, warm-started from the exercise region of slice j + 1;
    the first solve starts cold; A @ obstacle is formed when either changes."""

    C = np.zeros((len(gens), len(obstacles[0])))
    warm = f = None
    for j, A, new in slice_operators(gens, operator):
        if new or obstacles[j] is not f:
            f = obstacles[j]
            Af = A @ np.asarray(f, dtype=float)
        C[j], warm = bermudan_slice(A, C[j + 1], f, warm, Af)
        del A  # gone before the next generator's operator is built
    return C


# ---------------------------------------------------------------------------
# perpetual pipeline
# ---------------------------------------------------------------------------


def vanilla_american_perpetual(
    gen: GeneratorMatrix,
    payoff: np.ndarray,
    rate: float,
) -> np.ndarray:
    """Perpetual American value c_p: min((rI - G)c_p, c_p - payoff) = 0,
    the one-slice case of ``american_surface`` (operator rI - G, row 0)."""

    if rate <= 0:
        raise ValueError("perpetual valuation requires rate > 0")
    f = np.asarray(payoff, dtype=float)
    if np.any(f < 0):
        raise ValueError("payoff must be nonnegative")
    return american_surface(
        [gen, gen], lambda g: slice_operator(g, rate, 1.0), [f, f]
    )[0]


def parisian_transform(
    gen: Union[GeneratorMatrix, np.ndarray],
    window: float,
    rate: float,
    n_below: int,
) -> np.ndarray:
    """Excursion-trigger kernel H_p(rate): entry (x, y) is the expected
    discount collected at the first time the running stay below the barrier
    reaches ``window``, on the event of landing there in state y.

    The states below the barrier are the first ``n_below``.  Columns at
    states >= barrier are identically zero (the trigger always happens
    strictly below).  H is ``_finite_downin``'s one-slice case at
    dt = 1/rate on the unit payoffs (see the module docstring); no pricer
    forms it.  A positive rate makes rate I - G_bb and rate I - G_aa
    strictly diagonally dominant M-matrices; at rate 0, G_bb is singular on
    a chain with an absorbing state below the barrier, as every
    ``build_grid`` chain has.
    """

    if window < 0 or rate <= 0:
        raise ValueError("the trigger kernel needs window >= 0 and rate > 0")
    n = gen.dimension if isinstance(gen, GeneratorMatrix) else len(gen)
    W = np.zeros((2, n, n))
    W[0, :n_below, :n_below] = np.eye(n_below)
    return _finite_downin([gen, gen], W, n_below, window, 1.0 / rate)[0]


def price_perpetual_downin(
    gen: GeneratorMatrix,
    contract: ContractSpec,
    model: ModelSpec,
) -> PriceSurface:
    """Perpetual down-in value C_pi = H_p(rate) c_p on the chain: row 0 of
    ``_finite_downin``'s one-slice case at dt = 1/rate on [c_p, 0]."""

    require_contract(contract, Flavor.DOWN_IN, model, getattr(gen, "grid", None))
    f = contract.payoff_states(model, gen.grid.states)
    c_p = vanilla_american_perpetual(gen, f, contract.rate)
    C = _finite_downin([gen, gen], np.stack([c_p, np.zeros_like(c_p)]),
                       gen.grid.n_below, contract.window, 1.0 / contract.rate)
    return PriceSurface(values=C[:1], times=np.zeros(1), model=model,
                        grid=gen.grid, vanilla=c_p[None])


# ---------------------------------------------------------------------------
# finite-maturity pricer
# ---------------------------------------------------------------------------


def price_finite_downin(
    model: ModelSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    contract: ContractSpec,
    gen: Optional[Union[GeneratorMatrix, Sequence[GeneratorMatrix]]] = None,
    rate_policy: str = "error",
    vanilla_discounting: str = "activation",
) -> PriceSurface:
    """Backward recursion for the finite-maturity down-in price surface.

    The recursion works in the discounted variable e^{-rt} C(t); both
    returned surfaces are un-discounted once, at the end, so every slice
    holds prices (slice 0 is multiplied by exactly 1).

    ``vanilla_discounting`` fixes how the post-activation vanilla leg is
    discounted.  "activation" (default, matching the published reference
    values): the leg is the undiscounted optimal-stopping value and the
    discount factor is applied only down to the activation date.
    "exercise": every cash flow is discounted all the way to the valuation
    date (one extra factor e^{-r (exercise - activation)}); this is the
    variant consistent with pricing the exercise payoff itself and is the
    one validated against path simulation.
    """

    require_contract(contract, Flavor.DOWN_IN, model, grid, timegrid)

    dt = timegrid.dt
    times = timegrid.times
    gens = slice_generators(model, grid, times, rate_policy, gen)
    f = contract.payoff_states(model, grid.states)
    rate = contract.rate

    # vanilla continuation surface, expressed in the discounted variable
    # (zero past the last exercise date either way)
    if vanilla_discounting == "activation":
        # undiscounted stopping value; discount applied at the slice date only
        obstacles = [f] * len(times)
    elif vanilla_discounting == "exercise":
        obstacles = np.exp(-rate * times)[:, None] * f[None, :]
    else:
        raise ValueError(
            "vanilla_discounting must be 'activation' or 'exercise', got "
            f"{vanilla_discounting!r}"
        )
    W = american_surface(gens, lambda g: slice_operator(g, 1.0, dt), obstacles)
    if vanilla_discounting == "activation":
        W *= np.exp(-rate * times)[:, None]

    C = _finite_downin(gens, W, grid.n_below, contract.window, dt)
    growth = np.array([math.exp(rate * float(t)) for t in times])[:, None]
    C *= growth
    W *= growth
    return PriceSurface(values=C, times=times, model=model, grid=grid, vanilla=W)


class _SliceBlocks(NamedTuple):
    """One generator's slice system, as ``_slice_blocks`` builds it."""

    n_inv: _Inverse
    h1: np.ndarray
    E: np.ndarray
    a_inv: _Inverse
    hm: np.ndarray
    hp: np.ndarray
    slice_inv: _Inverse
    up: slice
    down: slice


def _slice_blocks(gen, n_below, window, dt):
    """Blocks of one generator's slice system (b: the first ``n_below``
    states, below the barrier; a: the others, above).

    N = (I - dt G_bb)^{-1}; h1 = N dt G_ba (up-cross before the next tick);
    E = exp(window G_bb) (survival below for the window, to be weighted by
    the Poisson count of ticks in it); hm = (I - dt G_aa)^{-1} dt G_ab
    (down-cross before the next tick); hp = h1 - e^{-window/dt} E h1.  h1
    and hp span the above states ``up`` reached from below, hm the below
    states ``down`` reached from above, and I - hp hm[up] is I off ``down``.
    A tridiagonal chain's spans are states m and m - 1 and its resolvents
    ``slice_bands`` factors; any other's spans are whole, its factors dense.
    """

    m = n_below
    b, a = slice(0, m), slice(m, None)
    if isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal:
        ab = slice_bands(gen, 1.0, dt)
        n_inv, a_inv = (_Inverse(solve_tridiag, factor_tridiag(ab, idx))
                        for idx in np.split(np.arange(gen.dimension), [m]))
        cols, up, down = slice(m, m + 1), slice(0, 1), slice(m - 1, m)
    else:
        n_inv, a_inv = (
            _Inverse(solve_dense, factor_dense(rate_block(gen, s, s, 1.0, -dt)))
            for s in (b, a))
        cols, up, down = a, slice(None), b
    h1 = n_inv @ rate_block(gen, b, cols, scale=dt)
    E = generator_expm(rate_block(gen, b, b), window)
    hm = a_inv @ rate_block(gen, a, down, scale=dt)
    hp = h1 - (math.exp(-window / dt) * E) @ h1
    S = np.eye(m)
    S[:, down] -= hp @ hm[up]
    return _SliceBlocks(n_inv, h1, E, a_inv, hm, hp,
                        _Inverse(solve_dense, factor_dense(S)), up, down)


def _finite_downin(gens, W, n_below, window, dt):
    """Backward slice recursion for the discounted down-in surface C on the
    payoffs W, of shape (slices, N) or (slices, N, K) for K at once.

    Slice j solves the two-block system C_b = u+ + v + hp C_a, C_a = u- +
    hm C_b.  u+ runs in Horner form: P_j = N Q_{j+1} with Q_t = h1 C_t[a] +
    P_t and P_J = 0, so u+_j = P_j - E (p_0 P_j + sum_i p_i Q_{j+i}) with p
    the Poisson(window/dt) pmf, and v shares its E product.  Slice j's
    generator prices its whole u+ sum, so a slice with new blocks restarts
    the tail; C_J = 0, so it restarts at t = J - 1 with P = 0, u- is 0 on
    slice J - 1, and the one-slice case solves with slice_inv alone.  The
    states below the barrier are the first ``n_below``.
    """

    J = W.shape[0] - 1
    m = n_below
    C = np.zeros_like(W)
    if not m:
        return C  # never below the barrier: the in-event cannot trigger
    pmf = poisson_weights(window / dt, _POISSON_SKIP)
    Wb = W[:, :m]
    Q = np.zeros_like(Wb)
    u_minus = np.zeros_like(W[0, m:])
    for j, b, new in slice_operators(
        gens, lambda g: _slice_blocks(g, m, window, dt)
    ):
        top = j + 1
        if new:  # new generator: restart the tail at t = J - 1
            P, top = np.zeros_like(Wb[0]), J - 1
        for t in range(top, j, -1):
            Q[t] = b.h1 @ C[t, m:][b.up] + P
            P = b.n_inv @ Q[t]
        k = min(J - j, len(pmf) - 1)
        later = Wb[j + 1:j + k + 1] - Q[j + 1:j + k + 1]
        acc = pmf[0] * (Wb[j] - P) + (
            pmf[1:k + 1] @ later.reshape(k, P.size)).reshape(P.shape)
        if j < J - 1:
            u_minus = b.a_inv @ (u_minus + b.hm @ C[j + 1, :m][b.down])
        C[j, :m] = b.slice_inv @ (P + b.E @ acc + b.hp @ u_minus[b.up])
        C[j, m:] = u_minus + b.hm @ C[j, :m][b.down]
        del b  # gone before the next generator's blocks are built
    return C
