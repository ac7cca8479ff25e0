"""Down-in Parisian option pricing.

Perpetual contracts use the excursion-transform closed forms: the value is
H_p(r) c_p, where c_p is the perpetual American value on the chain and
H_p(r, x, y) = E_x[e^{-r tau} 1{Y_tau = y}] for tau the first time the stay
below the barrier reaches the window length.

Finite-maturity contracts run a backward slice recursion in the discounted
variable C~(t) = e^{-rt} C(t).  Each slice couples the barrier-crossing
kernels H+/H- (crossing before the next clock tick), the within-window
trigger term v, and the window-interrupted terms u+/u- through one linear
system.  For pure-diffusion (tridiagonal) chains the crossing kernels
collapse to single columns at the barrier-adjacent states and the slice
system reduces to a 2x2 solve (fast path); the dense path handles jump
models and arbitrary generators.  The vanilla Bermudan surface behind it
keeps one continuation operator I - dt G alive, rebuilt only when the
slice's generator changes, so slices with an unchanged exercise region reuse
one factorization.
"""

from __future__ import annotations

import enum
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from .ctmc import (
    GeneratorMatrix,
    SpatialGrid,
    TimeGrid,
    dense_rates,
    generator_sequence,
    slice_operators,
)
from .models import ModelSpec
from .numerics import (
    LCPOperator,
    LCPProblem,
    generator_expm,
    policy_solve,
    require_solved,
)

_log = logging.getLogger("parisian.downin")

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
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive (math.inf = perpetual)")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.is_perpetual and self.rate <= 0:
            raise ValueError("perpetual contracts require a positive rate")

    @property
    def is_perpetual(self) -> bool:
        return math.isinf(self.maturity)

    def payoff_states(self, model: ModelSpec, states: np.ndarray) -> np.ndarray:
        return np.asarray(self.payoff(model.price_of_state(states)), dtype=float)

    def barrier_state(self, model: ModelSpec) -> float:
        return float(model.state_of_price(self.barrier))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _dense_and_below(
    gen: Union[GeneratorMatrix, np.ndarray],
    barrier: Optional[float],
    below: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    if below is None:
        if not isinstance(gen, GeneratorMatrix):
            raise ValueError("plain rate matrices need an explicit below mask")
        below = gen.grid.below_barrier(barrier)
    # degenerate splits are allowed (empty region => trivial kernels)
    return dense_rates(gen), np.asarray(below, dtype=bool)


def _lcp_operator(gen, a0: float, cG: float) -> LCPOperator:
    """a0 I - cG G: banded sparse for tridiagonal chains, dense otherwise.

    Keeping the banded form makes each policy iteration one sparse
    factorization instead of a dense solve.
    """

    if isinstance(gen, GeneratorMatrix) and gen.is_tridiagonal:
        T = gen.as_tridiag()
        return LCPOperator(sparse.diags(
            [-cG * T.sub, a0 - cG * T.main, -cG * T.sup],
            offsets=[-1, 0, 1],
            format="csc",
        ))
    R = dense_rates(gen)
    return LCPOperator(a0 * np.eye(R.shape[0]) - cG * R)


# ---------------------------------------------------------------------------
# perpetual pipeline
# ---------------------------------------------------------------------------


def vanilla_american_perpetual(
    gen: GeneratorMatrix,
    payoff: np.ndarray,
    rate: float,
) -> np.ndarray:
    """Perpetual American value c_p: min((rI - G)c_p, c_p - payoff) = 0."""

    if rate <= 0:
        raise ValueError("perpetual valuation requires rate > 0")
    f = np.asarray(payoff, dtype=float)
    if np.any(f < 0):
        raise ValueError("payoff must be nonnegative")
    A = _lcp_operator(gen, rate, 1.0)
    sol = require_solved(
        policy_solve(LCPProblem(A, A @ f)), "perpetual American"
    )
    return f + sol.z


def parisian_transform(
    gen: Union[GeneratorMatrix, np.ndarray],
    window: float,
    rate: float,
    barrier: Optional[float] = None,
    below: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Excursion-trigger kernel H_p(rate): entry (x, y) is the expected
    discount collected at the first time the running stay below the barrier
    reaches ``window``, on the event of landing there in state y.

    Columns at states >= barrier are identically zero (the trigger always
    happens strictly below).  A zero rate with a recurrent or absorbing
    below-barrier sub-chain makes the resolvent singular; this is reported,
    not masked.
    """

    if window < 0 or rate < 0:
        raise ValueError("window and rate must be nonnegative")
    R, below = _dense_and_below(gen, barrier, below)
    N = R.shape[0]
    bi = np.flatnonzero(below)
    ai = np.flatnonzero(~below)
    H = np.zeros((N, N))
    if bi.size == 0:
        return H  # no below states: the trigger never fires
    Gbb = R[np.ix_(bi, bi)]
    Gba = R[np.ix_(bi, ai)]
    disc = math.exp(-rate * window)

    # survival operator of the window: exp(G_bb * window) on the below block
    VP = generator_expm(Gbb, window)

    try:
        resolv_b = np.linalg.solve(rate * np.eye(len(bi)) - Gbb, Gba)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "singular below-barrier resolvent (rate = 0 with a recurrent or "
            f"absorbing below-barrier sub-chain): {exc}"
        ) from exc
    # up-crossing before the window completes, net of the completed-window part
    Rblock = (np.eye(len(bi)) - disc * VP) @ resolv_b

    S = np.zeros((len(ai), len(bi)))
    if ai.size:
        Gaa = R[np.ix_(ai, ai)]
        Gab = R[np.ix_(ai, bi)]
        try:
            S = np.linalg.solve(rate * np.eye(len(ai)) - Gaa, Gab)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "singular above-barrier resolvent (rate = 0 with a recurrent "
                f"above-barrier sub-chain): {exc}"
            ) from exc

    X = np.linalg.solve(np.eye(len(bi)) - Rblock @ S, VP)
    H[np.ix_(bi, bi)] = disc * X
    if ai.size:
        H[np.ix_(ai, bi)] = disc * (S @ X)
    return H


@dataclass(frozen=True)
class PerpetualDownInResult:
    values: np.ndarray          # C_pi over states
    vanilla: np.ndarray         # c_p over states
    transform: np.ndarray       # H_p(rate)
    model: ModelSpec
    grid: SpatialGrid

    def value_at(self, spot: float) -> float:
        x0 = float(self.model.state_of_price(spot))
        return self.grid.interp(self.values, x0)

    def vanilla_at(self, spot: float) -> float:
        x0 = float(self.model.state_of_price(spot))
        return self.grid.interp(self.vanilla, x0)


def price_perpetual_downin(
    gen: GeneratorMatrix,
    contract: ContractSpec,
    model: ModelSpec,
) -> PerpetualDownInResult:
    """Perpetual down-in value C_pi = H_p(rate) c_p on the chain."""

    if not contract.is_perpetual:
        raise ValueError("contract must be perpetual (maturity = inf)")
    if contract.flavor is not Flavor.DOWN_IN:
        raise ValueError("contract flavor must be down-in")
    if not model.time_homogeneous:
        raise ValueError("perpetual pipeline requires a time-homogeneous model")
    f = contract.payoff_states(model, gen.grid.states)
    c_p = vanilla_american_perpetual(gen, f, contract.rate)
    H = parisian_transform(
        gen,
        window=contract.window,
        rate=contract.rate,
        barrier=contract.barrier_state(model),
    )
    return PerpetualDownInResult(
        values=H @ c_p, vanilla=c_p, transform=H, model=model, grid=gen.grid
    )


# ---------------------------------------------------------------------------
# finite-maturity kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DownInKernels:
    """Per-slice crossing kernels (full-dimension matrices).

    ``h1_plus``: up-cross before the next clock tick; rows at/above the
    barrier are indicator rows.  ``h2_plus``: same event but after the
    window has already completed; ``h_plus = h1_plus - h2_plus``.
    ``h_minus``: down-cross before the next tick from above; rows below the
    barrier are indicator rows.
    """

    h1_plus: np.ndarray
    h2_plus: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    window: float
    dt: float


def kernel_h(
    gen: Union[GeneratorMatrix, np.ndarray],
    window: float,
    dt: float,
    barrier: Optional[float] = None,
    below: Optional[np.ndarray] = None,
) -> DownInKernels:
    """Crossing kernels at one slice (dense assembly)."""

    R, below_mask = _dense_and_below(gen, barrier, below)
    N = R.shape[0]
    bi = np.flatnonzero(below_mask)
    ai = np.flatnonzero(~below_mask)

    H1 = np.zeros((N, N))
    H1[ai, ai] = 1.0
    H2 = np.zeros((N, N))
    Hm = np.zeros((N, N))
    Hm[bi, bi] = 1.0

    if bi.size and ai.size:
        Gbb = R[np.ix_(bi, bi)]
        Gba = R[np.ix_(bi, ai)]
        Gaa = R[np.ix_(ai, ai)]
        Gab = R[np.ix_(ai, bi)]
        h1_bar = np.linalg.solve(np.eye(len(bi)) / dt - Gbb, Gba)
        H1[np.ix_(bi, ai)] = h1_bar
        EM = math.exp(-window / dt) * generator_expm(Gbb, window)
        H2[np.ix_(bi, ai)] = EM @ h1_bar
        Hm[np.ix_(ai, bi)] = np.linalg.solve(np.eye(len(ai)) / dt - Gaa, Gab)
    return DownInKernels(
        h1_plus=H1, h2_plus=H2, h_plus=H1 - H2, h_minus=Hm, window=window, dt=dt
    )


def _poisson_weights(lam: float, kmax: int, skip: float = _POISSON_SKIP):
    """(a_k, last useful k) with a_k = lam^k / k!;  pmf = e^{-lam} a_k."""

    a = np.ones(kmax + 1)
    for k in range(1, kmax + 1):
        a[k] = a[k - 1] * lam / k
    pmf = np.exp(-lam) * a
    useful = np.flatnonzero(pmf >= skip)
    last = int(useful[-1]) if useful.size else 0
    return a, last


def kernel_v(
    gens,
    disc_cf: np.ndarray,
    window: float,
    dt: float,
    barrier: Optional[float] = None,
    below: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Within-window trigger values v for every slice.

    v(window, t, x) for x below the barrier is the Poisson-weighted mix of
    discounted continuation values over the number of clock ticks completed
    during the window, propagated by the killed below-block semigroup; zero
    at and above the barrier.  ``disc_cf`` rows are the discounted vanilla
    continuation slices.
    """

    disc_cf = np.asarray(disc_cf, dtype=float)
    n_slices, N = disc_cf.shape
    gens = generator_sequence(gens, n_slices)
    out = np.zeros_like(disc_cf)
    a, last = _poisson_weights(window / dt, n_slices - 1)
    cache = {}
    for j in range(n_slices):
        R, below_mask = _dense_and_below(gens[j], barrier, below)
        bi = np.flatnonzero(below_mask)
        if not bi.size:
            continue
        key = id(gens[j])
        if key not in cache:
            Gbb = R[np.ix_(bi, bi)]
            cache[key] = math.exp(-window / dt) * generator_expm(Gbb, window)
        EM = cache[key]
        kmax = min(n_slices - 1 - j, last)
        acc = np.zeros(len(bi))
        for k in range(kmax + 1):
            acc += a[k] * disc_cf[j + k][bi]
        out[j][bi] = EM @ acc
    return out


def _u_plus_columns(Gbb, Gba, window, dt, kmax):
    """q_k = C_k(window) H1_bar for k = 0..kmax (q_0 = 0 by convention).

    Built incrementally: p_k = N p_{k-1}, s_k = N s_{k-1} + a_k p_0 with
    N = (I - dt G_bb)^{-1}, then q_k = p_k - e^{window M} s_k.
    """

    m = Gbb.shape[0]
    lu = lu_factor(np.eye(m) / dt - Gbb)
    h1_bar = lu_solve(lu, Gba)
    EM = math.exp(-window / dt) * generator_expm(Gbb, window)
    a, _ = _poisson_weights(window / dt, max(kmax, 1))
    q = [np.zeros_like(h1_bar)]
    p = h1_bar
    s = a[0] * h1_bar
    # N x = (I - dt G)^{-1} x = lu_solve((I/dt - G), x) / dt
    for k in range(1, kmax + 1):
        p = lu_solve(lu, p) / dt
        s = lu_solve(lu, s) / dt + a[k] * h1_bar
        q.append(p - EM @ s)
    return q, h1_bar, EM


def kernel_u_plus(
    gens,
    disc_cfi: np.ndarray,
    window: float,
    dt: float,
    barrier: Optional[float] = None,
    below: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Window-interrupting up-cross values u+ for every slice.

    u+(window, t) collects the discounted contract values at future slices
    reached by first crossing up before the window completes; zero at and
    above the barrier, and zero when no future slices remain.
    """

    disc_cfi = np.asarray(disc_cfi, dtype=float)
    n_slices, N = disc_cfi.shape
    gens = generator_sequence(gens, n_slices)
    out = np.zeros_like(disc_cfi)
    cache = {}
    for j in range(n_slices):
        kmax = n_slices - 1 - j
        if kmax < 1:
            continue
        R, below_mask = _dense_and_below(gens[j], barrier, below)
        bi = np.flatnonzero(below_mask)
        ai = np.flatnonzero(~below_mask)
        if not bi.size or not ai.size:
            continue
        key = id(gens[j])
        if key not in cache or len(cache[key][0]) <= kmax:
            Gbb = R[np.ix_(bi, bi)]
            Gba = R[np.ix_(bi, ai)]
            cache[key] = _u_plus_columns(Gbb, Gba, window, dt, n_slices - 1)
        q = cache[key][0]
        acc = np.zeros(len(bi))
        for k in range(1, kmax + 1):
            acc += q[k] @ disc_cfi[j + k][ai]
        out[j][bi] = acc
    return out


def kernel_u_minus(
    gens,
    disc_cfi: np.ndarray,
    dt: float,
    barrier: Optional[float] = None,
    below: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Down-cross coupon values u- for every slice (backward recursion).

    u-(t) propagates, from above the barrier, the value of crossing down at
    a later tick into the already-discounted contract values; zero below
    the barrier, zero at the last slice.
    """

    disc_cfi = np.asarray(disc_cfi, dtype=float)
    n_slices, N = disc_cfi.shape
    gens = generator_sequence(gens, n_slices)
    out = np.zeros_like(disc_cfi)
    cache = {}
    for j in range(n_slices - 2, -1, -1):
        R, below_mask = _dense_and_below(gens[j], barrier, below)
        bi = np.flatnonzero(below_mask)
        ai = np.flatnonzero(~below_mask)
        if not ai.size:
            continue
        key = id(gens[j])
        if key not in cache:
            Gaa = R[np.ix_(ai, ai)]
            Gab = R[np.ix_(ai, bi)]
            lu = lu_factor(np.eye(len(ai)) - dt * Gaa)
            hm_bar = (
                np.linalg.solve(np.eye(len(ai)) / dt - Gaa, Gab)
                if bi.size
                else np.zeros((len(ai), 0))
            )
            cache[key] = (lu, hm_bar)
        lu, hm_bar = cache[key]
        rhs = out[j + 1][ai]
        if bi.size:
            rhs = rhs + hm_bar @ disc_cfi[j + 1][bi]
        out[j][ai] = lu_solve(lu, rhs)
    return out


# ---------------------------------------------------------------------------
# Bermudan continuation slices
# ---------------------------------------------------------------------------


def bermudan_slice(
    gen: Union[GeneratorMatrix, np.ndarray],
    c_next: np.ndarray,
    obstacle: np.ndarray,
    dt: float,
    warm_active: Optional[np.ndarray] = None,
    return_active: bool = False,
    operator: Optional[LCPOperator] = None,
):
    """One backward step: solve min((I - dt G)c - c_next, c - obstacle) = 0.

    Discounting, when wanted, is the caller's job (pass discounted inputs).
    ``operator`` is I - dt G of ``gen``, built once by a caller that steps
    through several slices; it keeps the factor of the last free set, which
    the next slice often reuses.
    """

    c_next = np.asarray(c_next, dtype=float)
    obstacle = np.asarray(obstacle, dtype=float)
    A = _lcp_operator(gen, 1.0, dt) if operator is None else operator
    psi = A @ obstacle - c_next
    sol = require_solved(
        policy_solve(LCPProblem(A, psi), active0=warm_active),
        "continuation slice",
    )
    values = obstacle + sol.z
    if return_active:
        return values, sol.z <= 0.0
    return values


# ---------------------------------------------------------------------------
# finite-maturity pricer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDownInResult:
    disc_values: np.ndarray       # discounted contract surface, slices x states
    disc_vanilla: np.ndarray      # discounted vanilla continuation surface
    times: np.ndarray
    model: ModelSpec
    grid: SpatialGrid
    fast_path: bool

    def value_at(self, spot: float, slice_idx: int = 0) -> float:
        x0 = float(self.model.state_of_price(spot))
        return self.grid.interp(self.disc_values[slice_idx], x0)

    def vanilla_at(self, spot: float, slice_idx: int = 0) -> float:
        x0 = float(self.model.state_of_price(spot))
        return self.grid.interp(self.disc_vanilla[slice_idx], x0)


def price_finite_downin(
    model: ModelSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    contract: ContractSpec,
    gen: Optional[Union[GeneratorMatrix, Sequence[GeneratorMatrix]]] = None,
    rate_policy: str = "error",
    force_dense: bool = False,
    vanilla_discounting: str = "activation",
) -> FiniteDownInResult:
    """Backward recursion for the finite-maturity down-in value surface.

    Works in the discounted variable: slice values are e^{-rt} times prices.
    The returned spot value at slice 0 needs no un-discounting.

    ``vanilla_discounting`` fixes how the post-activation vanilla leg is
    discounted.  "activation" (default, matching the published reference
    values): the leg is the undiscounted optimal-stopping value and the
    discount factor is applied only down to the activation date.
    "exercise": every cash flow is discounted all the way to the valuation
    date (one extra factor e^{-r (exercise - activation)}); this is the
    variant consistent with pricing the exercise payoff itself and is the
    one validated against path simulation.
    """

    from .ctmc import build_generator

    if contract.is_perpetual:
        raise ValueError("contract must have finite maturity")
    if contract.flavor is not Flavor.DOWN_IN:
        raise ValueError("contract flavor must be down-in")

    J = timegrid.idx_t_plus
    dt = timegrid.dt
    times = timegrid.times
    n_slices = J + 1

    if gen is None:
        if model.time_homogeneous:
            gens = [build_generator(model, grid, 0.0, rate_policy)] * n_slices
        else:
            gens = [
                build_generator(model, grid, float(t), rate_policy) for t in times
            ]
    else:
        gens = generator_sequence(gen, n_slices)

    N = gens[0].dimension if isinstance(gens[0], GeneratorMatrix) else gens[0].shape[0]
    f = contract.payoff_states(model, grid.states)
    below = grid.below_barrier(contract.barrier_state(model))
    m = int(below.sum())
    homogeneous = all(g is gens[0] for g in gens)
    rate = contract.rate

    # vanilla continuation surface, expressed in the discounted variable
    # (zero past the last exercise date either way)
    if vanilla_discounting == "activation":
        # undiscounted stopping value; discount applied at the slice date only
        obstacles = [f] * n_slices
    elif vanilla_discounting == "exercise":
        obstacles = np.exp(-rate * times)[:, None] * f[None, :]
    else:
        raise ValueError(
            "vanilla_discounting must be 'activation' or 'exercise', got "
            f"{vanilla_discounting!r}"
        )
    W = np.zeros((n_slices, N))
    warm = None
    for j, op in slice_operators(gens, lambda g: _lcp_operator(g, 1.0, dt)):
        W[j], warm = bermudan_slice(
            gens[j], W[j + 1], obstacles[j], dt,
            warm_active=warm, return_active=True, operator=op,
        )
    if vanilla_discounting == "activation":
        W *= np.exp(-rate * times)[:, None]

    use_fast = (
        not force_dense
        and homogeneous
        and isinstance(gens[0], GeneratorMatrix)
        and gens[0].is_tridiagonal
        and 0 < m < N
    )
    start = time.perf_counter()
    if use_fast:
        C = _finite_downin_fast(gens[0], W, below, contract.window, dt)
    else:
        C = _finite_downin_dense(gens, W, below, contract.window, dt, homogeneous)
    _log.info(
        "finite down-in recursion (%s path): %.3fs for %d slices, n=%d",
        "fast" if use_fast else "dense",
        time.perf_counter() - start,
        n_slices,
        N,
    )
    return FiniteDownInResult(
        disc_values=C,
        disc_vanilla=W,
        times=times,
        model=model,
        grid=grid,
        fast_path=use_fast,
    )


def _finite_downin_dense(gens, W, below, window, dt, homogeneous):
    """Dense-path backward recursion (jump models, hand-built chains)."""

    n_slices, N = W.shape
    bi = np.flatnonzero(below)
    ai = np.flatnonzero(~below)
    C = np.zeros_like(W)
    if not bi.size:
        return C  # never below the barrier: the in-event cannot trigger
    a_wt, last_wt = _poisson_weights(window / dt, n_slices - 1)

    def blocks(g):
        R = dense_rates(g)
        Gbb = R[np.ix_(bi, bi)]
        Gba = R[np.ix_(bi, ai)]
        Gaa = R[np.ix_(ai, ai)]
        Gab = R[np.ix_(ai, bi)]
        q, h1_bar, EM = _u_plus_columns(Gbb, Gba, window, dt, n_slices - 1)
        hm_bar = np.linalg.solve(np.eye(len(ai)) / dt - Gaa, Gab)
        h_plus_bar = h1_bar - EM @ h1_bar
        slice_lu = lu_factor(np.eye(len(bi)) - h_plus_bar @ hm_bar)
        ua_lu = lu_factor(np.eye(len(ai)) - dt * Gaa)
        return q, h1_bar, EM, hm_bar, h_plus_bar, slice_lu, ua_lu

    shared = blocks(gens[0]) if homogeneous else None
    u_minus_next = np.zeros(len(ai))
    for j in range(n_slices - 2, -1, -1):
        q, h1_bar, EM, hm_bar, h_plus_bar, slice_lu, ua_lu = (
            shared if homogeneous else blocks(gens[j])
        )
        # v: within-window trigger against the vanilla continuation surface
        kmax = min(n_slices - 1 - j, last_wt)
        acc = np.zeros(len(bi))
        for k in range(kmax + 1):
            acc += a_wt[k] * W[j + k][bi]
        v_b = EM @ acc
        # u+: up-cross before the window completes, into future slices
        up_b = np.zeros(len(bi))
        for k in range(1, n_slices - 1 - j + 1):
            up_b += q[k] @ C[j + k][ai]
        # u-: down-cross from above before the next tick
        rhs = u_minus_next + hm_bar @ C[j + 1][bi]
        u_minus = lu_solve(ua_lu, rhs)
        # slice solve via the two-block elimination
        b = up_b + v_b + h_plus_bar @ u_minus
        C_b = lu_solve(slice_lu, b)
        C_a = u_minus + hm_bar @ C_b
        C[j][bi] = C_b
        C[j][ai] = C_a
        u_minus_next = u_minus
    return C


def _finite_downin_fast(gen: GeneratorMatrix, W, below, window, dt):
    """Tridiagonal fast path: crossing kernels are single columns.

    An up-cross enters the above region exactly at the barrier node and a
    down-cross enters the below region exactly at the node under it, so all
    couplings run through the two scalar values there and each slice costs
    O(n) plus the cached column arithmetic.
    """

    from .numerics import TriDiag, solve_tridiag

    n_slices, N = W.shape
    m = int(below.sum())
    tri = gen.as_tridiag()
    up_rate = gen.up
    down_rate = gen.down

    # below block (states 0..m-1), above block (m..N-1)
    sub_b, main_b, sup_b = tri.sub[: m - 1], tri.main[:m], tri.sup[: m - 1]
    sub_a, main_a, sup_a = tri.sub[m:], tri.main[m:], tri.sup[m:]
    Gbb = TriDiag(sub_b, main_b, sup_b)
    Gaa = TriDiag(sub_a, main_a, sup_a)

    # h1_bar: below-block resolvent applied to the single coupling column
    res_b = TriDiag(-Gbb.sub, 1.0 / dt - Gbb.main, -Gbb.sup)
    e_top = np.zeros(m)
    e_top[m - 1] = up_rate[m - 1]
    h1_bar = solve_tridiag(res_b, e_top)      # column at the barrier node

    EM = math.exp(-window / dt) * generator_expm(Gbb.to_dense(), window)
    h2_bar = EM @ h1_bar
    h_plus_bar = h1_bar - h2_bar

    # h_minus: above-block resolvent applied to its single coupling column
    n_a = N - m
    res_a = TriDiag(-Gaa.sub, 1.0 / dt - Gaa.main, -Gaa.sup)
    e_bot = np.zeros(n_a)
    e_bot[0] = down_rate[m]
    hm_bar = solve_tridiag(res_a, e_bot)      # column at the node below L

    # u- step operator
    step_a = TriDiag(-dt * Gaa.sub, 1.0 - dt * Gaa.main, -dt * Gaa.sup)

    # u+ columns q_k (vectors here: single above-entry column)
    a_wt, last_wt = _poisson_weights(window / dt, n_slices - 1)
    q = [np.zeros(m)]
    p = h1_bar.copy()
    s = a_wt[0] * h1_bar
    for k in range(1, n_slices):
        p = solve_tridiag(res_b, p) / dt
        s = solve_tridiag(res_b, s) / dt + a_wt[k] * h1_bar
        q.append(p - EM @ s)

    hp_scal = h_plus_bar[m - 1]
    hm_scal = hm_bar[0]
    denom = 1.0 - hp_scal * hm_scal

    C = np.zeros_like(W)
    u_minus_next = np.zeros(n_a)
    for j in range(n_slices - 2, -1, -1):
        kmax = min(n_slices - 1 - j, last_wt)
        acc = np.zeros(m)
        for k in range(kmax + 1):
            acc += a_wt[k] * W[j + k][:m]
        v_b = EM @ acc
        up_b = np.zeros(m)
        for k in range(1, n_slices - 1 - j + 1):
            up_b += q[k] * C[j + k][m]          # value at the barrier node
        rhs = u_minus_next + hm_bar * C[j + 1][m - 1]
        u_minus = solve_tridiag(step_a, rhs)
        cb_edge = (up_b[m - 1] + v_b[m - 1] + hp_scal * u_minus[0]) / denom
        ca_edge = u_minus[0] + hm_scal * cb_edge
        C_b = up_b + v_b + h_plus_bar * ca_edge
        C_b[m - 1] = cb_edge
        C_a = u_minus + hm_bar * cb_edge
        C_a[0] = ca_edge
        C[j][:m] = C_b
        C[j][m:] = C_a
        u_minus_next = u_minus
    return C
