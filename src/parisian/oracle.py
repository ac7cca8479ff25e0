"""Independent verification engines, and the agreement suites that drive
the pricers against them.

Everything here recomputes quantities the pricing modules produce, through
deliberately different numerical routes: fixed-point value iteration on
uniformized chains instead of complementarity pivoting or factorized
solves, exhaustive complementary-basis enumeration for small LCPs, dense
matrix exponentials for excursion kernels instead of resolvent algebra,
and Monte-Carlo estimation by exact event-by-event simulation of the chain
with its barrier excursion clock.  No pricing module imports from here, so
a disagreement implicates the pipeline under test rather than a shared
subroutine.

All engines are desk-scale: dense, O(states^3) or slower, and meant for
dozens of states -- they trade speed for transparency.

``verify_groups`` runs one agreement suite (``lcp``, ``kernels`` or
``dp``): it prices randomized desk-scale instances with the production code
and with an engine above, and counts, per group of checks, the checks whose
gap exceeds the suite's tolerance or whose code raises; ``run_verify``
returns the suite's total failures.  The ``verify`` CLI verb and the test
suite both run the suites, and ``random_generator`` is the one source of
random dense generators for both; ``validate_generator`` checks a built
generator's signs, row sums and absorbing boundary rows.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg import block_diag, expm
from scipy.stats import poisson

from .bench_cli import build_named_model, reference_option
from .ctmc import (
    GeneratorMatrix,
    TimeGrid,
    build_generator,
    build_grid,
    resolve_rate_policy,
    slice_operator,
)
from .models import bs_model
from .numerics import LCPOperator, LCPProblem, generator_expm, lemke_solve, policy_solve
from .pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    american_surface,
    parisian_transform,
    vanilla_american_perpetual,
)
from .pricer_downout import _ReducedLadderOps, build_ladder
from .pricing import price

__all__ = [
    "ChainPath",
    "ParisianSimResult",
    "UniformizedChain",
    "value_iterate_american",
    "lcp_by_enumeration",
    "dp_parisian_lattice",
    "random_generator",
    "run_verify",
    "validate_generator",
    "verify_groups",
    "sample_path",
    "simulate_paths",
]


# ---------------------------------------------------------------------------
# uniformization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformizedChain:
    """Discrete-time view of a CTMC sampled at Poisson epochs.

    ``lam`` is the uniformization rate (the largest total exit rate) and
    ``probs`` the one-step matrix I + G/lam.  Exponential holding times
    make discounting exact per step: E[e^{-r H}] = lam / (lam + r).
    """

    lam: float
    probs: np.ndarray

    def __post_init__(self):
        P = self.probs
        if self.lam < 0:
            raise ValueError("uniformization rate must be nonnegative")
        if np.min(P) < -1e-12:
            raise ValueError("one-step probabilities must be nonnegative")
        rows = P.sum(axis=1)
        # killing rows are legitimately substochastic; above 1 is an error
        if np.max(rows, initial=0.0) > 1.0 + 1e-12:
            raise ValueError("one-step matrix must be (sub)stochastic")

    @classmethod
    def from_generator(cls, rates: np.ndarray) -> "UniformizedChain":
        """The chain of the dense rate matrix ``rates``."""

        R = np.asarray(rates, dtype=float)
        lam = float(np.max(-np.diag(R), initial=0.0))
        if lam <= 0.0:
            return cls(lam=0.0, probs=np.eye(R.shape[0]))
        P = np.eye(R.shape[0]) + R / lam
        return cls(lam=lam, probs=np.maximum(P, 0.0))

    def step(self, v: np.ndarray) -> np.ndarray:
        return self.probs @ v


def _fixed_point_stopping(
    chain: UniformizedChain,
    obstacle: np.ndarray,
    kill: float,
    source_rate: float = 0.0,
    source: Optional[np.ndarray] = None,
    tol: float = 1e-11,
    max_iter: int = 5_000_000,
    v0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fixed point of v = max(obstacle, (lam P v + source_rate*source)/(lam+kill+source_rate)).

    This is the optimal-stopping equation for the chain killed at rate
    ``kill``, with an extra competing exponential clock of rate
    ``source_rate`` paying ``source`` when it rings.  The map contracts
    with factor lam/(lam+kill+source_rate), so kill + source_rate > 0
    guarantees geometric convergence; the loop stops once the remaining
    geometric tail is below tol.
    """

    lam = chain.lam
    denom = lam + kill + source_rate
    if denom <= 0:
        raise ValueError("need kill + source_rate > 0 or a moving chain")
    rho = lam / denom
    if rho >= 1.0:
        raise ValueError("contraction requires kill + source_rate > 0")
    add = 0.0 if source is None else (source_rate / denom) * np.asarray(source, float)
    v = np.maximum(obstacle, add) if v0 is None else np.asarray(v0, float)
    gain = rho / (1.0 - rho) if rho > 0 else 0.0
    for _ in range(max_iter):
        v_new = np.maximum(obstacle, rho * chain.step(v) + add)
        delta = float(np.max(np.abs(v_new - v), initial=0.0))
        v = v_new
        if delta * gain <= tol:
            return v
    raise RuntimeError("value iteration did not converge (tol %g)" % tol)


def value_iterate_american(
    chain: UniformizedChain,
    f: np.ndarray,
    r: float,
    tol: float = 1e-10,
    max_iter: int = 5_000_000,
) -> np.ndarray:
    """Perpetual American value on the chain by plain value iteration.

    Solves v = max(f, (lam/(lam+r)) P v) to sup-norm ``tol``; requires
    r > 0 for the discounting contraction.
    """

    if r <= 0:
        raise ValueError("need a positive discount rate")
    return _fixed_point_stopping(
        chain, np.asarray(f, float), kill=r, tol=tol, max_iter=max_iter
    )


# ---------------------------------------------------------------------------
# exhaustive LCP reference
# ---------------------------------------------------------------------------


def lcp_by_enumeration(
    A: np.ndarray, psi: np.ndarray, tol: float = 1e-10
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve min(z, A z + psi) = 0 by trying every complementary basis.

    For each candidate support S, set z = 0 off S, solve A[S,S] z_S =
    -psi_S, and accept when z_S >= 0 and the slack w = A z + psi is
    nonnegative off S.  P-matrices admit exactly one solution; ties on
    degenerate data may surface several, in which case the first found is
    returned.  Exponential cost caps the size at 20 states.

    Returns (z, support_mask).
    """

    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = len(psi)
    if n > 20:
        raise ValueError("enumeration oracle is limited to 20 states")
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            S = list(sub)
            z = np.zeros(n)
            if S:
                try:
                    zS = np.linalg.solve(A[np.ix_(S, S)], -psi[S])
                except np.linalg.LinAlgError:
                    continue
                if np.min(zS, initial=0.0) < -tol:
                    continue
                z[S] = np.maximum(zS, 0.0)
            w = A @ z + psi
            mask = np.zeros(n, dtype=bool)
            mask[S] = True
            if np.min(w[~mask], initial=0.0) < -tol:
                continue
            if np.max(np.abs(w[mask]), initial=0.0) > 1e4 * tol * max(
                1.0, float(np.max(np.abs(psi)))
            ):
                continue
            return z, mask
    raise RuntimeError("no complementary basis found (matrix not a P-matrix?)")


# ---------------------------------------------------------------------------
# joint-lattice dynamic programming
# ---------------------------------------------------------------------------


def dp_parisian_lattice(
    rates: np.ndarray,
    below: np.ndarray,
    payoff: np.ndarray,
    rate: float,
    dt: float,
    horizon: float,
    window: float,
    flavor: str,
    dtick: Optional[float] = None,
    vanilla_discounting: str = "activation",
    tol: float = 1e-11,
) -> np.ndarray:
    """Backward induction over the full joint lattice, one value per slot,
    for the chain of the dense rate matrix ``rates``, whose below-barrier
    states are flagged in ``below``.  ``rates`` may also hold one matrix per
    clock slice (a time-dependent chain): slice j then steps back from slice
    j + 1 on its own matrix, and the last, past the horizon, is never read.

    ``flavor="down-out"`` runs the (duration level, spatial state) lattice
    with ``dtick`` clock resolution: per clock slice, the stopping fixed
    point is iterated to convergence on the whole lattice, the knocked-out
    level contributing zero.  Returned array has one row per slice and one
    column per live lattice slot (level 0 spans all states, deeper levels
    the below-barrier states), in same-slice price units.

    ``flavor="down-in"`` keeps the excursion clock continuous: the
    below-barrier block of the (spatial x clock-slice) joint chain is
    exponentiated over the window to get the exact activation and escape
    kernels, the vanilla leg comes from per-slice stopping fixed points,
    and one dense linear solve couples the entry values to the
    above-barrier values, all in time-zero dollars.  Returned array has one
    row per slice and one column per spatial state, in same-slice price
    units.

    The grid is desk-scale only: lattice slots x slices must stay at or
    below 1e5.
    """

    R = np.asarray(rates, dtype=float)
    below = np.asarray(below, dtype=bool)
    payoff = np.asarray(payoff, dtype=float)
    J = int(math.floor(horizon / dt * (1.0 + 1e-12))) + 1
    n_slices = J + 1
    if R.ndim == 2:
        R = np.broadcast_to(R, (n_slices,) + R.shape)
    elif len(R) != n_slices:
        raise ValueError(f"need one rate matrix or {n_slices}, got {len(R)}")
    if flavor == "down-out":
        if dtick is None:
            raise ValueError("down-out lattice needs a duration tick")
        return _downout_lattice(
            R, below, payoff, rate, dt, n_slices, window, dtick, tol
        )
    if flavor == "down-in":
        return _downin_renewal(
            R, below, payoff, rate, dt, n_slices, window, vanilla_discounting, tol
        )
    raise ValueError(f"unknown flavor {flavor!r}")


def _slice_chains(R, build):
    """build(R[j]) for every slice j, once per run of equal matrices."""

    out = []
    for j, Rj in enumerate(R):
        out.append(out[-1] if j and np.array_equal(Rj, R[j - 1]) else build(Rj))
    return out


def _downout_lattice(R, below, payoff, rate, dt, n_slices, window, dtick, tol):
    N = R.shape[-1]
    bi = np.flatnonzero(below)
    m = len(bi)
    n_ticks = int(math.floor(window / dtick * (1.0 + 1e-12))) + 1
    n_live = N + (n_ticks - 1) * m
    if n_live * n_slices > 100_000:
        raise ValueError("lattice too large for the DP oracle")

    # slot map: (level, state) -> flat index; knocked-out level not stored
    def slot(level, x):
        if level == 0:
            return x
        return N + (level - 1) * m + int(np.searchsorted(bi, x))

    def lattice_chain(R):
        L = np.zeros((n_live, n_live))
        tick = 1.0 / dtick
        for level in range(n_ticks):
            for x in range(N):
                if level > 0 and not below[x]:
                    continue
                row = slot(level, x)
                # keep R's own diagonal so killing rows stay killed
                L[row, row] = R[x, x]
                for y in range(N):
                    if y == x or R[x, y] == 0.0:
                        continue
                    tgt_level = level if below[y] else 0
                    L[row, slot(tgt_level, y)] += R[x, y]
                if below[x]:
                    # the clock: one level up, value lost past the window
                    if level + 1 < n_ticks:
                        L[row, slot(level + 1, x)] += tick
                    L[row, row] -= tick
        return UniformizedChain.from_generator(L)

    f_lat = np.concatenate([payoff] + [payoff[bi]] * (n_ticks - 1))
    chains = _slice_chains(R[:-1], lattice_chain)
    out = np.zeros((n_slices, n_live))
    for j in range(n_slices - 2, -1, -1):
        out[j] = _fixed_point_stopping(
            chains[j],
            f_lat,
            kill=rate,
            source_rate=1.0 / dt,
            source=out[j + 1],
            tol=tol,
            v0=out[j + 1],
        )
    return out


def _downin_renewal(R, below, payoff, rate, dt, n_slices, window, vanilla_discounting, tol):
    N = R.shape[-1]
    J = n_slices - 1
    if N * n_slices > 100_000:
        raise ValueError("lattice too large for the DP oracle")
    times = np.arange(n_slices) * dt
    chains = _slice_chains(R[:-1], UniformizedChain.from_generator)

    if vanilla_discounting not in ("activation", "exercise"):
        raise ValueError(f"unknown vanilla discounting {vanilla_discounting!r}")
    exercise = vanilla_discounting == "exercise"

    # vanilla leg in time-zero dollars, slice by slice: discounted from
    # exercise, it stops on the discounted payoff; discounted from
    # activation, it stops on the payoff and is discounted to its slice after
    W = np.zeros((n_slices, N))
    for j in range(J - 1, -1, -1):
        obstacle = math.exp(-rate * times[j]) * payoff if exercise else payoff
        W[j] = _fixed_point_stopping(
            chains[j], obstacle, kill=0.0, source_rate=1.0 / dt,
            source=W[j + 1], tol=tol, v0=W[j + 1],
        )
    if not exercise:
        W = np.exp(-rate * times)[:, None] * W

    bi = np.flatnonzero(below)
    ai = np.flatnonzero(~below)
    if len(bi) == 0:
        return np.zeros((n_slices, N))

    # joint (slice, state) generator over live slices 0..J-1; the shift out
    # of slice J-1 leaks to the worthless past-horizon slice
    Z = np.zeros((J, J))
    for j in range(J):
        Z[j, j] = -1.0 / dt
        if j + 1 < J:
            Z[j, j + 1] = 1.0 / dt
    G_joint = block_diag(*R[:J]) + np.kron(Z, np.eye(N))
    jb = (np.arange(J)[:, None] * N + bi[None, :]).ravel()
    ja = (np.arange(J)[:, None] * N + ai[None, :]).ravel()

    G_bb = G_joint[np.ix_(jb, jb)]
    G_ba = G_joint[np.ix_(jb, ja)]
    G_ab = G_joint[np.ix_(ja, jb)]
    G_aa = G_joint[np.ix_(ja, ja)]

    # exact excursion kernels over one window: survive below for the whole
    # window (activation) or escape above at some point inside it
    nb, na = len(jb), len(ja)
    Phi = expm(G_bb * window)
    block = np.zeros((nb + na, nb + na))
    block[:nb, :nb] = G_bb
    block[:nb, nb:] = G_ba
    Psi = expm(block * window)[:nb, nb:]

    w_act = Phi @ W[:J, bi].ravel()
    if na:
        X = np.linalg.solve(-G_aa, G_ab)          # above values from entries
        U = np.linalg.solve(np.eye(nb) - Psi @ X, w_act)
        V = X @ U
    else:
        U = w_act
        V = np.zeros(0)

    out = np.zeros((n_slices, N))
    out[:J, bi] = U.reshape(J, len(bi))
    if na:
        out[:J, ai] = V.reshape(J, len(ai))
    return out * np.exp(rate * times)[:, None]  # time-zero dollars to prices


# ---------------------------------------------------------------------------
# exact path simulation (Monte Carlo)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPath:
    """One simulated trajectory: state s_k holds on [times[k], times[k+1])."""

    times: np.ndarray     # event times, times[0] = 0
    states: np.ndarray    # states[k] = state entered at times[k]
    horizon: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("event times must be strictly increasing")
        if np.any(np.diff(self.states) == 0):
            raise ValueError("state must change at every event")

    def excursion_trigger(self, below_mask: np.ndarray, window: float):
        """First time the running stay below the barrier reaches ``window``.

        Returns (trigger_time, state_at_trigger) or (inf, None); the clock
        resets whenever the path is at or above the barrier.
        """
        times = np.append(self.times, self.horizon)
        clock = 0.0
        for k, s in enumerate(self.states):
            seg = times[k + 1] - times[k]
            if below_mask[s]:
                if clock + seg >= window:
                    return float(times[k] + (window - clock)), int(s)
                clock += seg
            else:
                clock = 0.0
        return math.inf, None


def sample_path(
    rates: np.ndarray,
    x0: int,
    horizon: float,
    rng: np.random.Generator,
) -> ChainPath:
    """Simulate one exact trajectory of the chain with generator ``rates``."""

    times = [0.0]
    states = [int(x0)]
    t, s = 0.0, int(x0)
    n = rates.shape[0]
    while True:
        total = -rates[s, s]
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        probs = rates[s].copy()
        probs[s] = 0.0
        s = int(rng.choice(n, p=probs / total))
        times.append(t)
        states.append(s)
    return ChainPath(
        times=np.array(times), states=np.array(states), horizon=horizon
    )


@dataclass(frozen=True)
class ParisianSimResult:
    """Monte-Carlo estimate of E[e^{-r tau} 1{Y_tau = y}] per state y."""

    estimate: np.ndarray
    std_error: np.ndarray
    n_paths: int
    degenerate: bool
    mean_trigger_time: float

    @property
    def total(self) -> float:
        return float(self.estimate.sum())


def simulate_paths(
    rates: np.ndarray,
    x0: int,
    window: float,
    rate: float,
    n_paths: int,
    rng_seed: int,
    below: np.ndarray,
    horizon: Optional[float] = None,
    batch_size: int = 100_000,
) -> ParisianSimResult:
    """Estimate the discounted excursion-trigger kernel by simulation of the
    chain of the dense rate matrix ``rates``, whose below-barrier states are
    flagged in ``below``.

    Tracks each path's state and its running below-barrier clock between
    exact exponential events; a path triggers when the clock reaches
    ``window`` and contributes e^{-rate * trigger_time} to the entry of the
    state it occupies at that instant.  Paths that exceed ``horizon``
    (default: long enough that the neglected discount tail is < 1e-12)
    contribute zero.  Absorbing below-barrier states trigger after the
    remaining window deterministically; starting in an absorbing state at or
    above the barrier is degenerate (flagged, never triggers).
    """

    R = np.asarray(rates, dtype=float)
    below = np.asarray(below, dtype=bool)
    N = R.shape[0]
    if window < 0 or rate < 0:
        raise ValueError("window and rate must be nonnegative")
    if horizon is None:
        horizon = 30.0 * window + (40.0 / rate if rate > 0 else 1e4)

    exit_rates = -R.diagonal()
    probs = np.where(exit_rates[:, None] > 0, R / np.where(exit_rates == 0, 1, exit_rates)[:, None], 0.0)
    np.fill_diagonal(probs, 0.0)
    cum = np.cumsum(probs, axis=1)

    degenerate = exit_rates[x0] <= 0 and not below[x0]
    rng = np.random.default_rng(rng_seed)
    disc_sum = np.zeros(N)
    disc_sq = np.zeros(N)
    tau_sum, tau_count = 0.0, 0

    done = 0
    while done < n_paths:
        m = min(batch_size, n_paths - done)
        done += m
        state = np.full(m, x0, dtype=np.int64)
        t = np.zeros(m)
        clock = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        while np.any(alive):
            s = state[alive]
            rates_a = exit_rates[s]
            is_below = below[s]
            # absorbing states: either trigger after the residual window
            # (below) or never (at/above the barrier)
            absorbed = rates_a <= 0
            if np.any(absorbed):
                ai = np.flatnonzero(alive)[absorbed]
                trig = below[state[ai]]
                ti = ai[trig]
                tau = t[ti] + (window - clock[ti])
                w = np.exp(-rate * tau)
                np.add.at(disc_sum, state[ti], w)
                np.add.at(disc_sq, state[ti], w * w)
                tau_sum += tau.sum()
                tau_count += len(ti)
                alive[ai] = False
                continue
            hold = rng.exponential(1.0, size=len(s)) / rates_a
            # below-barrier paths whose clock fills the window mid-holding
            fill = np.where(is_below, window - clock[alive], np.inf)
            trigger = hold >= fill
            ai = np.flatnonzero(alive)
            ti = ai[trigger]
            if len(ti):
                tau = t[ti] + fill[trigger]
                w = np.exp(-rate * tau)
                np.add.at(disc_sum, state[ti], w)
                np.add.at(disc_sq, state[ti], w * w)
                tau_sum += tau.sum()
                tau_count += len(ti)
                alive[ti] = False
            mi = ai[~trigger]
            if not len(mi):
                continue
            holds = hold[~trigger]
            t[mi] += holds
            was_below = below[state[mi]]
            u = rng.random(len(mi))
            rowcum = cum[state[mi]]
            new_state = (u[:, None] <= rowcum).argmax(axis=1)
            state[mi] = new_state
            now_below = below[new_state]
            clock[mi] = np.where(
                now_below & was_below, clock[mi] + holds, 0.0
            )
            timed_out = t[mi] > horizon
            if np.any(timed_out):
                alive[mi[timed_out]] = False

    est = disc_sum / n_paths
    var = disc_sq / n_paths - est**2
    se = np.sqrt(np.maximum(var, 0.0) / n_paths)
    return ParisianSimResult(
        estimate=est,
        std_error=se,
        n_paths=n_paths,
        degenerate=degenerate,
        mean_trigger_time=tau_sum / tau_count if tau_count else math.inf,
    )


# ---------------------------------------------------------------------------
# agreement suites: the pricing stack against the engines above
# ---------------------------------------------------------------------------


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


def random_generator(n, rng, conservative=True, density=0.6, scale=3.0):
    """Dense random generator: each off-diagonal rate is live with
    probability ``density`` and uniform on [0, scale) when live.

    A conservative generator has zero row sums; otherwise about 30% of the
    rows also kill at a rate uniform on [0, 0.5).
    """

    R = rng.uniform(0.0, scale, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(R, 0.0)
    diag = -R.sum(axis=1)
    if not conservative:
        diag -= rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.3)
    np.fill_diagonal(R, diag)
    return R


def _gap(values: np.ndarray, ref: np.ndarray) -> float:
    """Largest absolute difference; inf when the shapes differ."""

    if values.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(values - ref)))


class _Tally(dict):
    """(checks, failures) per group of a suite's checks."""

    def __init__(self, emit):
        super().__init__()
        self.emit = emit

    def add(self, group: str, ok: bool) -> None:
        checks, failures = self.get(group, (0, 0))
        self[group] = (checks + 1, failures + (not ok))

    @contextmanager
    def check(self, group: str):
        """Run one check of ``group``, which ends in ``add``: a check that
        raises counts as one failure, its exception emitted in one line, and
        the suite goes on."""

        try:
            yield
        except Exception as exc:  # noqa: BLE001 - any raise fails the check
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.emit(f"  {group} check raised {type(exc).__name__} at "
                      f"{Path(where.filename).name}:{where.lineno}: "
                      + " ".join(str(exc).split()))
            self.add(group, False)


def _verify_lcp(seed: int, emit) -> _Tally:
    rng = np.random.default_rng(seed)
    solvers = {"pivoting": lemke_solve, "policy iteration": policy_solve}
    tally = _Tally(emit)
    for kind, trials in (("dense", 200), ("tridiagonal", 100)):
        worst = dict.fromkeys(solvers, 0.0)
        for trial in range(trials):
            n = int(rng.integers(2, 9))
            if kind == "tridiagonal":  # an M-matrix, held as its three bands
                ab = np.zeros((3, n))
                ab[2, :-1] = -rng.uniform(0.1, 3.0, size=n - 1)  # A[i + 1, i]
                ab[0, 1:] = -rng.uniform(0.1, 3.0, size=n - 1)  # A[i, i + 1]
                off = np.append(0.0, ab[2, :-1]) + np.append(ab[0, 1:], 0.0)
                ab[1] = -off + rng.uniform(0.1, 1.0, size=n)
                A = LCPOperator.from_bands(ab)
            elif trial % 2 == 0:
                B = rng.normal(size=(n, n))
                A = B @ B.T + (0.2 + rng.uniform()) * n * np.eye(n)
            else:
                A = rng.normal(size=(n, n))
                A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 1.0, size=n))
            psi = rng.normal(scale=2.0, size=n)
            with tally.check(kind):
                problem = LCPProblem(A, psi)
                z_ref, _ = lcp_by_enumeration(problem.A.to_dense(), psi)
                ok = True
                for name, solve in solvers.items():
                    sol = solve(problem)
                    gap = float(np.max(np.abs(sol.z - z_ref)))
                    worst[name] = max(worst[name], gap)
                    ok &= (
                        sol.solved
                        and gap < 1e-9
                        and np.array_equal(sol.z > 1e-9, z_ref > 1e-9)
                    )
                tally.add(kind, ok)
        for name, gap in worst.items():
            emit(f"  {name} vs enumeration on {trials} random {kind} instances: "
                 f"worst gap {gap:.2e}")
    return tally


def _verify_kernels(seed: int, emit) -> _Tally:
    rng = np.random.default_rng(seed)
    tally = _Tally(emit)

    worst = 0.0
    for n in (5, 9, 14, 20):
        R = random_generator(n, rng, conservative=bool(rng.integers(0, 2)))
        h = float(rng.uniform(0.3, 1.2))
        with tally.check("uniformized"):
            chain = UniformizedChain.from_generator(R)
            mu = chain.lam * h
            kmax = int(poisson.isf(1e-16, mu)) + 1 if mu > 0 else 1
            acc = np.zeros((n, n))
            Pk = np.eye(n)
            for k in range(kmax + 1):
                acc += poisson.pmf(k, mu) * Pk
                Pk = Pk @ chain.probs
            ref = expm(R * h)
            gap = max(
                float(np.max(np.abs(acc - ref))),
                float(np.max(np.abs(generator_expm(R, h) - ref))),
            )
            worst = max(worst, gap)
            tally.add("uniformized", gap < 1e-10)
    emit(f"  uniformized kernels vs dense exponential: worst gap {worst:.2e}")

    # uniformization mean a = rate h = 800, past where e^{-a} underflows
    R = np.diag(np.full(7, 1.4), 1) + np.diag(np.full(7, 1.8), -1)
    np.fill_diagonal(R, -R.sum(axis=1) - 0.01)
    h = 800.0 / float(-R.diagonal().min())
    with tally.check("mean 800"):
        gap = float(np.max(np.abs(generator_expm(R, h) - expm(R * h))))
        tally.add("mean 800", gap < 1e-10)
        emit(f"  uniformized kernel at mean 800 vs dense exponential: gap {gap:.2e}")

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 41))
        R = random_generator(n, rng, density=0.5, scale=2.0)
        f = rng.uniform(0.0, 5.0, size=n)
        r = float(rng.uniform(0.05, 0.3))
        with tally.check("value iteration"):
            v_impl = vanilla_american_perpetual(R, f, r)
            v_ora = value_iterate_american(
                UniformizedChain.from_generator(R), f, r, tol=1e-10
            )
            gap = float(np.max(np.abs(v_impl - v_ora)))
            worst = max(worst, gap)
            tally.add("value iteration", gap < 1e-6)
    emit(f"  stopping-problem solver vs value iteration on 50 random chains: "
         f"worst gap {worst:.2e}")

    n = 15
    R = np.diag(np.full(n - 1, 1.4), 1) + np.diag(np.full(n - 1, 1.8), -1)
    np.fill_diagonal(R, -R.sum(axis=1))
    n_below = 7
    window, rate = 0.2, 0.25
    for x0 in (8, 3):
        with tally.check("simulation"):
            H = parisian_transform(R, window, rate, n_below)
            sim = simulate_paths(
                R, x0, window, rate, n_paths=1_000_000, rng_seed=seed + 2024 + x0,
                below=np.arange(n) < n_below, horizon=80.0,
            )
            gap = np.abs(sim.estimate - H[x0])
            # a discounted indicator's variance is at most its mean (no hit: s.e. 0)
            scale = np.maximum(sim.std_error, np.sqrt(H[x0] / sim.n_paths) + 1e-12)
            tally.add("simulation", bool(np.all(gap <= 3.0 * scale)))
            emit(
                f"  excursion-trigger kernel row vs 1e6-path simulation (start {x0}): "
                f"max |gap|/s.e. {float(np.max(gap / scale)):.2f}"
            )
    return tally


def _verify_dp(seed: int, emit) -> _Tally:
    rng = np.random.default_rng(seed)
    carrier = bs_model(r_f=0.05, dividend=0.0, sigma=0.2)
    tally = _Tally(emit)
    worst = dict.fromkeys(("dense out", "dense in", "bs out", "bs in"), 0.0)
    for trial in range(25):
        # instances 0-19: dense random chains and payoffs; instances 20-24:
        # the carrier's own tridiagonal chain with a call struck at or above
        # the barrier, which takes the reduced down-out route.  Both flavors
        # each time, the down-in's vanilla leg discounted from activation or
        # from exercise at random.
        bs_call = trial >= 20
        n = int(rng.integers(8, 13))
        grid = build_grid(0.5, 4.0, 1.5, 2.0, n, "proportional")
        N = grid.n_states
        if bs_call:
            gen = build_generator(carrier, grid)
            rates = gen.as_dense()
        else:
            gen = rates = random_generator(N, rng, conservative=bool(rng.integers(0, 2)))
        rate = float(rng.uniform(0.01, 0.2))
        dt = float(rng.uniform(0.05, 0.3))
        n_slices = int(rng.integers(2, 6))
        horizon = (n_slices - 0.5) * dt
        window = float(rng.uniform(0.5, 2.5)) * dt
        dtick = window / float(rng.integers(1, 4))
        if bs_call:
            payoff = american_call(float(rng.uniform(1.5, 3.0)))
        else:
            knots = np.sort(rng.uniform(0.4, 4.2, size=4))
            vals = rng.uniform(0.0, 3.0, size=4)
            payoff = lambda s, k=knots, v=vals: np.interp(s, k, v)
        discounting = ("activation", "exercise")[int(rng.integers(0, 2))]
        below = grid.states < 1.5 - 1e-12
        f = payoff(grid.states)
        kind = "bs " if bs_call else "dense "

        c_out = ContractSpec(
            payoff=payoff, barrier=1.5, window=window, maturity=horizon,
            rate=rate, flavor=Flavor.DOWN_OUT,
        )
        with tally.check(kind + "out"):
            res = price(carrier, grid, c_out, dt=dt, dtick=dtick, gen=gen)
            ora = dp_parisian_lattice(
                rates, below, f, rate, dt, horizon, window, "down-out", dtick=dtick
            )
            gap = _gap(res.values, ora)
            worst[kind + "out"] = max(worst[kind + "out"], gap)
            tally.add(kind + "out", gap < 1e-5)  # a NaN gap fails too

        c_in = dataclasses.replace(c_out, flavor=Flavor.DOWN_IN)
        with tally.check(kind + "in"):
            res_in = price(
                carrier, grid, c_in, dt=dt, gen=gen, vanilla_discounting=discounting
            )
            ora_in = dp_parisian_lattice(
                rates, below, f, rate, dt, horizon, window, "down-in",
                vanilla_discounting=discounting,
            )
            gap = _gap(res_in.values, ora_in)
            worst[kind + "in"] = max(worst[kind + "in"], gap)
            tally.add(kind + "in", gap < 1e-5)  # a NaN gap fails too
    emit(f"  down-out recursion vs joint-lattice DP on 20 random chains: "
         f"worst gap {worst['dense out']:.2e}")
    emit(f"  down-in recursion vs renewal DP on 20 random chains: "
         f"worst gap {worst['dense in']:.2e}")
    emit(f"  reduced down-out, 5 BS chains and calls, vs joint-lattice DP: "
         f"worst gap {worst['bs out']:.2e}")
    emit(f"  down-in, 5 BS chains and calls, vs renewal DP: "
         f"worst gap {worst['bs in']:.2e}")

    # reduced down-out on dense jump chains with the reference blocks'
    # parameters, with a call struck at or above the barrier, on grids where
    # the ladder elimination runs on a factor of the below->above rate block
    # narrower than the block (k < nc)
    for family in ("kou", "vg"):
        rate = float(rng.uniform(0.01, 0.1))
        strike = float(rng.uniform(90.0, 110.0))
        with tally.check("jump out"):
            params = reference_option(family, "finite-down-out").config.model_params
            model = build_named_model(family, params)
            grid = build_grid(math.log(20.0), math.log(400.0), math.log(90.0),
                              math.log(95.0), 32, "proportional")
            gen = build_generator(model, grid, 0.0, resolve_rate_policy(None, model))
            window, dtick, dt, horizon = 1.0 / 12.0, 1.0 / 24.0, 1.0 / 24.0, 0.25
            c_out = ContractSpec(
                payoff=american_call(strike), barrier=90.0, window=window,
                maturity=horizon, rate=rate, flavor=Flavor.DOWN_OUT,
            )
            res = price(model, grid, c_out, dt=dt, dtick=dtick, gen=gen)
            below = grid.states < math.log(90.0) - 1e-12
            ora = dp_parisian_lattice(
                gen.as_dense(), below, c_out.payoff_states(model, grid.states), rate,
                dt, horizon, window, "down-out", dtick=dtick,
            )
            gap = _gap(res.values, ora)
            ladder = build_ladder(window, dtick, grid.n_states, grid.n_below)
            ops = _ReducedLadderOps(gen, ladder, rate, dt=dt)
            k, nc = ops.factor_width, ops.coupled.stop - ops.coupled.start
            tally.add("jump out", gap < 1e-5 and k < nc)
            emit(
                f"  reduced down-out, {model.name} chain and call ({ops.form} form, "
                f"factor width {k} of {nc}), vs joint-lattice DP: gap {gap:.2e}"
            )

    # time-dependent down-outs, a generator per clock slice, against the
    # lattice on each slice's own rates: sigma(t) ramps and steps on the
    # carrier's tridiagonal chains (calls on the reduced route, whose slices
    # share one cross-barrier record, then payoffs that take the stacked
    # route) and a sigma(t) Kou chain whose slices share one jump block
    def sigma_t(model, shape):
        sq = model.diffusion_sq
        return dataclasses.replace(
            model, time_homogeneous=False,
            diffusion_sq=lambda t, x: sq(t, x) * shape(t) ** 2)

    def time_dependent(model, grid, c_out, dt, dtick):
        res = price(model, grid, c_out, dt=dt, dtick=dtick)
        policy = resolve_rate_policy(None, model)
        rates = [build_generator(model, grid, float(t), policy).as_dense()
                 for t in res.times]
        below = grid.states < c_out.barrier_state(model) - 1e-12
        ora = dp_parisian_lattice(
            rates, below, c_out.payoff_states(model, grid.states), c_out.rate,
            dt, c_out.maturity, c_out.window, "down-out", dtick=dtick,
        )
        return _gap(res.values, ora)

    worst = 0.0
    for trial in range(6):
        n = int(rng.integers(8, 13))
        grid = build_grid(0.5, 4.0, 1.5, 2.0, n, "proportional")
        rate = float(rng.uniform(0.01, 0.2))
        dt = float(rng.uniform(0.05, 0.3))
        horizon = (int(rng.integers(2, 6)) - 0.5) * dt
        window = float(rng.uniform(0.5, 2.5)) * dt
        dtick = window / float(rng.integers(1, 4))
        if trial < 4:
            payoff = american_call(float(rng.uniform(1.5, 3.0)))
        else:
            knots = np.sort(rng.uniform(0.4, 4.2, size=4))
            vals = rng.uniform(0.5, 3.0, size=4)
            payoff = lambda s, k=knots, v=vals: np.interp(s, k, v)
        if trial % 2:  # a step up or down halfway through the contract
            lo, hi = sorted(rng.uniform(1.0, 2.5, size=2))[::int(rng.choice([-1, 1]))]
            shape = lambda t, T=horizon / 2, a=lo, b=hi: a if t < T else b
        else:  # a ramp
            slope = float(rng.uniform(0.5, 3.0))
            shape = lambda t, k=slope: 1.0 + k * t
        c_out = ContractSpec(
            payoff=payoff, barrier=1.5, window=window, maturity=horizon,
            rate=rate, flavor=Flavor.DOWN_OUT,
        )
        with tally.check("bs sigma(t) out"):
            gap = time_dependent(sigma_t(carrier, shape), grid, c_out, dt, dtick)
            worst = max(worst, gap)
            tally.add("bs sigma(t) out", gap < 1e-5)
    emit(f"  sigma(t) down-out, 6 BS chains (4 calls), vs per-slice "
         f"joint-lattice DP: worst gap {worst:.2e}")

    slope = float(rng.uniform(0.5, 3.0))
    with tally.check("kou sigma(t) out"):
        params = reference_option("kou", "finite-down-out").config.model_params
        model = sigma_t(build_named_model("kou", params), lambda t: 1.0 + slope * t)
        grid = build_grid(math.log(20.0), math.log(400.0), math.log(90.0),
                          math.log(95.0), 32, "proportional")
        c_out = ContractSpec(
            payoff=american_call(float(rng.uniform(90.0, 110.0))), barrier=90.0,
            window=1.0 / 12.0, maturity=0.25, rate=float(rng.uniform(0.01, 0.1)),
            flavor=Flavor.DOWN_OUT,
        )
        gap = time_dependent(model, grid, c_out, 1.0 / 24.0, 1.0 / 24.0)
        tally.add("kou sigma(t) out", gap < 1e-5)
        ladder = build_ladder(c_out.window, 1.0 / 24.0, grid.n_states, grid.n_below)
        gen = build_generator(model, grid, 0.0, resolve_rate_policy(None, model))
        form = _ReducedLadderOps(gen, ladder, c_out.rate, dt=1.0 / 24.0).form
        emit(f"  sigma(t) reduced down-out, kou chain and call ({form} form), vs "
             f"per-slice joint-lattice DP: gap {gap:.2e}")

    _verify_bounds(tally, emit)
    return tally


def _verify_bounds(tally: _Tally, emit) -> None:
    """The "bounds" group of the ``dp`` suite: on the 65-state chains of the
    BS and Kou perpetual down-in blocks, with their call, each finite price
    (the down-in's vanilla leg discounted from exercise, the down-out on the
    perpetual down-out block's duration tick, so the Kou one on the
    separable form) is at most the perpetual one, does not fall as the
    maturity grows over 0.5, 1, 2 and 5 years, and it and the perpetual are
    at most the vanilla American on the same chain and clock, discounted at
    r.  Each bound is one check, on every state at time 0.  The down-in
    under "activation" at 10 years is reported beside the perpetual vanilla
    American, ungated: that convention does not discount the vanilla leg
    after activation, and exceeds it."""

    dt, maturities = 1.0 / 40.0, (0.5, 1.0, 2.0, 5.0)
    for family in ("bs", "kou"):
        cfg = reference_option(family, "perpetual-down-in").config
        dtick = reference_option(family, "perpetual-down-out").config.dd
        model = build_named_model(family, cfg.model_params)
        state = lambda p: float(np.asarray(model.state_of_price(p)))
        grid = build_grid(state(cfg.lo), state(cfg.hi), state(cfg.barrier),
                          state(cfg.strike), 64, cfg.split)
        gen = build_generator(model, grid, 0.0, resolve_rate_policy(cfg.rate_policy, model))
        N = grid.n_states
        perpetual = ContractSpec(
            payoff=american_call(cfg.strike), barrier=cfg.barrier, window=cfg.window,
            maturity=math.inf, rate=cfg.rate, flavor=Flavor.DOWN_IN,
        )
        f = perpetual.payoff_states(model, grid.states)
        vanilla = vanilla_american_perpetual(gen, f, cfg.rate)
        tol = 1e-12 * float(np.max(vanilla))
        spot = int(np.argmin(np.abs(grid.states - state(cfg.spot))))
        for flavor in (Flavor.DOWN_IN, Flavor.DOWN_OUT):
            c = dataclasses.replace(perpetual, flavor=flavor)
            down_in = flavor is Flavor.DOWN_IN
            kw = {} if down_in else dict(dtick=dtick)
            kind = "down-in (exercise)" if down_in else "down-out"
            with tally.check("bounds"):
                perp = price(model, grid, c, gen=gen, **kw).values[0, :N]
                finite, ok_van = [], np.all(perp <= vanilla + tol)
                for T in maturities:
                    cT = dataclasses.replace(c, maturity=T)
                    if down_in:
                        res = price(model, grid, cT, dt=dt, gen=gen,
                                    vanilla_discounting="exercise")
                        van = res.vanilla[0]
                    else:
                        res = price(model, grid, cT, dt=dt, gen=gen, **kw)
                        n = len(TimeGrid(dt=dt, horizon=T).times)
                        van = american_surface(
                            [gen] * n, lambda g: slice_operator(g, 1.0 + cfg.rate * dt, dt),
                            [f] * n)[0]
                    finite.append(res.values[0, :N])
                    ok_van &= np.all(finite[-1] <= van + tol)
                ok_perp = all(np.all(v <= perp + tol) for v in finite)
                ok_rise = all(np.all(b >= a - tol) for a, b in zip(finite, finite[1:]))
                for ok in (ok_perp, ok_rise, ok_van):
                    tally.add("bounds", bool(ok))
                if not down_in:
                    ladder = build_ladder(c.window, dtick, N, grid.n_below)
                    kind += f" ({_ReducedLadderOps(gen, ladder, c.rate, dt=dt).form} form)"
                verdict = ", ".join(f"{name} {'yes' if ok else 'NO'}" for name, ok in (
                    ("<= perpetual", ok_perp), ("rising", ok_rise), ("<= vanilla", ok_van)))
                emit(f"  bounds, {family} {kind} at spot: "
                     + ", ".join(f"{v[spot]:.3f}" for v in finite)
                     + f" at T = 0.5, 1, 2, 5; perpetual {perp[spot]:.3f}; {verdict}")
        act = price(model, grid, dataclasses.replace(perpetual, maturity=10.0), dt=dt,
                    gen=gen, vanilla_discounting="activation").values[0, spot]
        emit(f"  {family} down-in under activation at T = 10: {act:.3f}, against the "
             f"perpetual vanilla American {vanilla[spot]:.3f} (not gated)")


_VERIFY_SUITES = {"lcp": _verify_lcp, "kernels": _verify_kernels, "dp": _verify_dp}


def verify_groups(suite: str, seed: int = 0, emit=print) -> Dict[str, Tuple[int, int]]:
    """Run one oracle agreement suite; returns (checks, failures) per group
    of its checks.

    Groups: ``lcp`` -- "dense", "tridiagonal"; ``kernels`` -- "uniformized",
    "mean 800", "value iteration", "simulation"; ``dp`` -- "dense out",
    "dense in", "bs out", "bs in", "jump out", "bs sigma(t) out", "kou
    sigma(t) out", "bounds".
    """

    if suite not in _VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(_VERIFY_SUITES)}")
    emit(f"verify suite: {suite}")
    groups = dict(_VERIFY_SUITES[suite](seed, emit))
    checks = sum(c for c, _ in groups.values())
    failures = sum(f for _, f in groups.values())
    emit(f"{suite}: {checks - failures}/{checks} checks passed")
    return groups


def run_verify(suite: str, seed: int = 0, emit=print) -> int:
    """Run one oracle agreement suite; returns the number of failed checks."""

    return sum(f for _, f in verify_groups(suite, seed, emit).values())
