"""Model coefficient bundles: drift, squared diffusion and jump measure.

A model is described in a fixed coordinate (raw price or log price) by its
infinitesimal drift ``mu(t, x)``, squared diffusion ``sigma_sq(t, x)`` and an
optional jump measure.  The drift is stated in the truncated-compensator form:
the jump part of the generator is understood as

    integral of  g(x+z) - g(x) - z g'(x) 1{|z| <= 1}  against nu(t, x, dz)

so constructors for models given as plain SDEs fold the truncated first moment
of the jump measure into the drift.  The chain builder relies on this
convention when it converts drift and cell-integrated jump masses into rates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class Coordinate(enum.Enum):
    """Coordinate the state variable lives in."""

    PRICE = "price"
    LOG = "log"


@dataclass(frozen=True)
class JumpMeasure:
    """Cell-integrated view of a jump measure.

    All three callables take ``(t, x, a, b)`` with ``a < b`` (arrays allowed,
    broadcast elementwise; ``+-inf`` endpoints are fine) and integrate over the
    half-open interval ``[a, b)``:

    * ``interval_mass``             integral of nu(t, x, dz)
    * ``small_jump_second_moment``  integral of z^2 nu(t, x, dz)
    * ``truncated_first_moment``    integral of z 1{|z| <= 1} nu(t, x, dz)

    ``total_activity`` is the mass of the whole real line (may be ``inf``).

    ``time_homogeneous`` declares that the three callables ignore ``t``.  The
    generator assembly then builds the jump part of a time-dependent model
    (say, one with a volatility term structure) once per grid instead of
    once per clock slice.  It defaults to False because a measure cannot be
    checked for it: a wrong True silently prices every slice with the jumps
    of the first, while a wrong False only costs time.  ``kou_jump_measure``
    and ``vg_jump_measure`` set it.  ``jump_measure_from_density`` leaves it
    False: its density is an arbitrary callable that may read state changing
    between slices, which the builder cannot see.  A caller who knows the
    measure is fixed sets it with ``dataclasses.replace``.
    """

    interval_mass: Callable[..., np.ndarray]
    small_jump_second_moment: Callable[..., np.ndarray]
    truncated_first_moment: Callable[..., np.ndarray]
    total_activity: float
    time_homogeneous: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """Markov model in one spatial dimension.

    ``drift`` and ``diffusion_sq`` are vectorized over the state argument.
    ``rate_policy_hint`` names the nearest-neighbour rate construction the
    model needs ("central" where the diffusion dominates; pure-jump models ask
    for "upwind" because central drift differencing turns rates negative).
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion_sq: Callable[[float, np.ndarray], np.ndarray]
    jump_measure: Optional[JumpMeasure]
    coordinate: Coordinate
    time_homogeneous: bool = True
    name: str = "custom"
    rate_policy_hint: str = "central"

    def state_of_price(self, s):
        if self.coordinate is Coordinate.LOG:
            return np.log(s)
        return np.asarray(s, dtype=float)

    def price_of_state(self, x):
        if self.coordinate is Coordinate.LOG:
            return np.exp(x)
        return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KouParams:
    """Double-exponential jump diffusion parameters (log-price jumps)."""

    sigma: float
    lam: float
    eta_plus: float
    eta_minus: float
    p_plus: float
    p_minus: float
    r_f: float
    dividend: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0 or self.lam < 0:
            raise ValueError("sigma must be positive and lam nonnegative")
        if self.eta_plus <= 1.0:
            raise ValueError("eta_plus must exceed 1 for a finite price mean")
        if self.eta_minus <= 0:
            raise ValueError("eta_minus must be positive")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ValueError("p_plus + p_minus must equal 1")
        if self.p_plus < 0 or self.p_minus < 0:
            raise ValueError("jump direction probabilities must be nonnegative")


@dataclass(frozen=True)
class VGParams:
    """Variance gamma parameters."""

    sigma: float
    nu: float
    theta: float
    r_f: float
    dividend: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0 or self.nu <= 0:
            raise ValueError("sigma and nu must be positive")
        if 1.0 - self.theta * self.nu - 0.5 * self.sigma**2 * self.nu <= 0:
            raise ValueError(
                "martingale correction undefined: need "
                "1 - theta*nu - sigma^2*nu/2 > 0"
            )


# ---------------------------------------------------------------------------
# Black-Scholes
# ---------------------------------------------------------------------------


def bs_model(r_f: float, dividend: float, sigma: float) -> ModelSpec:
    """Geometric Brownian motion in raw price coordinates."""

    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def drift(t, x):
        return (r_f - dividend) * np.asarray(x, dtype=float)

    def diffusion_sq(t, x):
        return (sigma * np.asarray(x, dtype=float)) ** 2

    return ModelSpec(
        drift=drift,
        diffusion_sq=diffusion_sq,
        jump_measure=None,
        coordinate=Coordinate.PRICE,
        time_homogeneous=True,
        name="bs",
    )


# ---------------------------------------------------------------------------
# one-sided pieces shared by the measures
# ---------------------------------------------------------------------------


def _split(a, b, plus, minus):
    """plus(a+, b+) + minus(a-, b-): [a, b) cut at the origin into its part
    on z >= 0, [a+, b+), and its part on z < 0 mirrored onto z > 0,
    [a-, b-).  When every interval lies on one half-line, as a tail [z, inf)
    or (-inf, z) does, only that side is evaluated."""

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.all(a >= 0.0) and np.all(b >= 0.0):
        return plus(a, b)
    if np.all(a <= 0.0) and np.all(b <= 0.0):
        return minus(-b, -a)
    return (plus(np.maximum(a, 0.0), np.maximum(b, 0.0))
            + minus(-np.minimum(b, 0.0), -np.minimum(a, 0.0)))


def _unit_clamped(a, b):
    """[a, b) cut to the truncation window [-1, 1] of the first moment; an
    empty intersection becomes a zero-length interval."""

    a = np.maximum(np.asarray(a, dtype=float), -1.0)
    b = np.minimum(np.asarray(b, dtype=float), 1.0)
    return np.minimum(a, b), b


def _tail_difference(tail, a, b):
    """tail(a) - tail(b) for a tail integral that vanishes at +inf, where
    its closed form reads inf * 0."""

    def at(x):
        return np.where(np.isinf(x), 0.0, tail(x))

    return at(a) - at(b)


# ---------------------------------------------------------------------------
# Kou double-exponential jump diffusion (log coordinates)
# ---------------------------------------------------------------------------


def kou_jump_measure(params: KouParams) -> JumpMeasure:
    """Closed-form cell integrals of the double-exponential jump density.

    Density: lam * (p+ eta+ e^{-eta+ z} 1{z>=0} + p- eta- e^{eta- z} 1{z<0}).
    Each side is the one-sided density eta e^{-eta z} on z > 0 (the negative
    side mirrored onto it), integrated over [a, b) with 0 <= a <= b.
    """

    lam, ep, em = params.lam, params.eta_plus, params.eta_minus
    wp, wm = lam * params.p_plus, lam * params.p_minus

    def _mass_side(eta, a, b):
        return np.exp(-eta * a) - np.exp(-eta * b)

    def _first_side(eta, a, b):
        # the tail integral of z eta e^{-eta z} from x is (x + 1/eta) e^{-eta x}
        return _tail_difference(lambda x: (x + 1.0 / eta) * np.exp(-eta * x), a, b)

    def _second_side(eta, a, b):
        return _tail_difference(
            lambda x: (x * x + 2.0 * x / eta + 2.0 / eta**2) * np.exp(-eta * x), a, b
        )

    def _weighted(a, b, side, wm=wm):
        return _split(a, b, lambda a, b: wp * side(ep, a, b),
                      lambda a, b: wm * side(em, a, b))

    def interval_mass(t, x, a, b):
        return _weighted(a, b, _mass_side)

    def second_moment(t, x, a, b):
        return _weighted(a, b, _second_side)

    def truncated_first(t, x, a, b):
        # z is odd: the mirrored negative side enters with a minus sign
        return _weighted(*_unit_clamped(a, b), _first_side, -wm)

    return JumpMeasure(
        interval_mass=interval_mass,
        small_jump_second_moment=second_moment,
        truncated_first_moment=truncated_first,
        total_activity=lam,
        time_homogeneous=True,
    )


def kou_model(params: KouParams) -> ModelSpec:
    """Kou jump diffusion in log-price coordinates."""

    p = params
    zeta = (
        p.p_plus * p.eta_plus / (p.eta_plus - 1.0)
        + p.p_minus * p.eta_minus / (p.eta_minus + 1.0)
        - 1.0
    )
    jm = kou_jump_measure(p)
    # stated SDE drift, plus the truncated first moment so that the drift is
    # in the same compensator convention as the generator assembly
    base = p.r_f - p.dividend - p.lam * zeta - 0.5 * p.sigma**2
    mu = base + float(jm.truncated_first_moment(0.0, 0.0, -np.inf, np.inf))

    def drift(t, x):
        return np.full_like(np.asarray(x, dtype=float), mu)

    def diffusion_sq(t, x):
        return np.full_like(np.asarray(x, dtype=float), p.sigma**2)

    return ModelSpec(
        drift=drift,
        diffusion_sq=diffusion_sq,
        jump_measure=jm,
        coordinate=Coordinate.LOG,
        time_homogeneous=True,
        name="kou",
    )


# ---------------------------------------------------------------------------
# Variance gamma (log coordinates, pure jump)
# ---------------------------------------------------------------------------


# E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)  (A&S 5.1.11):
# Euler's gamma and the coefficients of the first 20 terms
_EULER_GAMMA = 0.5772156649015329
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21))
# (lower edge, upper edge, depth) of the continued-fraction bands below 16
_E1_BANDS = ((1.0, 4.0, 100), (4.0, 16.0, 30))
_E1_FAR_EDGE, _E1_FAR_DEPTH = 16.0, 10


def _e1_series(x):
    """E1 on 0 <= x < 1 by its power series, summed in Horner form."""

    s = np.full(x.shape, _E1_SERIES[-1])
    for c in _E1_SERIES[-2::-1]:
        s *= x
        s += c
    s *= x
    with np.errstate(divide="ignore"):  # E1(0) = -ln 0 = inf
        s -= np.log(x)
    s -= _EULER_GAMMA
    return s


def _e1_fraction(x, depth):
    """E1 on x >= 1 by the continued fraction (A&S 5.1.22)

        E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))

    cut at ``depth`` levels and evaluated from the bottom up.  Overwrites
    ``x``, which must be a copy."""

    t = x + (2 * depth + 1)
    for k in range(depth - 1, -1, -1):
        np.divide((k + 1) ** 2, t, out=t)
        np.subtract(x, t, out=t)
        t += 2 * k + 1
    np.negative(x, out=x)
    np.exp(x, out=x)
    x /= t
    return x


def _e1(x):
    """The exponential integral E1(x) for x >= 0, elementwise.

    The series serves x < 1.  From 1 up the continued fraction converges
    faster as x grows, so it runs 100 levels deep on [1, 4), 30 on [4, 16)
    and 10 from 16 up.  The relative error is at most about 8e-16 against
    40-digit arithmetic, from 1e-300 to 690 and at each band edge.  E1(0) =
    inf, E1(inf) = 0, and E1 underflows to 0 beyond about 745, all without
    a warning.
    """

    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    bands = [(x < 1.0, None)]
    bands += [((x >= lo) & (x < hi), depth) for lo, hi, depth in _E1_BANDS]
    # the top band takes every argument the others leave: inf, and nan too
    bands.append((~(x < _E1_FAR_EDGE), _E1_FAR_DEPTH))
    for band, depth in bands:
        if band.any():
            y = x[band]
            out[band] = _e1_series(y) if depth is None else _e1_fraction(y, depth)
    return out


def vg_jump_measure(params: VGParams) -> JumpMeasure:
    """Cell integrals of the variance-gamma density via exponential integrals.

    The density is C e^{-lam_p z}/z for z > 0 and C e^{-lam_m |z|}/|z| for
    z < 0 with C = 1/nu; masses need the exponential integral E1, first and
    second moments are elementary.  E1 comes from ``_e1``: the power series
    (A&S 5.1.11) below 1, and above it the continued fraction (A&S 5.1.22),
    100 levels deep on [1, 4), 30 on [4, 16) and 10 beyond, within about
    8e-16 relative of 40-digit arithmetic.  A quadrature of the same density
    is kept in the test-suite as an independent check.
    """

    s2 = params.sigma**2
    C = 1.0 / params.nu
    root = math.sqrt(params.theta**2 + 2.0 * s2 / params.nu) / s2
    lam_p = root - params.theta / s2
    lam_m = root + params.theta / s2

    def _mass_side(lam, a, b):
        """Integral of e^{-lam z}/z over [a, b), 0 <= a <= b: E1(lam a) -
        E1(lam b), both from ``_e1`` (A&S 5.1.11 series below 1; A&S 5.1.22
        continued fraction 100, 30 and 10 levels deep on [1, 4), [4, 16) and
        from 16; at most about 8e-16 relative error).

        E1(0) = inf is the correct (infinite-activity) answer for cells
        touching the origin.  E1 runs only on nonempty intervals and finite
        b (E1(inf) = 0).  A tail [a, inf) has no upper term, and a call
        made only of live tails (every call ``ctmc.jump_part`` makes) is
        E1(lam a) as it stands, with no gather or scatter.
        """

        if np.ndim(b) == 0 and b == np.inf and np.all(a < b):
            return _e1(lam * a)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape)
        live = a < b
        upper = live & np.isfinite(b)
        out[live] = _e1(lam * a[live])
        if upper.any():
            out[upper] -= _e1(lam * b[upper])
        return out

    def _first_side(lam, a, b):
        return (np.exp(-lam * a) - np.exp(-lam * b)) / lam

    def _second_side(lam, a, b):
        return _tail_difference(
            lambda x: (1.0 + lam * x) * np.exp(-lam * x) / lam**2, a, b
        )

    def _weighted(a, b, side):
        return C * _split(a, b, lambda a, b: side(lam_p, a, b),
                          lambda a, b: side(lam_m, a, b))

    def interval_mass(t, x, a, b):
        return _weighted(a, b, _mass_side)

    def second_moment(t, x, a, b):
        return _weighted(a, b, _second_side)

    def truncated_first(t, x, a, b):
        return C * _split(*_unit_clamped(a, b), lambda a, b: _first_side(lam_p, a, b),
                          lambda a, b: -_first_side(lam_m, a, b))

    return JumpMeasure(
        interval_mass=interval_mass,
        small_jump_second_moment=second_moment,
        truncated_first_moment=truncated_first,
        total_activity=math.inf,
        time_homogeneous=True,
    )


def vg_model(params: VGParams) -> ModelSpec:
    """Variance gamma in log-price coordinates (no diffusion part)."""

    p = params
    omega = math.log(1.0 - p.theta * p.nu - 0.5 * p.sigma**2 * p.nu) / p.nu
    jm = vg_jump_measure(p)
    mu = (
        p.r_f
        - p.dividend
        + omega
        + float(jm.truncated_first_moment(0.0, 0.0, -np.inf, np.inf))
    )

    def drift(t, x):
        return np.full_like(np.asarray(x, dtype=float), mu)

    def diffusion_sq(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ModelSpec(
        drift=drift,
        diffusion_sq=diffusion_sq,
        jump_measure=jm,
        coordinate=Coordinate.LOG,
        time_homogeneous=True,
        name="vg",
        rate_policy_hint="upwind",
    )


# ---------------------------------------------------------------------------
# generic density-based measure (adaptive quadrature, split at the origin)
# ---------------------------------------------------------------------------


def jump_measure_from_density(
    density: Callable[[float], float],
    total_activity: float = math.nan,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> JumpMeasure:
    """Build a JumpMeasure from a scalar Levy density by adaptive quadrature.

    Integrals are split at the origin.  Intended for user-supplied models and
    as an independent cross-check of the closed forms; cell-by-cell quadrature
    is too slow for large production grids.
    """

    from scipy import integrate  # the one user of quadrature; loaded on demand

    def _quad(f, a, b):
        if a >= b:
            return 0.0
        pieces = []
        if a < 0.0 < b:
            pieces = [(a, 0.0), (0.0, b)]
        else:
            pieces = [(a, b)]
        out = 0.0
        for lo, hi in pieces:
            val, _ = integrate.quad(
                f, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=200
            )
            out += val
        return out

    def _vectorize(f):
        def call(t, x, a, b):
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            shape = np.broadcast_shapes(a.shape, b.shape)
            a = np.broadcast_to(a, shape).ravel()
            b = np.broadcast_to(b, shape).ravel()
            out = np.array([_quad(f, lo, hi) for lo, hi in zip(a, b)])
            return out.reshape(shape) if shape else float(out[0])

        return call

    mass = _vectorize(density)
    second = _vectorize(lambda z: z * z * density(z))

    def trunc_first(t, x, a, b):
        return _vectorize(lambda z: z * density(z))(t, x, *_unit_clamped(a, b))

    return JumpMeasure(
        interval_mass=mass,
        small_jump_second_moment=second,
        truncated_first_moment=trunc_first,
        total_activity=total_activity,
    )
