"""Benchmark harness and command-line front end.

Single-price runs, convergence studies over the grid size with Richardson
extrapolation, side-by-side reproduction of the published benchmark tables,
CSV / plot-data emission, and the oracle verification suites.

CLI verbs: ``price``, ``study``, ``reproduce-table``, ``verify``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .ctmc import (
    SpatialGrid,
    TimeGrid,
    build_generator,
    build_grid,
    dump_generator_csv,
    resolve_rate_policy,
)
from .models import KouParams, ModelSpec, VGParams, bs_model, kou_model, vg_model
from .pricer_downin import (
    ContractSpec,
    FiniteDownInResult,
    Flavor,
    PerpetualDownInResult,
    american_call,
    parisian_transform,
    price_finite_downin,
    price_perpetual_downin,
    vanilla_american_perpetual,
)
from .pricer_downout import (
    FiniteDownOutResult,
    PerpetualDownOutResult,
    price_finite_downout,
    price_perpetual_downout,
)

__all__ = [
    "AcceptanceCell",
    "CellCheck",
    "OptionReport",
    "PriceOutcome",
    "REFERENCE_TABLES",
    "ReferenceOption",
    "StudyConfig",
    "StudyRow",
    "TableReport",
    "build_named_model",
    "bump_greeks",
    "load_config_file",
    "main",
    "observed_order",
    "price_point",
    "reference_option",
    "reproduce_table",
    "richardson",
    "run_study",
    "run_verify",
    "write_plot_csv",
    "write_study_csv",
    "write_surface_csv",
]

_log = logging.getLogger("parisian.bench")

STUDY_COLUMNS = [
    "Grid",
    "Benchmark",
    "CTMC",
    "Abs.Err.",
    "Rel.Err.",
    "Time/s",
    "Extra.",
    "Abs.Err.",
    "Rel.Err.",
]


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


def richardson(
    prices: Sequence[Tuple[float, float]], order: float = 2.0
) -> List[float]:
    """Pairwise extrapolation across consecutive grid sizes.

    Each adjacent pair (n1, p1), (n2, p2) yields
    ``(n2**q * p2 - n1**q * p1) / (n2**q - n1**q)`` with q = ``order``,
    cancelling an error term of that order in 1/n.
    """

    pts = [(float(n), float(p)) for n, p in prices]
    if len(pts) < 2:
        raise ValueError("need at least two (n, price) points")
    if order <= 0:
        raise ValueError("extrapolation order must be positive")
    out = []
    for (n1, p1), (n2, p2) in zip(pts, pts[1:]):
        if n1 == n2:
            raise ValueError("grid sizes in a pair must differ")
        w1, w2 = n1**order, n2**order
        out.append((w2 * p2 - w1 * p1) / (w2 - w1))
    return out


def observed_order(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(n), negated.

    ``points`` are (n, error) pairs with positive errors; the return value
    is the empirical convergence order.
    """

    pts = [(n, e) for n, e in points if e is not None and e > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two positive-error points")
    xs = np.log([n for n, _ in pts])
    ys = np.log([e for _, e in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

_MODEL_KEYS: Dict[str, Tuple[str, ...]] = {
    "bs": ("r_f", "dividend", "sigma"),
    "kou": (
        "sigma",
        "lam",
        "eta_plus",
        "eta_minus",
        "p_plus",
        "p_minus",
        "r_f",
        "dividend",
    ),
    "vg": ("sigma", "nu", "theta", "r_f", "dividend"),
}


def build_named_model(name: str, params: Mapping[str, float]) -> ModelSpec:
    """Instantiate one of the built-in model families from a flat mapping."""

    key = name.strip().lower()
    if key not in _MODEL_KEYS:
        raise ValueError(f"unknown model {name!r}; pick one of {sorted(_MODEL_KEYS)}")
    wanted = set(_MODEL_KEYS[key])
    given = {k: float(v) for k, v in params.items()}
    missing = wanted - set(given) - {"dividend"}  # dividend defaults to 0
    if missing:
        raise ValueError(f"model {key!r} missing parameters {sorted(missing)}")
    extra = set(given) - wanted
    if extra:
        raise ValueError(f"model {key!r} got unknown parameters {sorted(extra)}")
    given.setdefault("dividend", 0.0)
    if key == "bs":
        return bs_model(r_f=given["r_f"], dividend=given["dividend"], sigma=given["sigma"])
    if key == "kou":
        return kou_model(KouParams(**given))
    return vg_model(VGParams(**given))


# ---------------------------------------------------------------------------
# study configuration
# ---------------------------------------------------------------------------

_CONFIG_ALIASES = {
    "ymin": "lo",
    "ymax": "hi",
    "out": "csv_out",
    "plot": "plot_out",
    "plot_data": "plot_out",
    "params": "model_params",
    "note": "benchmark_note",
    "dtick": "dd",
}

_FLOAT_FIELDS = (
    "spot",
    "strike",
    "barrier",
    "window",
    "rate",
    "dt",
    "dd",
    "lo",
    "hi",
    "benchmark",
    "order",
)


def _parse_maturity(value) -> float:
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("perpetual", "inf", "infinity"):
            return math.inf
        return float(text)
    return float(value)


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: model, contract, grid schedule, outputs."""

    model: str
    model_params: Mapping[str, float]
    flavor: str
    spot: float
    strike: float
    barrier: float
    window: float
    rate: float
    grids: Tuple[int, ...]
    maturity: float = math.inf
    dt: Optional[float] = None
    dd: Optional[float] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    split: str = "proportional"
    payoff: str = "call"
    rate_policy: Optional[str] = None
    benchmark: Optional[float] = None
    benchmark_note: str = ""
    self_benchmark: bool = False
    order: float = 2.0
    csv_out: Optional[str] = None
    plot_out: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "model", self.model.strip().lower())
        object.__setattr__(self, "model_params", dict(self.model_params))
        object.__setattr__(self, "grids", tuple(int(g) for g in self.grids))
        if self.model not in _MODEL_KEYS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.flavor not in ("down-in", "down-out"):
            raise ValueError("flavor must be 'down-in' or 'down-out'")
        if self.payoff not in ("call", "put"):
            raise ValueError("payoff must be 'call' or 'put'")
        if not self.grids:
            raise ValueError("grid list is empty")
        if any(g < 9 for g in self.grids):
            raise ValueError("grid sizes must be at least 9 states")
        if any(b <= a for a, b in zip(self.grids, self.grids[1:])):
            raise ValueError("grid list must be strictly increasing")
        for name in ("spot", "strike", "barrier", "window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        # a spot on or past the (absorbing) domain edge would be quoted at the
        # boundary state's value; the default domain always contains it
        if self.lo is not None and self.lo >= self.spot:
            raise ValueError(f"domain lower end {self.lo:g} must lie below the spot")
        if self.hi is not None and self.hi <= self.spot:
            raise ValueError(f"domain upper end {self.hi:g} must lie above the spot")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive (inf for perpetual)")
        if math.isfinite(self.maturity) and (self.dt is None or self.dt <= 0):
            raise ValueError("finite maturity requires a positive dt")
        if self.flavor == "down-out" and (self.dd is None or self.dd <= 0):
            raise ValueError("down-out contracts require a positive dd")
        if isinstance(self.split, str) and self.split not in ("proportional", "sqrt"):
            raise ValueError("split must be 'proportional' or 'sqrt'")
        if self.order <= 0:
            raise ValueError("extrapolation order must be positive")
        if self.self_benchmark and self.benchmark is not None:
            raise ValueError("give either a benchmark or self_benchmark, not both")

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "StudyConfig":
        """Build a config from a flat mapping (config file or CLI merge)."""

        params: Dict[str, float] = {}
        clean: Dict[str, object] = {}
        for raw_key, value in data.items():
            key = str(raw_key).strip().lower().replace("-", "_")
            if key.startswith("param."):
                params[key[len("param.") :]] = float(value)  # type: ignore[arg-type]
                continue
            key = _CONFIG_ALIASES.get(key, key)
            clean[key] = value
        nested = clean.pop("model_params", None)
        if nested is not None:
            if not isinstance(nested, Mapping):
                raise ValueError("model_params must be a mapping")
            params.update({str(k): float(v) for k, v in nested.items()})

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(clean) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")

        if "maturity" in clean:
            clean["maturity"] = _parse_maturity(clean["maturity"])
        if "grids" in clean:
            grids = clean["grids"]
            if isinstance(grids, str):
                grids = _parse_scalar(grids)
            if isinstance(grids, (int, float)):
                grids = [grids]
            clean["grids"] = tuple(int(g) for g in grids)  # type: ignore[union-attr]
        for name in _FLOAT_FIELDS:
            if clean.get(name) is not None:
                clean[name] = float(clean[name])  # type: ignore[arg-type]
        if "self_benchmark" in clean and isinstance(clean["self_benchmark"], str):
            clean["self_benchmark"] = clean["self_benchmark"].strip().lower() in (
                "1",
                "true",
                "yes",
            )
        return cls(model_params=params, **clean)  # type: ignore[arg-type]


@dataclass(frozen=True)
class StudyRow:
    """One study line: price and errors at a single grid size.

    Error fields stay ``None`` unless the study has a benchmark; a failed
    pricing run leaves ``price`` empty and stores the message in ``error``.
    """

    n: int
    price: Optional[float]
    abs_error: Optional[float]
    rel_error: Optional[float]
    seconds: Optional[float]
    extrapolated: Optional[float]
    extra_abs_error: Optional[float]
    extra_rel_error: Optional[float]
    error: str = ""


# ---------------------------------------------------------------------------
# pricing dispatch
# ---------------------------------------------------------------------------


def _american_put(strike: float):
    def payoff(s):
        return np.maximum(strike - np.asarray(s, dtype=float), 0.0)

    return payoff


def _domain_states(model: ModelSpec, cfg: StudyConfig) -> Tuple[float, float]:
    lo = cfg.lo if cfg.lo is not None else cfg.spot / 5.0
    hi = cfg.hi if cfg.hi is not None else 4.0 * cfg.spot
    if hi <= lo:
        raise ValueError("domain upper endpoint must exceed the lower one")
    with np.errstate(divide="ignore"):
        lo_s = float(np.asarray(model.state_of_price(lo)))
        hi_s = float(np.asarray(model.state_of_price(hi)))
    if not (math.isfinite(lo_s) and math.isfinite(hi_s)):
        raise ValueError(
            "domain endpoints must map to finite states "
            "(log-coordinate models need a positive lower endpoint)"
        )
    return lo_s, hi_s


@dataclass(frozen=True)
class PriceOutcome:
    """A priced contract: headline value plus the full result surface."""

    value: float
    result: object
    model: ModelSpec
    grid: SpatialGrid
    contract: ContractSpec


def price_point(cfg: StudyConfig, n: int) -> PriceOutcome:
    """Price the configured contract once on an ``n``-state grid."""

    model = build_named_model(cfg.model, cfg.model_params)
    lo_s, hi_s = _domain_states(model, cfg)
    barrier_s = float(np.asarray(model.state_of_price(cfg.barrier)))
    strike_s = float(np.asarray(model.state_of_price(cfg.strike)))
    grid = build_grid(lo_s, hi_s, barrier_s, strike_s, n - 1, cfg.split)
    payoff = american_call(cfg.strike) if cfg.payoff == "call" else _american_put(cfg.strike)
    flavor = Flavor.DOWN_IN if cfg.flavor == "down-in" else Flavor.DOWN_OUT
    contract = ContractSpec(
        payoff=payoff,
        barrier=cfg.barrier,
        window=cfg.window,
        maturity=cfg.maturity,
        rate=cfg.rate,
        flavor=flavor,
    )
    policy = resolve_rate_policy(cfg.rate_policy, model)

    if math.isinf(cfg.maturity):
        gen = build_generator(model, grid, 0.0, policy)
        if flavor is Flavor.DOWN_IN:
            res = price_perpetual_downin(gen, contract, model)
        else:
            res = price_perpetual_downout(gen, contract, model, dtick=cfg.dd)
    else:
        timegrid = TimeGrid(dt=cfg.dt, horizon=cfg.maturity)
        if flavor is Flavor.DOWN_IN:
            res = price_finite_downin(
                model, grid, timegrid, contract, rate_policy=policy
            )
        else:
            res = price_finite_downout(
                model, grid, timegrid, contract, dtick=cfg.dd,
                rate_policy=policy,
            )
    return PriceOutcome(
        value=float(res.value_at(cfg.spot)),
        result=res,
        model=model,
        grid=grid,
        contract=contract,
    )


def bump_greeks(
    outcome: PriceOutcome, spot: float, bump_rel: float = 0.01
) -> Tuple[float, float]:
    """Central-difference delta and gamma from the solved price surface.

    Re-reads the surface at bumped spots (no re-solve); the bump is
    ``bump_rel`` of spot and both bumped spots must map to states inside
    the grid (ValueError otherwise: the end states are absorbing).
    """

    if bump_rel <= 0:
        raise ValueError("bump must be positive")
    h = bump_rel * spot
    states = outcome.grid.states
    for bumped in (spot - h, spot + h):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = float(np.asarray(outcome.model.state_of_price(bumped)))
        if not states[0] <= x <= states[-1]:  # False for NaN and +-inf too
            raise ValueError(
                f"bumped spot {bumped:g} lies outside the grid; use a smaller bump"
            )
    value_at = outcome.result.value_at  # type: ignore[attr-defined]
    up = float(value_at(spot + h))
    mid = float(value_at(spot))
    down = float(value_at(spot - h))
    delta = (up - down) / (2.0 * h)
    gamma = (up - 2.0 * mid + down) / (h * h)
    return delta, gamma


# ---------------------------------------------------------------------------
# study runner
# ---------------------------------------------------------------------------


def _price_rows(cfg: StudyConfig, jobs: int):
    def timed(n: int):
        t0 = time.perf_counter()
        try:
            value = price_point(cfg, n).value
            return (n, value, time.perf_counter() - t0, "")
        except Exception as exc:  # the study must continue past bad rows
            _log.warning("grid %d failed: %s", n, exc)
            return (n, None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")

    if jobs <= 1:
        return [timed(n) for n in cfg.grids]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(timed, cfg.grids))


def run_study(cfg: StudyConfig, jobs: int = 1) -> List[StudyRow]:
    """Price every configured grid, extrapolate adjacent pairs, emit CSVs.

    Rows appear in input order regardless of ``jobs``; a row that raises is
    recorded with its message and the study continues.  With
    ``self_benchmark`` the finest grid's price stands in for the missing
    benchmark (its own error fields stay empty).
    """

    timed = _price_rows(cfg, jobs)
    benchmark = cfg.benchmark
    skip_error_ns = set()
    if cfg.self_benchmark:
        finest_n, finest_price = timed[-1][0], timed[-1][1]
        benchmark = finest_price
        skip_error_ns = {finest_n}

    rows: List[StudyRow] = []
    prev: Optional[Tuple[int, float]] = None
    for n, price, seconds, message in timed:
        extrapolated = None
        if price is not None and prev is not None:
            extrapolated = richardson([prev, (n, price)], cfg.order)[0]
        abs_err = rel_err = x_abs = x_rel = None
        if benchmark is not None and n not in skip_error_ns:
            scale = abs(benchmark)
            if price is not None:
                abs_err = abs(price - benchmark)
                rel_err = abs_err / scale
            if extrapolated is not None:
                x_abs = abs(extrapolated - benchmark)
                x_rel = x_abs / scale
        rows.append(
            StudyRow(
                n=n,
                price=price,
                abs_error=abs_err,
                rel_error=rel_err,
                seconds=seconds,
                extrapolated=extrapolated,
                extra_abs_error=x_abs,
                extra_rel_error=x_rel,
                error=message,
            )
        )
        prev = (n, price) if price is not None else None

    if cfg.csv_out:
        write_study_csv(rows, cfg.csv_out, benchmark)
    if cfg.plot_out:
        write_plot_csv(rows, cfg.plot_out)
    return rows


def _fmt(x: Optional[float], spec: str) -> str:
    return "" if x is None else format(x, spec)


def _fmt_pct(x: Optional[float]) -> str:
    return "" if x is None else format(100.0 * x, ".4f")


def write_study_csv(
    rows: Sequence[StudyRow], path, benchmark: Optional[float] = None
) -> None:
    """Study table as CSV; relative errors are percentages."""

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.n,
                    _fmt(benchmark, ".4f"),
                    _fmt(r.price, ".4f"),
                    _fmt(r.abs_error, ".4f"),
                    _fmt_pct(r.rel_error),
                    _fmt(r.seconds, ".3f"),
                    _fmt(r.extrapolated, ".4f"),
                    _fmt(r.extra_abs_error, ".4f"),
                    _fmt_pct(r.extra_rel_error),
                ]
            )


def write_plot_csv(rows: Sequence[StudyRow], path) -> None:
    """Data-only (n, error) series for external log-log plotting."""

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "error"])
        for r in rows:
            if r.abs_error is not None:
                writer.writerow([r.n, repr(r.abs_error)])


# ---------------------------------------------------------------------------
# price surfaces to CSV
# ---------------------------------------------------------------------------


def _ladder_rows(res, grid: SpatialGrid):
    ladder = res.ladder
    states = grid.states
    below_states = states[ladder.below]
    yield from ((0.0, x) for x in states)
    for level in range(1, ladder.n_ticks + 1):
        d = level * ladder.dtick
        yield from ((d, x) for x in below_states)


def write_surface_csv(outcome: PriceOutcome, path) -> None:
    """Dump the full price surface.

    Down-in surfaces use columns ``t,state,price``; down-out surfaces add
    the excursion-duration column: ``t,d,state,price``.  Perpetual
    contracts emit a single ``t=0`` slice.
    """

    res = outcome.result
    rate = outcome.contract.rate
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(res, PerpetualDownInResult):
            writer.writerow(["t", "state", "price"])
            for x, v in zip(res.grid.states, res.values):
                writer.writerow(["0.0", repr(float(x)), repr(float(v))])
        elif isinstance(res, FiniteDownInResult):
            writer.writerow(["t", "state", "price"])
            for j, t in enumerate(res.times):
                growth = math.exp(rate * float(t))  # stored slices are discounted
                for x, v in zip(res.grid.states, res.disc_values[j]):
                    writer.writerow(
                        [repr(float(t)), repr(float(x)), repr(float(v) * growth)]
                    )
        elif isinstance(res, PerpetualDownOutResult):
            writer.writerow(["t", "d", "state", "price"])
            for (d, x), v in zip(_ladder_rows(res, res.grid), res.values):
                writer.writerow(["0.0", repr(float(d)), repr(float(x)), repr(float(v))])
        elif isinstance(res, FiniteDownOutResult):
            writer.writerow(["t", "d", "state", "price"])
            for j, t in enumerate(res.times):
                for (d, x), v in zip(_ladder_rows(res, res.grid), res.values[j]):
                    writer.writerow(
                        [repr(float(t)), repr(float(d)), repr(float(x)), repr(float(v))]
                    )
        else:  # pragma: no cover - new result types must be wired up here
            raise TypeError(f"unknown result surface {type(res).__name__}")


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcceptanceCell:
    """A gated table cell: which row, which error, and its tolerance."""

    label: str
    kind: str  # "raw" or "extrapolated"
    n: int
    tol: float  # relative tolerance as a fraction
    fallback_half_raw: bool = False


@dataclass(frozen=True)
class ReferenceOption:
    """One published table block: study config plus per-grid reference row."""

    key: str
    config: StudyConfig
    published: Tuple[float, ...]
    acceptance: Tuple[AcceptanceCell, ...] = ()

    def __post_init__(self):
        if len(self.published) != len(self.config.grids):
            raise ValueError("published row must align with the grid list")


_NOTE = "published reference value"

_BS_PERP = {"r_f": 0.1, "dividend": 0.05, "sigma": 0.3}
_BS_FDI = {"r_f": 0.05, "dividend": 0.0, "sigma": 0.3}
_BS_FDO = {"r_f": 0.06, "dividend": 0.1, "sigma": 0.4}
_KOU = {
    "sigma": 0.3,
    "lam": 3.0,
    "eta_plus": 10.0,
    "eta_minus": 10.0,
    "p_plus": 0.5,
    "p_minus": 0.5,
    "r_f": 0.05,
    "dividend": 0.0,
}
_VG = {"sigma": 0.1213, "nu": 0.1686, "theta": -0.1436, "r_f": 0.05, "dividend": 0.0}

_STD = dict(spot=90.0, strike=95.0, barrier=90.0, window=1.0 / 12.0)


def _ref(key, params, model, grids, benchmark, published, acceptance=(), **kw):
    contract = dict(_STD)
    contract.update(kw.pop("contract", {}))
    cfg = StudyConfig(
        model=model,
        model_params=params,
        grids=tuple(grids),
        benchmark=benchmark,
        benchmark_note=_NOTE,
        **contract,
        **kw,
    )
    return ReferenceOption(
        key=key, config=cfg, published=tuple(published), acceptance=tuple(acceptance)
    )


REFERENCE_TABLES: Dict[str, Tuple[ReferenceOption, ...]] = {
    "bs": (
        _ref(
            "perpetual-down-in",
            _BS_PERP,
            "bs",
            (129, 161, 193, 225, 257),
            26.3239,
            (25.9747, 26.0946, 26.1658, 26.2087, 26.2346),
            acceptance=(
                AcceptanceCell("raw n=257", "raw", 257, 0.006),
                AcceptanceCell("extrapolated (225,257)", "extrapolated", 257, 0.0015),
            ),
            flavor="down-in",
            rate=0.1,
            lo=0.0,
            hi=720.0,
            split="sqrt",
        ),
        _ref(
            "perpetual-down-out",
            _BS_PERP,
            "bs",
            (661, 793, 925, 1057, 1189),
            10.3882,
            (10.4574, 10.4341, 10.4217, 10.4137, 10.4083),
            acceptance=(
                AcceptanceCell("raw n=1189", "raw", 1189, 0.004),
                AcceptanceCell("extrapolated (1057,1189)", "extrapolated", 1189, 0.001),
            ),
            flavor="down-out",
            rate=0.1,
            dd=1.0 / 120.0,
            lo=0.0,
            hi=720.0,
            split="sqrt",
        ),
        _ref(
            "finite-down-in",
            _BS_FDI,
            "bs",
            (177, 193, 209, 225, 241),
            3.3483,
            (3.3169, 3.3230, 3.3275, 3.3309, 3.3333),
            acceptance=(
                AcceptanceCell("raw n=241", "raw", 241, 0.010),
                AcceptanceCell("extrapolated (225,241)", "extrapolated", 241, 0.003),
            ),
            flavor="down-in",
            rate=0.05,
            maturity=1.0,
            dt=1.0 / 60.0,
            lo=18.0,
            hi=360.0,
        ),
        _ref(
            "finite-down-out",
            _BS_FDO,
            "bs",
            (265, 397, 529, 661, 793),
            13.5126,
            (13.6015, 13.5501, 13.5332, 13.5256, 13.5216),
            acceptance=(
                AcceptanceCell("raw n=793", "raw", 793, 0.002),
                AcceptanceCell("extrapolated (661,793)", "extrapolated", 793, 0.0005),
            ),
            flavor="down-out",
            rate=0.06,
            maturity=1.0,
            dt=1.0 / 60.0,
            dd=1.0 / 150.0,
            lo=21.0,
            hi=420.0,
            contract=dict(spot=105.0, strike=100.0, barrier=95.0, window=1.0 / 15.0),
        ),
    ),
    "kou": (
        _ref(
            "perpetual-down-in",
            _KOU,
            "kou",
            (97, 129, 161, 193, 225),
            65.0695,
            (64.7315, 64.8809, 64.9492, 64.9862, 65.0085),
            acceptance=(AcceptanceCell("raw n=225", "raw", 225, 0.003),),
            flavor="down-in",
            rate=0.05,
            lo=9.0,
            hi=1440.0,
        ),
        _ref(
            "perpetual-down-out",
            _KOU,
            "kou",
            (397, 529, 661, 793, 925),
            15.3456,
            (15.6182, 15.4965, 15.4415, 15.4119, 15.3941),
            flavor="down-out",
            rate=0.05,
            dd=1.0 / 120.0,
            lo=9.0,
            hi=540.0,
        ),
        _ref(
            "finite-down-in",
            _KOU,
            "kou",
            (161, 177, 193, 209, 225),
            4.7907,
            (4.7502, 4.7583, 4.7642, 4.7685, 4.7716),
            flavor="down-in",
            rate=0.05,
            maturity=1.0,
            dt=1.0 / 60.0,
            lo=18.0,
            hi=360.0,
        ),
        _ref(
            "finite-down-out",
            _KOU,
            "kou",
            (529, 595, 661, 727, 793),
            9.0537,
            (9.1261, 9.1118, 9.1013, 9.0934, 9.0873),
            flavor="down-out",
            rate=0.05,
            maturity=1.0,
            dt=1.0 / 60.0,
            dd=1.0 / 120.0,
            lo=18.0,
            hi=360.0,
        ),
    ),
    "vg": (
        _ref(
            "perpetual-down-in",
            _VG,
            "vg",
            (353, 385, 417, 449, 481),
            52.4163,
            (52.5464, 52.5314, 52.5183, 52.5070, 52.4972),
            flavor="down-in",
            rate=0.05,
            lo=9.0,
            hi=450.0,
        ),
        _ref(
            "perpetual-down-out",
            _VG,
            "vg",
            (1849, 1915, 1981, 2047, 2113),
            20.7958,
            (20.7064, 20.7114, 20.7160, 20.7203, 20.7244),
            flavor="down-out",
            rate=0.05,
            dd=1.0 / 120.0,
            lo=9.0,
            hi=480.0,
        ),
        _ref(
            "finite-down-in",
            _VG,
            "vg",
            (353, 385, 417, 449, 481),
            1.1137,
            (1.0847, 1.0877, 1.0901, 1.0921, 1.0938),
            flavor="down-in",
            rate=0.05,
            maturity=1.0,
            dt=1.0 / 60.0,
            lo=18.0,
            hi=360.0,
        ),
        _ref(
            "finite-down-out",
            _VG,
            "vg",
            (1123, 1189, 1255, 1321, 1387),
            3.5011,
            (3.8158, 3.7957, 3.7777, 3.7614, 3.7467),
            acceptance=(
                AcceptanceCell(
                    "extrapolated (1321,1387)",
                    "extrapolated",
                    1387,
                    0.010,
                    fallback_half_raw=True,
                ),
            ),
            flavor="down-out",
            rate=0.05,
            maturity=1.0,
            dt=1.0 / 60.0,
            dd=1.0 / 120.0,
            lo=18.0,
            hi=360.0,
        ),
    ),
}


def reference_option(model: str, key: str) -> ReferenceOption:
    """Look up one configured table block, e.g. ('bs', 'perpetual-down-in')."""

    for opt in REFERENCE_TABLES[model.strip().lower()]:
        if opt.key == key:
            return opt
    raise KeyError(f"no table block {key!r} for model {model!r}")


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellCheck:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OptionReport:
    key: str
    config: StudyConfig
    published: Tuple[float, ...]
    rows: List[StudyRow]
    checks: List[CellCheck]


@dataclass(frozen=True)
class TableReport:
    name: str
    options: List[OptionReport]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for opt in self.options for c in opt.checks)

    def format(self) -> str:
        lines = [f"benchmark table: {self.name}", "=" * 64]
        for opt in self.options:
            cfg = opt.config
            lines.append("")
            lines.append(
                f"{opt.key}   benchmark {cfg.benchmark:.4f} ({cfg.benchmark_note})"
            )
            lines.append(
                f"{'Grid':>6} {'Reference':>11} {'CTMC':>11} {'Rel.Err.%':>10}"
                f" {'Extra.':>11} {'Rel.Err.%':>10} {'Time/s':>8}"
            )
            for row, ref in zip(opt.rows, opt.published):
                lines.append(
                    f"{row.n:>6} {ref:>11.4f} {_pad(row.price)} {_pad_pct(row.rel_error)}"
                    f" {_pad(row.extrapolated)} {_pad_pct(row.extra_rel_error)}"
                    f" {_pad(row.seconds, 8, '.2f')}"
                )
                if row.error:
                    lines.append(f"       !! {row.error}")
            for check in opt.checks:
                verdict = "PASS" if check.passed else "FAIL"
                lines.append(f"  [{verdict}] {check.label}: {check.detail}")
        gated = sum(len(opt.checks) for opt in self.options)
        passed = sum(c.passed for opt in self.options for c in opt.checks)
        lines.append("")
        lines.append(
            f"overall: {'PASS' if self.all_pass else 'FAIL'}"
            f" ({passed}/{gated} acceptance cells)"
        )
        return "\n".join(lines)


def _pad(x: Optional[float], width: int = 11, spec: str = ".4f") -> str:
    return " " * (width - 1) + "-" if x is None else format(x, f">{width}{spec}")


def _pad_pct(x: Optional[float], width: int = 10) -> str:
    return " " * (width - 1) + "-" if x is None else format(100.0 * x, f">{width}.4f")


def _evaluate_cell(
    cell: AcceptanceCell, rows: Sequence[StudyRow]
) -> CellCheck:
    row = next((r for r in rows if r.n == cell.n), None)
    if row is None:
        return CellCheck(cell.label, False, f"no row for n={cell.n}")
    err = row.rel_error if cell.kind == "raw" else row.extra_rel_error
    if err is None:
        why = row.error or "missing error value"
        return CellCheck(cell.label, False, f"unavailable ({why})")
    passed = err <= cell.tol
    detail = f"rel err {100 * err:.4f}% vs tol {100 * cell.tol:.2f}%"
    if not passed and cell.fallback_half_raw:
        raws = [r.rel_error for r in rows]
        decreasing = all(
            a is not None and b is not None and b < a for a, b in zip(raws, raws[1:])
        )
        halved = (
            row.rel_error is not None
            and row.extra_rel_error is not None
            and row.extra_rel_error <= 0.5 * row.rel_error
        )
        if decreasing and halved:
            passed = True
            detail += " (fallback: extrapolation halves a decreasing raw error)"
    return CellCheck(cell.label, passed, detail)


def reproduce_table(
    name: str, jobs: int = 1, out_dir: Optional[str] = None
) -> TableReport:
    """Recompute one model's benchmark table and grade its gated cells.

    Runs the four configured option studies, lines each up against the
    stored reference row, and evaluates the acceptance cells.  With
    ``out_dir`` the per-option study and plot CSVs are written there.
    """

    key = name.strip().lower()
    if key not in REFERENCE_TABLES:
        raise ValueError(f"unknown table {name!r}; pick one of {sorted(REFERENCE_TABLES)}")
    reports = []
    for opt in REFERENCE_TABLES[key]:
        cfg = opt.config
        if out_dir is not None:
            base = Path(out_dir)
            base.mkdir(parents=True, exist_ok=True)
            cfg = dataclasses.replace(
                cfg,
                csv_out=str(base / f"{key}-{opt.key}.csv"),
                plot_out=str(base / f"{key}-{opt.key}-plot.csv"),
            )
        _log.info("reproducing %s %s over grids %s", key, opt.key, cfg.grids)
        rows = run_study(cfg, jobs=jobs)
        checks = [_evaluate_cell(cell, rows) for cell in opt.acceptance]
        reports.append(
            OptionReport(
                key=opt.key,
                config=cfg,
                published=opt.published,
                rows=rows,
                checks=checks,
            )
        )
    return TableReport(name=key, options=reports)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _random_generator(n, rng, conservative=True, density=0.6, scale=3.0):
    R = rng.uniform(0.0, scale, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(R, 0.0)
    diag = -R.sum(axis=1)
    if not conservative:
        diag -= rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.3)
    np.fill_diagonal(R, diag)
    return R


def _verify_lcp(seed: int, emit) -> Tuple[int, int]:
    from scipy import sparse

    from .numerics import LCPOperator, LCPProblem, lemke_solve, policy_solve
    from .oracle import lcp_by_enumeration

    rng = np.random.default_rng(seed)
    solvers = {"pivoting": lemke_solve, "policy iteration": policy_solve}
    checks = failures = 0
    for kind, trials in (("dense", 200), ("tridiagonal", 100)):
        worst = dict.fromkeys(solvers, 0.0)
        for trial in range(trials):
            n = int(rng.integers(2, 9))
            if kind == "tridiagonal":  # an M-matrix held as its three bands
                A = np.diag(-rng.uniform(0.1, 3.0, size=n - 1), -1)
                A += np.diag(-rng.uniform(0.1, 3.0, size=n - 1), 1)
                A[np.diag_indices(n)] = -A.sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
            elif trial % 2 == 0:
                B = rng.normal(size=(n, n))
                A = B @ B.T + (0.2 + rng.uniform()) * n * np.eye(n)
            else:
                A = rng.normal(size=(n, n))
                A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 1.0, size=n))
            psi = rng.normal(scale=2.0, size=n)
            z_ref, _ = lcp_by_enumeration(A, psi)
            held = sparse.csc_matrix(A) if kind == "tridiagonal" else A
            problem = LCPProblem(LCPOperator(held), psi)
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
            checks += 1
            failures += not ok
        for name, gap in worst.items():
            emit(f"  {name} vs enumeration on {trials} random {kind} instances: "
                 f"worst gap {gap:.2e}")
    return checks, failures


def _verify_kernels(seed: int, emit) -> Tuple[int, int]:
    from scipy.linalg import expm
    from scipy.stats import poisson

    from .numerics import generator_expm
    from .oracle import UniformizedChain, simulate_paths, value_iterate_american

    rng = np.random.default_rng(seed)
    checks = failures = 0

    worst = 0.0
    for n in (5, 9, 14, 20):
        R = _random_generator(n, rng, conservative=bool(rng.integers(0, 2)))
        h = float(rng.uniform(0.3, 1.2))
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
        checks += 1
        failures += gap >= 1e-10
    emit(f"  uniformized kernels vs dense exponential: worst gap {worst:.2e}")

    # uniformization mean a = rate h = 800, past where e^{-a} underflows
    R = np.diag(np.full(7, 1.4), 1) + np.diag(np.full(7, 1.8), -1)
    np.fill_diagonal(R, -R.sum(axis=1) - 0.01)
    h = 800.0 / float(-R.diagonal().min())
    gap = float(np.max(np.abs(generator_expm(R, h) - expm(R * h))))
    checks += 1
    failures += gap >= 1e-10
    emit(f"  uniformized kernel at mean 800 vs dense exponential: gap {gap:.2e}")

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 41))
        R = _random_generator(n, rng, density=0.5, scale=2.0)
        f = rng.uniform(0.0, 5.0, size=n)
        r = float(rng.uniform(0.05, 0.3))
        v_impl = vanilla_american_perpetual(R, f, r)
        v_ora = value_iterate_american(
            UniformizedChain.from_generator(R), f, r, tol=1e-10
        )
        gap = float(np.max(np.abs(v_impl - v_ora)))
        worst = max(worst, gap)
        checks += 1
        failures += gap >= 1e-6
    emit(f"  stopping-problem solver vs value iteration: worst gap {worst:.2e}")

    n = 15
    R = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            R[i, i + 1] = 1.4
        if i - 1 >= 0:
            R[i, i - 1] = 1.8
    np.fill_diagonal(R, -R.sum(axis=1))
    below = np.arange(n) < 7
    window, rate = 0.2, 0.25
    H = parisian_transform(R, window, rate, below=below)
    for x0 in (8, 3):
        sim = simulate_paths(
            R, x0, window, rate, n_paths=1_000_000, rng_seed=seed + 2024 + x0,
            below=below, horizon=80.0,
        )
        gap = np.abs(sim.estimate - H[x0])
        scale = np.maximum(sim.std_error, 1e-12)
        ok = bool(np.all(gap <= 3.0 * scale))
        checks += 1
        failures += not ok
        emit(
            f"  excursion-trigger kernel row vs 1e6-path simulation (start {x0}): "
            f"max |gap|/s.e. {float(np.max(gap / scale)):.2f}"
        )
    return checks, failures


def _verify_dp(seed: int, emit) -> Tuple[int, int]:
    from .oracle import dp_parisian_lattice

    rng = np.random.default_rng(seed)
    carrier = bs_model(r_f=0.05, dividend=0.0, sigma=0.2)
    checks = failures = 0
    worst_out = worst_in = worst_bs = 0.0
    for trial in range(11):
        # instances 0-9: dense random chains and payoffs, both flavors;
        # instance 10: the carrier's own tridiagonal chain with a call struck
        # at or above the barrier, which takes the reduced down-out route
        bs_call = trial == 10
        n = int(rng.integers(8, 13))
        grid = build_grid(0.5, 4.0, 1.5, 2.0, n, "proportional")
        N = grid.n_states
        if bs_call:
            R = build_generator(carrier, grid)
        else:
            R = _random_generator(N, rng, conservative=bool(rng.integers(0, 2)))
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
        below = grid.states < 1.5 - 1e-12
        f = payoff(grid.states)
        timegrid = TimeGrid(dt=dt, horizon=horizon)

        c_out = ContractSpec(
            payoff=payoff, barrier=1.5, window=window, maturity=horizon,
            rate=rate, flavor=Flavor.DOWN_OUT,
        )
        res = price_finite_downout(
            carrier, grid, timegrid, c_out, dtick=dtick, gen=R
        )
        ora = dp_parisian_lattice(
            R, below, f, rate, dt, horizon, window, "down-out", dtick=dtick
        )
        gap = float(np.max(np.abs(res.values[:, : ora.shape[1]] - ora)))
        checks += 1
        failures += gap >= 1e-5
        if bs_call:
            worst_bs = gap
            continue
        worst_out = max(worst_out, gap)

        c_in = ContractSpec(
            payoff=payoff, barrier=1.5, window=window, maturity=horizon,
            rate=rate, flavor=Flavor.DOWN_IN,
        )
        res_in = price_finite_downin(carrier, grid, timegrid, c_in, gen=R)
        ora_in = dp_parisian_lattice(
            R, below, f, rate, dt, horizon, window, "down-in"
        )
        gap = float(np.max(np.abs(res_in.disc_values - ora_in)))
        worst_in = max(worst_in, gap)
        checks += 1
        failures += gap >= 1e-5
    emit(f"  down-out recursion vs joint-lattice DP: worst gap {worst_out:.2e}")
    emit(f"  down-in recursion vs renewal DP: worst gap {worst_in:.2e}")
    emit(f"  reduced down-out, BS chain and call, vs joint-lattice DP: gap {worst_bs:.2e}")
    return checks, failures


_VERIFY_SUITES = {"lcp": _verify_lcp, "kernels": _verify_kernels, "dp": _verify_dp}


def run_verify(suite: str, seed: int = 0, emit=print) -> int:
    """Run one oracle agreement suite; returns the number of failed checks."""

    if suite not in _VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {sorted(_VERIFY_SUITES)}")
    emit(f"verify suite: {suite}")
    checks, failures = _VERIFY_SUITES[suite](seed, emit)
    emit(f"{suite}: {checks - failures}/{checks} checks passed")
    return failures


# ---------------------------------------------------------------------------
# configuration files and CLI
# ---------------------------------------------------------------------------


def load_config_file(path) -> Dict[str, object]:
    """Read a config file: a JSON object or flat ``name = value`` lines."""

    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if data is not None:
        if not isinstance(data, dict):
            raise ValueError("JSON config must be an object")
        return data
    out: Dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want 'name = value'): {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        out[name] = _parse_scalar(value)
    return out


def _parse_scalar(text: str):
    if "," in text:
        return [_parse_scalar(part.strip()) for part in text.split(",")]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _collect_params(pairs: Optional[Sequence[str]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param wants name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name.strip()] = float(value)
    return out


_SHARED_KEYS = (
    "model",
    "flavor",
    "maturity",
    "spot",
    "strike",
    "barrier",
    "window",
    "rate",
    "dt",
    "dd",
    "lo",
    "hi",
    "split",
    "payoff",
    "rate_policy",
)


def _merge_config(args, extra_keys=()) -> Dict[str, object]:
    data: Dict[str, object] = {}
    if getattr(args, "config", None):
        data.update(load_config_file(args.config))
    for key in _SHARED_KEYS + tuple(extra_keys):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    params = _collect_params(getattr(args, "param", None))
    if params:
        nested: Dict[str, float] = {}
        for key in ("params", "model_params"):
            prior = data.pop(key, None)
            if isinstance(prior, Mapping):
                nested.update(prior)
        nested.update(params)
        data["model_params"] = nested
    return data


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file: JSON object or name=value lines")
    parser.add_argument("--model", choices=sorted(_MODEL_KEYS), help="model family")
    parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="model parameter (repeatable)",
    )
    parser.add_argument("--flavor", choices=["down-in", "down-out"])
    parser.add_argument("--maturity", help="'perpetual' or a time horizon")
    parser.add_argument("--spot", type=float)
    parser.add_argument("--strike", type=float)
    parser.add_argument("--barrier", type=float)
    parser.add_argument("--window", type=float, help="required excursion length")
    parser.add_argument("--rate", type=float, help="discount rate")
    parser.add_argument("--dt", type=float, help="clock step for finite maturities")
    parser.add_argument("--dd", type=float, help="excursion-duration step (down-out)")
    parser.add_argument("--ymin", dest="lo", type=float, help="domain lower endpoint (price units)")
    parser.add_argument("--ymax", dest="hi", type=float, help="domain upper endpoint (price units)")
    parser.add_argument("--split", choices=["proportional", "sqrt"])
    parser.add_argument("--payoff", choices=["call", "put"])
    parser.add_argument("--rate-policy", dest="rate_policy", help="negative-rate handling")


def _cmd_price(args) -> int:
    data = _merge_config(args)
    file_n = data.pop("n", None)
    n = args.n if args.n is not None else file_n
    if n is None:
        raise ValueError("price needs --n (grid size in states)")
    data.setdefault("grids", (int(n),))
    cfg = StudyConfig.from_mapping(data)
    outcome = price_point(cfg, int(n))
    print(f"price {outcome.value:.10g}")
    if args.greeks:
        delta, gamma = bump_greeks(outcome, cfg.spot, args.bump)
        print(f"delta {delta:.10g}")
        print(f"gamma {gamma:.10g}")
    if args.full_surface:
        write_surface_csv(outcome, args.full_surface)
        print(f"surface written to {args.full_surface}")
    if args.dump_generator:
        model = outcome.model
        policy = resolve_rate_policy(cfg.rate_policy, model)
        gen = build_generator(model, outcome.grid, 0.0, policy)
        dump_generator_csv(gen, args.dump_generator)
        print(f"generator written to {args.dump_generator}")
    return 0


def _cmd_study(args) -> int:
    data = _merge_config(
        args,
        extra_keys=(
            "grids",
            "benchmark",
            "benchmark_note",
            "order",
            "csv_out",
            "plot_out",
        ),
    )
    if args.self_benchmark:
        data["self_benchmark"] = True
    if isinstance(data.get("grids"), str):
        data["grids"] = _parse_scalar(data["grids"])  # "129,161" from the flag
    cfg = StudyConfig.from_mapping(data)
    rows = run_study(cfg, jobs=args.jobs)
    benchmark = cfg.benchmark
    if cfg.self_benchmark and rows and rows[-1].price is not None:
        benchmark = rows[-1].price
    header = " ".join(f"{c:>10}" for c in STUDY_COLUMNS)
    print(header)
    for r in rows:
        print(
            f"{r.n:>10} {_fmt(benchmark, '.4f'):>10} {_fmt(r.price, '.4f'):>10}"
            f" {_fmt(r.abs_error, '.4f'):>10} {_fmt_pct(r.rel_error):>10}"
            f" {_fmt(r.seconds, '.3f'):>10} {_fmt(r.extrapolated, '.4f'):>10}"
            f" {_fmt(r.extra_abs_error, '.4f'):>10} {_fmt_pct(r.extra_rel_error):>10}"
        )
        if r.error:
            print(f"           !! {r.error}")
    return 1 if any(r.error for r in rows) else 0


def _cmd_reproduce_table(args) -> int:
    ok = True
    for name in args.tables:
        report = reproduce_table(name, jobs=args.jobs, out_dir=args.out_dir)
        print(report.format())
        print()
        ok = ok and report.all_pass
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    failures = run_verify(args.suite, seed=args.seed)
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parisian",
        description=(
            "Price American-style Parisian barrier options on Markov-chain "
            "approximations; run convergence studies and verification suites."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_price = sub.add_parser("price", help="price one contract on one grid")
    _add_shared_flags(p_price)
    p_price.add_argument("--n", type=int, help="grid size (number of chain states)")
    p_price.add_argument("--greeks", action="store_true", help="print bump delta/gamma")
    p_price.add_argument(
        "--bump", type=float, default=0.01, help="relative spot bump for greeks"
    )
    p_price.add_argument("--full-surface", help="write the price surface CSV here")
    p_price.add_argument("--dump-generator", help="write generator entries (i,j,rate) here")
    p_price.set_defaults(handler=_cmd_price)

    p_study = sub.add_parser("study", help="convergence study over grid sizes")
    _add_shared_flags(p_study)
    p_study.add_argument("--grids", help="comma-separated grid sizes, e.g. 129,161,193")
    p_study.add_argument("--benchmark", type=float, help="reference value for error columns")
    p_study.add_argument(
        "--benchmark-note", dest="benchmark_note", help="label for the benchmark source"
    )
    p_study.add_argument(
        "--self-benchmark",
        dest="self_benchmark",
        action="store_true",
        help="use the finest grid's price as a pseudo-benchmark",
    )
    p_study.add_argument("--order", type=float, help="extrapolation order (default 2)")
    p_study.add_argument("--out", dest="csv_out", help="study table CSV path")
    p_study.add_argument("--plot-data", dest="plot_out", help="(n, error) series CSV path")
    p_study.add_argument("--jobs", type=int, default=1, help="concurrent grid rows")
    p_study.set_defaults(handler=_cmd_study)

    p_table = sub.add_parser(
        "reproduce-table", help="recompute published benchmark tables"
    )
    p_table.add_argument(
        "tables", nargs="+", metavar="table", choices=sorted(REFERENCE_TABLES)
    )
    p_table.add_argument("--jobs", type=int, default=1, help="concurrent grid rows")
    p_table.add_argument("--out-dir", help="write per-option study CSVs here")
    p_table.set_defaults(handler=_cmd_reproduce_table)

    p_verify = sub.add_parser("verify", help="run an oracle agreement suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(_VERIFY_SUITES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(handler=_cmd_verify)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return int(args.handler(args))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
