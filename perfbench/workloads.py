"""The benchmark's three workloads and their per-contract checks.

Each workload is a fixed set of contracts; a pass prices every contract once,
in an order drawn from the workload seed.  The published reference tables
fix the contract set.  Why each workload exists:

* ``bs-tables``: the paper's convergence workflow for the four Black-Scholes
  blocks (five grids each, Richardson extrapolation, graded acceptance
  cells).  Tridiagonal chains: sparse policy iteration dominates and jump
  assembly is absent, so it bypasses assembly work.
* ``jump-finest``: the eight Kou / VG blocks priced once at their finest
  grid.  Dense jump chains: dense policy solves on the reduced ladder and
  generator assembly dominate.
* ``term-structure``: a time-inhomogeneous volatility sigma(t) =
  sigma0 (1 + t/2) on three finite contracts.  Every clock slice assembles a
  fresh generator and operator, so per-operator set-up is never reused; work
  moved into per-operator set-up shows here as a loss.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from parisian import bench_cli, ctmc, pricer_downin, pricer_downout
from parisian.models import Coordinate, KouParams, ModelSpec, kou_jump_measure

CLASSES = ("perp_downin", "perp_downout", "finite_downin", "finite_downout")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# "prices stay put": allowed relative drift from a recorded price
PRICE_RTOL = 1e-10

# grid sizes used by the smoke mode (self-test): every route, tiny grids
SMOKE_STUDY_GRIDS = (25, 33)
SMOKE_N = 49
SMOKE_TS_N = 33

# term-structure contracts: (model family, reference block, grid size);
# Kou finite down-in is left out because it needs ~36 s at its coarsest grid
TERM_STRUCTURE = (
    ("bs", "finite-down-in", 177),
    ("bs", "finite-down-out", 265),
    ("kou", "finite-down-out", 529),
)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One priced contract: its prices, accuracy and failure reason."""

    prices: Tuple[float, ...]
    rel_err: float
    problem: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class Contract:
    id: str
    cls: str
    run: Callable[[], Outcome]


def contract_class(cfg: bench_cli.StudyConfig) -> str:
    flavor = cfg.flavor.replace("-", "")
    return ("perp_" if math.isinf(cfg.maturity) else "finite_") + flavor


def load_reference() -> Dict[str, Dict[str, dict]]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# bs-tables
# ---------------------------------------------------------------------------


def _study(opt: bench_cli.ReferenceOption, smoke: bool) -> Callable[[], Outcome]:
    cfg = opt.config
    if smoke:
        cfg = dataclasses.replace(cfg, grids=SMOKE_STUDY_GRIDS)

    def run() -> Outcome:
        rows = bench_cli.run_study(cfg)
        broken = [f"n={r.n}: {r.error}" for r in rows if r.error]
        if broken:
            return Outcome((), math.inf, "; ".join(broken))
        prices = tuple(r.price for r in rows)
        rel_err = rows[-1].rel_error
        if smoke:
            return Outcome(prices, rel_err)
        checks = [bench_cli._evaluate_cell(cell, rows) for cell in opt.acceptance]
        failed = [f"{c.label}: {c.detail}" for c in checks if not c.passed]
        return Outcome(prices, rel_err, "; ".join(failed) or None)

    return run


def _bs_tables(smoke: bool) -> List[Contract]:
    return [
        Contract(f"bs/{opt.key}", contract_class(opt.config), _study(opt, smoke))
        for opt in bench_cli.REFERENCE_TABLES["bs"]
    ]


# ---------------------------------------------------------------------------
# jump-finest
# ---------------------------------------------------------------------------


def _finest(opt, recorded: Optional[float], smoke: bool) -> Callable[[], Outcome]:
    cfg = opt.config
    n = SMOKE_N if smoke else cfg.grids[-1]
    benchmark = cfg.benchmark
    gate = next(
        (c.tol for c in opt.acceptance if c.kind == "raw" and c.n == n), None
    )

    def run() -> Outcome:
        price = bench_cli.price_point(cfg, n).value
        rel_err = abs(price - benchmark) / abs(benchmark)
        if smoke:
            return Outcome((price,), rel_err)
        if gate is not None:
            limit, what = gate, "acceptance tolerance"
        else:
            limit = abs(recorded - benchmark) / abs(benchmark) + PRICE_RTOL
            what = "recorded error"
        problem = None
        if rel_err > limit:
            problem = f"rel err {rel_err:.6e} worse than {what} {limit:.6e}"
        return Outcome((price,), rel_err, problem)

    return run


def _jump_finest(smoke: bool) -> List[Contract]:
    records = {} if smoke else load_reference()["jump-finest"]
    contracts = []
    for model in ("kou", "vg"):
        for opt in bench_cli.REFERENCE_TABLES[model]:
            cid = f"{model}/{opt.key}"
            recorded = None if smoke else records[cid]["price"]
            contracts.append(
                Contract(cid, contract_class(opt.config), _finest(opt, recorded, smoke))
            )
    return contracts


# ---------------------------------------------------------------------------
# term-structure
# ---------------------------------------------------------------------------


def _sigma_t(sigma0: float) -> Callable[[float], float]:
    return lambda t: sigma0 * (1.0 + 0.5 * t)


def bs_term_structure(r_f: float, dividend: float, sigma: float) -> ModelSpec:
    """Black-Scholes with sigma(t) = sigma (1 + t/2), price coordinates."""

    sig = _sigma_t(sigma)

    def drift(t, x):
        return (r_f - dividend) * np.asarray(x, dtype=float)

    def diffusion_sq(t, x):
        return (sig(t) * np.asarray(x, dtype=float)) ** 2

    return ModelSpec(
        drift=drift,
        diffusion_sq=diffusion_sq,
        jump_measure=None,
        coordinate=Coordinate.PRICE,
        time_homogeneous=False,
        name="bs-term-structure",
    )


def kou_term_structure(p: KouParams) -> ModelSpec:
    """Kou with diffusive sigma(t) = sigma (1 + t/2), log coordinates.

    Same drift convention as ``kou_model``: the SDE drift plus the truncated
    first moment of the jump measure.
    """

    sig = _sigma_t(p.sigma)
    jm = kou_jump_measure(p)
    zeta = (
        p.p_plus * p.eta_plus / (p.eta_plus - 1.0)
        + p.p_minus * p.eta_minus / (p.eta_minus + 1.0)
        - 1.0
    )
    base = p.r_f - p.dividend - p.lam * zeta
    compensator = float(jm.truncated_first_moment(0.0, 0.0, -np.inf, np.inf))

    def drift(t, x):
        return np.full_like(
            np.asarray(x, dtype=float), base - 0.5 * sig(t) ** 2 + compensator
        )

    def diffusion_sq(t, x):
        return np.full_like(np.asarray(x, dtype=float), sig(t) ** 2)

    return ModelSpec(
        drift=drift,
        diffusion_sq=diffusion_sq,
        jump_measure=jm,
        coordinate=Coordinate.LOG,
        time_homogeneous=False,
        name="kou-term-structure",
    )


def _term_model(family: str, params) -> ModelSpec:
    if family == "bs":
        return bs_term_structure(params["r_f"], params.get("dividend", 0.0), params["sigma"])
    return kou_term_structure(KouParams(**params))


def price_term_structure(family: str, key: str, n: int) -> float:
    """Price one term-structure contract on an ``n``-state grid."""

    cfg = bench_cli.reference_option(family, key).config
    model = _term_model(family, cfg.model_params)

    def state(price):
        return float(np.asarray(model.state_of_price(price)))

    grid = ctmc.build_grid(
        state(cfg.lo), state(cfg.hi), state(cfg.barrier), state(cfg.strike),
        n - 1, cfg.split,
    )
    Flavor = pricer_downin.Flavor
    flavor = Flavor.DOWN_IN if cfg.flavor == "down-in" else Flavor.DOWN_OUT
    contract = pricer_downin.ContractSpec(
        payoff=pricer_downin.american_call(cfg.strike),
        barrier=cfg.barrier,
        window=cfg.window,
        maturity=cfg.maturity,
        rate=cfg.rate,
        flavor=flavor,
    )
    timegrid = ctmc.TimeGrid(dt=cfg.dt, horizon=cfg.maturity)
    policy = ctmc.resolve_rate_policy(cfg.rate_policy, model)
    if flavor is Flavor.DOWN_IN:
        res = pricer_downin.price_finite_downin(
            model, grid, timegrid, contract, rate_policy=policy
        )
    else:
        res = pricer_downout.price_finite_downout(
            model, grid, timegrid, contract, dtick=cfg.dd, rate_policy=policy
        )
    return float(res.value_at(cfg.spot))


def _term_contract(family, key, n, record, smoke) -> Callable[[], Outcome]:
    if smoke:
        n = SMOKE_TS_N

    def run() -> Outcome:
        price = price_term_structure(family, key, n)
        if smoke:
            return Outcome((price,), 0.0)
        fine = record["fine_price"]
        rel_err = abs(price - fine) / abs(fine)
        drift = abs(price - record["price"]) / abs(record["price"])
        problem = None
        if drift > PRICE_RTOL:
            problem = f"price moved {drift:.3e} relative from the recorded {record['price']!r}"
        return Outcome((price,), rel_err, problem)

    return run


def _term_structure(smoke: bool) -> List[Contract]:
    records = {} if smoke else load_reference()["term-structure"]
    contracts = []
    for family, key, n in TERM_STRUCTURE:
        cid = f"{family}/{key}"
        cls = contract_class(bench_cli.reference_option(family, key).config)
        contracts.append(
            Contract(cid, cls, _term_contract(family, key, n, records.get(cid), smoke))
        )
    return contracts


_CONTRACT_SETS = {
    "bs-tables": _bs_tables,
    "jump-finest": _jump_finest,
    "term-structure": _term_structure,
}
WORKLOADS = tuple(_CONTRACT_SETS)


def build(workload: str, smoke: bool = False) -> List[Contract]:
    """The workload's contracts, in their fixed canonical order."""

    return _CONTRACT_SETS[workload](smoke)
