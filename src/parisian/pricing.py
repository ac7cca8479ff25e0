"""One pricing entry point for the four American Parisian contract classes.

``price`` reads the class from the contract's flavor and maturity, and calls
that class's ``price_perpetual_*`` or ``price_finite_*`` pricer by its
module-level name.
"""

from __future__ import annotations

from typing import Optional

from .ctmc import SpatialGrid, TimeGrid, resolve_rate_policy
from .models import ModelSpec
from .pricer_downin import ContractSpec, Flavor, PriceSurface
from .pricer_downin import price_finite_downin, price_perpetual_downin
from .pricer_downout import price_finite_downout, price_perpetual_downout


def price(model: ModelSpec, grid: SpatialGrid, contract: ContractSpec, *,
          dt: Optional[float] = None, dtick: Optional[float] = None,
          rate_policy: Optional[str] = None, gen=None,
          vanilla_discounting: Optional[str] = None) -> PriceSurface:
    """Price ``contract`` on ``grid`` under ``model``.

    A finite contract runs on the clock lattice of step ``dt`` up to its
    maturity, a down-out on the duration ladder of tick ``dtick``.  The
    generators use ``rate_policy`` (see ``resolve_rate_policy``) unless
    ``gen`` gives them: one generator or plain rate matrix, or one per clock
    slice of a finite contract.  ``vanilla_discounting`` is a finite
    down-in's term (see ``price_finite_downin``).  ValueError for a ``grid``
    that is not a ``SpatialGrid``, a missing ``dt`` or ``dtick``, a ``gen``
    that does not fit ``grid`` or is listed for a perpetual contract (both
    ``ctmc.slice_generators``'s checks), or a ``vanilla_discounting`` given
    to another class.
    """

    if not isinstance(grid, SpatialGrid):
        raise ValueError(f"grid must be a SpatialGrid, got {type(grid).__name__}")
    down_in = contract.flavor is Flavor.DOWN_IN
    if vanilla_discounting is not None and (contract.is_perpetual or not down_in):
        raise ValueError("vanilla_discounting is a term of a finite down-in only")
    policy = resolve_rate_policy(rate_policy, model)
    if contract.is_perpetual:
        if down_in:
            return price_perpetual_downin(model, grid, contract, gen, policy)
        return price_perpetual_downout(model, grid, contract, dtick, gen, policy)
    timegrid = TimeGrid(dt=dt, horizon=contract.maturity)
    if down_in:
        if vanilla_discounting is None:
            vanilla_discounting = "activation"  # price_finite_downin's default
        return price_finite_downin(model, grid, timegrid, contract, gen, policy,
                                   vanilla_discounting)
    return price_finite_downout(model, grid, timegrid, contract, dtick, gen, policy)
