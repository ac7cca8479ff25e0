"""The one pricing entry point against the four pricers it dispatches to.

``price`` only routes: on every class it must return the surface of a direct
call to that class's pricer bit for bit, and it must name a grid that is not
a ``SpatialGrid``, a missing clock step or duration tick, a generator built
on another grid, a generator list for a perpetual contract, and a
discounting term given to the wrong class.
"""

import dataclasses
import math

import numpy as np
import pytest

from parisian import ctmc, price
from parisian.ctmc import TimeGrid, build_generator, build_grid, slice_generators
from parisian.models import bs_model
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    price_finite_downin,
    price_perpetual_downin,
)
from parisian.pricer_downout import price_finite_downout, price_perpetual_downout

BS = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
# sigma(t) = 0.3 (1 + t/2): a fresh generator every clock slice
BS_SIGMA_T = dataclasses.replace(
    BS,
    diffusion_sq=lambda t, x: (0.3 * (1 + t / 2) * np.asarray(x, dtype=float)) ** 2,
    time_homogeneous=False,
)
DT, DTICK, T = 1.0 / 24.0, 1.0 / 48.0, 0.5
PAYOFFS = {
    # the call vanishes below the barrier (reduced down-out route), the put
    # does not (stacked route)
    "call": american_call(95.0),
    "put": lambda s: np.maximum(95.0 - np.asarray(s, dtype=float), 0.0),
}


def small_grid(n=40):
    return build_grid(18.0, 360.0, 90.0, 95.0, n)


def contract(flavor, maturity=math.inf, payoff="call"):
    return ContractSpec(payoff=PAYOFFS[payoff], barrier=90.0, window=1.0 / 12.0,
                        maturity=maturity, rate=0.1, flavor=flavor)


def direct(model, grid, c, gen=None):
    """The branch for ``c``'s class, called by hand."""

    if c.is_perpetual:
        if c.flavor is Flavor.DOWN_IN:
            return price_perpetual_downin(model, grid, c, gen=gen)
        return price_perpetual_downout(model, grid, c, dtick=DTICK, gen=gen)
    timegrid = TimeGrid(dt=DT, horizon=c.maturity)
    if c.flavor is Flavor.DOWN_IN:
        return price_finite_downin(model, grid, timegrid, c, gen=gen)
    return price_finite_downout(model, grid, timegrid, c, dtick=DTICK, gen=gen)


def assert_same_surface(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.times.tobytes() == b.times.tobytes()
    if b.vanilla is not None:
        assert a.vanilla.tobytes() == b.vanilla.tobytes()
    assert a.ladder == b.ladder


@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
@pytest.mark.parametrize("maturity", [math.inf, T])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_price_is_the_branch_bit_for_bit(flavor, maturity, payoff):
    grid = small_grid()
    c = contract(flavor, maturity, payoff)
    got = price(BS, grid, c, dt=DT, dtick=DTICK)
    assert_same_surface(got, direct(BS, grid, c))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_finite_classes_on_a_time_dependent_model(flavor):
    grid = small_grid()
    c = contract(flavor, maturity=T)
    got = price(BS_SIGMA_T, grid, c, dt=DT, dtick=DTICK)
    assert_same_surface(got, direct(BS_SIGMA_T, grid, c))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_finite_classes_on_a_generator_list(flavor):
    grid = small_grid()
    c = contract(flavor, maturity=T)
    gens = slice_generators(BS_SIGMA_T, grid, TimeGrid(dt=DT, horizon=T).times)
    got = price(BS_SIGMA_T, grid, c, dt=DT, dtick=DTICK, gen=gens)
    assert_same_surface(got, direct(BS_SIGMA_T, grid, c, gen=gens))


def test_vanilla_discounting_reaches_the_finite_down_in():
    grid = small_grid()
    c = contract(Flavor.DOWN_IN, maturity=T)
    got = price(BS, grid, c, dt=DT, vanilla_discounting="exercise")
    ref = price_finite_downin(BS, grid, TimeGrid(dt=DT, horizon=T), c,
                              vanilla_discounting="exercise")
    assert_same_surface(got, ref)
    assert got.values.tobytes() != price(BS, grid, c, dt=DT).values.tobytes()


def test_missing_clock_step_or_duration_tick():
    grid = small_grid()
    for flavor in Flavor:
        with pytest.raises(ValueError, match="clock step dt"):
            price(BS, grid, contract(flavor, maturity=T), dtick=DTICK)
    for maturity in (math.inf, T):
        with pytest.raises(ValueError, match="duration tick dtick"):
            price(BS, grid, contract(Flavor.DOWN_OUT, maturity), dt=DT)


def test_vanilla_discounting_is_a_finite_down_in_term_only():
    grid = small_grid()
    for flavor, maturity in [(Flavor.DOWN_IN, math.inf), (Flavor.DOWN_OUT, math.inf),
                             (Flavor.DOWN_OUT, T)]:
        with pytest.raises(ValueError, match="vanilla_discounting"):
            price(BS, grid, contract(flavor, maturity), dt=DT, dtick=DTICK,
                  vanilla_discounting="exercise")


@pytest.mark.parametrize("maturity", [math.inf, T])
def test_generator_built_on_another_grid(maturity):
    # a 25-state generator under a 41-state grid: the perpetual down-out
    # would quote a 25-state surface, the finite one fail inside numpy
    grid, other = small_grid(40), small_grid(24)
    c = contract(Flavor.DOWN_OUT, maturity)
    gen = build_generator(BS, other)
    gens = [build_generator(BS, grid)] * int(T / DT) + [gen, build_generator(BS, grid)]
    for given in (gen, gens):
        with pytest.raises(ValueError, match="grid of 25 states.*grid of 41"):
            price(BS, grid, c, dt=DT, dtick=DTICK, gen=given)


@pytest.mark.parametrize("maturity", [math.inf, T])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_direct_call_checks_the_generator_against_the_grid(flavor, maturity):
    # two grids of 41 states: a direct pricer call once priced silently on
    # the other grid's generator, and only ``price`` checked it
    grid, other = small_grid(40), build_grid(30.0, 270.0, 90.0, 95.0, 40)
    assert other.n_states == grid.n_states
    c = contract(flavor, maturity)
    gen = build_generator(BS, other)
    for call in (direct, lambda *args, gen: price(*args, dt=DT, dtick=DTICK, gen=gen)):
        with pytest.raises(ValueError, match=r"state 0 is 30\.0, not the given grid's 18\.0"):
            call(BS, grid, c, gen=gen)


@pytest.mark.parametrize("maturity", [math.inf, T])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_plain_rate_matrix_of_another_size_is_named(flavor, maturity):
    # a 25 x 25 rate matrix under a 41-state grid once failed inside numpy
    grid = small_grid(40)
    rates = build_generator(BS, small_grid(24)).as_dense()
    c = contract(flavor, maturity)
    for call in (direct, lambda *args, gen: price(*args, dt=DT, dtick=DTICK, gen=gen)):
        with pytest.raises(ValueError, match=r"shape \(25, 25\), not one of the given "
                                             r"grid of 41 states"):
            call(BS, grid, c, gen=rates)


@pytest.mark.parametrize("maturity", [math.inf, T])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_grid_that_is_not_a_spatial_grid_is_named(flavor, maturity):
    # the generator check once read None.states
    c = contract(flavor, maturity)
    for grid in (None, small_grid().states):
        with pytest.raises(ValueError, match="grid must be a SpatialGrid"):
            price(BS, grid, c, dt=DT, dtick=DTICK)
    if maturity == T:  # the finite pricers take the grid straight
        timegrid = TimeGrid(dt=DT, horizon=T)
        with pytest.raises(ValueError, match="need a SpatialGrid"):
            if flavor is Flavor.DOWN_IN:
                price_finite_downin(BS, None, timegrid, c)
            else:
                price_finite_downout(BS, None, timegrid, c, DTICK)


@pytest.mark.parametrize("flavor", list(Flavor))
def test_plain_rate_matrix_has_no_grid_to_check(flavor):
    # a perpetual contract once raised "need a SpatialGrid" here: its pricer
    # read the grid off the generator, and a plain rate matrix has none
    grid = small_grid(40)
    rates = build_generator(BS, grid).as_dense()
    for maturity in (T, math.inf):
        c = contract(flavor, maturity)
        assert_same_surface(price(BS, grid, c, dt=DT, dtick=DTICK, gen=rates),
                            direct(BS, grid, c, gen=rates))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_perpetual_contract_takes_one_generator(flavor):
    grid = small_grid(40)
    gen = build_generator(BS, grid)
    for given in ([gen, gen], (gen,)):
        with pytest.raises(ValueError, match="perpetual contract takes one generator"):
            price(BS, grid, contract(flavor), dtick=DTICK, gen=given)


def test_missing_step_named_on_a_direct_call_before_any_assembly(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a generator was assembled before the check")

    monkeypatch.setattr(ctmc, "build_generator", no_assembly)
    grid = small_grid(40)
    with pytest.raises(ValueError, match="clock step dt must be"):
        TimeGrid(dt=None, horizon=T)
    with pytest.raises(ValueError, match="duration tick dtick must be"):
        price_finite_downout(BS, grid, TimeGrid(dt=DT, horizon=T),
                             contract(Flavor.DOWN_OUT, T), None)
    with pytest.raises(ValueError, match="duration tick dtick must be"):
        price_perpetual_downout(BS, grid, contract(Flavor.DOWN_OUT), None)


# each non-finite term the entry point was once handed, with what it did
# then: LAPACK's "singular free block" (rate), "cannot convert float NaN to
# integer" (window, dt, dtick), a horizon mismatch (maturity), RuntimeWarnings
# and "psi must be finite" (dt = inf), a price on a ladder that never ticks
# (dtick = inf)
NON_FINITE_TERMS = {
    "rate-nan": (dict(rate=math.nan), {}, "rate must be"),
    "window-nan": (dict(window=math.nan), {}, "window must be"),
    "maturity-nan": (dict(maturity=math.nan), {}, "maturity must be"),
    "dt-nan": ({}, dict(dt=math.nan), "clock step dt must be"),
    "dt-inf": ({}, dict(dt=math.inf), "clock step dt must be"),
    "dtick-nan": ({}, dict(dtick=math.nan), "duration tick dtick must be"),
    "dtick-inf": ({}, dict(dtick=math.inf), "duration tick dtick must be"),
}


@pytest.mark.parametrize("probe", sorted(NON_FINITE_TERMS))
def test_non_finite_term_is_named(probe):
    terms, clock, named = NON_FINITE_TERMS[probe]
    grid = small_grid(40)
    assert grid.n_states == 41
    # the rate on a perpetual down-out, every other term on a finite one
    maturity = math.inf if probe == "rate-nan" else T
    steps = dict(dt=DT, dtick=DTICK) | clock
    with pytest.raises(ValueError, match=named):
        c = dataclasses.replace(contract(Flavor.DOWN_OUT, maturity), **terms)
        price(BS, grid, c, **steps)


def test_perpetual_maturity_stays_valid():
    c = contract(Flavor.DOWN_OUT, math.inf)
    assert c.is_perpetual
    assert np.all(np.isfinite(price(BS, small_grid(40), c, dtick=DTICK).values))
