"""Down-out pricing: ladder bookkeeping, operators, and both solve routes."""

import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from parisian import bench_cli
from parisian.ctmc import (
    TimeGrid,
    build_generator,
    build_grid,
    rate_block,
    resolve_rate_policy,
    slice_generators,
    slice_operator,
)
from parisian.models import bs_model, kou_model, vg_model, KouParams, VGParams
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    vanilla_american_perpetual,
)
from parisian import pricer_downin, pricer_downout
from parisian.numerics import (
    LCPOperator,
    _Inverse,
    factor_dense,
    factor_tridiag,
    low_rank_factor,
    policy_solve,
    solve_dense,
)
from parisian.pricer_downout import (
    DurationLadder,
    _ReducedLadderOps,
    _reduced,
    _stacked,
    build_ladder,
    duration_generator,
    price_finite_downout,
    price_perpetual_downout,
)


def small_bs_setup(n=48, sigma=0.3, rate=0.1, dividend=0.05):
    model = bs_model(r_f=rate, dividend=dividend, sigma=sigma)
    grid = build_grid(10.0, 360.0, 90.0, 95.0, n, "proportional")
    gen = build_generator(model, grid, 0.0, "error")
    return model, grid, gen


def small_kou_setup(n=40):
    model = kou_model(KouParams(sigma=0.3, lam=3.0, eta_plus=10.0,
                                eta_minus=10.0, p_plus=0.5, p_minus=0.5,
                                r_f=0.05, dividend=0.0))
    grid = build_grid(math.log(20.0), math.log(400.0), math.log(90.0),
                      math.log(95.0), n, "proportional")
    gen = build_generator(model, grid, 0.0, "error")
    return model, grid, gen


def small_vg_setup(n=64):
    model = vg_model(VGParams(sigma=0.1213, nu=0.1686, theta=-0.1436,
                              r_f=0.05, dividend=0.0))
    grid = build_grid(math.log(9.0), math.log(480.0), math.log(90.0),
                      math.log(95.0), n, "proportional")
    gen = build_generator(model, grid, 0.0, "upwind")
    return model, grid, gen


def kou_sigma_t(model):
    """The Kou model with a diffusive volatility that grows in time."""
    return dataclasses.replace(
        model, time_homogeneous=False,
        diffusion_sq=lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                               (0.3 * (1 + t / 2)) ** 2))


def jump_chains(n=64):
    """(name, generator, grid): the Kou and VG chains, and the first and
    last slice of a Kou chain with sigma(t)."""
    out = []
    for name, setup in (("kou", small_kou_setup), ("vg", small_vg_setup)):
        model, grid, gen = setup(n=n)
        out.append((name, gen, grid))
    model, grid, _ = small_kou_setup(n=n)
    tg = TimeGrid(dt=1 / 12, horizon=0.5)
    gens = slice_generators(kou_sigma_t(model), grid, tg.times)
    out += [("kou sigma(t) first", gens[0], grid),
            ("kou sigma(t) last", gens[-1], grid)]
    return out


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path (it is not a package)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name]


def contract(flavor, window=1 / 12, maturity=math.inf, rate=0.1, strike=95.0):
    return ContractSpec(payoff=american_call(strike), barrier=90.0,
                        window=window, maturity=maturity, rate=rate,
                        flavor=flavor)


def route_inputs(model, grid, c, dtick):
    """(ladder, payoff on the states): what the private routes take."""
    return (build_ladder(c.window, dtick, grid.n_states, grid.n_below),
            c.payoff_states(model, grid.states))


def perpetual(route, gen, ladder, f0, rate):
    """A route run as the perpetual one-slice case: row 0, ``dt=None``."""
    return route([gen, gen], ladder, f0, rate, None)[0]


# ---------------------------------------------------------------------------
# ladder bookkeeping
# ---------------------------------------------------------------------------


class TestDurationLadder:
    def test_tick_count_covers_window(self):
        # exact divisor: 10 live ticks inside the window plus the first one past
        lad = build_ladder(1 / 12, 1 / 120, 3, 2)
        assert lad.n_ticks == 11
        # non-divisor window
        lad2 = build_ladder(0.25, 0.1, 3, 2)
        assert lad2.n_ticks == 3

    def test_slot_layout(self):
        lad = DurationLadder(n_states=4, n_below=2, n_ticks=3, dtick=0.1)
        # live levels 0..2; the knock-out level 3 holds no slots
        assert lad.total == 4 + 2 * 2
        assert lad.level_slice(0) == slice(0, 4)
        assert lad.level_slice(1) == slice(4, 6)
        assert lad.level_slice(2) == slice(6, 8)
        assert lad.below_slots(0) == slice(0, 2)
        assert lad.below_slots(2) == slice(6, 8)
        # levels past 0 hold the below-barrier states only
        np.testing.assert_array_equal(lad.slot_states,
                                      [0, 1, 2, 3, 0, 1, 0, 1])

    def test_levels_outside_the_ladder_raise(self):
        # 10 states, 4 below, 6 ticks: level -1 once read level 0's states
        # 2..5; level 6, the knock-out, is off the ladder
        lad = DurationLadder(n_states=10, n_below=4, n_ticks=6, dtick=0.1)
        assert lad.level_slice(5) == slice(26, 30)
        assert lad.total == 30
        for level in (-1, -2, 6, 7):
            with pytest.raises(IndexError, match="duration level"):
                lad.level_slice(level)
            with pytest.raises(IndexError, match="duration level"):
                lad.below_slots(level)

    def test_stack_payoff_layout(self):
        lad = DurationLadder(n_states=3, n_below=2, n_ticks=2, dtick=0.1)
        f = np.array([5.0, 7.0, 9.0])
        stacked = lad.stack_payoff(f)
        np.testing.assert_array_equal(stacked, [5.0, 7.0, 9.0, 5.0, 7.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_ladder(0.0, 0.1, 2, 1)
        with pytest.raises(ValueError):
            build_ladder(0.5, -0.1, 2, 1)
        for n_below in (-1, 3):  # outside 0..n_states
            with pytest.raises(ValueError):
                DurationLadder(n_states=2, n_below=n_below, n_ticks=2, dtick=0.1)
        with pytest.raises(ValueError):
            DurationLadder(n_states=2, n_below=1, n_ticks=0, dtick=0.1)


# ---------------------------------------------------------------------------
# augmented generator
# ---------------------------------------------------------------------------


class TestDurationGenerator:
    def random_chain(self, rng, n=9):
        R = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        np.fill_diagonal(R, 0.0)
        np.fill_diagonal(R, -R.sum(axis=1))
        return R

    def test_row_sums_and_knockout_rate(self):
        rng = np.random.default_rng(22)
        R = self.random_chain(rng)
        # 4 live levels, and one (window < dtick) where level 0 is the last
        for window in (0.3, 0.05):
            lad = build_ladder(window, 0.1, 9, 4)
            A = duration_generator(R, lad)
            assert A.format == "csr" and A.shape == (lad.total, lad.total)
            A = A.toarray()
            # rows keep the spatial row sums (the clock moves mass one level
            # deeper, never creates or destroys it), but for the last level's
            # below-barrier rows, which lose the tick rate to the knock-out
            killed = np.zeros(lad.total, dtype=bool)
            killed[lad.below_slots(lad.n_ticks - 1)] = True
            sums = A.sum(axis=1)
            np.testing.assert_allclose(sums[~killed], 0.0, atol=1e-12)
            np.testing.assert_allclose(sums[killed], -10.0, rtol=1e-12)
            # off-diagonal rates nonnegative
            off = A - np.diag(np.diag(A))
            assert off.min() >= 0.0

    def test_upcross_resets_to_level_zero(self):
        R = np.zeros((3, 3))
        R[0, 2] = 1.5  # below state jumping straight above the barrier
        np.fill_diagonal(R, -R.sum(axis=1))
        lad = build_ladder(0.2, 0.1, 3, 2)
        A = duration_generator(R, lad).toarray()
        # state 0 is the first below-barrier slot of each deeper level
        r1, r2 = lad.level_slice(1).start, lad.level_slice(2).start
        assert A[r1, 2] == pytest.approx(1.5)           # lands on level 0
        assert A[r1, r2] == pytest.approx(10.0)         # clock tick
        assert A[r1, r1] == pytest.approx(-1.5 - 10.0)  # spatial + clock
        # the last level's tick is the knock-out: no column, same diagonal
        np.testing.assert_array_equal(np.flatnonzero(A[r2]), [2, r2])
        assert A[r2, r2] == pytest.approx(-1.5 - 10.0)

    def test_mask_disagreement_raises(self):
        model, grid, gen = small_bs_setup(n=24)
        assert grid.n_below != 3
        lad = build_ladder(0.25, 0.1, grid.n_states, 3)
        with pytest.raises(ValueError, match="barrier node"):
            duration_generator(gen, lad)


# ---------------------------------------------------------------------------
# perpetual
# ---------------------------------------------------------------------------


class TestPerpetualDownOut:
    def test_below_vanilla_and_monotone_in_window(self):
        model, grid, gen = small_bs_setup(n=64)
        f = american_call(95.0)(grid.states)
        vanilla = vanilla_american_perpetual(gen, f, 0.1)
        prev = None
        for window in (1 / 24, 1 / 12, 1 / 6):
            res = price_perpetual_downout(model, grid,
                                          contract(Flavor.DOWN_OUT, window=window),
                                          dtick=window / 4, gen=gen)
            assert np.all(res.level_values(0) <= vanilla + 1e-8)
            if prev is not None:
                assert np.all(res.level_values(0) >= prev - 1e-10)
            prev = res.level_values(0)

    def test_deeper_levels_worth_less(self):
        model, grid, gen = small_bs_setup(n=64)
        res = price_perpetual_downout(model, grid, contract(Flavor.DOWN_OUT),
                                      dtick=1 / 48, gen=gen)
        for level in range(1, res.ladder.n_ticks):
            shallow = res.level_values(level - 1)
            deep = res.level_values(level)
            if level == 1:
                shallow = shallow[:res.ladder.n_below]
            assert np.all(deep <= shallow + 1e-10)

    def test_reduced_equals_stacked_bs(self):
        model, grid, gen = small_bs_setup(n=40)
        c = contract(Flavor.DOWN_OUT)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
        red = perpetual(_reduced, gen, ladder, f0, c.rate)
        stk = perpetual(_stacked, gen, ladder, f0, c.rate)
        np.testing.assert_allclose(red, stk, atol=1e-9)

    def test_reduced_equals_stacked_kou(self):
        model, grid, gen = small_kou_setup(n=36)
        c = contract(Flavor.DOWN_OUT, rate=0.05)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
        red = perpetual(_reduced, gen, ladder, f0, c.rate)
        stk = perpetual(_stacked, gen, ladder, f0, c.rate)
        np.testing.assert_allclose(red, stk, atol=1e-9)

    def test_reduced_requires_vanishing_payoff_below(self):
        model, grid, gen = small_bs_setup(n=40)
        c = ContractSpec(payoff=lambda s: np.maximum(80.0 - s, 0.0),
                         barrier=90.0, window=1 / 12, maturity=math.inf,
                         rate=0.1, flavor=Flavor.DOWN_OUT)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
        with pytest.raises(ValueError, match="vanishes below the barrier"):
            perpetual(_reduced, gen, ladder, f0, c.rate)

    def test_value_at_rejects_spots_off_the_states(self):
        model, grid, gen = small_bs_setup(n=40)  # states 10..360
        res = price_perpetual_downout(model, grid, contract(Flavor.DOWN_OUT),
                                      dtick=1 / 36, gen=gen)
        assert res.value_at(360.0) == res.level_values(0)[-1]
        assert res.value_at(50.0, level=1) >= 0.0
        for spot, level in ((400.0, 0), (5.0, 0), (math.nan, 0),
                            (95.0, 1), (5.0, 1)):  # level 1: below 90 only
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot, level=level)

    def test_value_at_rejects_levels_off_the_ladder(self):
        model, grid, gen = small_bs_setup(n=40)
        res = price_perpetual_downout(model, grid, contract(Flavor.DOWN_OUT),
                                      dtick=1 / 36, gen=gen)
        top = res.ladder.n_ticks  # the knock-out level: off the ladder
        assert res.value_at(50.0, level=top - 1) >= 0.0
        for level in (-1, top, top + 1):
            with pytest.raises(IndexError, match="duration level"):
                res.value_at(50.0, level=level)
            with pytest.raises(IndexError, match="duration level"):
                res.level_values(level)

    def test_one_lcp_per_price(self, monkeypatch):
        # the reduced route (call) and the stacked route (put) each solve the
        # perpetual problem as a single cold LCP
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("active0"))
            return policy_solve(*args, **kwargs)

        monkeypatch.setattr(pricer_downin, "policy_solve", counting)
        model, grid, gen = small_bs_setup(n=48)
        put = ContractSpec(payoff=lambda s: np.maximum(95.0 - s, 0.0),
                           barrier=90.0, window=1 / 12, maturity=math.inf,
                           rate=0.1, flavor=Flavor.DOWN_OUT)
        for c in (contract(Flavor.DOWN_OUT), put):
            calls.clear()
            price_perpetual_downout(model, grid, c, dtick=1 / 36, gen=gen)
            assert calls == [None]

    def test_validation(self):
        model, grid, gen = small_bs_setup(n=24)
        with pytest.raises(ValueError):
            price_perpetual_downout(model, grid, contract(Flavor.DOWN_IN),
                                    dtick=1 / 36, gen=gen)
        with pytest.raises(ValueError):
            price_perpetual_downout(model, grid,
                                    contract(Flavor.DOWN_OUT, maturity=1.0),
                                    dtick=1 / 36, gen=gen)
        with pytest.raises(ValueError, match="need a SpatialGrid"):
            price_perpetual_downout(model, None, contract(Flavor.DOWN_OUT),
                                    dtick=1 / 36, gen=gen.as_dense())


# ---------------------------------------------------------------------------
# finite maturity
# ---------------------------------------------------------------------------


class TestFiniteDownOut:
    def test_monotone_in_maturity_and_window(self):
        model, grid, gen = small_bs_setup(n=48)
        tg = TimeGrid(dt=1 / 24, horizon=1.0)
        base = price_finite_downout(model, grid, tg,
                                    contract(Flavor.DOWN_OUT, maturity=1.0),
                                    dtick=1 / 48).value_at(100.0)
        shorter = price_finite_downout(model, grid, TimeGrid(dt=1 / 24,
                                                             horizon=0.5),
                                       contract(Flavor.DOWN_OUT, maturity=0.5),
                                       dtick=1 / 48).value_at(100.0)
        assert shorter <= base + 1e-10
        wider = price_finite_downout(model, grid, tg,
                                     contract(Flavor.DOWN_OUT, maturity=1.0,
                                              window=1 / 6),
                                     dtick=1 / 48).value_at(100.0)
        assert base <= wider + 1e-10

    def test_below_perpetual(self):
        model, grid, gen = small_bs_setup(n=48)
        c_fin = contract(Flavor.DOWN_OUT, maturity=1.0)
        fin = price_finite_downout(model, grid, TimeGrid(dt=1 / 24, horizon=1.0),
                                   c_fin, dtick=1 / 48)
        perp = price_perpetual_downout(model, grid, contract(Flavor.DOWN_OUT),
                                       dtick=1 / 48, gen=gen)
        assert np.all(fin.values[0] <= perp.values + 1e-8)

    def test_rejects_a_time_grid_that_misses_the_maturity(self):
        model, grid, _ = small_bs_setup(n=32)
        with pytest.raises(ValueError, match="maturity"):
            price_finite_downout(model, grid, TimeGrid(dt=1 / 24, horizon=1.0),
                                 contract(Flavor.DOWN_OUT, maturity=0.25),
                                 dtick=1 / 48)
        price_finite_downout(model, grid, TimeGrid(dt=1 / 24, horizon=0.25),
                             contract(Flavor.DOWN_OUT,
                                      maturity=0.25 * (1 + 1e-13)),
                             dtick=1 / 48)

    def test_value_at_a_deeper_level_reads_the_below_barrier_states(self):
        # levels past 0 hold the first n_below states only: a spot between
        # them interpolates there, and the barrier node lies outside them
        model, grid, gen = small_bs_setup(n=48)
        res = price_finite_downout(model, grid, TimeGrid(dt=1 / 12, horizon=0.25),
                                   contract(Flavor.DOWN_OUT, maturity=0.25),
                                   dtick=1 / 36)
        m = grid.n_below
        below = grid.states[:m]
        spots = (below[0], 0.5 * (below[3] + below[4]), 50.0, below[-1])
        for level in range(1, res.ladder.n_ticks):
            for j in (0, 1):
                vals = res.level_values(level, j)
                assert len(vals) == m and np.any(vals > 0.0)
                for spot in spots:
                    assert res.value_at(spot, slice_idx=j, level=level) == \
                        np.interp(spot, below, vals)
                with pytest.raises(ValueError, match="outside the states"):
                    res.value_at(grid.states[m], slice_idx=j, level=level)

    def test_terminal_slice_is_zero(self):
        model, grid, gen = small_bs_setup(n=32)
        res = price_finite_downout(model, grid, TimeGrid(dt=1 / 12, horizon=0.5),
                                   contract(Flavor.DOWN_OUT, maturity=0.5),
                                   dtick=1 / 24)
        np.testing.assert_array_equal(res.values[-1], 0.0)

    def test_solver_routes_agree(self):
        model, grid, gen = small_kou_setup(n=32)
        tg = TimeGrid(dt=1 / 12, horizon=0.5)
        c = contract(Flavor.DOWN_OUT, maturity=0.5, rate=0.05)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
        gens = [gen] * (tg.idx_t_plus + 1)
        stk = _stacked(gens, ladder, f0, c.rate, tg.dt)
        red = _reduced(gens, ladder, f0, c.rate, tg.dt)
        np.testing.assert_allclose(red, stk, atol=1e-7)
        auto = price_finite_downout(model, grid, tg, c, dtick=1 / 36)
        np.testing.assert_allclose(auto.values, red, atol=1e-12)

    def test_public_output_is_the_route_output(self):
        # a call struck above the barrier vanishes below it, so both the
        # jump chain and the tridiagonal chain take the reduced route
        for setup, rate in ((small_kou_setup, 0.05), (small_bs_setup, 0.1)):
            model, grid, gen = setup(n=32)
            tg = TimeGrid(dt=1 / 12, horizon=0.25)
            c = contract(Flavor.DOWN_OUT, maturity=0.25, rate=rate)
            ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
            gens = [gen] * (tg.idx_t_plus + 1)
            auto = price_finite_downout(model, grid, tg, c, dtick=1 / 36)
            np.testing.assert_array_equal(
                auto.values, _reduced(gens, ladder, f0, rate, tg.dt))
            c = contract(Flavor.DOWN_OUT, rate=rate)
            auto = price_perpetual_downout(model, grid, c, dtick=1 / 36, gen=gen)
            np.testing.assert_array_equal(
                auto.values[0], perpetual(_reduced, gen, ladder, f0, rate))

    def test_value_at_rejects_spots_off_the_states(self):
        model, grid, _ = small_bs_setup(n=32)  # states 10..360
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        res = price_finite_downout(model, grid, tg,
                                   contract(Flavor.DOWN_OUT, maturity=0.25),
                                   dtick=1 / 24)
        assert res.value_at(10.0, slice_idx=1) == res.level_values(0, 1)[0]
        assert res.value_at(50.0, level=1) >= 0.0
        for spot, level in ((400.0, 0), (5.0, 0), (math.inf, 0),
                            (95.0, 1), (5.0, 1)):  # level 1: below 90 only
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot, level=level)

    def test_value_at_rejects_slices_and_levels_off_the_surface(self):
        model, grid, _ = small_bs_setup(n=32)
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        res = price_finite_downout(model, grid, tg,
                                   contract(Flavor.DOWN_OUT, maturity=0.25),
                                   dtick=1 / 24)
        last, top = len(res.values) - 1, res.ladder.n_ticks
        assert res.value_at(95.0, slice_idx=last) == 0.0  # past the horizon
        for slice_idx in (-1, -last, last + 1):
            for level in (0, 1):
                with pytest.raises(IndexError, match="clock slice"):
                    res.value_at(50.0, slice_idx=slice_idx, level=level)
        for level in (-1, top, top + 1):  # top: the knock-out level
            with pytest.raises(IndexError, match="duration level"):
                res.value_at(50.0, level=level)

    def test_time_dependent_generator_sequence(self):
        model, grid, _ = small_bs_setup(n=32)
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        gens = [build_generator(model, grid, float(t), "error")
                for t in tg.times]
        res_seq = price_finite_downout(model, grid, tg,
                                       contract(Flavor.DOWN_OUT, maturity=0.25),
                                       dtick=1 / 24, gen=gens)
        res_one = price_finite_downout(model, grid, tg,
                                       contract(Flavor.DOWN_OUT, maturity=0.25),
                                       dtick=1 / 24)
        np.testing.assert_allclose(res_seq.values, res_one.values, atol=1e-9)

    def test_validation(self):
        model, grid, gen = small_bs_setup(n=24)
        tg = TimeGrid(dt=1 / 12, horizon=0.5)
        with pytest.raises(ValueError):
            price_finite_downout(model, grid, tg, contract(Flavor.DOWN_OUT),
                                 dtick=1 / 24)  # perpetual contract
        with pytest.raises(ValueError):
            price_finite_downout(model, grid, tg,
                                 contract(Flavor.DOWN_IN, maturity=0.5),
                                 dtick=1 / 24)


# ---------------------------------------------------------------------------
# level elimination ("reduced") against the stacked ladder
# ---------------------------------------------------------------------------


def rel_gap(a, b):
    """max|a - b| / max|b|: the surface-wide relative gap."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestReducedRoute:
    def test_equals_stacked_on_bs_to_1e12(self):
        model, grid, gen = small_bs_setup(n=48)
        c = contract(Flavor.DOWN_OUT)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 48)
        assert rel_gap(perpetual(_reduced, gen, ladder, f0, c.rate),
                       perpetual(_stacked, gen, ladder, f0, c.rate)) <= 1e-12

        tg = TimeGrid(dt=1 / 24, horizon=0.5)
        homogeneous = [gen] * (tg.idx_t_plus + 1)
        # a time-dependent volatility: a new generator every slice
        varying = [build_generator(bs_model(r_f=0.1, dividend=0.05,
                                            sigma=0.3 * (1 + t / 2)),
                                   grid, 0.0, "error") for t in tg.times]
        for gens in (homogeneous, varying):
            red = _reduced(gens, ladder, f0, c.rate, tg.dt)
            stk = _stacked(gens, ladder, f0, c.rate, tg.dt)
            assert rel_gap(red, stk) <= 1e-12

    def test_equals_stacked_on_time_varying_kou_to_1e12(self):
        # dense jump blocks: the dense factor of Q^T against the factor of
        # the stacked ladder, with sigma(t) and the shared jump part of every
        # slice
        model, grid, _ = small_kou_setup(n=40)
        model = kou_sigma_t(model)
        c = contract(Flavor.DOWN_OUT, rate=0.05)
        ladder, f0 = route_inputs(model, grid, c, dtick=1 / 48)
        tg = TimeGrid(dt=1 / 24, horizon=0.5)
        gens = slice_generators(model, grid, tg.times)
        assert gens[0].jump is gens[-1].jump
        assert rel_gap(_reduced(gens, ladder, f0, c.rate, tg.dt),
                       _stacked(gens, ladder, f0, c.rate, tg.dt)) <= 1e-12
        for gen in (gens[0], gens[-1]):
            assert rel_gap(perpetual(_reduced, gen, ladder, f0, c.rate),
                           perpetual(_stacked, gen, ladder, f0, c.rate)) <= 1e-12

    def test_tridiagonal_a_eff_is_sparse_with_one_coupled_column(self):
        model, grid, gen = small_bs_setup(n=40)
        ladder = build_ladder(1 / 12, 1 / 36, grid.n_states, grid.n_below)
        ai = np.arange(ladder.n_below, ladder.n_states)
        for dt in (None, 1 / 24):
            ops = _ReducedLadderOps(gen, ladder, 0.1, dt=dt)
            assert ops.A_eff.is_sparse and ops.A_eff.bands is not None
            assert ops.A_eff.n == ladder.n_states - ladder.n_below
            # the barrier node, the first above-barrier state
            assert ops.coupled == slice(0, 1)
            assert ops.factor_width == 1  # B itself: no factor on one column
            A_eff = ops.A_eff.to_dense()
            rows, cols = np.nonzero(A_eff)
            assert np.all(np.abs(rows - cols) <= 1)  # tridiagonal
            # the above block of a0 I - cG G, but for the barrier node's
            # diagonal, which the eliminated slots lower
            a0, cG = (0.1, 1.0) if dt is None else (1 + 0.1 * dt, dt)
            full = a0 * np.eye(ladder.n_states) - cG * gen.as_dense()
            block = full[np.ix_(ai, ai)]
            assert A_eff[0, 0] < block[0, 0]
            A_eff[0, 0] = block[0, 0]
            np.testing.assert_array_equal(A_eff, block)
            # the same operator, assembled dense from the plain rate matrix
            dense = _ReducedLadderOps(gen.as_dense(), ladder, 0.1, dt=dt)
            assert not dense.A_eff.is_sparse
            np.testing.assert_array_equal(ops.A_eff.to_dense(),
                                          dense.A_eff.to_dense())

    def test_banded_elimination_agrees_with_the_dense_one(self):
        # the band factor of Q^T against the dense factor of the same chain
        # given as a plain matrix, on every solve the recursion makes
        model, grid, gen = small_bs_setup(n=64)
        ladder = build_ladder(1 / 12, 1 / 36, grid.n_states, grid.n_below)
        m = ladder.n_below
        rng = np.random.default_rng(14)
        for dt in (None, 1 / 24):
            ops = _ReducedLadderOps(gen, ladder, 0.1, dt=dt)
            dense = _ReducedLadderOps(gen.as_dense(), ladder, 0.1, dt=dt)
            # Q^T is column diagonally dominant: no row interchange, no fill
            lu = ops.Qinv.factor[0]
            np.testing.assert_array_equal(lu[4], np.arange(1, m + 1))
            assert not np.any(lu[3])
            assert rel_gap(ops.A_eff.to_dense(), dense.A_eff.to_dense()) <= 1e-15
            c_next = rng.uniform(0.0, 2.0, size=ladder.total)
            q, levels = ops.sources(c_next)
            q_dense, levels_dense = dense.sources(c_next)
            assert rel_gap(q, q_dense) <= 1e-13, dt
            assert rel_gap(levels, levels_dense) <= 1e-13, dt
            assert np.all(q >= 0.0)
            c = rng.uniform(0.0, 2.0, size=len(q))
            out = ops.expand(c, levels)
            assert rel_gap(out, dense.expand(c, levels_dense)) <= 1e-13, dt
            assert np.all(out >= 0.0)

    def test_dense_factor_makes_no_interchange_and_sums_nonnegative_terms(self):
        # Q^T is column diagonally dominant on every jump chain: the dense
        # factor (of each chain passed as a plain rate matrix, which takes
        # the dense form) has the identity pivots, the unclamped level
        # values of ``sources`` are >= 0, and a solve with Q agrees with
        # numpy's on that form and on the generator's own
        rng = np.random.default_rng(23)
        rate = 0.05
        for name, gen, grid in jump_chains():
            ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
            m = ladder.n_below
            R = gen.as_dense()
            for dt in (None, 1 / 24):
                ops = _ReducedLadderOps(R, ladder, rate, dt=dt)
                assert ops.form == "dense"
                _, piv = ops.Qinv.factor
                np.testing.assert_array_equal(piv, np.arange(m), err_msg=name)
                _, levels = ops.sources(rng.uniform(0.0, 2.0, size=ladder.total))
                assert np.all(levels >= 0.0), (name, dt)
                a0, cG = (rate, 1.0) if dt is None else (1 + rate * dt, dt)
                Q = (a0 + cG / ladder.dtick) * np.eye(m) - cG * R[:m, :m]
                own = _ReducedLadderOps(gen, ladder, rate, dt=dt)
                for b in (rng.uniform(0.0, 2.0, size=m),
                          rng.normal(size=(m, 5))):
                    for inv in (ops.Qinv, own.Qinv):
                        assert rel_gap(inv @ b, np.linalg.solve(Q, b)) <= 1e-13, (
                            name, dt)

    def test_reference_operators_factor_without_interchange(self):
        # Q^T and A_eff^T make no row interchange under partial pivoting:
        # the nonnegative sums of the level sweep and the one-factor prefix
        # solves of LCPOperator rest on it.  Checked on the reduced-route
        # reference blocks at their coarsest grid and on the first slice of
        # the three sigma(t) benchmark contracts, with the vanilla slice
        # operator (rate I - G or I - dt G) of each; a broken dominance fails
        # here instead of quietly taking the per-set factors
        cases = []
        for family in ("bs", "kou", "vg"):
            for opt in bench_cli.REFERENCE_TABLES[family]:
                if opt.config.flavor == "down-out":
                    cfg = opt.config
                    model = bench_cli.build_named_model(cfg.model, cfg.model_params)
                    cases.append((opt.key, cfg, model, cfg.grids[0]))
        workloads = _perfbench_workloads()
        for family, key, n in workloads.TERM_STRUCTURE:
            cfg = bench_cli.reference_option(family, key).config
            cases.append((f"{family} sigma(t) {key}", cfg,
                          workloads._term_model(family, cfg.model_params), n))
        for name, cfg, model, n in cases:
            state = lambda p: float(np.asarray(model.state_of_price(p)))
            lo, hi = bench_cli._domain_states(model, cfg)
            grid = build_grid(lo, hi, state(cfg.barrier), state(cfg.strike),
                              n - 1, cfg.split)
            gen = build_generator(model, grid, 0.0,
                                  resolve_rate_policy(cfg.rate_policy, model))
            # a down-in has no ladder: ten ticks per window stand in
            ladder = build_ladder(cfg.window, cfg.dd or cfg.window / 10,
                                  grid.n_states, grid.n_below)
            dt = None if math.isinf(cfg.maturity) else cfg.dt
            ops = _ReducedLadderOps(gen, ladder, cfg.rate, dt=dt)
            a0, cG = (cfg.rate, 1.0) if dt is None else (1.0, dt)
            operators = [ops.A_eff, slice_operator(gen, a0, cG)]
            if ops.form == "separable":  # Q's own factor, on the dense form
                ops = _ReducedLadderOps(gen.as_dense(), ladder, cfg.rate, dt=dt)
            piv = ops.Qinv.factor[0][4] - 1 if gen.is_tridiagonal else ops.Qinv.factor[1]
            np.testing.assert_array_equal(piv, np.arange(len(piv)), err_msg=name)
            for op in operators:
                if op.bands is not None:
                    piv = factor_tridiag(op.bands, np.arange(op.n))[0][4] - 1
                else:
                    piv = factor_dense(op.to_dense().copy())[1]
                np.testing.assert_array_equal(piv, np.arange(len(piv)), err_msg=name)
                # and the operator serves two prefix sets from one factor
                made = sum(op.solve_free(np.arange(op.n) < k, np.ones(k))[1]
                           for k in (op.n, op.n // 2))
                assert made == 1, name

    def test_banded_elimination_allocates_no_dense_block(self):
        # 4001 states, 1750 below the barrier: one m x m array is 24.5 MB,
        # the dense factor of Q^T alone; the banded build and one slice's
        # sources and expand stay below a sixteenth of it
        grid = build_grid(20.0, 180.0, 90.0, 95.0, 4000, "proportional")
        gen = build_generator(bs_model(r_f=0.1, dividend=0.05, sigma=0.3),
                              grid, 0.0, "error")
        ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
        m = ladder.n_below
        assert m == 1750
        c_next = np.ones(ladder.total)
        for dt in (None, 1 / 24):
            tracemalloc.start()
            try:
                ops = _ReducedLadderOps(gen, ladder, 0.1, dt=dt)
                _, levels = ops.sources(c_next)
                ops.expand(np.ones(ops.A_eff.n), levels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < m * m * 8 / 16, (dt, peak)

    def test_expand_reads_the_levels_sources_found(self):
        # one level sweep per slice: ``sources`` applies Q^-1 once per level,
        # ``expand`` never; its values are the two-sweep recursion's,
        # C_k = Q^-1 (B c[coupled] + cup C_{k+1} + c_next[k]) on the exact B
        class CountingInverse:
            def __init__(self, Qinv):
                self.Qinv, self.calls = Qinv, 0

            def __matmul__(self, b):
                self.calls += 1
                return self.Qinv @ b

        model, grid, gen = small_bs_setup(n=64)
        chains = [("bs", gen, grid), ("bs dense", gen.as_dense(), grid)]
        rate = 0.05
        rng = np.random.default_rng(21)
        for name, gen, grid in chains + jump_chains():
            ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
            m, N, K = ladder.n_below, ladder.n_states, ladder.n_ticks
            R = gen if isinstance(gen, np.ndarray) else gen.as_dense()
            for dt in (None, 1 / 24):
                ops = _ReducedLadderOps(gen, ladder, rate, dt=dt)
                counting = ops.Qinv = CountingInverse(ops.Qinv)
                c_next = rng.uniform(0.0, 2.0, size=ladder.total)
                c = rng.uniform(0.0, 2.0, size=N - m)
                _, levels = ops.sources(c_next)
                assert counting.calls == K, (name, dt)
                out = ops.expand(c, levels)
                assert counting.calls == K, (name, dt)

                a0, cG = (rate, 1.0) if dt is None else (1 + rate * dt, dt)
                cup = cG / ladder.dtick
                Q = (a0 + cup) * np.eye(m) - cG * R[:m, :m]
                feed = cG * R[:m, m:][:, ops.coupled] @ c[ops.coupled]
                ref = np.zeros(ladder.total)
                ref[m:N] = c
                level = np.zeros(m)
                for k in range(K - 1, -1, -1):
                    slots = ladder.below_slots(k)
                    level = np.linalg.solve(Q, feed + cup * level + c_next[slots])
                    ref[slots] = level
                assert rel_gap(out, ref) <= 1e-13, (name, dt)
                assert np.all(out >= 0.0), (name, dt)

    def test_partly_coupled_hand_built_chain(self):
        # below rows 0..3 reach only above states 5 and 7
        rng = np.random.default_rng(5)
        n = 9
        R = rng.uniform(0.2, 2.0, size=(n, n))
        R[:4, [4, 6, 8]] = 0.0
        np.fill_diagonal(R, 0.0)
        np.fill_diagonal(R, -R.sum(axis=1))
        below = np.arange(n) < 4
        f0 = np.where(below, 0.0, rng.uniform(0.5, 3.0, size=n))
        ladder = build_ladder(0.3, 0.1, n, 4)
        ops = _ReducedLadderOps(R, ladder, 0.1)
        # the span of states 5 and 7, numbered among the above-barrier
        # states 4..8
        assert ops.coupled == slice(1, 4)
        assert rel_gap(perpetual(_reduced, R, ladder, f0, 0.1),
                       perpetual(_stacked, R, ladder, f0, 0.1)) <= 1e-12
        gens = [R] * 6
        assert rel_gap(_reduced(gens, ladder, f0, 0.1, 0.1),
                       _stacked(gens, ladder, f0, 0.1, 0.1)) <= 1e-12

    def test_lcps_run_over_the_above_barrier_states(self, monkeypatch):
        # every exercise step of the reduced route solves an LCP of size
        # N - m, sparse on the tridiagonal chain and dense on the jump chain
        sizes = []

        def recording(problem, **kwargs):
            sizes.append((problem.n, problem.A.is_sparse))
            return policy_solve(problem, **kwargs)

        monkeypatch.setattr(pricer_downin, "policy_solve", recording)
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        for setup, rate in ((small_bs_setup, 0.1), (small_kou_setup, 0.05)):
            model, grid, gen = setup(n=40)
            n_above = int(np.sum(~grid.below_mask))
            assert 0 < n_above < grid.n_states
            expected = (n_above, gen.is_tridiagonal)
            sizes.clear()
            price_perpetual_downout(model, grid, contract(Flavor.DOWN_OUT, rate=rate),
                                    dtick=1 / 36, gen=gen)
            assert sizes == [expected]
            sizes.clear()
            price_finite_downout(model, grid, tg,
                                 contract(Flavor.DOWN_OUT, maturity=0.25,
                                          rate=rate), dtick=1 / 36)
            assert sizes == [expected] * (len(tg.times) - 1)

    def test_payoff_negative_above_the_barrier(self):
        # (S - K) 1{S >= L} with K > L vanishes below the barrier L but is
        # negative between L and K: the eliminated slots are still never
        # exercised, since every value the recursion produces is >= 0
        c = ContractSpec(payoff=lambda s: np.where(s >= 90.0, s - 100.0, 0.0),
                         barrier=90.0, window=1 / 12, maturity=math.inf,
                         rate=0.1, flavor=Flavor.DOWN_OUT)
        tg = TimeGrid(dt=1 / 12, horizon=0.5)
        for setup, rate in ((small_bs_setup, 0.1), (small_kou_setup, 0.05),
                            (small_vg_setup, 0.05)):
            model, grid, gen = setup(n=40)
            c = dataclasses.replace(c, rate=rate)
            ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
            assert np.all(f0[:ladder.n_below] == 0.0)
            assert np.any(f0 < 0.0)
            red = perpetual(_reduced, gen, ladder, f0, rate)
            assert np.all(red >= 0.0)
            stk = perpetual(_stacked, gen, ladder, f0, rate)
            assert rel_gap(red, stk) <= 1e-12
            gens = [gen] * (tg.idx_t_plus + 1)
            red = _reduced(gens, ladder, f0, rate, tg.dt)
            assert np.all(red >= 0.0)
            stk = _stacked(gens, ladder, f0, rate, tg.dt)
            assert rel_gap(red, stk) <= 1e-12


# ---------------------------------------------------------------------------
# the ladder elimination on a low-rank factor of the below->above block
# ---------------------------------------------------------------------------


def row_margins(A):
    """diag - sum of |off-diagonal| per row of a dense A."""
    return np.diag(A) - (np.abs(A).sum(axis=1) - np.abs(np.diag(A)))


class TestLowRankElimination:
    LADDER = dict(window=1 / 12, dtick=1 / 120)

    def build(self, monkeypatch, gen, grid, dt, full):
        """The reduced operators; ``full`` builds them on B itself (W = I)."""
        factor = (lambda B, rtol: (B, np.eye(B.shape[1]), 0.0)) if full else low_rank_factor
        monkeypatch.setattr(pricer_downout, "low_rank_factor", factor)
        ladder = build_ladder(n_states=grid.n_states, n_below=grid.n_below, **self.LADDER)
        return _ReducedLadderOps(gen, ladder, 0.05, dt=dt)

    def test_compressed_a_eff_equals_the_full_horner(self, monkeypatch):
        for name, gen, grid in jump_chains():
            for dt in (None, 1 / 60):  # perpetual and finite slices
                ops = self.build(monkeypatch, gen, grid, dt, full=False)
                full = self.build(monkeypatch, gen, grid, dt, full=True)
                nc = ops.coupled.stop - ops.coupled.start
                assert ops.factor_width < nc == full.factor_width, name
                A, A_full = ops.A_eff.to_dense(), full.A_eff.to_dense()
                assert rel_gap(A, A_full) <= 1e-13, (name, dt)
                # still a Z-matrix, diagonally dominant by the same margin
                off = A - np.diag(np.diag(A))
                assert off.max() <= 0.0, (name, dt)
                margins, margins_full = row_margins(A), row_margins(A_full)
                assert margins.min() >= margins_full.min(), (name, dt)
                np.testing.assert_allclose(margins, margins_full, rtol=0,
                                           atol=1e-13 * np.abs(A).max())

    def test_generator_and_its_dense_matrix_give_the_same_operators(self):
        # the blocks read from a generator's parts and from the plain matrix
        # round alike, so the factor and everything built on it agree bit
        # for bit where both take the dense form (VG); a Kou generator takes
        # the separable form, whose solves round otherwise
        for name, gen, grid in jump_chains():
            ladder = build_ladder(n_states=grid.n_states, n_below=grid.n_below,
                                  **self.LADDER)
            for dt in (None, 1 / 60):
                ops = _ReducedLadderOps(gen, ladder, 0.05, dt=dt)
                dense = _ReducedLadderOps(gen.as_dense(), ladder, 0.05, dt=dt)
                assert ops.coupled == dense.coupled, name
                assert ops.factor_width < ops.coupled.stop - ops.coupled.start
                assert ops.form == ("dense" if name == "vg" else "separable"), name
                np.testing.assert_array_equal(ops.W, dense.W, err_msg=name)
                if ops.form == "separable":
                    assert rel_gap(ops.A_eff.to_dense(), dense.A_eff.to_dense()) <= 1e-13
                    assert rel_gap(ops.level_maps, dense.level_maps) <= 1e-13, name
                    continue
                np.testing.assert_array_equal(ops.A_eff.to_dense(),
                                              dense.A_eff.to_dense(), err_msg=name)
                np.testing.assert_array_equal(ops.level_maps, dense.level_maps,
                                              err_msg=name)

    def test_builds_are_bit_identical_and_leave_the_global_rng(self):
        model, grid, gen = small_vg_setup(n=64)
        ladder = build_ladder(n_states=grid.n_states, n_below=grid.n_below, **self.LADDER)
        before = np.random.get_state()
        ops = [_ReducedLadderOps(gen, ladder, 0.05, dt=1 / 60) for _ in range(2)]
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
        np.testing.assert_array_equal(ops[0].A_eff.to_dense(),
                                      ops[1].A_eff.to_dense())


# ---------------------------------------------------------------------------
# one factor of the below->above block per shared jump block
# ---------------------------------------------------------------------------


def sigma_t_slices(top=400.0, per_slice_jumps=False):
    """(grid, slice generators, ladder) of a sigma(t) Kou chain on 8 clock
    slices; ``per_slice_jumps`` assembles a JumpPart per slice (a measure
    that does not declare itself time-homogeneous)."""
    model, _, _ = small_kou_setup()
    model = kou_sigma_t(model)
    if per_slice_jumps:
        jm = dataclasses.replace(model.jump_measure, time_homogeneous=False)
        model = dataclasses.replace(model, jump_measure=jm)
    grid = build_grid(math.log(20.0), math.log(top), math.log(90.0),
                      math.log(95.0), 64, "proportional")
    gens = slice_generators(model, grid, TimeGrid(dt=1 / 24, horizon=0.25).times)
    ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
    return grid, gens, ladder


def bs_sigma_t_slices():
    """(grid, slice generators, ladder) of a sigma(t) BS chain on 8 clock
    slices: a tridiagonal generator per slice."""
    model, grid, _ = small_bs_setup(n=48)
    model = dataclasses.replace(
        model, time_homogeneous=False,
        diffusion_sq=lambda t, x: (0.3 * (1 + t / 2) * np.asarray(x, float)) ** 2)
    gens = slice_generators(model, grid, TimeGrid(dt=1 / 24, horizon=0.25).times)
    ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
    return grid, gens, ladder


class TestSharedCrossBlocks:
    DT = 1 / 24

    def counted_factor(self, monkeypatch):
        calls = []

        def counting(B, rtol):
            calls.append(B.shape)
            return low_rank_factor(B, rtol)

        monkeypatch.setattr(pricer_downout, "low_rank_factor", counting)
        return calls

    def per_slice(self, monkeypatch):
        """Every operator on a factor of its own slice's B (no group)."""
        monkeypatch.setattr(pricer_downout, "_cross_records",
                            lambda gens, ladder, cG: lambda g: None)

    def test_one_factor_per_shared_jump_block(self, monkeypatch):
        _, gens, ladder = sigma_t_slices()
        assert len({id(g.jumps) for g in gens}) == 1
        f0 = np.zeros(ladder.n_states)
        f0[ladder.n_below:] = 1.0
        calls = self.counted_factor(monkeypatch)
        _reduced(gens, ladder, f0, 0.05, self.DT)
        assert len(calls) == 1
        # a JumpPart per slice: a group, and a factor, per slice
        _, gens, ladder = sigma_t_slices(per_slice_jumps=True)
        assert len({id(g.jumps) for g in gens}) == len(gens)
        calls.clear()
        _reduced(gens, ladder, f0, 0.05, self.DT)
        assert len(calls) == len(gens) - 1  # none for the zero row past the end

    def test_every_slice_meets_the_factor_bound(self):
        # the three shapes of a record: a low-rank factor (top 400), B kept
        # whole with W = I (top 100: B narrower than the first sketch) and
        # the rank-0 record of a chain without jumps
        cases = [(top, *sigma_t_slices(top)[1:]) for top in (400.0, 100.0)]
        cases.append(("bs", *bs_sigma_t_slices()[1:]))
        for name, gens, ladder in cases:
            m, N = ladder.n_below, ladder.n_states
            record = pricer_downout._CrossBlocks.build(gens[:-1], ladder, self.DT)
            nc = record.coupled.stop - record.coupled.start
            r = record.U.shape[1]
            assert record.U.shape == (m, r) and record.W.shape == (r, nc), name
            widths = []
            for g in gens[:-1]:
                U, W, _ = record.slice_factor(g)
                widths.append(U.shape[1])
                B = rate_block(g, slice(0, m), slice(m, N), scale=self.DT)
                B_c = B[:, record.coupled]
                assert not np.any(np.delete(B, np.s_[record.coupled], axis=1))
                gap = np.linalg.norm(B_c - U @ W)
                assert gap <= 4 * np.finfo(float).eps * np.linalg.norm(B_c), name
                if name != 400.0:  # B_ref whole, or nothing: U_t W_t is B_t
                    np.testing.assert_array_equal(U @ W, B_c, err_msg=str(name))
            if name == "bs":  # no slice has the rank-0 reference's entry, 0
                assert r == 0 and widths == [1] * len(widths)
                continue
            # the reference slice carries the factor as it is, every other
            # slice (its volatility differs) one more column
            assert r == (nc if name == 100.0 else 2), name
            assert sorted(set(widths)) == [r, r + 1] and widths.count(r) == 1, name

    def test_shared_factor_agrees_with_a_factor_per_slice(self, monkeypatch):
        for top in (400.0, 100.0):  # 100: B narrower than the first sketch
            grid, gens, ladder = sigma_t_slices(top)
            m, N = ladder.n_below, ladder.n_states
            record = pricer_downout._CrossBlocks.build(gens[:-1], ladder, self.DT)
            nc = record.coupled.stop - record.coupled.start
            whole = record.W.shape == (nc, nc)
            assert whole == (top == 100.0), top
            if whole:  # B_ref itself, with W = I
                np.testing.assert_array_equal(record.W, np.eye(nc))
            for g in gens[:-1]:
                ops = _ReducedLadderOps(g, ladder, 0.05, dt=self.DT, cross=record)
                own = _ReducedLadderOps(g, ladder, 0.05, dt=self.DT)
                assert rel_gap(ops.A_eff.to_dense(), own.A_eff.to_dense()) <= 1e-13
                # the level maps times W: P_k on the coupled columns
                maps = [o.level_maps @ o.W for o in (ops, own)]
                assert rel_gap(*maps) <= 1e-13, top
                if whole:  # B_t exactly, its entry carried in W
                    U, W, _ = record.slice_factor(g)
                    B = rate_block(g, slice(0, m), slice(m, N), scale=self.DT)
                    np.testing.assert_array_equal(U @ W, B[:, record.coupled])
            f0 = np.where(np.arange(N) < m, 0.0, 1.0 + grid.states - grid.states[m])
            shared = _reduced(gens, ladder, f0, 0.05, self.DT)
            with monkeypatch.context() as patch:
                self.per_slice(patch)
                own = _reduced(gens, ladder, f0, 0.05, self.DT)
            assert rel_gap(shared, own) <= 1e-13, top

    def counted_builds(self, monkeypatch):
        """The group sizes of every ``_CrossBlocks`` record built."""
        sizes = []
        build = pricer_downout._CrossBlocks.build

        def counting(group, ladder, cG):
            sizes.append(len(group))
            return build(group, ladder, cG)

        monkeypatch.setattr(pricer_downout._CrossBlocks, "build", counting)
        return sizes

    def test_one_record_for_a_tridiagonal_sigma_t_chain(self, monkeypatch):
        # a sigma(t) BS chain: a generator per slice and no jump block, so
        # every slice is in one group.  Its record is the rank-0 factor on
        # the one column and row that cross the barrier, so each slice adds
        # its own band entries: the surface is the one on per-slice records
        # bit for bit
        grid, gens, ladder = bs_sigma_t_slices()
        assert all(g.is_tridiagonal for g in gens)
        assert len({id(g) for g in gens}) == len(gens) == 8
        m = ladder.n_below
        f0 = np.where(np.arange(grid.n_states) < m, 0.0, grid.states - 90.0 + 1.0)
        sizes = self.counted_builds(monkeypatch)
        shared = _reduced(gens, ladder, f0, 0.05, self.DT)
        assert sizes == [len(gens) - 1]  # none for the zero row past the end
        record = pricer_downout._CrossBlocks.build(gens[:-1], ladder, self.DT)
        assert record.U.shape == (m, 0) and record.W.shape == (0, 1)
        assert record.A_ab.shape == (1, m)
        assert record.coupled == record.feeders == slice(0, 1)
        with monkeypatch.context() as patch:
            self.per_slice(patch)
            own = _reduced(gens, ladder, f0, 0.05, self.DT)
        np.testing.assert_array_equal(shared, own)
        assert rel_gap(shared, _stacked(gens, ladder, f0, 0.05, self.DT)) <= 1e-12

    def test_slices_with_no_up_cross_at_the_barrier(self):
        # a slice whose rate R[m-1, m] is 0 takes the rank-0 factor as it is,
        # so its Horner loop solves on no columns; on one slice of the group
        # and on all of them, the reduced surface is the stacked one
        grid, gens, ladder = bs_sigma_t_slices()
        m = ladder.n_below
        f0 = np.where(np.arange(grid.n_states) < m, 0.0, grid.states - 90.0 + 1.0)

        def no_up_cross(g):
            up, diag = g.up.copy(), g.diag.copy()
            diag[m - 1] += up[m - 1]
            up[m - 1] = 0.0
            return dataclasses.replace(g, up=up, diag=diag)

        for cut in (1, len(gens) - 1):  # the slices that lose the rate
            cut_gens = [no_up_cross(g) if j < cut else g for j, g in enumerate(gens)]
            record = pricer_downout._CrossBlocks.build(cut_gens[:-1], ladder, self.DT)
            assert record.U.shape == (m, 0)
            reduced = _reduced(cut_gens, ladder, f0, 0.05, self.DT)
            stacked = _stacked(cut_gens, ladder, f0, 0.05, self.DT)
            assert rel_gap(reduced, stacked) <= 1e-12, cut

    def test_a_homogeneous_recursion_builds_its_record_from_one_generator(
            self, monkeypatch):
        for setup in (small_bs_setup, small_kou_setup):
            model, grid, gen = setup(n=40)
            ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
            f0 = np.where(np.arange(grid.n_states) < ladder.n_below, 0.0, 1.0)
            sizes = self.counted_builds(monkeypatch)
            _reduced([gen] * 8, ladder, f0, 0.05, self.DT)
            assert sizes == [1], setup.__name__


# ---------------------------------------------------------------------------
# the separable form of Q on Kou-type jump blocks
# ---------------------------------------------------------------------------


def kou_reference_chain(n, split=None):
    """(generator, grid, config) of the Kou finite down-out block at n
    states, on the block's own split or ``split``."""
    cfg = bench_cli.reference_option("kou", "finite-down-out").config
    model = bench_cli.build_named_model("kou", cfg.model_params)
    state = lambda p: float(np.asarray(model.state_of_price(p)))
    lo, hi = bench_cli._domain_states(model, cfg)
    grid = build_grid(lo, hi, state(cfg.barrier), state(cfg.strike), n - 1,
                      split or cfg.split)
    policy = resolve_rate_policy(cfg.rate_policy, model)
    return build_generator(model, grid, 0.0, policy), grid, cfg


def with_far_entry_scaled(gen, i, j, factor):
    """``gen`` with its far jump rate (i, j) multiplied by ``factor``."""
    far = gen.jumps.far.copy()
    far[i, j] *= factor
    return dataclasses.replace(gen, jumps=dataclasses.replace(gen.jumps, far=far))


class TestSeparableForm:
    RATE = 0.05

    def dense_inverse(self, gen, ladder, dt):
        """Q^-1 of the dense form: the factor of Q^T from ``rate_block``."""
        a0, cG = (self.RATE, 1.0) if dt is None else (1 + self.RATE * dt, dt)
        below = slice(0, ladder.n_below)
        Q = rate_block(gen, below, below, a0 + cG / ladder.dtick, -cG)
        return _Inverse(solve_dense, factor_dense(Q))

    def test_solves_agree_with_the_dense_factor(self):
        from test_ctmc import state_dependent_kou

        grid = build_grid(math.log(20), math.log(400), math.log(90), math.log(95), 64)
        chains = [("state-dependent kou", build_generator(state_dependent_kou(), grid, 0.0),
                   grid)]
        for n, split in ((529, None), (793, None), (529, "sqrt")):
            gen, grid, _ = kou_reference_chain(n, split)
            chains.append((f"kou {n} {split}", gen, grid))
        model, _, _ = small_kou_setup()
        for lo in (86.0, 83.0, 80.0, 77.0):  # 1, 2, 3 and 4 below-barrier states
            grid = build_grid(math.log(lo), math.log(400.0), math.log(90.0),
                              math.log(95.0), 40, "proportional")
            chains.append((f"kou m = {grid.n_below}", build_generator(model, grid, 0.0),
                           grid))
        rng = np.random.default_rng(31)
        for name, gen, grid in chains:
            ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
            m = ladder.n_below
            for dt in (None, 1 / 60):
                ops = _ReducedLadderOps(gen, ladder, self.RATE, dt=dt)
                assert ops.form == "separable", name
                dense = self.dense_inverse(gen, ladder, dt)
                for b in (rng.uniform(0.0, 2.0, size=m), rng.normal(size=(m, 3))):
                    x = ops.Qinv @ b
                    assert x.shape == b.shape
                    assert rel_gap(x, dense @ b) <= 1e-13, (name, dt)

    def test_non_separable_blocks_take_the_dense_form(self):
        gen, grid, _ = kou_reference_chain(133)
        ladder = build_ladder(1 / 12, 1 / 120, grid.n_states, grid.n_below)
        m = ladder.n_below
        assert pricer_downout._separable_rows(gen, m, 1.0) is not None
        _, vg_grid, vg = small_vg_setup(n=64)
        vg_ladder = build_ladder(1 / 12, 1 / 120, vg_grid.n_states, vg_grid.n_below)
        cases = [("vg", vg, vg_ladder)]
        # one far rate 1e-8 off the recursion, above and below the diagonal
        for j in (m // 2 + 7, m // 2 - 7):
            cases.append((f"kou ({m // 2}, {j})",
                          with_far_entry_scaled(gen, m // 2, j, 1 + 1e-8), ladder))
        for name, g, lad in cases:
            assert pricer_downout._separable_rows(g, lad.n_below, 1.0) is None, name
            for dt in (None, 1 / 60):
                ops = _ReducedLadderOps(g, lad, self.RATE, dt=dt)
                assert ops.form == "dense", name
                assert rel_gap(ops.level_maps, _ReducedLadderOps(
                    g.as_dense(), lad, self.RATE, dt=dt).level_maps) == 0.0, name

    def test_sigma_t_surface_agrees_with_plain_rate_matrices(self):
        # the sigma(t) Kou term-structure contract (at n = 265): every slice
        # shares one separable jump block, while the same rates as plain
        # matrices take the dense form
        workloads = _perfbench_workloads()
        cfg = bench_cli.reference_option("kou", "finite-down-out").config
        model = workloads._term_model("kou", cfg.model_params)
        state = lambda p: float(np.asarray(model.state_of_price(p)))
        grid = build_grid(state(cfg.lo), state(cfg.hi), state(cfg.barrier),
                          state(cfg.strike), 264, cfg.split)
        c = contract(Flavor.DOWN_OUT, maturity=cfg.maturity, rate=cfg.rate)
        c = dataclasses.replace(c, payoff=american_call(cfg.strike), barrier=cfg.barrier,
                                window=cfg.window)
        tg = TimeGrid(dt=cfg.dt, horizon=cfg.maturity)
        gens = slice_generators(model, grid, tg.times,
                                resolve_rate_policy(cfg.rate_policy, model))
        ladder = build_ladder(c.window, cfg.dd, grid.n_states, grid.n_below)
        assert _ReducedLadderOps(gens[0], ladder, c.rate, dt=tg.dt).form == "separable"
        ours = price_finite_downout(model, grid, tg, c, cfg.dd, gen=gens).values
        plain = price_finite_downout(model, grid, tg, c, cfg.dd,
                                     gen=[g.as_dense() for g in gens]).values
        assert rel_gap(ours, plain) <= 1e-13


# ---------------------------------------------------------------------------
# one slice operator alive at a time
# ---------------------------------------------------------------------------


def watched(build, key=None):
    """``build``, checking at every call that nothing it built before is
    alive; ``key`` picks what of a build to watch (else the build itself)."""
    refs = []

    def wrapped(*args, **kwargs):
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"builds {alive} alive at build {len(refs)}"
        built = build(*args, **kwargs)
        refs.append(weakref.ref(built if key is None else key(built)))
        return built

    wrapped.refs = refs
    return wrapped


class TestOneOperatorAlive:
    def test_time_dependent_recursions_drop_each_operator_first(self, monkeypatch):
        # a sigma(t) Kou chain of 7 clock slices (and the zero row past
        # them): a new operator for each slice, and the one before it gone
        # when it is built
        model, grid, _ = small_kou_setup(n=64)
        model = kou_sigma_t(model)
        tg = TimeGrid(dt=1 / 24, horizon=0.25)
        gens = slice_generators(model, grid, tg.times)
        assert len(gens) == 8
        watchers = {}
        for module, attr, key in ((pricer_downin, "slice_operator", None),
                                  (pricer_downin, "_slice_blocks", lambda b: b.E),
                                  (pricer_downout, "_ReducedLadderOps", None)):
            watchers[attr] = watched(getattr(module, attr), key)
            monkeypatch.setattr(module, attr, watchers[attr])
        price_finite_downout(model, grid, tg, contract(Flavor.DOWN_OUT, maturity=0.25,
                                                      rate=0.05),
                             dtick=1 / 48, gen=gens)
        pricer_downin.price_finite_downin(
            model, grid, tg, contract(Flavor.DOWN_IN, maturity=0.25, rate=0.05),
            gen=gens)
        for name, watcher in watchers.items():
            assert len(watcher.refs) == 7, name


# ---------------------------------------------------------------------------
# stacked ladder: payoffs that do not vanish below the barrier
# ---------------------------------------------------------------------------

# no benchmark workload prices a put, so these surfaces are the only guard
# on the stacked recursion's values
PINNED_PUTS = Path(__file__).parent / "data" / "stacked_put_surfaces.json"


def put_contract(maturity, rate):
    return ContractSpec(payoff=lambda s: np.maximum(95.0 - s, 0.0),
                        barrier=90.0, window=1 / 12, maturity=maturity,
                        rate=rate, flavor=Flavor.DOWN_OUT)


PUT_SETUPS = (("bs", small_bs_setup, 0.1), ("kou", small_kou_setup, 0.05))


class TestStackedRoute:
    def test_put_surfaces_match_pinned_values(self):
        pinned = json.loads(PINNED_PUTS.read_text())
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        for name, setup, rate in PUT_SETUPS:
            model, grid, gen = setup(n=24)
            perp = price_perpetual_downout(model, grid, put_contract(math.inf, rate),
                                           dtick=1 / 36, gen=gen)
            fin = price_finite_downout(model, grid, tg,
                                       put_contract(0.25, rate), dtick=1 / 36)
            for key, values in ((f"{name}/perpetual", perp.values[0]),
                                (f"{name}/finite", fin.values)):
                old = np.array(pinned[key])
                assert old.shape == values.shape, key
                assert rel_gap(values, old) <= 1e-12, key

    def test_lcps_run_over_the_live_slots(self, monkeypatch):
        # every exercise step of the stacked route solves an LCP over the
        # N + (n_ticks - 1) m live slots: the knock-out level is not in it
        sizes = []

        def recording(problem, **kwargs):
            sizes.append(problem.n)
            return policy_solve(problem, **kwargs)

        monkeypatch.setattr(pricer_downin, "policy_solve", recording)
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        for _, setup, rate in PUT_SETUPS:
            model, grid, gen = setup(n=24)
            ladder = build_ladder(1 / 12, 1 / 36, grid.n_states, grid.n_below)
            assert ladder.n_ticks == 4 and ladder.n_below > 0
            live = grid.n_states + 3 * ladder.n_below
            sizes.clear()
            price_perpetual_downout(model, grid, put_contract(math.inf, rate),
                                    dtick=1 / 36, gen=gen)
            assert sizes == [live]
            sizes.clear()
            price_finite_downout(model, grid, tg, put_contract(0.25, rate),
                                 dtick=1 / 36)
            assert sizes == [live] * (len(tg.times) - 1)

    def test_public_output_is_the_stacked_output(self):
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        for _, setup, rate in PUT_SETUPS:
            model, grid, gen = setup(n=24)
            c = put_contract(0.25, rate)
            ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
            gens = [gen] * (tg.idx_t_plus + 1)
            auto = price_finite_downout(model, grid, tg, c, dtick=1 / 36)
            np.testing.assert_array_equal(
                auto.values, _stacked(gens, ladder, f0, rate, tg.dt))
            c = put_contract(math.inf, rate)
            auto = price_perpetual_downout(model, grid, c, dtick=1 / 36, gen=gen)
            np.testing.assert_array_equal(
                auto.values[0], perpetual(_stacked, gen, ladder, f0, rate))

    def test_one_level_ladder_on_a_tridiagonal_chain_is_banded(self, monkeypatch):
        # dd > window: one live level, whose operator is the chain's own
        # tridiagonal one with the knock-out tick on the below diagonal
        model, grid, gen = small_bs_setup(n=48)
        ladder = build_ladder(1 / 12, 1 / 10, grid.n_states, grid.n_below)
        assert ladder.n_ticks == 1 and ladder.n_below > 0
        op = pricer_downout._ladder_slice_operator(gen, ladder, 0.1, 1 / 12)
        assert op.bands is not None
        tg = TimeGrid(dt=1 / 12, horizon=0.25)

        def put_surfaces():
            return (price_perpetual_downout(model, grid, put_contract(math.inf, 0.1),
                                            dtick=1 / 10, gen=gen).values,
                    price_finite_downout(model, grid, tg, put_contract(0.25, 0.1),
                                         dtick=1 / 10).values)

        def as_csc(gen, ladder, rate, dt):
            a0, cG = pricer_downout._slice_coefficients(rate, dt)
            eye = sparse.identity(ladder.total, format="csr")
            return LCPOperator(a0 * eye - cG * duration_generator(gen, ladder))

        banded = put_surfaces()
        monkeypatch.setattr(pricer_downout, "_ladder_slice_operator", as_csc)
        assert as_csc(gen, ladder, 0.1, 1 / 12).bands is None
        for got, ref in zip(banded, put_surfaces()):
            assert rel_gap(got, ref) <= 1e-12
