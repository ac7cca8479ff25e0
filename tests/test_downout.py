"""Down-out pricing: ladder bookkeeping, operators, and both solve routes."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from parisian.ctmc import TimeGrid, build_generator, build_grid, slice_generators
from parisian.models import bs_model, kou_model, KouParams
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    vanilla_american_perpetual,
)
from parisian import pricer_downin
from parisian.numerics import policy_solve
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


def contract(flavor, window=1 / 12, maturity=math.inf, rate=0.1, strike=95.0):
    return ContractSpec(payoff=american_call(strike), barrier=90.0,
                        window=window, maturity=maturity, rate=rate,
                        flavor=flavor)


def route_inputs(model, grid, c, dtick):
    """(ladder, payoff on the states): what the private routes take."""
    below = grid.below_barrier(c.barrier_state(model))
    return (build_ladder(c.window, dtick, below),
            c.payoff_states(model, grid.states))


def perpetual(route, gen, ladder, f0, rate):
    """A route run as the perpetual one-slice case: row 0, ``dt=None``."""
    return route([gen, gen], ladder, f0, rate, None)[0]


# ---------------------------------------------------------------------------
# ladder bookkeeping
# ---------------------------------------------------------------------------


class TestDurationLadder:
    def test_tick_count_covers_window(self):
        below = np.array([True, True, False])
        # exact divisor: 10 live ticks inside the window plus the first one past
        lad = build_ladder(1 / 12, 1 / 120, below)
        assert lad.n_ticks == 11
        # non-divisor window
        lad2 = build_ladder(0.25, 0.1, below)
        assert lad2.n_ticks == 3

    def test_slot_layout(self):
        below = np.array([True, True, False, False])
        lad = DurationLadder(n_states=4, below=below, n_ticks=3, dtick=0.1)
        assert lad.total == 4 + 3 * 2
        assert lad.slot(0, 3) == 3
        assert lad.slot(1, 0) == 4
        assert lad.slot(2, 1) == 7
        assert lad.level_slice(0) == slice(0, 4)
        assert lad.level_slice(3) == slice(8, 10)
        with pytest.raises(IndexError):
            lad.slot(1, 2)  # above-barrier state has no deep-level slot

    def test_stack_payoff_layout(self):
        below = np.array([True, False, True])
        lad = DurationLadder(n_states=3, below=below, n_ticks=2, dtick=0.1)
        f = np.array([5.0, 7.0, 9.0])
        stacked = lad.stack_payoff(f)
        np.testing.assert_array_equal(stacked,
                                      [5.0, 7.0, 9.0, 5.0, 9.0, 0.0, 0.0])

    def test_validation(self):
        below = np.array([True, False])
        with pytest.raises(ValueError):
            build_ladder(0.0, 0.1, below)
        with pytest.raises(ValueError):
            build_ladder(0.5, -0.1, below)
        with pytest.raises(ValueError):
            DurationLadder(n_states=3, below=below, n_ticks=2, dtick=0.1)
        with pytest.raises(ValueError):
            DurationLadder(n_states=2, below=below, n_ticks=0, dtick=0.1)


# ---------------------------------------------------------------------------
# augmented generator
# ---------------------------------------------------------------------------


class TestDurationGenerator:
    def random_chain(self, rng, n=9):
        R = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        np.fill_diagonal(R, 0.0)
        np.fill_diagonal(R, -R.sum(axis=1))
        return R

    def test_row_sums_and_absorbing_top(self):
        rng = np.random.default_rng(22)
        R = self.random_chain(rng)
        below = np.arange(9) < 4
        lad = build_ladder(0.3, 0.1, below)
        A = duration_generator(R, lad)
        assert A.format == "csr"
        A = A.toarray()
        # live rows keep the spatial row sums (the clock redistributes mass,
        # never creates or destroys it); the knocked-out level is frozen
        np.testing.assert_allclose(A.sum(axis=1)[: lad.total - lad.n_below],
                                   0.0, atol=1e-12)
        top = lad.level_slice(lad.n_ticks)
        np.testing.assert_array_equal(A[top], 0.0)
        # off-diagonal rates nonnegative
        off = A - np.diag(np.diag(A))
        assert off.min() >= 0.0

    def test_upcross_resets_to_level_zero(self):
        R = np.zeros((3, 3))
        R[0, 2] = 1.5  # below state jumping straight above the barrier
        np.fill_diagonal(R, -R.sum(axis=1))
        below = np.array([True, True, False])
        lad = build_ladder(0.2, 0.1, below)
        A = duration_generator(R, lad).toarray()
        r1 = lad.slot(1, 0)
        assert A[r1, 2] == pytest.approx(1.5)           # lands on level 0
        assert A[r1, lad.slot(2, 0)] == pytest.approx(10.0)  # clock tick
        assert A[r1, r1] == pytest.approx(-1.5 - 10.0)  # spatial + clock

    def test_mask_disagreement_raises(self):
        model, grid, gen = small_bs_setup(n=24)
        wrong = np.zeros(grid.n_states, dtype=bool)
        wrong[:3] = True
        lad = build_ladder(0.25, 0.1, wrong)
        with pytest.raises(ValueError):
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
            res = price_perpetual_downout(gen, contract(Flavor.DOWN_OUT,
                                                        window=window),
                                          model, dtick=window / 4)
            assert np.all(res.level0 <= vanilla + 1e-8)
            if prev is not None:
                assert np.all(res.level0 >= prev - 1e-10)
            prev = res.level0

    def test_deeper_levels_worth_less(self):
        model, grid, gen = small_bs_setup(n=64)
        res = price_perpetual_downout(gen, contract(Flavor.DOWN_OUT), model,
                                      dtick=1 / 48)
        for level in range(1, res.ladder.n_ticks):
            shallow = res.level_values(level - 1)
            deep = res.level_values(level)
            if level == 1:
                shallow = shallow[res.ladder.below]
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
        res = price_perpetual_downout(gen, contract(Flavor.DOWN_OUT), model,
                                      dtick=1 / 36)
        assert res.value_at(360.0) == res.level0[-1]
        assert res.value_at(50.0, level=1) >= 0.0
        for spot, level in ((400.0, 0), (5.0, 0), (math.nan, 0),
                            (95.0, 1), (5.0, 1)):  # level 1: below 90 only
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot, level=level)

    def test_one_lcp_per_price(self, monkeypatch):
        # the reduced route (call) and the stacked route (put) each solve the
        # perpetual problem as a single cold LCP
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("active0"))
            return policy_solve(*args, **kwargs)

        monkeypatch.setattr(pricer_downin, "policy_solve", counting)
        model, _, gen = small_bs_setup(n=48)
        put = ContractSpec(payoff=lambda s: np.maximum(95.0 - s, 0.0),
                           barrier=90.0, window=1 / 12, maturity=math.inf,
                           rate=0.1, flavor=Flavor.DOWN_OUT)
        for c in (contract(Flavor.DOWN_OUT), put):
            calls.clear()
            price_perpetual_downout(gen, c, model, dtick=1 / 36)
            assert calls == [None]

    def test_validation(self):
        model, grid, gen = small_bs_setup(n=24)
        with pytest.raises(ValueError):
            price_perpetual_downout(gen, contract(Flavor.DOWN_IN), model,
                                    dtick=1 / 36)
        with pytest.raises(ValueError):
            price_perpetual_downout(gen, contract(Flavor.DOWN_OUT,
                                                  maturity=1.0), model,
                                    dtick=1 / 36)
        with pytest.raises(ValueError):
            price_perpetual_downout(gen.as_dense(),
                                    contract(Flavor.DOWN_OUT), model,
                                    dtick=1 / 36)  # plain matrix, no grid


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
        perp = price_perpetual_downout(gen, contract(Flavor.DOWN_OUT), model,
                                       dtick=1 / 48)
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

    def test_terminal_slice_is_zero_and_top_level_zero(self):
        model, grid, gen = small_bs_setup(n=32)
        res = price_finite_downout(model, grid, TimeGrid(dt=1 / 12, horizon=0.5),
                                   contract(Flavor.DOWN_OUT, maturity=0.5),
                                   dtick=1 / 24)
        np.testing.assert_array_equal(res.values[-1], 0.0)
        top = res.ladder.level_slice(res.ladder.n_ticks)
        # knocked-out slots never exceed solver roundoff
        np.testing.assert_allclose(res.values[:, top], 0.0, atol=1e-12)

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
            auto = price_perpetual_downout(gen, c, model, dtick=1 / 36)
            np.testing.assert_array_equal(
                auto.values, perpetual(_reduced, gen, ladder, f0, rate))

    def test_value_at_rejects_spots_off_the_states(self):
        model, grid, _ = small_bs_setup(n=32)  # states 10..360
        tg = TimeGrid(dt=1 / 12, horizon=0.25)
        res = price_finite_downout(model, grid, tg,
                                   contract(Flavor.DOWN_OUT, maturity=0.25),
                                   dtick=1 / 24)
        assert res.value_at(10.0, slice_idx=1) == res.level0[1, 0]
        assert res.value_at(50.0, level=1) >= 0.0
        for spot, level in ((400.0, 0), (5.0, 0), (math.inf, 0),
                            (95.0, 1), (5.0, 1)):  # level 1: below 90 only
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot, level=level)

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
        # dense jump blocks: the explicit Q^-1 against the factor of the
        # stacked ladder, with sigma(t) and the shared jump part of every slice
        model, grid, _ = small_kou_setup(n=40)
        model = dataclasses.replace(
            model, time_homogeneous=False,
            diffusion_sq=lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                                   (0.3 * (1 + t / 2)) ** 2))
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
        ladder = build_ladder(1 / 12, 1 / 36, grid.below_mask)
        ai = ladder.above_indices
        for dt in (None, 1 / 24):
            ops = _ReducedLadderOps(gen, ladder, 0.1, dt=dt)
            assert ops.A_eff.is_sparse and ops.A_eff.bands is not None
            assert ops.A_eff.n == ladder.n_states - ladder.n_below
            np.testing.assert_array_equal(ops.coupled, [ladder.n_below])
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
        ladder = build_ladder(0.3, 0.1, below)
        ops = _ReducedLadderOps(R, ladder, 0.1)
        np.testing.assert_array_equal(ops.coupled, [5, 7])
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
            price_perpetual_downout(gen, contract(Flavor.DOWN_OUT, rate=rate),
                                    model, dtick=1 / 36)
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
        for setup, rate in ((small_bs_setup, 0.1), (small_kou_setup, 0.05)):
            model, grid, gen = setup(n=40)
            c = dataclasses.replace(c, rate=rate)
            ladder, f0 = route_inputs(model, grid, c, dtick=1 / 36)
            assert np.all(f0[ladder.below] == 0.0)
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
            perp = price_perpetual_downout(gen, put_contract(math.inf, rate),
                                           model, dtick=1 / 36)
            fin = price_finite_downout(model, grid, tg,
                                       put_contract(0.25, rate), dtick=1 / 36)
            for key, values in ((f"{name}/perpetual", perp.values),
                                (f"{name}/finite", fin.values)):
                assert rel_gap(values, np.array(pinned[key])) <= 1e-12, key

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
            auto = price_perpetual_downout(gen, c, model, dtick=1 / 36)
            np.testing.assert_array_equal(
                auto.values, perpetual(_stacked, gen, ladder, f0, rate))
