"""Excursion-trigger pricing tests: transform, slices and surfaces."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisian.bench_cli import price_point, reference_option
from parisian.ctmc import TimeGrid, build_generator, build_grid, slice_matrix
from parisian.models import KouParams, bs_model, kou_model
from parisian.numerics import LCPOperator, LCPProblem, lemke_solve
from parisian.oracle import sample_path, simulate_paths
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    _finite_downin,
    _slice_blocks,
    american_call,
    american_surface,
    bermudan_slice,
    parisian_transform,
    price_finite_downin,
    price_perpetual_downin,
    vanilla_american_perpetual,
)

BS = bs_model(r_f=0.10, dividend=0.05, sigma=0.3)


def random_generator(rng, n, max_rate=4.0, absorb_ends=True):
    """Dense conservative generator with off-diagonal mass near the diagonal."""
    R = rng.uniform(0.0, max_rate, size=(n, n))
    R *= rng.uniform(0.0, 1.0, size=(n, n)) < 0.6
    np.fill_diagonal(R, 0.0)
    if absorb_ends:
        R[0] = 0.0
        R[-1] = 0.0
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def small_bs_setup(n=24, lo=30.0, hi=270.0):
    grid = build_grid(lo, hi, barrier=90.0, strike=95.0, n=n)
    gen = build_generator(BS, grid, 0.0, "error")
    return grid, gen


class TestContractSpec:
    def test_validation(self):
        f = american_call(95.0)
        with pytest.raises(ValueError):
            ContractSpec(f, barrier=90.0, window=0.0, maturity=1.0,
                         rate=0.1, flavor=Flavor.DOWN_IN)
        with pytest.raises(ValueError):
            ContractSpec(f, barrier=90.0, window=0.1, maturity=0.0,
                         rate=0.1, flavor=Flavor.DOWN_IN)
        with pytest.raises(ValueError):
            ContractSpec(f, barrier=90.0, window=0.1, maturity=1.0,
                         rate=-0.1, flavor=Flavor.DOWN_IN)
        with pytest.raises(ValueError):
            ContractSpec(f, barrier=90.0, window=0.1, maturity=math.inf,
                         rate=0.0, flavor=Flavor.DOWN_IN)

    def test_payoff_and_barrier_follow_model_coordinate(self):
        c = ContractSpec(american_call(95.0), barrier=90.0, window=0.1,
                         maturity=1.0, rate=0.05, flavor=Flavor.DOWN_IN)
        states_price = np.array([80.0, 100.0])
        assert np.allclose(c.payoff_states(BS, states_price), [0.0, 5.0])
        assert c.barrier_state(BS) == pytest.approx(90.0)

        from parisian.models import KouParams, kou_model
        kou = kou_model(KouParams(sigma=0.3, lam=1.0, eta_plus=10.0,
                                  eta_minus=10.0, p_plus=0.5, p_minus=0.5,
                                  r_f=0.05))
        states_log = np.log(states_price)
        assert np.allclose(c.payoff_states(kou, states_log), [0.0, 5.0])
        assert c.barrier_state(kou) == pytest.approx(math.log(90.0))


class TestVanillaPerpetual:
    def test_matches_free_domain_call_closed_form(self):
        # wide domain so truncation error is below the tolerance
        grid = build_grid(0.0, 3000.0, 90.0, 95.0, 1200,
                          split=(150, 300, 750))
        gen = build_generator(BS, grid, 0.0, "error")
        f = np.maximum(grid.states - 95.0, 0.0)
        v = vanilla_american_perpetual(gen, f, rate=0.10)
        # positive root of 0.045 b^2 + 0.005 b - 0.1 = 0 and smooth fit
        b1 = (-0.005 + math.sqrt(0.005**2 + 4 * 0.045 * 0.1)) / (2 * 0.045)
        s_star = 95.0 * b1 / (b1 - 1.0)
        ref = (s_star - 95.0) * (90.0 / s_star) ** b1
        got = grid.interp(v, 90.0)
        assert got == pytest.approx(ref, rel=2e-3)

    def test_matches_perpetual_put_closed_form(self):
        grid = build_grid(1.0, 2000.0, 90.0, 95.0, 1000, split=(400, 200, 400))
        gen = build_generator(BS, grid, 0.0, "error")
        f = np.maximum(95.0 - grid.states, 0.0)
        v = vanilla_american_perpetual(gen, f, rate=0.10)
        b2 = (-0.005 - math.sqrt(0.005**2 + 4 * 0.045 * 0.1)) / (2 * 0.045)
        s_star = 95.0 * b2 / (b2 - 1.0)
        ref = (95.0 - s_star) * (90.0 / s_star) ** b2
        assert grid.interp(v, 90.0) == pytest.approx(ref, rel=2e-3)

    def test_dominates_payoff_and_requires_positive_rate(self):
        grid, gen = small_bs_setup()
        f = np.maximum(grid.states - 95.0, 0.0)
        v = vanilla_american_perpetual(gen, f, 0.10)
        assert np.all(v >= f - 1e-10)
        with pytest.raises(ValueError):
            vanilla_american_perpetual(gen, f, 0.0)

    def test_solver_variants_agree(self):
        grid, gen = small_bs_setup(n=20)
        f = np.maximum(grid.states - 95.0, 0.0)
        # the production solve against the Lemke reference on the same LCP
        A = 0.10 * np.eye(gen.dimension) - gen.as_dense()
        ref = lemke_solve(LCPProblem(A, A @ f))
        assert ref.solved
        got = vanilla_american_perpetual(gen, f, 0.10)
        assert np.allclose(got, f + ref.z, atol=1e-9)


class TestParisianTransform:
    def test_structure_and_subprobability(self):
        grid, gen = small_bs_setup()
        H = parisian_transform(gen, window=1 / 12, rate=0.10)
        above = ~grid.below_mask
        assert H.shape == (grid.n_states, grid.n_states)
        assert np.all(H >= -1e-12)
        # activation can only happen strictly below the barrier
        assert np.allclose(H[:, above], 0.0)
        assert np.all(H.sum(axis=1) <= math.exp(-0.10 / 12) + 1e-10)

    def test_row_sums_decrease_with_window(self):
        grid, gen = small_bs_setup()
        s1 = parisian_transform(gen, 1 / 24, 0.10).sum(axis=1)
        s2 = parisian_transform(gen, 1 / 6, 0.10).sum(axis=1)
        assert np.all(s2 <= s1 + 1e-12)

    def test_tiny_window_approaches_first_touch_kernel(self):
        grid, gen = small_bs_setup()
        R = gen.as_dense()
        below = grid.below_mask
        bi, ai = np.flatnonzero(below), np.flatnonzero(~below)
        H = parisian_transform(gen, window=1e-9, rate=0.10)
        # below start: triggers on the spot
        assert np.allclose(H[np.ix_(bi, bi)], np.eye(len(bi)), atol=1e-6)
        # above start: discounted first-passage distribution into the
        # below region, (rate I - Gaa)^{-1} Gab
        touch = np.linalg.solve(
            0.10 * np.eye(len(ai)) - R[np.ix_(ai, ai)], R[np.ix_(ai, bi)]
        )
        assert np.allclose(H[np.ix_(ai, bi)], touch, atol=1e-6)

    def test_empty_below_region_gives_zero(self):
        grid, gen = small_bs_setup()
        H = parisian_transform(
            gen, 1 / 12, 0.10, below=np.zeros(grid.n_states, bool)
        )
        assert np.allclose(H, 0.0)

    def test_matches_path_simulation(self):
        grid, gen = small_bs_setup(n=14)
        H = parisian_transform(gen, window=1 / 12, rate=0.10)
        x0 = int(np.searchsorted(grid.states, 90.0))
        sim = simulate_paths(gen, x0=x0, window=1 / 12, rate=0.10,
                             n_paths=20_000, rng_seed=7)
        err = np.abs(H[x0] - sim.estimate)
        assert np.all(err <= 3.0 * sim.std_error + 1e-4)


class TestPerpetualDownIn:
    def make_contract(self, window=1 / 12):
        return ContractSpec(american_call(95.0), barrier=90.0, window=window,
                            maturity=math.inf, rate=0.10, flavor=Flavor.DOWN_IN)

    def test_bounded_by_vanilla_and_positive(self):
        grid, gen = small_bs_setup(n=48)
        res = price_perpetual_downin(gen, self.make_contract(), BS)
        assert np.all(res.values >= -1e-12)
        assert np.all(res.values <= res.vanilla + 1e-9)
        assert res.value_at(90.0) > 0

    def test_value_at_rejects_spots_off_the_states(self):
        grid, gen = small_bs_setup(n=48)  # states 30..270
        res = price_perpetual_downin(gen, self.make_contract(), BS)
        assert res.value_at(270.0) == res.values[-1]
        for spot in (300.0, 20.0, math.nan):
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot)

    def test_monotone_in_window(self):
        grid, gen = small_bs_setup(n=48)
        v_short = price_perpetual_downin(gen, self.make_contract(1 / 24), BS)
        v_long = price_perpetual_downin(gen, self.make_contract(1 / 6), BS)
        assert np.all(v_long.values <= v_short.values + 1e-10)

    def test_below_start_equals_transform_row_combination(self):
        grid, gen = small_bs_setup(n=32)
        contract = self.make_contract()
        res = price_perpetual_downin(gen, contract, BS)
        H = parisian_transform(gen, contract.window, contract.rate)
        assert np.allclose(res.values, H @ res.vanilla, atol=1e-10)

    def test_rejects_wrong_contract_kind(self):
        grid, gen = small_bs_setup()
        finite = ContractSpec(american_call(95.0), 90.0, 1 / 12, 1.0, 0.10,
                              Flavor.DOWN_IN)
        with pytest.raises(ValueError):
            price_perpetual_downin(gen, finite, BS)
        wrong_flavor = ContractSpec(american_call(95.0), 90.0, 1 / 12,
                                    math.inf, 0.10, Flavor.DOWN_OUT)
        with pytest.raises(ValueError):
            price_perpetual_downin(gen, wrong_flavor, BS)


class TestSliceKernels:
    """The slice blocks and the finite down-in recursion against oracles.

    Slice j of the recursion satisfies C_b = v + sum_k w_k C_a[j+k] and
    C_a = sum_m E^m h- C_b[j+m]; the tests rebuild v, the u+ weights w_k
    and the unrolled u- sum independently and check the recursion's own
    output against them.
    """

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    @staticmethod
    def split(below):
        return np.flatnonzero(below), np.flatnonzero(~below)

    def test_h_kernel_rows_columns_and_bounds(self):
        grid, gen = small_bs_setup()
        bi, ai = self.split(grid.below_mask)
        _, h1, _, _, hm, hp, _ = _slice_blocks(gen, bi, ai, 1 / 12, 1 / 60)
        # up-cross before the tick: subprobability rows into the above block
        assert np.all(h1 >= -1e-14)
        assert np.all(h1.sum(axis=1) <= 1 + 1e-12)
        # completed-window correction never exceeds the plain kernel
        assert np.all(hp >= -1e-14)
        assert np.all(hp <= h1 + 1e-14)
        # down-cross kernel: above rows land below
        assert np.all(hm >= -1e-14)
        assert np.all(hm.sum(axis=1) <= 1 + 1e-12)
        # a diffusion crosses at the barrier-adjacent nodes only
        assert np.all(h1[:, 1:] == 0.0)
        assert np.all(hm[:, :-1] == 0.0)

    def test_h1_is_up_cross_before_tick_probability(self):
        # 2-state chain: state 0 below with rate a up; probability of
        # reaching state 1 before an exp(1/dt) tick is a / (a + 1/dt)
        a, dt = 3.0, 0.25
        R = np.array([[-a, a], [0.0, 0.0]])
        bi, ai = self.split(np.array([True, False]))
        _, h1, *_ = _slice_blocks(R, bi, ai, 0.5, dt)
        assert h1[0, 0] == pytest.approx(a / (a + 1 / dt))

    def test_v_kernel_scalar_poisson_oracle(self):
        # single absorbing below state: trigger happens iff the window
        # passes, collecting the Poisson-weighted future slice values
        window, dt, n_slices = 0.5, 0.125, 9
        lam = window / dt
        disc = self.rng.uniform(0.5, 2.0, size=(n_slices, 1))
        R = np.zeros((1, 1))
        C = _finite_downin([R] * n_slices, disc, np.array([True]), window, dt)
        from scipy.stats import poisson
        for j in range(n_slices - 1):
            ks = np.arange(n_slices - j)
            ref = float(np.sum(poisson.pmf(ks, lam) * disc[j:, 0]))
            assert C[j, 0] == pytest.approx(ref, rel=1e-10)
        assert C[-1, 0] == 0.0

    def test_v_kernel_survives_poisson_underflow(self):
        # window/dt past ~745: e^{-window/dt} underflows and (window/dt)^k/k!
        # overflows, yet an absorbing below state still triggers (and
        # collects the unit value) well before a horizon of twice the window
        for dt in (1 / 760, 1 / 2000):
            n_slices = int(round(2.0 / dt)) + 1
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                C = _finite_downin([np.zeros((1, 1))] * n_slices,
                                   np.ones((n_slices, 1)), np.array([True]),
                                   1.0, dt)
            assert C[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_u_plus_quadrature_oracle(self):
        # the weight on the slice reached after k ticks is the integral over
        # the up-cross time s of (stay below for s) x (k ticks land in s):
        # int_0^D e^{G_bb s} e^{-s/dt} (s/dt)^k / k!  ds  G_ba
        from scipy.integrate import quad_vec
        from scipy.linalg import expm
        from scipy.stats import poisson

        n = 7
        R = random_generator(self.rng, n, absorb_ends=False)
        below = np.arange(n) < 4
        window, dt = 0.4, 0.1
        bi, ai = self.split(below)
        Gbb = R[np.ix_(bi, bi)]
        Gba = R[np.ix_(bi, ai)]
        n_slices = 4
        W = self.rng.uniform(0.5, 2.0, size=(n_slices, n))
        W[-1] = 0.0
        C = _finite_downin([R] * n_slices, W, below, window, dt)
        assert np.all(C[:-1, ai] > 0.0)

        M = Gbb - np.eye(len(bi)) / dt

        def weight(k):
            def integrand(s):
                return expm(M * s) * (s / dt) ** k / math.factorial(k)
            return quad_vec(integrand, 0.0, window, epsabs=1e-12)[0] @ Gba

        survive = expm(window * Gbb)
        for j in range(n_slices - 1):
            ks = np.arange(n_slices - j)
            v = survive @ (poisson.pmf(ks, window / dt) @ W[j:, bi])
            up = sum(weight(k) @ C[j + k, ai] for k in ks)
            assert np.allclose(C[j, bi], v + up, atol=1e-9)

    def test_u_minus_matches_explicit_unrolled_sum(self):
        n = 7
        R = random_generator(self.rng, n, absorb_ends=True)
        below = np.arange(n) < 3
        dt = 0.2
        n_slices = 6
        W = self.rng.uniform(0.0, 1.5, size=(n_slices, n))
        C = _finite_downin([R] * n_slices, W, below, 0.3, dt)

        bi, ai = self.split(below)
        Gaa = R[np.ix_(ai, ai)]
        Gab = R[np.ix_(ai, bi)]
        E = np.linalg.inv(np.eye(len(ai)) - dt * Gaa)
        hm = np.linalg.solve(np.eye(len(ai)) / dt - Gaa, Gab)
        for j in range(n_slices):
            # direct unroll: C_a(j) = sum_m E^m hm C_b(j+m)
            ref = np.zeros(len(ai))
            power = np.eye(len(ai))
            for m in range(n_slices - j):
                ref += power @ (hm @ C[j + m][bi])
                power = power @ E
            assert np.allclose(C[j][ai], ref, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 10), st.integers(1, 3),
           st.floats(0.05, 0.5), st.floats(0.02, 0.3))
    def test_kernel_bounds_hold_on_random_chains(self, n, m, window, dt):
        rng = np.random.default_rng(n * 100 + m)
        R = random_generator(rng, n, absorb_ends=False)
        np.fill_diagonal(R, 0.0)
        R[0, :] = 0.0
        np.fill_diagonal(R, -R.sum(axis=1))
        bi, ai = self.split(np.arange(n) < min(m, n - 1))
        _, h1, _, _, hm, hp, _ = _slice_blocks(R, bi, ai, window, dt)
        for mat in (h1, h1 - hp, hp, hm):
            assert np.all(mat >= -1e-12)
            assert np.all(mat.sum(axis=1) <= 1 + 1e-10)


def slice_operator(gen, dt):
    """A fresh Bermudan slice operator I - dt G."""
    return LCPOperator(slice_matrix(gen, 1.0, dt))


class TestBermudanSlice:
    def test_two_state_hand_computation(self):
        # state 0 -> 1 with rate a; obstacle g; next-slice values c
        a, dt = 2.0, 0.5
        R = np.array([[-a, a], [0.0, 0.0]])
        g = np.array([1.0, 0.0])
        c = np.array([0.0, 3.0])
        vals, _ = bermudan_slice(slice_operator(R, dt), c, g)
        # continuation at 0: solve (I - dt G) x = c -> x0 = (c0 + dt a c1)/(1+dt a)
        cont0 = (0.0 + dt * a * 3.0) / (1 + dt * a)
        assert vals[1] == pytest.approx(3.0)
        assert vals[0] == pytest.approx(max(1.0, cont0))

    def test_warm_start_matches_cold(self):
        grid, gen = small_bs_setup(n=30)
        f = np.maximum(grid.states - 95.0, 0.0)
        c = 1.1 * f + 0.5
        cold, active = bermudan_slice(slice_operator(gen, 1 / 60), c, f)
        shared = slice_operator(gen, 1 / 60)
        bermudan_slice(shared, c, f)
        warm, _ = bermudan_slice(shared, c, f, active)  # reuses the factor
        again, _ = bermudan_slice(slice_operator(gen, 1 / 60), c, f, active)
        assert np.allclose(cold, warm)
        assert np.allclose(cold, again)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 12), st.floats(0.05, 0.9))
    def test_solution_solves_the_complementarity_problem(self, n, dt):
        rng = np.random.default_rng(n)
        R = random_generator(rng, n, absorb_ends=True)
        g = rng.uniform(0.0, 2.0, n)
        c = rng.uniform(0.0, 2.0, n)
        vals, _ = bermudan_slice(slice_operator(R, dt), c, g)
        resid = (np.eye(n) - dt * R) @ vals - c
        assert np.all(vals >= g - 1e-8)
        assert np.all(resid >= -1e-8)
        assert np.all(np.minimum(resid, vals - g) <= 1e-7)


class TestFiniteDownIn:
    def make(self, window=1 / 12, T=1.0):
        return ContractSpec(american_call(95.0), barrier=90.0, window=window,
                            maturity=T, rate=0.05, flavor=Flavor.DOWN_IN)

    def setup_model(self):
        return bs_model(r_f=0.05, dividend=0.0, sigma=0.3)

    def test_vanilla_surface_equals_fresh_slice_solves(self):
        # the surface shares one operator (and its last factor) across
        # slices; solving every slice on a fresh operator gives the same bits
        def fresh_slices(gens, obstacles, dt):
            W = np.zeros((len(gens), len(obstacles[0])))
            warm = None
            for j in range(len(gens) - 2, -1, -1):
                W[j], warm = bermudan_slice(slice_operator(gens[j], dt),
                                            W[j + 1], obstacles[j], warm)
            return W

        def kou(sigma):
            return kou_model(KouParams(sigma=sigma, lam=3.0, eta_plus=10.0,
                                       eta_minus=10.0, p_plus=0.5,
                                       p_minus=0.5, r_f=0.05))

        model = kou(0.3)
        grid = build_grid(math.log(18.0), math.log(360.0), math.log(90.0),
                          math.log(95.0), 60)
        tg = TimeGrid(horizon=1.0, dt=1 / 20)
        contract = self.make()
        res = price_finite_downin(model, grid, tg, contract)
        gen = build_generator(model, grid)
        f = contract.payoff_states(model, grid.states)
        n_slices = len(tg.times)
        W = fresh_slices([gen] * n_slices, [f] * n_slices, tg.dt)
        W *= np.exp(-contract.rate * tg.times)[:, None]
        np.testing.assert_array_equal(res.disc_vanilla, W)

        # a generator switch mid-way and per-slice ("exercise") obstacles
        half = n_slices // 2
        gens = [gen] * half + [build_generator(kou(0.4), grid)] * (n_slices - half)
        obstacles = np.exp(-contract.rate * tg.times)[:, None] * f[None, :]
        fresh = fresh_slices(gens, obstacles, tg.dt)
        surface = american_surface(
            gens, lambda g: slice_operator(g, tg.dt), obstacles)
        np.testing.assert_array_equal(surface, fresh)
        switched = price_finite_downin(model, grid, tg, contract, gen=gens,
                                       vanilla_discounting="exercise")
        np.testing.assert_array_equal(switched.disc_vanilla, fresh)
        assert not np.array_equal(
            fresh, fresh_slices([gen] * n_slices, obstacles, tg.dt))

    def test_long_window_keeps_its_price_past_poisson_underflow(self):
        # the window kernel exp(window G_bb) has a uniformization mean of 706
        # at n = 481 and 966 at n = 561, past where e^{-a} underflows
        cfg = dataclasses.replace(
            reference_option("bs", "finite-down-in").config, window=0.5)
        coarse, fine = (price_point(cfg, n).value for n in (481, 561))
        assert coarse > 0.2 and fine > 0.0
        assert abs(fine - coarse) <= 0.01 * coarse

    def test_bounded_by_vanilla_and_monotone_in_window(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 80)
        tg = TimeGrid(horizon=1.0, dt=1 / 30)
        short = price_finite_downin(model, grid, tg, self.make(1 / 24))
        long = price_finite_downin(model, grid, tg, self.make(1 / 6))
        assert np.all(short.disc_values <= short.disc_vanilla + 1e-10)
        assert np.all(long.disc_values <= short.disc_values + 1e-10)
        assert np.all(short.disc_values >= -1e-12)

    def test_value_increases_with_maturity(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 80)
        v1 = price_finite_downin(model, grid, TimeGrid(dt=1 / 30, horizon=0.5),
                                 self.make(T=0.5)).value_at(90.0)
        v2 = price_finite_downin(model, grid, TimeGrid(dt=1 / 30, horizon=1.0),
                                 self.make(T=1.0)).value_at(90.0)
        assert v2 >= v1 - 1e-10

    def test_matches_trigger_simulation_on_small_chain(self):
        # independent route for the kernel assembly: simulate the embedded
        # chain's excursion trigger and read the pricer's own vanilla
        # surface at the trigger instant
        model = self.setup_model()
        grid = build_grid(45.0, 180.0, 90.0, 95.0, 16)
        tg = TimeGrid(horizon=1.0, dt=1 / 12)
        contract = self.make(window=1 / 6)
        res = price_finite_downin(model, grid, tg, contract,
                                  vanilla_discounting="exercise")
        gen = build_generator(model, grid, 0.0, "error")
        R = gen.as_dense()
        below = grid.below_mask

        rng = np.random.default_rng(5)
        x0 = int(np.searchsorted(grid.states, 90.0))
        times = res.times
        draws = []
        for _ in range(4000):
            path = sample_path(R, x0, horizon=1.2, rng=rng)
            tau, state = path.excursion_trigger(below, contract.window)
            if math.isinf(tau):
                draws.append(0.0)
                continue
            ticks = rng.poisson(tau / tg.dt)
            if ticks >= len(times) - 1:
                draws.append(0.0)
                continue
            # discounted vanilla surface at the clock slice reached
            draws.append(res.disc_vanilla[ticks, state])
        draws = np.array(draws)
        mc = draws.mean()
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(res.value_at(90.0) - mc) <= 3.0 * se + 1e-3

    def test_discounting_conventions_ordered(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 80)
        tg = TimeGrid(horizon=1.0, dt=1 / 30)
        act = price_finite_downin(model, grid, tg, self.make(),
                                  vanilla_discounting="activation")
        exe = price_finite_downin(model, grid, tg, self.make(),
                                  vanilla_discounting="exercise")
        assert np.all(exe.disc_values <= act.disc_values + 1e-10)
        with pytest.raises(ValueError):
            price_finite_downin(model, grid, tg, self.make(),
                                vanilla_discounting="bogus")

    def test_value_at_rejects_spots_off_the_states(self):
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        res = price_finite_downin(self.setup_model(), grid,
                                  TimeGrid(horizon=0.5, dt=1 / 10),
                                  self.make(T=0.5))
        assert res.value_at(18.0, slice_idx=2) == res.disc_values[2, 0]
        for spot in (400.0, 10.0, -math.inf):
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot)

    def test_explicit_generator_list_matches_single(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 50)
        tg = TimeGrid(horizon=0.5, dt=1 / 10)
        contract = self.make(T=0.5)
        gen = build_generator(model, grid, 0.0, "error")
        single = price_finite_downin(model, grid, tg, contract, gen=gen)
        listed = price_finite_downin(
            model, grid, tg, contract,
            gen=[gen] * (tg.idx_t_plus + 1),
        )
        assert np.allclose(single.disc_values, listed.disc_values, atol=1e-9)

    def test_time_dependent_model_runs_dense(self):
        from parisian.models import ModelSpec, Coordinate

        def drift(t, x):
            return np.full_like(np.asarray(x, float), (0.05 + 0.01 * t) * x)

        def diff_sq(t, x):
            s = 0.25 + 0.1 * t
            return (s * np.asarray(x, float)) ** 2

        model = ModelSpec(drift=drift, diffusion_sq=diff_sq, jump_measure=None,
                          coordinate=Coordinate.PRICE, time_homogeneous=False,
                          name="bs-ramp")
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        tg = TimeGrid(horizon=0.5, dt=1 / 10)
        res = price_finite_downin(model, grid, tg, self.make(T=0.5))
        # pins the frozen-generator u+ (slice j's generator prices its whole
        # sum over later slices); the lattice DP oracle takes one generator
        assert res.value_at(90.0) == pytest.approx(0.638740975011075, rel=1e-12)
        pinned = {(0, 5): 0.31389977549188924, (0, 7): 1.8153931418217943,
                  (0, 10): 0.09248335258077103, (3, 6): 0.281496324974504,
                  (3, 9): 0.04756807461730095}
        for (j, i), ref in pinned.items():
            assert res.disc_values[j, i] == pytest.approx(ref, rel=1e-12)
        assert np.all(res.disc_values >= -1e-12)
        assert np.all(res.disc_values <= res.disc_vanilla + 1e-9)

    def test_rejects_a_time_grid_that_misses_the_maturity(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        with pytest.raises(ValueError, match="maturity"):
            price_finite_downin(model, grid, TimeGrid(dt=1 / 60, horizon=1.0),
                                self.make(T=0.25))
        price_finite_downin(model, grid, TimeGrid(dt=1 / 60, horizon=0.25),
                            self.make(T=0.25 * (1 + 1e-13)))

    def test_rejects_perpetual_contract(self):
        model = self.setup_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        perp = ContractSpec(american_call(95.0), 90.0, 1 / 12, math.inf,
                            0.05, Flavor.DOWN_IN)
        with pytest.raises(ValueError):
            price_finite_downin(model, grid, TimeGrid(dt=1 / 10, horizon=1.0), perp)
