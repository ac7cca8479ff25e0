"""Excursion-trigger pricing tests: transform, slices and surfaces."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisian import pricer_downin
from parisian.bench_cli import price_point, reference_option
from parisian.ctmc import (
    TimeGrid,
    build_generator,
    build_grid,
    resolve_rate_policy,
    slice_generators,
    slice_operator,
)
from parisian.models import KouParams, bs_model, kou_model
from parisian.numerics import LCPProblem, _Inverse, lemke_solve
from parisian.oracle import random_generator, sample_path, simulate_paths
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
        H = parisian_transform(gen, window=1 / 12, rate=0.10, n_below=grid.n_below)
        above = ~grid.below_mask
        assert H.shape == (grid.n_states, grid.n_states)
        assert np.all(H >= -1e-12)
        # activation can only happen strictly below the barrier
        assert np.allclose(H[:, above], 0.0)
        assert np.all(H.sum(axis=1) <= math.exp(-0.10 / 12) + 1e-10)

    def test_row_sums_decrease_with_window(self):
        grid, gen = small_bs_setup()
        s1 = parisian_transform(gen, 1 / 24, 0.10, grid.n_below).sum(axis=1)
        s2 = parisian_transform(gen, 1 / 6, 0.10, grid.n_below).sum(axis=1)
        assert np.all(s2 <= s1 + 1e-12)

    def test_tiny_window_approaches_first_touch_kernel(self):
        grid, gen = small_bs_setup()
        R = gen.as_dense()
        below = grid.below_mask
        bi, ai = np.flatnonzero(below), np.flatnonzero(~below)
        H = parisian_transform(gen, window=1e-9, rate=0.10, n_below=grid.n_below)
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
        H = parisian_transform(gen, 1 / 12, 0.10, n_below=0)
        assert np.allclose(H, 0.0)

    def test_matches_path_simulation(self):
        grid, gen = small_bs_setup(n=14)
        H = parisian_transform(gen, window=1 / 12, rate=0.10, n_below=grid.n_below)
        x0 = int(np.searchsorted(grid.states, 90.0))
        below = grid.states < 90.0 - 1e-9  # the barrier, stated independently
        sim = simulate_paths(gen.as_dense(), x0=x0, window=1 / 12, rate=0.10,
                             n_paths=20_000, rng_seed=7, below=below)
        err = np.abs(H[x0] - sim.estimate)
        assert np.all(err <= 3.0 * sim.std_error + 1e-4)


@pytest.mark.parametrize("rate", [0.0, -0.1])
def test_transform_rejects_a_rate_that_is_not_positive(rate):
    # at rate 0 the grid chain's absorbing bottom state makes G_bb singular
    grid, gen = small_bs_setup()
    with pytest.raises(ValueError, match="rate > 0"):
        parisian_transform(gen, 1 / 12, rate, grid.n_below)


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
        assert res.value_at(270.0) == res.values[0, -1]
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
        H = parisian_transform(gen, contract.window, contract.rate, grid.n_below)
        assert np.allclose(res.values[0], H @ res.vanilla[0], atol=1e-10)

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
        # a plain rate matrix has no grid to place the barrier on
        perpetual = dataclasses.replace(wrong_flavor, flavor=Flavor.DOWN_IN)
        with pytest.raises(ValueError, match="GeneratorMatrix"):
            price_perpetual_downin(gen.as_dense(), perpetual, BS)


class TestSliceKernels:
    """The slice blocks and the finite down-in recursion against oracles.

    Slice j of the recursion satisfies C_b = v + sum_k w_k C_a[j+k] and
    C_a = sum_m E^m h- C_b[j+m]; the tests rebuild v, the u+ weights w_k
    and the unrolled u- sum independently and check the recursion's own
    output against them.
    """

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_h_kernel_rows_columns_and_bounds(self):
        grid, gen = small_bs_setup()
        blocks = _slice_blocks(gen, grid.n_below, 1 / 12, 1 / 60)
        h1, hm, hp = blocks.h1, blocks.hm, blocks.hp
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
        h1 = _slice_blocks(R, 1, 0.5, dt).h1
        assert h1[0, 0] == pytest.approx(a / (a + 1 / dt))

    def test_v_kernel_scalar_poisson_oracle(self):
        # single absorbing below state: trigger happens iff the window
        # passes, collecting the Poisson-weighted future slice values
        window, dt, n_slices = 0.5, 0.125, 9
        lam = window / dt
        disc = self.rng.uniform(0.5, 2.0, size=(n_slices, 1))
        R = np.zeros((1, 1))
        C = _finite_downin([R] * n_slices, disc, 1, window, dt)
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
                                   np.ones((n_slices, 1)), 1, 1.0, dt)
            assert C[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_u_plus_quadrature_oracle(self):
        # the weight on the slice reached after k ticks is the integral over
        # the up-cross time s of (stay below for s) x (k ticks land in s):
        # int_0^D e^{G_bb s} e^{-s/dt} (s/dt)^k / k!  ds  G_ba
        from scipy.integrate import quad_vec
        from scipy.linalg import expm
        from scipy.stats import poisson

        n = 7
        R = random_generator(n, self.rng, scale=4.0)
        m = 4
        window, dt = 0.4, 0.1
        bi, ai = np.arange(m), np.arange(m, n)
        Gbb = R[np.ix_(bi, bi)]
        Gba = R[np.ix_(bi, ai)]
        n_slices = 4
        W = self.rng.uniform(0.5, 2.0, size=(n_slices, n))
        W[-1] = 0.0
        C = _finite_downin([R] * n_slices, W, m, window, dt)
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
        R = random_generator(n, self.rng, scale=4.0)
        R[[0, -1]] = 0.0  # absorbing ends
        dt = 0.2
        n_slices = 6
        W = self.rng.uniform(0.0, 1.5, size=(n_slices, n))
        C = _finite_downin([R] * n_slices, W, 3, 0.3, dt)

        bi, ai = np.arange(3), np.arange(3, n)
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
        R = random_generator(n, rng, scale=4.0)
        np.fill_diagonal(R, 0.0)
        R[0, :] = 0.0
        np.fill_diagonal(R, -R.sum(axis=1))
        blocks = _slice_blocks(R, min(m, n - 1), window, dt)
        h1, hm, hp = blocks.h1, blocks.hm, blocks.hp
        for mat in (h1, h1 - hp, hp, hm):
            assert np.all(mat >= -1e-12)
            assert np.all(mat.sum(axis=1) <= 1 + 1e-10)


def bs_sigma_t_model():
    """Black-Scholes in price coordinates with a drift and a volatility
    that grow with t."""

    from parisian.models import Coordinate, ModelSpec

    def drift(t, x):
        return np.full_like(np.asarray(x, float), (0.05 + 0.01 * t) * x)

    def diff_sq(t, x):
        return ((0.25 + 0.1 * t) * np.asarray(x, float)) ** 2

    return ModelSpec(drift=drift, diffusion_sq=diff_sq, jump_measure=None,
                     coordinate=Coordinate.PRICE, time_homogeneous=False,
                     name="bs-ramp")


class TestBandedSliceBlocks:
    """On a tridiagonal chain the slice blocks are band factors and
    one-column kernels; the same chain passed as a dense matrix takes the
    dense blocks, whose other columns are 0, and prices alike."""

    def test_one_column_kernels_are_the_dense_nonzero_columns(self):
        grid, gen = small_bs_setup()
        m = grid.n_below
        banded = _slice_blocks(gen, m, 1 / 12, 1 / 60)
        dense = _slice_blocks(gen.as_dense(), m, 1 / 12, 1 / 60)
        assert (banded.up, banded.down) == (slice(0, 1), slice(m - 1, m))
        assert banded.h1.shape == banded.hp.shape == (m, 1)
        assert banded.hm.shape == (len(grid.states) - m, 1)
        assert np.all(dense.h1[:, 1:] == 0.0) and np.all(dense.hp[:, 1:] == 0.0)
        assert np.all(dense.hm[:, :-1] == 0.0)
        for one, full in ((banded.h1, dense.h1[:, :1]), (banded.hp, dense.hp[:, :1]),
                          (banded.hm, dense.hm[:, -1:])):
            np.testing.assert_allclose(one, full, rtol=1e-14, atol=0)
        assert np.array_equal(banded.E, dense.E)
        below = np.linspace(0.5, 2.0, m)
        for inv in ("n_inv", "slice_inv"):
            np.testing.assert_allclose(getattr(banded, inv) @ below,
                                       getattr(dense, inv) @ below, rtol=1e-13)
        above = np.linspace(1.0, 3.0, len(grid.states) - m)
        np.testing.assert_allclose(banded.a_inv @ above, dense.a_inv @ above, rtol=1e-13)

    @staticmethod
    def assert_same_surface(banded, dense):
        gap = np.max(np.abs(banded - dense))
        assert gap <= 1e-13 * np.max(np.abs(dense))

    def test_perpetual_down_in_prices_alike_in_bands_and_dense(self):
        grid, gen = small_bs_setup(n=60)
        contract = ContractSpec(american_call(95.0), barrier=90.0, window=1 / 12,
                                maturity=math.inf, rate=0.05, flavor=Flavor.DOWN_IN)
        banded = price_perpetual_downin(gen, contract, BS).values[0]
        R = gen.as_dense()
        f = contract.payoff_states(BS, grid.states)
        H = parisian_transform(R, contract.window, contract.rate, grid.n_below)
        self.assert_same_surface(banded, H @ vanilla_american_perpetual(R, f, 0.05))

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_finite_down_in_prices_alike_in_bands_and_dense(self, time_dependent):
        model = bs_sigma_t_model() if time_dependent else BS
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 60)
        tg = TimeGrid(horizon=0.5, dt=1 / 20)
        contract = ContractSpec(american_call(95.0), barrier=90.0, window=1 / 12,
                                maturity=0.5, rate=0.05, flavor=Flavor.DOWN_IN)
        gens = slice_generators(model, grid, tg.times)
        assert all(g.is_tridiagonal for g in gens)
        assert len({id(g) for g in gens}) == (len(gens) if time_dependent else 1)
        banded = price_finite_downin(model, grid, tg, contract, gen=gens)
        dense = price_finite_downin(model, grid, tg, contract,
                                    gen=[g.as_dense() for g in gens])
        self.assert_same_surface(banded.values, dense.values)
        self.assert_same_surface(banded.vanilla, dense.vanilla)


def slice_closed_form(gen, window, rate, n_below):
    """H_p(rate) written out from the slice blocks at dt = 1/rate: below,
    X = e^{-rate window} (I - hp hm)^{-1} E; above, hm X[down]."""

    m = n_below
    b = _slice_blocks(gen, m, window, 1.0 / rate)
    X = math.exp(-rate * window) * (b.slice_inv @ b.E)
    H = np.zeros((m + len(b.hm),) * 2)
    H[:m, :m] = X
    H[m:, :m] = b.hm @ X[b.down]
    return H


class TestOneSliceCase:
    """The perpetual down-in and its trigger kernel are the finite down-in
    recursion's one-slice case at dt = 1/rate, which runs several payoffs at
    once."""

    @staticmethod
    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def chain(kind):
        tg = TimeGrid(horizon=0.5, dt=1 / 20)
        if kind == "kou":
            model = kou_model(KouParams(sigma=0.3, lam=3.0, eta_plus=10.0,
                                        eta_minus=10.0, p_plus=0.5, p_minus=0.5,
                                        r_f=0.05))
            grid = build_grid(math.log(18.0), math.log(360.0), math.log(90.0),
                              math.log(95.0), 40)
        else:
            model = bs_sigma_t_model() if kind == "bs-sigma-t" else BS
            grid = build_grid(18.0, 360.0, 90.0, 95.0, 60)
        gens = slice_generators(model, grid, tg.times)
        assert gens[0].is_tridiagonal == (kind != "kou")
        assert len({id(g) for g in gens}) == (len(gens) if kind == "bs-sigma-t" else 1)
        return grid, gens, tg.dt

    @pytest.mark.parametrize("kind", ["bs", "kou", "bs-sigma-t"])
    def test_payoff_columns_run_as_one_recursion(self, kind):
        # a matrix product or solve rounds apart from its one-column form
        # in the last bits, so the columns agree to 1e-14, not bit for bit
        grid, gens, dt = self.chain(kind)
        W = np.random.default_rng(5).uniform(0.0, 2.0, (len(gens), grid.n_states, 3))
        W[-1] = 0.0
        C = _finite_downin(gens, W, grid.n_below, 1 / 12, dt)
        assert C.shape == W.shape
        for k in range(W.shape[2]):
            one = _finite_downin(gens, np.ascontiguousarray(W[..., k]),
                                 grid.n_below, 1 / 12, dt)
            self.assert_close(C[..., k], one)

    def test_one_slice_run_makes_no_resolvent_solve(self, monkeypatch):
        solves = []
        blocks = pricer_downin._slice_blocks

        def spy(name, inv):
            def solve(factor, rhs):
                solves.append(name)
                return inv.solve(factor, rhs)
            return _Inverse(solve, inv.factor)

        def spied_blocks(gen, n_below, window, dt):
            b = blocks(gen, n_below, window, dt)
            return b._replace(n_inv=spy("n_inv", b.n_inv), a_inv=spy("a_inv", b.a_inv))

        monkeypatch.setattr(pricer_downin, "_slice_blocks", spied_blocks)
        grid, gen = small_bs_setup()
        contract = ContractSpec(american_call(95.0), barrier=90.0, window=1 / 12,
                                maturity=math.inf, rate=0.10, flavor=Flavor.DOWN_IN)
        W = np.zeros((3, grid.n_states))
        W[:2] = contract.payoff_states(BS, grid.states)
        for g in (gen, gen.as_dense()):
            _finite_downin([g, g], W[1:], grid.n_below, 1 / 12, 10.0)
        parisian_transform(gen, 1 / 12, 0.10, grid.n_below)
        price_perpetual_downin(gen, contract, BS)
        assert solves == []
        _finite_downin([gen] * 3, W, grid.n_below, 1 / 12, 10.0)
        assert solves == ["n_inv", "a_inv"]

    @pytest.mark.parametrize("family", ["bs", "kou", "vg"])
    def test_reference_blocks_match_the_slice_closed_form(self, family):
        cfg = reference_option(family, "perpetual-down-in").config
        res = price_point(cfg, cfg.grids[0]).result
        gen = build_generator(res.model, res.grid, 0.0,
                              resolve_rate_policy(cfg.rate_policy, res.model))
        m = res.grid.n_below
        H = slice_closed_form(gen, cfg.window, cfg.rate, m)
        self.assert_close(parisian_transform(gen, cfg.window, cfg.rate, m), H)
        self.assert_close(res.values[0], H @ res.vanilla[0])

    def test_random_chain_matches_the_slice_closed_form(self):
        R = random_generator(14, np.random.default_rng(8), conservative=False)
        m, window, rate = 6, 0.2, 0.07
        H = slice_closed_form(R, window, rate, m)
        self.assert_close(parisian_transform(R, window, rate, m), H)
        c_p = vanilla_american_perpetual(R, np.linspace(0.0, 3.0, 14), rate)
        W = np.stack([c_p, np.zeros_like(c_p)])
        self.assert_close(_finite_downin([R, R], W, m, window, 1 / rate)[0], H @ c_p)


class TestBermudanSlice:
    def test_two_state_hand_computation(self):
        # state 0 -> 1 with rate a; obstacle g; next-slice values c
        a, dt = 2.0, 0.5
        R = np.array([[-a, a], [0.0, 0.0]])
        g = np.array([1.0, 0.0])
        c = np.array([0.0, 3.0])
        vals, _ = bermudan_slice(slice_operator(R, 1.0, dt), c, g)
        # continuation at 0: solve (I - dt G) x = c -> x0 = (c0 + dt a c1)/(1+dt a)
        cont0 = (0.0 + dt * a * 3.0) / (1 + dt * a)
        assert vals[1] == pytest.approx(3.0)
        assert vals[0] == pytest.approx(max(1.0, cont0))

    def test_warm_start_matches_cold(self):
        grid, gen = small_bs_setup(n=30)
        f = np.maximum(grid.states - 95.0, 0.0)
        c = 1.1 * f + 0.5
        cold, active = bermudan_slice(slice_operator(gen, 1.0, 1 / 60), c, f)
        shared = slice_operator(gen, 1.0, 1 / 60)
        bermudan_slice(shared, c, f)
        warm, _ = bermudan_slice(shared, c, f, active)  # reuses the factor
        again, _ = bermudan_slice(slice_operator(gen, 1.0, 1 / 60), c, f, active)
        assert np.allclose(cold, warm)
        assert np.allclose(cold, again)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 12), st.floats(0.05, 0.9))
    def test_solution_solves_the_complementarity_problem(self, n, dt):
        rng = np.random.default_rng(n)
        R = random_generator(n, rng, scale=4.0)
        R[[0, -1]] = 0.0  # absorbing ends
        g = rng.uniform(0.0, 2.0, n)
        c = rng.uniform(0.0, 2.0, n)
        vals, _ = bermudan_slice(slice_operator(R, 1.0, dt), c, g)
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
                W[j], warm = bermudan_slice(slice_operator(gens[j], 1.0, dt),
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
        growth = np.array([math.exp(contract.rate * t) for t in tg.times])[:, None]
        np.testing.assert_array_equal(res.vanilla, W * growth)

        # a generator switch mid-way and per-slice ("exercise") obstacles
        half = n_slices // 2
        gens = [gen] * half + [build_generator(kou(0.4), grid)] * (n_slices - half)
        obstacles = np.exp(-contract.rate * tg.times)[:, None] * f[None, :]
        fresh = fresh_slices(gens, obstacles, tg.dt)
        surface = american_surface(
            gens, lambda g: slice_operator(g, 1.0, tg.dt), obstacles)
        np.testing.assert_array_equal(surface, fresh)
        switched = price_finite_downin(model, grid, tg, contract, gen=gens,
                                       vanilla_discounting="exercise")
        np.testing.assert_array_equal(switched.vanilla, fresh * growth)
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
        assert np.all(short.values <= short.vanilla + 1e-10)
        assert np.all(long.values <= short.values + 1e-10)
        assert np.all(short.values >= -1e-12)

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
            draws.append(res.vanilla[ticks, state]
                         * math.exp(-contract.rate * times[ticks]))
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
        assert np.all(exe.values <= act.values + 1e-10)
        with pytest.raises(ValueError):
            price_finite_downin(model, grid, tg, self.make(),
                                vanilla_discounting="bogus")

    def test_value_at_rejects_spots_off_the_states(self):
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        res = price_finite_downin(self.setup_model(), grid,
                                  TimeGrid(horizon=0.5, dt=1 / 10),
                                  self.make(T=0.5))
        assert res.value_at(18.0, slice_idx=2) == res.values[2, 0]
        for spot in (400.0, 10.0, -math.inf):
            with pytest.raises(ValueError, match="outside the states"):
                res.value_at(spot)

    def test_value_at_rejects_slices_off_the_surface(self):
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        res = price_finite_downin(self.setup_model(), grid,
                                  TimeGrid(horizon=0.5, dt=1 / 10),
                                  self.make(T=0.5))
        last = len(res.values) - 1
        assert res.value_at(95.0, slice_idx=last) == 0.0  # past the horizon
        for slice_idx in (-1, -last, last + 1):
            with pytest.raises(IndexError, match="clock slice"):
                res.value_at(95.0, slice_idx=slice_idx)

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
        assert np.allclose(single.values, listed.values, atol=1e-9)

    def test_time_dependent_model_runs_dense(self):
        model = bs_sigma_t_model()
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 40)
        tg = TimeGrid(horizon=0.5, dt=1 / 10)
        contract = self.make(T=0.5)
        res = price_finite_downin(model, grid, tg, contract)
        # pins the frozen-generator u+ (slice j's generator prices its whole
        # sum over later slices); the lattice DP oracle takes one generator
        assert res.value_at(90.0) == pytest.approx(0.638740975011075, rel=1e-12)
        pinned = {(0, 5): 0.31389977549188924, (0, 7): 1.8153931418217943,
                  (0, 10): 0.09248335258077103, (3, 6): 0.281496324974504,
                  (3, 9): 0.04756807461730095}
        for (j, i), ref in pinned.items():  # pinned in the discounted variable
            disc = res.values[j, i] * math.exp(-contract.rate * res.times[j])
            assert disc == pytest.approx(ref, rel=1e-12)
        assert np.all(res.values >= -1e-12)
        assert np.all(res.values <= res.vanilla + 1e-9)

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
