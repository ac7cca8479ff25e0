"""Oracle engines and the cross-method agreement gates they power.

The oracles themselves are checked against hand calculations and closed
forms first; the agreement classes then pit the pricing stack against
them on randomized desk-scale instances.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from parisian.ctmc import TimeGrid, build_generator, build_grid
from parisian.models import bs_model
from parisian.numerics import LCPProblem, generator_expm, lemke_solve
from parisian.oracle import (
    UniformizedChain,
    dp_parisian_lattice,
    lcp_by_enumeration,
    simulate_paths,
    value_iterate_american,
)
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    price_finite_downin,
    vanilla_american_perpetual,
)
from parisian.pricer_downout import price_finite_downout


def random_generator(n, rng, conservative=True, density=0.6, scale=3.0):
    R = rng.uniform(0.0, scale, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(R, 0.0)
    diag = -R.sum(axis=1)
    if not conservative:
        diag -= rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.3)
    np.fill_diagonal(R, diag)
    return R


# ---------------------------------------------------------------------------
# uniformized chain
# ---------------------------------------------------------------------------


class TestUniformizedChain:
    def test_fields_and_invariants(self):
        rng = np.random.default_rng(0)
        R = random_generator(12, rng)
        chain = UniformizedChain.from_generator(R)
        assert chain.lam == pytest.approx(np.max(-np.diag(R)))
        assert np.min(chain.probs) >= 0.0
        np.testing.assert_allclose(chain.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_substochastic_rows_allowed(self):
        rng = np.random.default_rng(1)
        R = random_generator(8, rng, conservative=False)
        chain = UniformizedChain.from_generator(R)
        assert np.max(chain.probs.sum(axis=1)) <= 1.0 + 1e-12

    def test_frozen_chain(self):
        chain = UniformizedChain.from_generator(np.zeros((4, 4)))
        assert chain.lam == 0.0
        np.testing.assert_array_equal(chain.probs, np.eye(4))

    def test_rejects_superstochastic(self):
        with pytest.raises(ValueError):
            UniformizedChain(lam=1.0, probs=np.array([[0.7, 0.7], [0.2, 0.8]]))

    def test_uniformization_matches_expm(self):
        """Poisson-weighted step powers reproduce the dense exponential.

        Validates the uniformized view against scipy's expm and against
        the series-based generator exponential used by the pricing side.
        """

        rng = np.random.default_rng(2)
        for n in (5, 11, 20):
            R = random_generator(n, rng)
            h = 0.7
            chain = UniformizedChain.from_generator(R)
            mu = chain.lam * h
            kmax = int(poisson.isf(1e-16, mu)) + 1
            acc = np.zeros((n, n))
            Pk = np.eye(n)
            for k in range(kmax + 1):
                acc += poisson.pmf(k, mu) * Pk
                Pk = Pk @ chain.probs
            ref = expm(R * h)
            assert np.max(np.abs(acc - ref)) < 1e-10
            assert np.max(np.abs(generator_expm(R, h) - ref)) < 1e-10


# ---------------------------------------------------------------------------
# perpetual value iteration
# ---------------------------------------------------------------------------


class TestValueIterateAmerican:
    def test_constant_payoff_stops_immediately(self):
        rng = np.random.default_rng(3)
        R = random_generator(9, rng)
        chain = UniformizedChain.from_generator(R)
        v = value_iterate_american(chain, np.full(9, 2.5), r=0.1)
        np.testing.assert_allclose(v, 2.5, atol=1e-10)

    def test_two_state_hand_algebra(self):
        # symmetric two-state chain, payoff (0, 1): stopping at state 1 is
        # optimal and the continuation value at state 0 solves
        # v0 = (a/(a+r)) * v1 with v1 = 1, by the exponential-holding
        # discount identity
        a, r = 1.3, 0.2
        R = np.array([[-a, a], [a, -a]])
        chain = UniformizedChain.from_generator(R)
        v = value_iterate_american(chain, np.array([0.0, 1.0]), r=r, tol=1e-12)
        assert v[1] == pytest.approx(1.0, abs=1e-10)
        assert v[0] == pytest.approx(a / (a + r), abs=1e-10)

    def test_requires_positive_rate(self):
        chain = UniformizedChain.from_generator(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(ValueError):
            value_iterate_american(chain, np.array([0.0, 1.0]), r=0.0)

    def test_agrees_with_perpetual_pricer_on_random_chains(self):
        """Acceptance: 50 random chains, n <= 40, agreement to 1e-6."""

        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 41))
            R = random_generator(n, rng, density=0.5, scale=2.0)
            f = rng.uniform(0.0, 5.0, size=n)
            r = float(rng.uniform(0.05, 0.3))
            v_impl = vanilla_american_perpetual(R, f, r)
            chain = UniformizedChain.from_generator(R)
            v_ora = value_iterate_american(chain, f, r, tol=1e-10)
            worst = max(worst, float(np.max(np.abs(v_impl - v_ora))))
        assert worst < 1e-6


# ---------------------------------------------------------------------------
# exhaustive LCP reference
# ---------------------------------------------------------------------------


class TestLcpByEnumeration:
    def test_hand_instance(self):
        # A = I, psi = (-1, 2): z = (1, 0), w = (0, 2)
        z, mask = lcp_by_enumeration(np.eye(2), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
        assert mask.tolist() == [True, False]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            lcp_by_enumeration(np.eye(25), np.zeros(25))

    def test_lemke_agrees_on_random_p_matrices(self):
        """Acceptance: 200 random P-matrix LCPs n <= 8, exact support,
        values to 1e-9."""

        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            if trial % 2 == 0:
                B = rng.normal(size=(n, n))
                A = B @ B.T + (0.2 + rng.uniform()) * n * np.eye(n)
            else:
                A = rng.normal(size=(n, n))
                A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 1.0, size=n))
            psi = rng.normal(scale=2.0, size=n)
            z_ref, _ = lcp_by_enumeration(A, psi)
            sol = lemke_solve(LCPProblem(A, psi))
            assert sol.status.value == "solved"
            assert np.max(np.abs(sol.z - z_ref)) < 1e-9
            assert np.array_equal(sol.z > 1e-9, z_ref > 1e-9)


# ---------------------------------------------------------------------------
# joint-lattice DP vs the finite-maturity pricers
# ---------------------------------------------------------------------------


def _coordinate_carrier():
    # price-coordinate model whose states are prices themselves; the random
    # generators below are not derived from it
    return bs_model(r_f=0.05, dividend=0.0, sigma=0.2)


def _random_payoff(rng):
    knots = np.sort(rng.uniform(0.4, 4.2, size=4))
    vals = rng.uniform(0.0, 3.0, size=4)
    return lambda s: np.interp(s, knots, vals)


class TestDpParisianLattice:
    def test_zero_payoff_prices_zero(self):
        rng = np.random.default_rng(6)
        R = random_generator(6, rng)
        below = np.arange(6) < 3
        out = dp_parisian_lattice(R, below, np.zeros(6), rate=0.1, dt=0.25,
                                  horizon=0.9, window=0.3, flavor="down-out",
                                  dtick=0.15)
        np.testing.assert_array_equal(out, 0.0)
        out_in = dp_parisian_lattice(R, below, np.zeros(6), rate=0.1, dt=0.25,
                                     horizon=0.9, window=0.3, flavor="down-in")
        np.testing.assert_array_equal(out_in, 0.0)

    def test_trapped_below_state_forced_knockout(self):
        # a frozen (absorbing) below-barrier state is knocked out as soon as
        # the clock runs the window down, so its down-out value is the
        # immediate-exercise payoff at every live slice
        N = 4
        R = np.zeros((N, N))
        below = np.array([True, True, False, False])
        f = np.array([2.0, 0.5, 1.0, 3.0])
        out = dp_parisian_lattice(R, below, f, rate=0.1, dt=0.25, horizon=0.6,
                                  window=0.2, flavor="down-out", dtick=0.1)
        n_slices = out.shape[0]
        for j in range(n_slices - 1):
            assert out[j, 0] == pytest.approx(2.0, abs=1e-10)
            assert out[j, 1] == pytest.approx(0.5, abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dp_parisian_lattice(np.zeros((40, 40)), np.arange(40) < 20,
                                np.zeros(40), rate=0.1, dt=1e-4, horizon=1.0,
                                window=0.5, flavor="down-out", dtick=0.01)

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            dp_parisian_lattice(np.zeros((3, 3)), np.arange(3) < 1,
                                np.zeros(3), rate=0.1, dt=0.1, horizon=0.3,
                                window=0.1, flavor="up-and-away")

    def test_pricers_match_lattice_dp_on_random_instances(self):
        """Acceptance: 20 random instances plus one tridiagonal Black-Scholes
        chain (n <= 12 spatial, <= 4 duration levels, <= 6 slices), both
        flavors, agreement to 1e-5."""

        rng = np.random.default_rng(7)
        model = _coordinate_carrier()
        worst_out = worst_in = 0.0
        for trial in range(21):
            n = int(rng.integers(8, 13))
            grid = build_grid(0.5, 4.0, 1.5, 2.0, n, "proportional")
            N = grid.n_states
            R = random_generator(N, rng, conservative=bool(rng.integers(0, 2)))
            if trial == 20:
                R = build_generator(model, grid)
                assert R.is_tridiagonal
            rate = float(rng.uniform(0.01, 0.2))
            dt = float(rng.uniform(0.05, 0.3))
            J = int(rng.integers(2, 6))
            horizon = (J - 0.5) * dt
            window = float(rng.uniform(0.5, 2.5)) * dt
            dtick = window / float(rng.integers(1, 4))
            payoff = _random_payoff(rng)
            below = grid.states < 1.5 - 1e-12
            f = payoff(grid.states)
            tg = TimeGrid(dt=dt, horizon=horizon)

            c_out = ContractSpec(payoff=payoff, barrier=1.5, window=window,
                                 maturity=horizon, rate=rate,
                                 flavor=Flavor.DOWN_OUT)
            res = price_finite_downout(model, grid, tg, c_out, dtick=dtick,
                                       gen=R)
            ora = dp_parisian_lattice(R, below, f, rate, dt, horizon, window,
                                      "down-out", dtick=dtick)
            assert res.values.shape == ora.shape
            worst_out = max(worst_out, float(np.max(np.abs(res.values - ora))))

            conv = "activation" if rng.integers(0, 2) else "exercise"
            c_in = ContractSpec(payoff=payoff, barrier=1.5, window=window,
                                maturity=horizon, rate=rate,
                                flavor=Flavor.DOWN_IN)
            ri = price_finite_downin(model, grid, tg, c_in, gen=R,
                                     vanilla_discounting=conv)
            oi = dp_parisian_lattice(R, below, f, rate, dt, horizon, window,
                                     "down-in", vanilla_discounting=conv)
            worst_in = max(worst_in, float(np.max(np.abs(ri.disc_values - oi))))
        assert worst_out < 1e-5
        assert worst_in < 1e-5

    def test_whole_surfaces_match_lattice_dp_without_cutting(self):
        """A call (reduced route) and a put (stacked route) on a small BS
        chain, with one live duration level (window < dtick) and with three:
        the down-out surface has the oracle's shape, one column per live
        slot, and agrees with it to 1e-9 on every slot."""

        model = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
        grid = build_grid(10.0, 360.0, 90.0, 95.0, 16, "proportional")
        gen = build_generator(model, grid, 0.0, "error")
        dt, horizon = 1 / 12, 0.25
        put = lambda s: np.maximum(95.0 - s, 0.0)
        for payoff in (american_call(95.0), put):
            for window, n_ticks in ((1 / 48, 1), (1 / 12, 3)):
                c_out = ContractSpec(payoff=payoff, barrier=90.0,
                                     window=window, maturity=horizon,
                                     rate=0.1, flavor=Flavor.DOWN_OUT)
                res = price_finite_downout(model, grid,
                                           TimeGrid(dt=dt, horizon=horizon),
                                           c_out, dtick=1 / 24, gen=gen)
                assert res.ladder.n_ticks == n_ticks
                f = c_out.payoff_states(model, grid.states)
                ora = dp_parisian_lattice(gen, grid.below_mask, f, 0.1, dt,
                                          horizon, window, "down-out",
                                          dtick=1 / 24)
                assert res.values.shape == ora.shape
                np.testing.assert_allclose(res.values, ora, rtol=0, atol=1e-9)

    def test_reduced_route_matches_lattice_dp_on_bs_calls(self):
        """Acceptance: 5 tridiagonal Black-Scholes chains with a call struck
        at or above the barrier (payoff zero below it, so the down-out
        pricer eliminates the duration levels), agreement to 1e-5."""

        rng = np.random.default_rng(8)
        model = _coordinate_carrier()
        worst = 0.0
        for _ in range(5):
            grid = build_grid(0.5, 4.0, 1.5, 2.0, int(rng.integers(8, 13)),
                              "proportional")
            gen = build_generator(model, grid)
            rate = float(rng.uniform(0.01, 0.2))
            dt = float(rng.uniform(0.05, 0.3))
            horizon = (int(rng.integers(2, 6)) - 0.5) * dt
            window = float(rng.uniform(0.5, 2.5)) * dt
            dtick = window / float(rng.integers(1, 4))
            payoff = american_call(float(rng.uniform(1.5, 3.0)))
            below = grid.states < 1.5 - 1e-12
            f = payoff(grid.states)
            assert gen.is_tridiagonal and np.all(f[below] == 0.0)
            c_out = ContractSpec(payoff=payoff, barrier=1.5, window=window,
                                 maturity=horizon, rate=rate,
                                 flavor=Flavor.DOWN_OUT)
            res = price_finite_downout(model, grid,
                                       TimeGrid(dt=dt, horizon=horizon),
                                       c_out, dtick=dtick, gen=gen)
            ora = dp_parisian_lattice(gen, below, f, rate, dt, horizon,
                                      window, "down-out", dtick=dtick)
            assert res.values.shape == ora.shape
            worst = max(worst, float(np.max(np.abs(res.values - ora))))
        assert worst < 1e-5


# ---------------------------------------------------------------------------
# Monte-Carlo agreement and convergence rate
# ---------------------------------------------------------------------------


def _drifting_chain(n=15, up=1.4, down=1.8):
    R = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            R[i, i + 1] = up
        if i - 1 >= 0:
            R[i, i - 1] = down
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


class TestMonteCarlo:
    def test_standard_error_shrinks_at_root_n(self):
        R = _drifting_chain()
        below = np.arange(15) < 7
        kw = dict(window=0.2, rate=0.25, below=below, horizon=80.0)
        small = simulate_paths(R, 8, n_paths=20_000, rng_seed=11, **kw)
        big = simulate_paths(R, 8, n_paths=80_000, rng_seed=11, **kw)
        ratio = small.std_error.sum() / big.std_error.sum()
        assert 1.6 < ratio < 2.5
