"""Oracle engines and the agreement suites they power.

The oracles themselves are checked against hand calculations and closed
forms first; ``test_verify_suite_passes`` then runs each ``verify`` suite
once, which pits the pricing stack against them on randomized desk-scale
instances, and the agreement tests of each class read the groups of that
run's checks which cover their oracle.
"""

import re

import numpy as np
import pytest

from parisian import pricing
from parisian.ctmc import TimeGrid, build_generator, build_grid
from parisian.models import bs_model
from parisian.oracle import (
    UniformizedChain,
    dp_parisian_lattice,
    lcp_by_enumeration,
    random_generator,
    run_verify,
    simulate_paths,
    value_iterate_american,
)
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    price_finite_downin,
)
from parisian.pricer_downout import price_finite_downout


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

    def test_uniformization_matches_expm(self, verify_suite):
        """Poisson-weighted step powers and the pricing side's series-based
        generator exponential reproduce scipy's expm on 4 random chains,
        n <= 20, to 1e-10."""

        lines, groups = verify_suite("kernels")
        assert groups["uniformized"] == (4, 0), "\n".join(lines)


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

    def test_agrees_with_perpetual_pricer_on_random_chains(self, verify_suite):
        """Acceptance: 50 random chains, n <= 40, agreement to 1e-6."""

        lines, groups = verify_suite("kernels")
        assert groups["value iteration"] == (50, 0), "\n".join(lines)


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

    def test_lemke_agrees_on_random_p_matrices(self, verify_suite):
        """Acceptance: 200 random P-matrix LCPs n <= 8, exact support,
        values to 1e-9."""

        lines, groups = verify_suite("lcp")
        assert groups["dense"] == (200, 0), "\n".join(lines)


# ---------------------------------------------------------------------------
# joint-lattice DP
# ---------------------------------------------------------------------------


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

    def test_whole_surfaces_match_lattice_dp_without_cutting(self):
        """A call (reduced route) and a put (stacked route) on a small BS
        chain, with one live duration level (window < dtick) and with three:
        the down-out surface has the oracle's shape, one column per live
        slot, and agrees with it to 1e-9 on every slot."""

        model = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
        grid = build_grid(10.0, 360.0, 90.0, 95.0, 16, "proportional")
        gen = build_generator(model, grid, 0.0, "error")
        below = grid.states < 90.0 - 1e-9  # the barrier, stated independently
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
                ora = dp_parisian_lattice(gen.as_dense(), below, f, 0.1, dt,
                                          horizon, window, "down-out",
                                          dtick=1 / 24)
                assert res.values.shape == ora.shape
                np.testing.assert_allclose(res.values, ora, rtol=0, atol=1e-9)

    def test_pricers_match_lattice_dp_on_random_instances(self, verify_suite):
        """Acceptance: 20 random dense instances plus 5 tridiagonal
        Black-Scholes chains (n <= 12 spatial, <= 3 ticks per window, <= 5
        slices), both flavors, the down-in's vanilla leg discounted from
        activation or exercise, agreement to 1e-5."""

        lines, groups = verify_suite("dp")
        for group, checks in (("dense out", 20), ("dense in", 20),
                              ("bs out", 5), ("bs in", 5)):
            assert groups[group] == (checks, 0), "\n".join(lines)

    def test_one_matrix_per_slice(self):
        """A rate matrix per clock slice: the same matrix on every slice is
        the one-matrix lattice, and a count other than the slices' raises."""

        rng = np.random.default_rng(8)
        R = random_generator(6, rng)
        below = np.arange(6) < 3
        f = rng.uniform(0.0, 2.0, size=6)
        kw = dict(rate=0.1, dt=0.25, horizon=0.6, window=0.3)
        n_slices = 4
        for flavor, extra in (("down-out", dict(dtick=0.15)), ("down-in", {})):
            one = dp_parisian_lattice(R, below, f, flavor=flavor, **kw, **extra)
            assert one.shape[0] == n_slices
            per_slice = dp_parisian_lattice([R] * n_slices, below, f,
                                            flavor=flavor, **kw, **extra)
            np.testing.assert_array_equal(per_slice, one)
            with pytest.raises(ValueError, match="one rate matrix or 4"):
                dp_parisian_lattice([R] * 3, below, f, flavor=flavor, **kw, **extra)

    def test_time_dependent_down_outs_match_the_per_slice_lattice(self, verify_suite):
        """Acceptance: 6 BS chains with a sigma(t) ramp or step (4 calls on
        the reduced route, 2 payoffs on the stacked one), a sigma(t) Kou
        chain, and a call and a put (reduced and stacked routes) on a Kou
        chain with jump intensity lam (1 + t/2), whose every slice has its
        own jump block and cross-barrier record, each priced on a generator
        per clock slice, against the lattice on each slice's own rates,
        agreement to 1e-5."""

        lines, groups = verify_suite("dp")
        assert groups["bs sigma(t) out"] == (6, 0), "\n".join(lines)
        assert groups["kou sigma(t) out"] == (1, 0), "\n".join(lines)
        assert groups["kou lambda(t) out"] == (2, 0), "\n".join(lines)

    def test_jump_down_out_lines_name_the_form_that_ran(self, verify_suite):
        """A Kou chain's below block is separable and takes the banded
        recursion form, a VG chain's is not and takes the dense one."""

        lines, _ = verify_suite("dp")
        for text in ("reduced down-out, kou chain and call (separable form,",
                     "reduced down-out, vg chain and call (dense form,",
                     "sigma(t) reduced down-out, kou chain and call (separable form)",
                     "bounds, kou down-out (separable form)"):
            assert sum(line.startswith("  " + text) for line in lines) == 1, text

    def test_finite_prices_keep_their_bounds(self, verify_suite):
        """Acceptance: on small BS and Kou chains, each finite down-in (the
        vanilla leg discounted from exercise) and down-out is at most the
        perpetual, rises with the maturity, and stays at most the vanilla
        American: 3 checks for each of the 4 contracts."""

        lines, groups = verify_suite("dp")
        assert groups["bounds"] == (12, 0), "\n".join(lines)
        assert sum("(not gated)" in line for line in lines) == 2

    def test_reduced_route_matches_lattice_dp_on_bs_calls(self, verify_suite):
        """Acceptance: 5 tridiagonal Black-Scholes chains with a call struck
        at or above the barrier (payoff zero below it, so the down-out
        pricer eliminates the duration levels), agreement to 1e-5."""

        lines, groups = verify_suite("dp")
        assert groups["bs out"] == (5, 0), "\n".join(lines)


# ---------------------------------------------------------------------------
# Monte-Carlo convergence rate
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


# ---------------------------------------------------------------------------
# agreement suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite, checks", [("lcp", 300), ("kernels", 57), ("dp", 73)],
    ids=["lcp", "kernels", "dp"],
)
def test_verify_suite_passes(verify_suite, suite, checks):
    """The pricing stack agrees with the oracles on every check of the suite
    (the ``verify`` CLI verb runs the same suites)."""

    lines, groups = verify_suite(suite)
    assert sum(f for _, f in groups.values()) == 0, "\n".join(lines)
    assert lines[-1] == f"{suite}: {checks}/{checks} checks passed"


def test_raising_pricer_fails_one_check_and_the_suite_goes_on(monkeypatch):
    """A check whose pricer raises counts as one failed check, is reported in
    one line, and the suite still ends with its summary."""

    calls = []

    def raise_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular\nslice system")
        return price_finite_downin(*args, **kwargs)

    monkeypatch.setattr(pricing, "price_finite_downin", raise_once)
    lines = []
    assert run_verify("dp", seed=0, emit=lines.append) >= 1
    raised = [line for line in lines if "raised" in line]
    assert len(raised) == 1
    assert re.fullmatch(r"  dense in check raised LinAlgError at "
                        r"test_oracle\.py:\d+: singular slice system", raised[0])
    # every down-in check still ran: 25 against the DP, 8 finite prices and
    # 2 reported ones of the bounds
    assert len(calls) == 35
    assert re.fullmatch(r"dp: \d+/73 checks passed", lines[-1])
