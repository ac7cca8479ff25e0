"""End-to-end gates: pinned benchmark cells and invariants.

Each pricing gate reprices a published benchmark cell with the packaged
study configuration and asserts the raw and extrapolated relative errors
against fixed tolerances, plus a wall-clock budget.  The remaining gates
assert agreement with the independent oracles, through the groups of the
``verify`` suites' checks that cover it, and the structural properties
every assembled operator must satisfy.
"""

import math
import time

import numpy as np
import pytest

from parisian import pricer_downin
from parisian.bench_cli import price_point, reference_option, richardson
from parisian.ctmc import TimeGrid, build_grid, build_generator
from parisian.models import bs_model
from parisian.numerics import policy_solve
from parisian.oracle import validate_generator
from parisian.pricer_downin import (
    ContractSpec,
    Flavor,
    american_call,
    parisian_transform,
    vanilla_american_perpetual,
)
from parisian.pricer_downout import (
    duration_generator,
    price_finite_downout,
    price_perpetual_downout,
)
from parisian.pricing import price


def _timed_price(cfg, n):
    t0 = time.perf_counter()
    value = price_point(cfg, n).value
    return value, time.perf_counter() - t0


def _gate_pair(model, option, raw_tol, extra_tol, budget):
    """Price the two finest configured grids and grade the benchmark cell."""

    opt = reference_option(model, option)
    cfg = opt.config
    bench = cfg.benchmark
    n1, n2 = cfg.grids[-2:]
    p1, _ = _timed_price(cfg, n1)
    p2, seconds = _timed_price(cfg, n2)
    raw_rel = abs(p2 - bench) / bench
    extra = richardson([(n1, p1), (n2, p2)], cfg.order)[0]
    extra_rel = abs(extra - bench) / bench
    assert raw_rel <= raw_tol, f"raw rel err {raw_rel:.4%} exceeds {raw_tol:.2%}"
    if extra_tol is not None:
        assert extra_rel <= extra_tol, (
            f"extrapolated rel err {extra_rel:.4%} exceeds {extra_tol:.2%}"
        )
    assert seconds < budget, f"finest grid took {seconds:.1f}s (budget {budget}s)"
    return p1, p2, extra


class TestBenchmarkGates:
    def test_bs_perpetual_down_in(self):
        opt = reference_option("bs", "perpetual-down-in")
        assert opt.config.benchmark == 26.3239
        _gate_pair("bs", "perpetual-down-in", raw_tol=0.006,
                   extra_tol=0.0015, budget=2.0)

    def test_bs_perpetual_down_out(self):
        opt = reference_option("bs", "perpetual-down-out")
        assert opt.config.benchmark == 10.3882
        assert opt.config.dd == pytest.approx(1.0 / 120.0)
        _gate_pair("bs", "perpetual-down-out", raw_tol=0.004,
                   extra_tol=0.001, budget=30.0)

    def test_bs_finite_down_in(self):
        opt = reference_option("bs", "finite-down-in")
        assert opt.config.benchmark == 3.3483
        assert opt.config.dt == pytest.approx(1.0 / 60.0)
        assert opt.config.maturity == 1.0
        _gate_pair("bs", "finite-down-in", raw_tol=0.010,
                   extra_tol=0.003, budget=120.0)

    def test_bs_finite_down_out(self):
        opt = reference_option("bs", "finite-down-out")
        assert opt.config.benchmark == 13.5126
        assert opt.config.dt == pytest.approx(1.0 / 60.0)
        assert opt.config.dd == pytest.approx(1.0 / 150.0)
        _gate_pair("bs", "finite-down-out", raw_tol=0.002,
                   extra_tol=0.0005, budget=300.0)

    def test_kou_perpetual_down_in(self):
        opt = reference_option("kou", "perpetual-down-in")
        assert opt.config.benchmark == 65.0695
        value, seconds = _timed_price(opt.config, 225)
        rel = abs(value - 65.0695) / 65.0695
        assert rel <= 0.003, f"raw rel err {rel:.4%} exceeds 0.30%"
        assert seconds < 10.0

    def test_vg_finite_down_out(self):
        opt = reference_option("vg", "finite-down-out")
        cfg = opt.config
        assert cfg.benchmark == 3.5011
        bench = cfg.benchmark
        n1, n2 = cfg.grids[-2:]
        t0 = time.perf_counter()
        p1, _ = _timed_price(cfg, n1)
        p2, _ = _timed_price(cfg, n2)
        elapsed = time.perf_counter() - t0
        extra = richardson([(n1, p1), (n2, p2)], cfg.order)[0]
        extra_rel = abs(extra - bench) / bench
        raw1 = abs(p1 - bench) / bench
        raw2 = abs(p2 - bench) / bench
        assert extra_rel <= 0.010, (
            f"extrapolated rel err {extra_rel:.4%} exceeds 1.00%"
        )
        assert raw2 < raw1, "raw errors must keep falling at the finest grids"
        # raw errors at this resolution stay within twice the published
        # error magnitude (~7%)
        assert raw2 <= 0.14
        assert elapsed < 900.0

    @pytest.mark.parametrize("option", ["perpetual-down-in", "perpetual-down-out",
                                        "finite-down-in", "finite-down-out"])
    def test_bs_solves_end_within_two_iterations(self, option, monkeypatch):
        # a cold call LCP jumps to its exercise boundary after iteration 1,
        # and a warm one from the previous slice needs at most that jump
        iterations = []

        def counting(*args, **kwargs):
            sol = policy_solve(*args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(pricer_downin, "policy_solve", counting)
        cfg = reference_option("bs", option).config
        price_point(cfg, cfg.grids[0])
        assert iterations and max(iterations) <= 2


# ---------------------------------------------------------------------------
# cross-method agreement at full scale
# ---------------------------------------------------------------------------


class TestOracleAgreement:
    # each suite runs once per session (the verify_suite fixture); these
    # tests read the groups of its checks, sized as the gates they replaced

    def test_lcp_solver_vs_enumeration(self, verify_suite):
        """Pivoting and policy iteration against enumeration on 200 random
        dense P-matrix instances: values to 1e-9, exact support."""

        lines, groups = verify_suite("lcp")
        assert groups["dense"] == (200, 0), "\n".join(lines)

    def test_perpetual_solver_vs_value_iteration(self, verify_suite):
        """The perpetual stopping-problem solver against value iteration on
        50 random chains, n <= 40, to 1e-6."""

        lines, groups = verify_suite("kernels")
        assert groups["value iteration"] == (50, 0), "\n".join(lines)

    def test_finite_pricers_vs_lattice_dp(self, verify_suite):
        """Both finite-maturity pricers against the joint-lattice DP on 20
        random dense chains, shapes equal, to 1e-5."""

        lines, groups = verify_suite("dp")
        assert groups["dense out"] == (20, 0), "\n".join(lines)
        assert groups["dense in"] == (20, 0), "\n".join(lines)

    def test_transform_rows_vs_million_path_simulation(self, verify_suite):
        """Two excursion-trigger kernel rows against 1e6-path simulations,
        within 3 standard errors."""

        lines, groups = verify_suite("kernels")
        assert groups["simulation"] == (2, 0), "\n".join(lines)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def _bs_setup(n=129):
    model = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
    grid = build_grid(0.0, 720.0, 90.0, 95.0, n - 1, "sqrt")
    gen = build_generator(model, grid, 0.0, "error")
    return model, grid, gen


def _contract(flavor, window=1.0 / 12.0, maturity=math.inf):
    return ContractSpec(payoff=american_call(95.0), barrier=90.0, window=window,
                        maturity=maturity, rate=0.1, flavor=flavor)


class TestStructuralInvariants:
    def test_generator_row_sums_signs_absorbing_rows(self):
        from parisian.models import KouParams, VGParams, kou_model, vg_model

        cases = [
            (bs_model(r_f=0.1, dividend=0.05, sigma=0.3),
             build_grid(0.0, 720.0, 90.0, 95.0, 128, "sqrt"), "error"),
            (kou_model(KouParams(sigma=0.3, lam=3.0, eta_plus=10.0,
                                 eta_minus=10.0, p_plus=0.5, p_minus=0.5,
                                 r_f=0.05, dividend=0.0)),
             build_grid(math.log(18.0), math.log(360.0), math.log(90.0),
                        math.log(95.0), 128, "proportional"), "error"),
            (vg_model(VGParams(sigma=0.1213, nu=0.1686, theta=-0.1436,
                               r_f=0.05, dividend=0.0)),
             build_grid(math.log(18.0), math.log(360.0), math.log(90.0),
                        math.log(95.0), 128, "proportional"), "upwind"),
        ]
        for model, grid, policy in cases:
            gen = build_generator(model, grid, 0.0, policy)
            validate_generator(gen)
            dense = gen.as_dense()
            off = dense - np.diag(np.diag(dense))
            assert np.min(off) >= 0.0
            sums = dense.sum(axis=1)
            scale = max(1.0, float(np.abs(np.diag(dense)).max()))
            assert np.max(np.abs(sums[1:-1])) <= 1e-10 * scale
            np.testing.assert_array_equal(dense[0], 0.0)
            np.testing.assert_array_equal(dense[-1], 0.0)

    def test_transform_kernel_is_subprobability(self):
        _, grid, gen = _bs_setup()
        H = parisian_transform(gen, window=1.0 / 12.0, rate=0.1, n_below=grid.n_below)
        assert np.min(H) >= -1e-12
        assert np.max(H.sum(axis=1)) <= 1.0 + 1e-10
        # discounting less can only raise each entry (pathwise e^{-r tau})
        H_lo = parisian_transform(gen, window=1.0 / 12.0, rate=0.02,
                                  n_below=grid.n_below)
        assert np.min(H_lo) >= -1e-12
        assert np.max(H_lo.sum(axis=1)) <= 1.0 + 1e-10
        assert np.all(H_lo >= H - 1e-12)

    @staticmethod
    def _residual_ok(w, gap, scale, tol=1e-8):
        assert np.min(w) >= -tol * scale
        assert np.min(gap) >= -tol * scale
        assert np.max(np.minimum(w, gap)) <= tol * scale

    def test_perpetual_complementarity_residuals(self):
        model, grid, gen = _bs_setup()
        f = american_call(95.0)(grid.states)
        rate = 0.1

        v = vanilla_american_perpetual(gen, f, rate)
        A = rate * np.eye(grid.n_states) - gen.as_dense()
        self._residual_ok(A @ v, v - f, scale=float(np.max(np.abs(v))))

        contract = _contract(Flavor.DOWN_OUT)
        res = price_perpetual_downout(model, grid, contract, dtick=1.0 / 120.0, gen=gen)
        ladder = res.ladder
        A_aug = rate * np.eye(ladder.total) - duration_generator(
            gen, ladder
        ).toarray()
        f_aug = ladder.stack_payoff(f)
        v = res.values[0]
        self._residual_ok(A_aug @ v, v - f_aug, scale=float(np.max(np.abs(v))))

    def test_finite_complementarity_residuals(self):
        model, grid, gen = _bs_setup()
        f = american_call(95.0)(grid.states)
        rate, dt = 0.1, 1.0 / 60.0
        timegrid = TimeGrid(dt=dt, horizon=1.0)
        contract = _contract(Flavor.DOWN_OUT, maturity=1.0)
        res = price_finite_downout(model, grid, timegrid, contract,
                                   dtick=1.0 / 120.0, gen=gen)
        ladder = res.ladder
        G_aug = duration_generator(gen, ladder).toarray()
        f_aug = ladder.stack_payoff(f)
        eye = np.eye(ladder.total)
        scale = float(np.max(np.abs(res.values)))
        for j in range(timegrid.n_exercise + 1):
            v, v_next = res.values[j], res.values[j + 1]
            w = ((1.0 + rate * dt) * eye - dt * G_aug) @ v - v_next
            self._residual_ok(w, v - f_aug, scale=scale)

    def test_window_monotonicity(self):
        model, grid, _ = _bs_setup()
        windows = (1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0)
        for flavor in Flavor:
            for maturity in (math.inf, 1.0):
                p = [
                    price(model, grid, _contract(flavor, window=D, maturity=maturity),
                          dt=1.0 / 60.0, dtick=D / 10.0).value_at(90.0)
                    for D in windows
                ]
                # a longer window is harder to knock in, easier to survive
                if flavor is Flavor.DOWN_IN:
                    assert p[0] > p[1] > p[2]
                else:
                    assert p[0] < p[1] < p[2]

    @pytest.mark.parametrize("payoff", ["call", "put"])
    def test_every_pricer_rejects_a_barrier_off_the_grid_node(self, payoff):
        # the grid's barrier node is 90; a contract barrier of 92 would be
        # priced on the wrong below-barrier states.  The call takes the
        # reduced down-out route, the put the stacked one.
        model = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
        grid = build_grid(18.0, 360.0, 90.0, 95.0, 48)
        if payoff == "call":
            f = american_call(95.0)
        else:
            f = lambda s: np.maximum(95.0 - np.asarray(s), 0.0)

        def priced(flavor, maturity, barrier):
            c = ContractSpec(payoff=f, barrier=barrier, window=1.0 / 12.0,
                             maturity=maturity, rate=0.1, flavor=flavor)
            return price(model, grid, c, dt=0.1, dtick=1.0 / 36.0)

        for flavor in Flavor:
            for maturity in (math.inf, 0.5):
                with pytest.raises(ValueError, match="barrier node"):
                    priced(flavor, maturity, 92.0)
                # a barrier off the node by round-off only is on it
                np.testing.assert_array_equal(
                    priced(flavor, maturity, 90.0 * (1 + 1e-14)).values,
                    priced(flavor, maturity, 90.0).values)

    def test_barrier_contracts_bounded_by_vanilla(self):
        model, grid, gen = _bs_setup()
        f = american_call(95.0)(grid.states)

        def priced(flavor, maturity=math.inf):
            return price(model, grid, _contract(flavor, maturity=maturity),
                         dt=1.0 / 60.0, dtick=1.0 / 120.0)

        res_in = priced(Flavor.DOWN_IN)
        assert np.all(res_in.values <= res_in.vanilla + 1e-9)

        vanilla = vanilla_american_perpetual(gen, f, rate=0.1)
        res_out = priced(Flavor.DOWN_OUT)
        assert np.all(res_out.level_values(0) <= vanilla + 1e-9)

        fin = priced(Flavor.DOWN_IN, maturity=1.0)
        assert np.all(fin.values[0] <= fin.vanilla[0] + 1e-9)

        fout = priced(Flavor.DOWN_OUT, maturity=1.0)
        # slice-0 down-out values are time-0 prices; compare against the
        # undiscounted finite vanilla at the same slice
        assert np.all(fout.level_values(0) <= fin.vanilla[0] + 1e-9)
