"""Grid construction, generator assembly and path-simulation tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parisian import ctmc
from parisian.ctmc import (
    NegativeRateError,
    SpatialGrid,
    TimeGrid,
    build_generator,
    build_grid,
    dump_generator_csv,
    jump_part,
    rate_block,
    resolve_rate_policy,
    slice_bands,
    slice_generators,
    slice_operator,
)
from parisian.models import (
    Coordinate,
    JumpMeasure,
    KouParams,
    ModelSpec,
    VGParams,
    bs_model,
    kou_model,
    vg_model,
)
from parisian.oracle import ChainPath, sample_path, simulate_paths, validate_generator

BS = bs_model(r_f=0.10, dividend=0.05, sigma=0.3)
KOU = kou_model(
    KouParams(sigma=0.3, lam=3.0, eta_plus=10.0, eta_minus=10.0,
              p_plus=0.5, p_minus=0.5, r_f=0.05)
)
VG = vg_model(VGParams(sigma=0.1213, nu=0.1686, theta=-0.1436, r_f=0.05))


class TestBuildGrid:
    def test_reference_construction(self):
        g = build_grid(30, 270, barrier=90.0, strike=95.0, n=128)
        assert g.n_states == 129
        assert sum(g.segment_counts) == 128
        assert 90.0 in g.states
        i = np.searchsorted(g.states, 95.0)
        assert g.states[i - 1] < 95.0 < g.states[i]
        assert 0.5 * (g.states[i - 1] + g.states[i]) == pytest.approx(95.0, abs=1e-12)
        assert np.all(np.diff(g.states) > 0)

    def test_barrier_indexing(self):
        g = build_grid(30, 270, 90.0, 95.0, 64)
        barrier = g.n_below  # the barrier node
        assert g.states[barrier] == 90.0
        assert g.states[barrier - 1] < 90.0
        assert g.below_mask[:barrier].all() and not g.below_mask[barrier:].any()
        # a barrier level off by round-off is still the barrier node
        assert g.is_barrier(90.0 * (1 + 1e-14))
        assert not g.is_barrier(90.0 * (1 + 1e-11))
        off = dataclasses.replace(g, barrier=90.0 * (1 + 1e-14))
        assert off.n_below == barrier
        # a barrier between two nodes is no barrier node
        for level in (91.0, 25.0, 300.0):
            with pytest.raises(ValueError, match="not a grid node"):
                dataclasses.replace(g, barrier=level)

    def test_strike_below_barrier_mirrored(self):
        g = build_grid(30, 270, barrier=95.0, strike=90.0, n=96)
        assert 95.0 in g.states
        i = np.searchsorted(g.states, 90.0)
        assert 0.5 * (g.states[i - 1] + g.states[i]) == pytest.approx(90.0, abs=1e-12)

    # (y_min, y_max, barrier, strike) with the strike above and below the
    # barrier, in price and log coordinates
    DOMAINS = [
        (30.0, 270.0, 90.0, 95.0),
        (30.0, 270.0, 95.0, 90.0),
        (math.log(18), math.log(360), math.log(90), math.log(95)),
        (math.log(18), math.log(360), math.log(95), math.log(90)),
    ]
    DOMAIN_IDS = ["price", "price-mirrored", "log", "log-mirrored"]

    @pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
    def test_barrier_node_is_the_barrier_at_every_n(self, domain):
        for n in range(40, 398, 7):
            g = build_grid(*domain, n)
            assert g.states[g.n_below] == domain[2], n

    @pytest.mark.parametrize("n", [64, 397, 2112])
    @pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
    def test_outer_runs_are_exact_lattices(self, domain, n):
        y_min, y_max, barrier, _ = domain
        g = build_grid(*domain, n)
        x, edges = g.states, g.cell_edges
        n1, n2, _ = g.segment_counts
        assert x[0] == y_min and x[-1] == y_max
        assert x[g.n_below] == barrier
        # the outer runs without the end nodes: states 1..n1 and n1+n2..n-1
        for s, e in ((1, n1 + 1), (n1 + n2, n)):
            steps = np.diff(x[s:e])
            assert np.all(steps == steps[0])
            # every offset from a run state i to a cell edge k between two
            # run states is exactly (k - i - 1/2) steps
            k, i = np.arange(s + 1, e)[None, :], np.arange(s, e)[:, None]
            assert np.array_equal(edges[k] - x[i], (k - i - 0.5) * steps[0])
            assert any(a <= s and e <= b for a, b in g.lattice_runs)

    def test_lattice_runs_have_repeating_offsets(self):
        dyadic = np.linspace(50.0, 130.0, 81)
        ragged = np.linspace(0.1, 0.9, 41)
        for states in (dyadic, ragged, build_grid(*self.DOMAINS[3], 397).states):
            g = SpatialGrid(states=states, barrier=float(states[10]),
                            strike=float(states[12]), segment_counts=(10, 2, 0))
            for s, e in g.lattice_runs:
                assert e - s >= 3
                offsets = g.cell_edges[s + 1:e][None, :] - states[s:e, None]
                assert np.array_equal(offsets[1:, 1:], offsets[:-1, :-1])
        dyadic_grid = dataclasses.replace(g, states=dyadic, barrier=60.0)
        assert dyadic_grid.lattice_runs == [(0, 81)]

    def test_cells_partition_real_line(self):
        g = build_grid(30, 270, 90.0, 95.0, 32)
        e = g.cell_edges
        assert e[0] == -np.inf and e[-1] == np.inf
        assert np.all(np.diff(e[1:-1]) > 0)
        assert len(e) == g.n_states + 1

    def test_explicit_split(self):
        g = build_grid(30, 270, 90.0, 95.0, 64, split=(16, 8, 40))
        assert g.segment_counts == (16, 8, 40)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_grid(92, 270, 90.0, 95.0, 64)     # barrier below range
        with pytest.raises(ValueError):
            build_grid(30, 94, 90.0, 95.0, 64)      # strike above range
        with pytest.raises(ValueError):
            build_grid(30, 270, 90.0, 90.0, 64)     # equal barrier/strike
        with pytest.raises(ValueError):
            build_grid(30, 270, 90.0, 95.0, 4)      # too coarse
        with pytest.raises(ValueError):
            build_grid(30, 270, 90.0, 95.0, 64, split=(16, 8, 39))

    def test_interp_reads_off_nodes(self):
        g = build_grid(30, 270, 90.0, 95.0, 32)
        vals = g.states.astype(float) ** 2
        assert g.interp(vals, g.states[5]) == pytest.approx(g.states[5] ** 2)

    def test_interp_rejects_positions_off_the_states(self):
        g = build_grid(30, 270, 90.0, 95.0, 32)
        vals = g.states.astype(float)
        assert g.interp(vals, 30.0) == 30.0 and g.interp(vals, 270.0) == 270.0
        for x in (29.9, 270.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="outside the states"):
                g.interp(vals, x)
        # n restricts the states, here to those below the barrier
        m = g.n_below
        assert g.interp(vals[:m], 31.0, m) == pytest.approx(31.0)
        with pytest.raises(ValueError, match="outside the states"):
            g.interp(vals[:m], 90.0, m)


class TestTimeGrid:
    def test_horizon_on_lattice(self):
        tg = TimeGrid(dt=1.0 / 60.0, horizon=1.0)
        assert tg.n_exercise == 60
        assert tg.idx_t_plus == 61
        assert tg.t_plus > tg.horizon
        assert tg.t_plus - tg.horizon <= tg.dt + 1e-15

    def test_horizon_off_lattice(self):
        tg = TimeGrid(dt=0.4, horizon=1.0)
        assert tg.n_exercise == 2
        assert tg.t_plus == pytest.approx(1.2)

    def test_times_array(self):
        tg = TimeGrid(dt=0.25, horizon=0.9)
        assert np.allclose(tg.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, horizon=1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=0.5),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_t_plus_property(self, dt, horizon):
        tg = TimeGrid(dt=dt, horizon=horizon)
        assert tg.t_plus > tg.horizon
        assert tg.t_plus - tg.horizon <= tg.dt * (1 + 1e-9)
        assert tg.n_exercise * dt <= horizon * (1 + 1e-9)


def per_cell_jump_rates(model, grid, t=0.0):
    """Jump rates and mu_bar the direct way: one interval per cell and row.

    Every cell [a, b) of row i is integrated as it stands, and the small-jump
    mass as its intersection with [-1, 1].  Rows 0 and N-1 (absorbing) and
    the own cell are zero.
    """
    jm = model.jump_measure
    x, edges = grid.states, grid.cell_edges
    N = len(x)
    jump = np.zeros((N, N))
    mu_bar = np.zeros(N)
    for i in range(1, N - 1):
        a, b = edges[:-1] - x[i], edges[1:] - x[i]
        mass = np.asarray(jm.interval_mass(t, x[i], a, b), dtype=float)
        lo = np.maximum(a, -1.0)
        hi = np.maximum(np.minimum(b, 1.0), lo)
        small = np.asarray(jm.interval_mass(t, x[i], lo, hi), dtype=float)
        mass[i] = small[i] = 0.0
        jump[i] = mass
        mu_bar[i] = ((x - x[i]) * small).sum()
    return jump, mu_bar


def state_dependent_kou(intensity_slope=0.4):
    """Kou-shaped measure whose intensity grows with the state x."""
    base = KOU.jump_measure

    def scale(x):
        return 1.0 + intensity_slope * np.asarray(x, dtype=float) ** 2

    def scaled(f):
        return lambda t, x, a, b: scale(x) * f(t, x, a, b)

    jm = JumpMeasure(
        interval_mass=scaled(base.interval_mass),
        small_jump_second_moment=scaled(base.small_jump_second_moment),
        truncated_first_moment=scaled(base.truncated_first_moment),
        total_activity=math.nan,
    )
    return ModelSpec(
        drift=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.02),
        diffusion_sq=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.09),
        jump_measure=jm,
        coordinate=Coordinate.LOG,
        name="kou-state-dependent",
    )


class TestBuildGenerator:
    def test_uniform_grid_rate_formula(self):
        # uniform h=1 grid: up = mu/(2h) + sigma^2/(2 h^2)
        g = SpatialGrid(
            states=np.linspace(50.0, 130.0, 81),
            barrier=90.0,
            strike=95.5,
            segment_counts=(40, 0, 40),
        )
        gen = build_generator(BS, g)
        k = 40  # state 90.0
        mu, s2 = 0.05 * 90.0, (0.3 * 90.0) ** 2
        assert gen.up[k] == pytest.approx(mu / 2 + s2 / 2, rel=1e-13)
        assert gen.down[k] == pytest.approx(-mu / 2 + s2 / 2, rel=1e-13)
        assert gen.diag[k] == pytest.approx(-(gen.up[k] + gen.down[k]))

    def test_zero_model_gives_zero_matrix(self):
        from parisian.models import Coordinate, ModelSpec

        zero = ModelSpec(
            drift=lambda t, x: np.zeros_like(x),
            diffusion_sq=lambda t, x: np.zeros_like(x),
            jump_measure=None,
            coordinate=Coordinate.PRICE,
        )
        g = build_grid(30, 270, 90.0, 95.0, 16)
        gen = build_generator(zero, g)
        assert np.all(gen.as_dense() == 0.0)

    @pytest.mark.parametrize(
        "model,log_space,policy",
        [(BS, False, "error"), (KOU, True, "error"), (VG, True, "upwind")],
    )
    def test_validity_invariants(self, model, log_space, policy):
        lo, hi = (np.log(18), np.log(360)) if log_space else (18.0, 360.0)
        L, K = (np.log(90), np.log(95)) if log_space else (90.0, 95.0)
        g = build_grid(lo, hi, L, K, 160)
        gen = build_generator(model, g, rate_policy=policy)
        validate_generator(gen)  # raises on violation
        assert gen.row_sums()[0] == 0.0 and gen.row_sums()[-1] == 0.0

    @pytest.mark.parametrize(
        "model,policy,n",
        [(KOU, "error", 160), (VG, "upwind", 160),
         (state_dependent_kou(), "error", 160),
         # several chunks of about 2^18 cells each
         (VG, "upwind", 800)],
        ids=["kou", "vg", "state-dependent", "vg-800"],
    )
    def test_tail_assembly_matches_per_cell_reference(self, model, policy, n):
        g = build_grid(np.log(18), np.log(360), np.log(90), np.log(95), n)
        gen = build_generator(model, g, rate_policy=policy)
        validate_generator(gen)
        jump, mu_bar = per_cell_jump_rates(model, g)
        idx = np.arange(1, g.n_states - 1)
        # far jump rates: everything beyond the nearest neighbours
        far = jump.copy()
        far[idx, idx + 1] = 0.0
        far[idx, idx - 1] = 0.0
        np.testing.assert_allclose(gen.jump, far, rtol=1e-13, atol=0.0)
        # nearest-neighbour rates carry mu_bar and the neighbour jump mass;
        # rebuild them from the reference (central, or upwind where central
        # turns a rate negative)
        x = g.states[idx]
        dp, dm, dav = g.delta_plus[idx], g.delta_minus[idx], g.delta[idx]
        edges = g.cell_edges
        mu = model.drift(0.0, x) - mu_bar[idx]
        s2 = model.diffusion_sq(0.0, x) + np.asarray(
            model.jump_measure.small_jump_second_moment(
                0.0, x, edges[idx] - x, edges[idx + 1] - x
            ),
            dtype=float,
        )
        up = mu * dm / (2 * dp * dav) + s2 / (2 * dp * dav)
        down = -mu * dp / (2 * dm * dav) + s2 / (2 * dm * dav)
        upwind = (up < 0.0) | (down < 0.0)
        up[upwind] = (np.maximum(mu, 0.0) / dp + s2 / (2 * dp * dav))[upwind]
        down[upwind] = (np.maximum(-mu, 0.0) / dm + s2 / (2 * dm * dav))[upwind]
        np.testing.assert_allclose(
            gen.up[idx], up + jump[idx, idx + 1], rtol=1e-13, atol=0.0
        )
        np.testing.assert_allclose(
            gen.down[idx], down + jump[idx, idx - 1], rtol=1e-13, atol=0.0
        )

    def test_vg_jump_part_is_independent_of_chunks(self, monkeypatch):
        # rows are grouped by lattice run, so the cut into chunks moves the
        # pieces: the log domain and its mirror (strike below the barrier),
        # and a state-dependent measure with no run tables at all
        log, mirrored = TestBuildGrid.DOMAINS[2:]
        cases = [(VG, log, True), (KOU, log, True), (VG, mirrored, True),
                 (KOU, mirrored, True), (state_dependent_kou(), log, False)]
        for model, domain, tabled in cases:
            g = build_grid(*domain, 800)
            cells = []

            def counted(*args, base=model.jump_measure):
                out = base.interval_mass(*args)
                cells[-1] += np.size(out)
                return out

            jm = dataclasses.replace(model.jump_measure, interval_mass=counted)

            def build(chunk_cells):
                cells.append(0)
                with monkeypatch.context() as m:
                    m.setattr(ctmc, "_CHUNK_CELLS", chunk_cells)
                    return jump_part(jm, g)

            default = build(ctmc._CHUNK_CELLS)
            one_row = build(1)  # one row per chunk
            some_rows = build(37 * g.n_states)  # chunks of 37 rows
            # the cells evaluated are a function of the grid, not of the
            # chunks, and the run tables leave about half of them to
            # evaluate per row
            assert cells[0] == cells[1] == cells[2], model.name
            if tabled:
                assert cells[0] <= 0.55 * g.n_states * (g.n_states - 1)
            for field in ("far", "up", "down", "far_sums", "mu_bar", "s2_bar"):
                want = getattr(default, field)
                for part in (one_row, some_rows):
                    assert np.array_equal(getattr(part, field), want), (model.name, field)

    @pytest.mark.parametrize("chunk_cells", [ctmc._CHUNK_CELLS, 9 * 401],
                             ids=["one-chunk", "nine-rows"])
    @pytest.mark.parametrize(
        "model", [KOU, VG, state_dependent_kou()], ids=["kou", "vg", "state-dependent"]
    )
    @pytest.mark.parametrize("domain", TestBuildGrid.DOMAINS[2:],
                             ids=TestBuildGrid.DOMAIN_IDS[2:])
    def test_every_tail_is_taken_on_one_half_line(self, monkeypatch, model, domain,
                                                  chunk_cells):
        base = model.jump_measure
        calls = []

        def one_sided(t, x, a, b):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            # one endpoint the scalar -inf or +inf, the other of one sign
            if a.ndim == 0 and a == -np.inf:
                assert np.all(b < 0.0)
            else:
                assert b.ndim == 0 and b == np.inf
                assert np.all(a > 0.0)
            calls.append(max(a.size, b.size))
            return base.interval_mass(t, x, a, b)

        monkeypatch.setattr(ctmc, "_CHUNK_CELLS", chunk_cells)
        g = build_grid(*domain, 400)
        jump_part(dataclasses.replace(base, interval_mass=one_sided), g)
        assert sum(calls) > g.n_states * (g.n_states - 1) / 4

    @pytest.mark.parametrize(
        "model,domain",
        [(KOU, TestBuildGrid.DOMAINS[2]), (VG, TestBuildGrid.DOMAINS[2]),
         (KOU, TestBuildGrid.DOMAINS[3]), (VG, TestBuildGrid.DOMAINS[3])],
        ids=["kou", "vg", "kou-mirrored", "vg-mirrored"],
    )
    def test_run_tables_give_the_per_row_bits(self, model, domain):
        g = build_grid(*domain, 400)
        N = g.n_states
        base = model.jump_measure
        cells = []

        def counted(*args):
            out = base.interval_mass(*args)
            cells[-1] += np.size(out)
            return out

        def per_state(t, x, a, b):
            # one row per state: the measure reads as state-dependent, so
            # every tail is evaluated per row
            out = counted(t, x, a, b)
            return np.broadcast_to(out, np.broadcast_shapes(np.shape(x), np.shape(out)))

        parts = []
        for mass in (counted, per_state):
            cells.append(0)
            parts.append(jump_part(dataclasses.replace(base, interval_mass=mass), g))
        table, per_row = parts
        assert cells[0] <= 0.55 * N * (N - 1) < cells[1]
        for field in ("far", "up", "down", "far_sums", "mu_bar", "s2_bar"):
            assert np.array_equal(getattr(table, field), getattr(per_row, field)), field

    def test_kou_jump_mass_conservation(self):
        g = build_grid(np.log(18), np.log(360), np.log(90), np.log(95), 224)
        gen = build_generator(KOU, g)
        jm = KOU.jump_measure
        edges, x = g.cell_edges, g.states
        for i in (30, 112, 200):
            own = float(jm.interval_mass(0, 0, edges[i] - x[i], edges[i + 1] - x[i]))
            out = (
                gen.jump[i].sum()
                + float(jm.interval_mass(0, 0, edges[i + 1] - x[i], edges[i + 2] - x[i]))
                + float(jm.interval_mass(0, 0, edges[i - 1] - x[i], edges[i] - x[i]))
            )
            assert out == pytest.approx(3.0 - own, abs=1e-10)
            assert out >= 0.0

    def test_vg_central_rates_raise_and_upwind_repairs(self):
        g = build_grid(np.log(18), np.log(360), np.log(90), np.log(95), 480)
        with pytest.raises(NegativeRateError):
            build_generator(VG, g, rate_policy="error")
        gen = build_generator(VG, g, rate_policy="upwind")
        validate_generator(gen)
        assert min(gen.up[1:-1].min(), gen.down[1:-1].min()) >= 0.0

    def test_clamp_policy_rejected(self):
        # zeroing negative rates priced VG at 3.29 against 52.4; it is gone
        g = build_grid(np.log(18), np.log(360), np.log(90), np.log(95), 480)
        with pytest.raises(ValueError, match="unknown rate policy 'clamp'"):
            build_generator(VG, g, rate_policy="clamp")

    def test_policy_resolution(self):
        assert resolve_rate_policy(None, VG) == "upwind"
        assert resolve_rate_policy(None, BS) == "error"
        assert resolve_rate_policy("upwind", BS) == "upwind"

    def test_refinement_consistency_uniform_family(self):
        # uniform grids halving h exactly: observed order ~2 (>= 1 required)
        f = lambda x: np.sin(x / 40.0) + 0.5 * (x / 90.0) ** 2
        fp = lambda x: np.cos(x / 40.0) / 40.0 + x / 8100.0
        fpp = lambda x: -np.sin(x / 40.0) / 1600.0 + 1.0 / 8100.0
        errs = []
        for n in (60, 120, 240):
            g = SpatialGrid(
                states=np.linspace(30.0, 270.0, n + 1),
                barrier=90.0,
                strike=92.0 + 1e-3,
                segment_counts=(n // 4, 0, 3 * n // 4),
            )
            gen = build_generator(BS, g)
            act = gen.as_dense() @ f(g.states)
            exact = BS.drift(0, g.states) * fp(g.states) + 0.5 * BS.diffusion_sq(
                0, g.states
            ) * fpp(g.states)
            errs.append(np.abs(act[1:-1] - exact[1:-1]).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.0

    def test_refinement_consistency_piecewise_uniform_family(self):
        # commensurate PU splits: junction truncation is first order, so the
        # regression slope over three doublings must stay near 1
        f = lambda x: np.sin(x / 40.0) + 0.5 * (x / 90.0) ** 2
        fp = lambda x: np.cos(x / 40.0) / 40.0 + x / 8100.0
        fpp = lambda x: -np.sin(x / 40.0) / 1600.0 + 1.0 / 8100.0
        errs = []
        for s in (1, 2, 4, 8):
            split = (8 * s, 4 * s, 52 * s)
            g = build_grid(30, 270, 90.0, 95.0, sum(split), split=split)
            gen = build_generator(BS, g)
            act = gen.as_dense() @ f(g.states)
            exact = BS.drift(0, g.states) * fp(g.states) + 0.5 * BS.diffusion_sq(
                0, g.states
            ) * fpp(g.states)
            errs.append(np.abs(act[1:-1] - exact[1:-1]).max())
        slope = np.polyfit(np.log2([1, 2, 4, 8]), -np.log2(errs), 1)[0]
        assert slope >= 0.85

    def test_csv_dump_roundtrip(self, tmp_path):
        import csv as csvmod

        g = build_grid(30, 270, 90.0, 95.0, 16)
        gen = build_generator(BS, g)
        path = tmp_path / "gen.csv"
        dump_generator_csv(gen, path)
        dense = gen.as_dense()
        rebuilt = np.zeros_like(dense)
        with open(path, newline="") as fh:
            reader = csvmod.reader(fh)
            header = next(reader)
            assert header == ["i", "j", "rate"]
            for i, j, rate in reader:
                rebuilt[int(i), int(j)] = float(rate)
        assert np.array_equal(rebuilt, dense)


def kou_sigma_t():
    """Kou with a diffusive volatility that grows in time; its jump measure
    (``kou_jump_measure``) declares itself time-homogeneous."""
    return dataclasses.replace(
        KOU,
        diffusion_sq=lambda t, x: np.full_like(np.asarray(x, dtype=float),
                                               (0.3 * (1 + t / 2)) ** 2),
        time_homogeneous=False,
    )


class TestSharedJumpPart:
    TIMES = TimeGrid(dt=0.25, horizon=1.0).times

    def grid(self):
        return build_grid(math.log(20), math.log(400), math.log(90),
                          math.log(95), 24)

    def test_slices_equal_fresh_assembly_and_share_one_jump_array(self):
        model, g = kou_sigma_t(), self.grid()
        assert model.jump_measure.time_homogeneous
        gens = slice_generators(model, g, self.TIMES)
        for gen, t in zip(gens, self.TIMES):
            fresh = build_generator(model, g, float(t))
            for field in ("up", "down", "diag", "jump"):
                assert np.array_equal(getattr(gen, field), getattr(fresh, field))
            assert gen.jumps is gens[0].jumps and gen.jump is gens[0].jump
        assert not np.array_equal(gens[0].diag, gens[-1].diag)  # sigma moved
        with pytest.raises(ValueError):
            gens[0].jump[3, 7] = 1.0
        with pytest.raises(ValueError):
            gens[0].jumps.mu_bar[3] = 1.0

    def test_undeclared_measure_is_assembled_per_slice(self):
        base = KOU.jump_measure

        def growing(f):
            return lambda t, x, a, b: (1.0 + t) * f(t, x, a, b)

        jm = JumpMeasure(
            interval_mass=growing(base.interval_mass),
            small_jump_second_moment=growing(base.small_jump_second_moment),
            truncated_first_moment=growing(base.truncated_first_moment),
            total_activity=math.nan,
        )
        assert not jm.time_homogeneous
        model = dataclasses.replace(kou_sigma_t(), jump_measure=jm)
        g = self.grid()
        gens = slice_generators(model, g, self.TIMES)
        for gen, t in zip(gens, self.TIMES):
            assert np.array_equal(gen.jump, build_generator(model, g, float(t)).jump)
        assert len({id(gen.jump) for gen in gens}) == len(gens)
        assert not np.array_equal(gens[0].jump, gens[-1].jump)

    def test_jump_part_must_fit_model_and_grid(self):
        g = self.grid()
        jumps = build_generator(KOU, g).jumps
        with pytest.raises(ValueError, match="jump part"):
            build_generator(BS, g, jumps=jumps)  # jump-free model
        small = build_grid(math.log(20), math.log(400), math.log(90),
                           math.log(95), 16)
        with pytest.raises(ValueError, match="jump part"):
            build_generator(KOU, small, jumps=jumps)


def rates_from_parts(gen):
    """The dense rate matrix of ``gen``, set entry by entry from its jump
    block and its three bands."""
    n = gen.dimension
    R = np.zeros((n, n)) if gen.jump is None else np.array(gen.jump)
    for i in range(n):
        R[i, i] = gen.diag[i]
        if i + 1 < n:
            R[i, i + 1] = gen.up[i]
        if i > 0:
            R[i, i - 1] = gen.down[i]
    return R


class TestRateBlock:
    def chains(self):
        """(name, generator or plain matrix) on 25-state grids: tridiagonal,
        Kou, VG, a sigma(t) Kou slice sharing its jump part, a plain matrix."""
        lin = build_grid(30, 270, 90.0, 95.0, 24)
        log = build_grid(math.log(20), math.log(400), math.log(90),
                         math.log(95), 24)
        sigma_t = slice_generators(kou_sigma_t(), log, TimeGrid(0.25, 1.0).times)
        kou = build_generator(KOU, log)
        return [("tridiagonal", build_generator(BS, lin)), ("kou", kou),
                ("vg", build_generator(VG, log, 0.0, resolve_rate_policy(None, VG))),
                ("sigma(t) kou", sigma_t[2]), ("plain", kou.as_dense())]

    def test_blocks_are_the_dense_formula_sliced(self):
        # (shift, scale) = (a0, -cG): a0 I - cG R, bit for bit, on every block
        n = 25
        ranges = [slice(0, n), slice(0, 9), slice(9, n), slice(3, 17),
                  slice(8, 10), slice(24, n), slice(5, 5)]
        for name, gen in self.chains():
            R = np.asarray(gen) if name == "plain" else rates_from_parts(gen)
            if name != "plain":
                np.testing.assert_array_equal(gen.as_dense(), R)
            for shift, scale in ((0.0, 1.0), (0.05, -1.0), (1.0, -1 / 60),
                                 (1.0 + 0.05 / 60 + 120 / 60, -1 / 60), (0.0, 1 / 60)):
                full = shift * np.eye(n) - (-scale) * R
                for rows in ranges:
                    for cols in ranges:
                        for order in ("C", "F"):
                            block = rate_block(gen, rows, cols, shift, scale, order)
                            assert block.flags[f"{order}_CONTIGUOUS"]
                            np.testing.assert_array_equal(
                                block, full[rows, cols], err_msg=f"{name} {rows} {cols}")


class TestSliceOperator:
    def test_dense_form_is_the_formula_on_a_fresh_array(self):
        g = build_grid(math.log(20), math.log(400), math.log(90),
                       math.log(95), 24)
        gen = build_generator(KOU, g)
        R = gen.as_dense()
        before = R.copy()
        for a0, cG in ((0.05, 1.0), (1.0 + 0.05 / 12, 1 / 12)):
            expected = a0 * np.eye(len(R)) - cG * R
            for source in (R, gen):
                op = slice_operator(source, a0, cG)
                assert op.bands is None and not op.is_sparse
                np.testing.assert_array_equal(op.to_dense(), expected)
                assert op.to_dense() is not R
            np.testing.assert_array_equal(R, before)  # plain input untouched

    def test_tridiagonal_form_holds_the_slice_bands(self):
        g = build_grid(math.log(20), math.log(400), math.log(90),
                       math.log(95), 24)
        gen = build_generator(BS, g)
        for a0, cG in ((0.05, 1.0), (1.0 + 0.05 / 12, 1 / 12)):
            op = slice_operator(gen, a0, cG)
            np.testing.assert_array_equal(op.bands, slice_bands(gen, a0, cG))
            np.testing.assert_array_equal(
                op.to_dense(), a0 * np.eye(gen.dimension) - cG * gen.as_dense())


class TestBlockInverse:
    def test_forms_solve_the_block_without_interchange(self):
        # bands on a tridiagonal chain, dense on a jump chain and a plain
        # matrix: each factor has the identity pivots and solves the block
        # of a0 I - cG G, nonnegative on a nonnegative right-hand side
        rng = np.random.default_rng(5)
        g = build_grid(math.log(20), math.log(400), math.log(90), math.log(95), 40)
        bs = build_generator(BS, build_grid(18.0, 360.0, 90.0, 95.0, 40))
        kou = build_generator(KOU, g)
        for gen in (bs, bs.as_dense(), kou, kou.as_dense()):
            banded = gen is bs
            R = gen if isinstance(gen, np.ndarray) else gen.as_dense()
            for a0, cG in ((0.05, 1.0), (1.0, 1 / 60)):
                for rows in (slice(0, 12), slice(12, None), slice(3, 11)):
                    inv = ctmc.block_inverse(gen, rows, a0, cG)
                    piv = inv.factor[0][4] - 1 if banded else inv.factor[1]
                    np.testing.assert_array_equal(piv, np.arange(len(piv)))
                    block = (a0 * np.eye(len(R)) - cG * R)[rows, rows]
                    for b in (rng.uniform(0.1, 1.0, size=len(block)),
                              rng.uniform(0.1, 1.0, size=(len(block), 3))):
                        x = inv @ b
                        assert x.shape == b.shape and np.all(x >= 0.0)
                        np.testing.assert_allclose(x, np.linalg.solve(block, b),
                                                   rtol=1e-13)

    def test_every_pricing_factor_is_pivot_free(self, monkeypatch):
        # every dense and tridiagonal LU factor made while pricing the 12
        # reference blocks at their coarsest grids and the two BS down-out
        # puts keeps the identity pivots; the separable form's dgbtrf factor
        # pivots by design and is left out
        from parisian import bench_cli, numerics

        swapped, made = [], []

        def recording(lapack, pivots):
            def factor(*args, **kwargs):
                out = lapack(*args, **kwargs)
                piv = pivots(out)
                made.append(key)
                if np.any(piv != np.arange(len(piv))):
                    swapped.append(key)
                return out
            return factor

        monkeypatch.setattr(numerics, "dgetrf",
                            recording(numerics.dgetrf, lambda out: out[1]))
        monkeypatch.setattr(numerics, "dgttrf",
                            recording(numerics.dgttrf, lambda out: out[4] - 1))
        cases = [(f"{family} {opt.key}", opt.config)
                 for family in ("bs", "kou", "vg")
                 for opt in bench_cli.REFERENCE_TABLES[family]]
        for block in ("perpetual-down-out", "finite-down-out"):
            cfg = bench_cli.reference_option("bs", block).config
            cases.append((f"bs {block} put", dataclasses.replace(cfg, payoff="put")))
        assert len(cases) == 14
        for key, cfg in cases:
            bench_cli.price_point(cfg, cfg.grids[0])
        assert len(made) > len(cases) and swapped == []


class TestChainPath:
    def test_excursion_clock_resets(self):
        below = np.array([True, True, False])
        p = ChainPath(
            times=np.array([0.0, 0.4, 1.0, 1.3]),
            states=np.array([0, 2, 1, 0]),
            horizon=5.0,
        )
        tau, s = p.excursion_trigger(below, window=0.7)
        assert tau == pytest.approx(1.7) and s == 0
        tau2, s2 = p.excursion_trigger(below, window=2.0)
        assert tau2 == pytest.approx(3.0) and s2 == 0
        tau3, s3 = p.excursion_trigger(below, window=10.0)
        assert tau3 == math.inf and s3 is None

    def test_sample_path_reproducible(self):
        R = np.array([[-3.0, 3.0], [2.0, -2.0]])
        p1 = sample_path(R, 0, 10.0, np.random.default_rng(5))
        p2 = sample_path(R, 0, 10.0, np.random.default_rng(5))
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.states, p2.states)


class TestSimulatePaths:
    def closed_form_two_state(self, a, b, r, D):
        # A(below) <-> B(above); renewal over complete A-excursions
        q = math.exp(-(a + r) * D)
        return q / (1.0 - a / (a + r) * (1 - q) * b / (b + r))

    def test_matches_two_state_renewal_value(self):
        a, b, r, D = 3.0, 2.0, 0.4, 0.5
        R = np.array([[-a, a], [b, -b]])
        below = np.array([True, False])
        res = simulate_paths(R, x0=0, window=D, rate=r, n_paths=200_000,
                             rng_seed=7, below=below)
        exact = self.closed_form_two_state(a, b, r, D)
        se = math.sqrt(float((res.std_error**2).sum()))
        assert abs(res.total - exact) <= 3 * se + 1e-12
        assert res.estimate[1] == 0.0  # trigger only happens below

    def test_zero_window_triggers_immediately(self):
        R = np.array([[-3.0, 3.0], [2.0, -2.0]])
        below = np.array([True, False])
        res = simulate_paths(R, x0=0, window=0.0, rate=0.3, n_paths=500,
                             rng_seed=1, below=below)
        assert res.estimate[0] == pytest.approx(1.0)
        assert res.mean_trigger_time == pytest.approx(0.0)

    def test_absorbing_below_triggers_at_window(self):
        R = np.array([[0.0, 0.0], [2.0, -2.0]])
        below = np.array([True, False])
        D, r = 0.5, 0.4
        res = simulate_paths(R, x0=0, window=D, rate=r, n_paths=200,
                             rng_seed=2, below=below)
        assert res.estimate[0] == pytest.approx(math.exp(-r * D), rel=1e-12)
        assert res.mean_trigger_time == pytest.approx(D)

    def test_absorbing_above_is_degenerate(self):
        R = np.array([[-3.0, 3.0], [0.0, 0.0]])
        below = np.array([True, False])
        res = simulate_paths(R, x0=1, window=0.5, rate=0.4, n_paths=100,
                             rng_seed=3, below=below)
        assert res.degenerate
        assert res.total == 0.0

    def test_seed_determinism(self):
        R = np.array([[-3.0, 3.0], [2.0, -2.0]])
        below = np.array([True, False])
        r1 = simulate_paths(R, 0, 0.5, 0.4, 5000, rng_seed=11, below=below)
        r2 = simulate_paths(R, 0, 0.5, 0.4, 5000, rng_seed=11, below=below)
        assert np.array_equal(r1.estimate, r2.estimate)
