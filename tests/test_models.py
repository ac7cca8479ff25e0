"""Model coefficient tests: closed-form cell integrals vs quadrature."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import parisian
from parisian import models
from parisian.models import (
    Coordinate,
    KouParams,
    VGParams,
    bs_model,
    jump_measure_from_density,
    kou_model,
    vg_model,
)

KOU = KouParams(
    sigma=0.3, lam=3.0, eta_plus=10.0, eta_minus=10.0,
    p_plus=0.5, p_minus=0.5, r_f=0.05, dividend=0.0,
)
VG = VGParams(sigma=0.1213, nu=0.1686, theta=-0.1436, r_f=0.05, dividend=0.0)


def kou_density(z):
    p = KOU
    if z >= 0:
        return p.lam * p.p_plus * p.eta_plus * math.exp(-p.eta_plus * z)
    return p.lam * p.p_minus * p.eta_minus * math.exp(p.eta_minus * z)


def vg_density(z):
    p = VG
    s2 = p.sigma**2
    root = math.sqrt(p.theta**2 + 2.0 * s2 / p.nu) / s2
    lam_p = root - p.theta / s2
    lam_m = root + p.theta / s2
    if z > 0:
        return math.exp(-lam_p * z) / (p.nu * z)
    return math.exp(-lam_m * abs(z)) / (p.nu * abs(z))


class TestBlackScholes:
    def test_coefficients_at_reference_point(self):
        m = bs_model(r_f=0.10, dividend=0.05, sigma=0.3)
        assert m.drift(0.0, np.array(90.0)) == pytest.approx(4.5, abs=1e-14)
        assert m.diffusion_sq(0.0, np.array(90.0)) == pytest.approx(729.0, abs=1e-12)
        assert m.jump_measure is None
        assert m.coordinate is Coordinate.PRICE

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            bs_model(r_f=0.05, dividend=0.0, sigma=0.0)


class TestKou:
    def test_total_and_half_line_mass(self):
        jm = kou_model(KOU).jump_measure
        assert jm.interval_mass(0, 0, -np.inf, np.inf) == pytest.approx(3.0, rel=1e-14)
        assert jm.interval_mass(0, 0, 0.0, np.inf) == pytest.approx(1.5, rel=1e-14)
        assert jm.interval_mass(0, 0, -np.inf, 0.0) == pytest.approx(1.5, rel=1e-14)
        assert jm.total_activity == pytest.approx(3.0)

    def test_symmetric_truncated_first_moment_vanishes(self):
        jm = kou_model(KOU).jump_measure
        assert jm.truncated_first_moment(0, 0, -np.inf, np.inf) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_drift_matches_compensated_sde_drift(self):
        # symmetric jumps: truncated compensator is 0, so the constructor's
        # drift must equal the plain SDE drift r - d - lam*zeta - sigma^2/2
        p = KOU
        zeta = (
            p.p_plus * p.eta_plus / (p.eta_plus - 1.0)
            + p.p_minus * p.eta_minus / (p.eta_minus + 1.0)
            - 1.0
        )
        expected = p.r_f - p.dividend - p.lam * zeta - 0.5 * p.sigma**2
        m = kou_model(p)
        assert m.drift(0.0, np.array(0.1)) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "a,b",
        [(-0.7, -0.1), (-0.2, 0.3), (0.02, 0.31), (0.5, 2.0), (-3.0, -0.9)],
    )
    def test_cell_integrals_match_quadrature(self, a, b):
        jm = kou_model(KOU).jump_measure
        mass, _ = integrate.quad(kou_density, a, b, points=[0.0] if a < 0 < b else None)
        sec, _ = integrate.quad(
            lambda z: z * z * kou_density(z), a, b, points=[0.0] if a < 0 < b else None
        )
        lo, hi = max(a, -1.0), min(b, 1.0)
        first = 0.0
        if lo < hi:
            first, _ = integrate.quad(
                lambda z: z * kou_density(z), lo, hi,
                points=[0.0] if lo < 0 < hi else None,
            )
        assert jm.interval_mass(0, 0, a, b) == pytest.approx(mass, rel=1e-10)
        assert jm.small_jump_second_moment(0, 0, a, b) == pytest.approx(sec, rel=1e-8)
        assert jm.truncated_first_moment(0, 0, a, b) == pytest.approx(
            first, rel=1e-8, abs=1e-12
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KouParams(sigma=0.3, lam=3.0, eta_plus=0.9, eta_minus=10.0,
                      p_plus=0.5, p_minus=0.5, r_f=0.05)
        with pytest.raises(ValueError):
            KouParams(sigma=0.3, lam=3.0, eta_plus=10.0, eta_minus=10.0,
                      p_plus=0.6, p_minus=0.5, r_f=0.05)


class TestVarianceGamma:
    def test_pure_jump(self):
        m = vg_model(VG)
        assert np.all(m.diffusion_sq(0.0, np.linspace(-1, 1, 5)) == 0.0)
        assert m.jump_measure.total_activity == math.inf
        assert m.rate_policy_hint == "upwind"

    def test_infinite_mass_at_origin_but_finite_second_moment(self):
        jm = vg_model(VG).jump_measure
        assert jm.interval_mass(0, 0, -0.01, 0.01) == math.inf
        assert 0 < jm.small_jump_second_moment(0, 0, -0.01, 0.01) < math.inf

    @pytest.mark.parametrize(
        "a,b",
        [(0.015, 0.4), (-0.3, -0.001), (0.001, 0.002), (-0.05, -0.01), (0.2, 3.0)],
    )
    def test_cell_integrals_match_quadrature(self, a, b):
        jm = vg_model(VG).jump_measure
        mass, _ = integrate.quad(vg_density, a, b)
        sec, _ = integrate.quad(lambda z: z * z * vg_density(z), a, b)
        assert jm.interval_mass(0, 0, a, b) == pytest.approx(mass, rel=1e-8)
        assert jm.small_jump_second_moment(0, 0, a, b) == pytest.approx(sec, rel=1e-8)

    def test_truncated_first_moment_full_line(self):
        # integral over |z|<=1 of z*density: quadrature on each side
        jm = vg_model(VG).jump_measure
        neg, _ = integrate.quad(lambda z: z * vg_density(z), -1.0, 0.0)
        pos, _ = integrate.quad(lambda z: z * vg_density(z), 0.0, 1.0)
        assert jm.truncated_first_moment(0, 0, -np.inf, np.inf) == pytest.approx(
            neg + pos, rel=1e-8
        )

    def test_martingale_correction_guard(self):
        with pytest.raises(ValueError):
            VGParams(sigma=0.5, nu=8.0, theta=0.5, r_f=0.05)


class TestE1:
    """``models._e1`` against scipy's ``exp1`` and 40-digit arithmetic."""

    EDGES = (1.0, 4.0, 16.0)

    @classmethod
    def points(cls):
        rng = np.random.default_rng(20240601)
        x = [np.geomspace(1e-300, 690.0, 500),
             np.exp(rng.uniform(np.log(1e-3), np.log(690.0), 2000))]
        for e in cls.EDGES:  # each band edge and its floating-point neighbours
            x.append([np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)])
        return np.concatenate(x)

    def test_matches_scipy(self):
        from scipy.special import exp1

        x = self.points()
        assert np.allclose(models._e1(x), exp1(x), rtol=4e-15, atol=0.0)

    def test_matches_forty_digits(self):
        mpmath = pytest.importorskip("mpmath")
        x = self.points()
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.e1(mpmath.mpf(float(v)))) for v in x])
        assert np.allclose(models._e1(x), ref, rtol=1e-15, atol=0.0)

    def test_ends_and_underflow_give_no_warning_or_nan(self):
        x = np.array([0.0, 1e-300, 700.0, 745.0, 746.0, 1e4, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = models._e1(x)
        assert e[0] == np.inf and e[-1] == 0.0
        assert not np.isnan(e).any()
        assert e[1] > 0.0 and e[2] > 0.0
        assert np.all(e[4:] == 0.0)  # beyond about 745 e^{-x} underflows
        assert np.all(np.diff(e) <= 0.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (7, 5), (1, 1)])
    def test_keeps_the_shape(self, shape):
        x = np.linspace(0.0, 40.0, math.prod(shape)).reshape(shape)
        assert models._e1(x).shape == shape


class TestGenericDensityMeasure:
    def test_matches_kou_closed_forms(self):
        jm_q = jump_measure_from_density(kou_density, total_activity=3.0)
        jm_c = kou_model(KOU).jump_measure
        cells = [(-0.45, -0.15), (-0.15, 0.05), (0.05, 0.25)]
        for a, b in cells:
            assert jm_q.interval_mass(0, 0, a, b) == pytest.approx(
                float(jm_c.interval_mass(0, 0, a, b)), rel=1e-9
            )
            assert jm_q.small_jump_second_moment(0, 0, a, b) == pytest.approx(
                float(jm_c.small_jump_second_moment(0, 0, a, b)), rel=1e-9
            )
            assert jm_q.truncated_first_moment(0, 0, a, b) == pytest.approx(
                float(jm_c.truncated_first_moment(0, 0, a, b)), rel=1e-9, abs=1e-13
            )


bounded_cells = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(bounded_cells)
def test_kou_interval_mass_additive(cell):
    a, m, b = cell
    jm = kou_model(KOU).jump_measure
    whole = float(jm.interval_mass(0, 0, a, b))
    parts = float(jm.interval_mass(0, 0, a, m)) + float(jm.interval_mass(0, 0, m, b))
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(bounded_cells)
def test_vg_second_moment_additive(cell):
    a, m, b = cell
    jm = vg_model(VG).jump_measure
    whole = float(jm.small_jump_second_moment(0, 0, a, b))
    parts = float(jm.small_jump_second_moment(0, 0, a, m)) + float(
        jm.small_jump_second_moment(0, 0, m, b)
    )
    assert whole == pytest.approx(parts, rel=1e-10, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(bounded_cells)
def test_kou_truncated_first_moment_additive(cell):
    a, m, b = cell
    jm = kou_model(KOU).jump_measure
    whole = float(jm.truncated_first_moment(0, 0, a, b))
    parts = float(jm.truncated_first_moment(0, 0, a, m)) + float(
        jm.truncated_first_moment(0, 0, m, b)
    )
    assert whole == pytest.approx(parts, rel=1e-10, abs=1e-14)


def test_partition_sums_recover_total_mass():
    jm = kou_model(KOU).jump_measure
    edges = np.concatenate([[-np.inf], np.linspace(-2, 2, 41), [np.inf]])
    masses = jm.interval_mass(0, 0, edges[:-1], edges[1:])
    assert float(np.sum(masses)) == pytest.approx(3.0, rel=1e-12)


def test_pricing_imports_do_not_load_quadrature():
    # scipy.integrate (and the scipy.optimize it pulls in) is loaded only by
    # jump_measure_from_density, and the oracle with its scipy.stats only by
    # the verify verb, not by every import of the package: scipy.stats alone
    # takes longer to import than the rest of the package.  The VG measure
    # evaluates E1 with its own kernel, so scipy.special is not loaded either
    code = (
        "import sys, parisian.bench_cli, parisian.pricer_downout; "
        "print([m for m in ('scipy.integrate', 'scipy.stats', 'scipy.special',"
        " 'parisian.oracle') if m in sys.modules])"
    )
    src = str(Path(parisian.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
