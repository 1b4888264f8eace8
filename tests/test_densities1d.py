import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncollide import densities1d as dens
from noncollide.densities1d import DensityParams
from noncollide.errors import (
    BesselIndexOutOfRange,
    DomainError,
    IntegrableSingularity,
    NonPositiveTime,
    OverflowSignal,
    TimeOrdering,
)
from oracles import integrate, integrate_powered_edge


def test_bm_peak_value():
    assert dens.bm_density(1, 0, 0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)


def test_bm_symmetry():
    assert dens.bm_density(2, 1.5, 0.5) == dens.bm_density(2, 0.5, 1.5)


def test_bm_normalization():
    val = integrate(lambda y: dens.bm_density(1.0, y, 0.0), -10, 10)
    assert abs(val - 1.0) <= 1e-10


def test_bm_requires_positive_time():
    with pytest.raises(NonPositiveTime):
        dens.bm_density(0.0, 1.0, 0.0)


def test_bridge_variance():
    # Var of the bridge at t = T - eps is eps (1 - eps/T): T=1, eps=0.1 -> 0.09
    m2 = integrate(lambda y: y * y * dens.bridge_density(0, 0, 0.9, y, 1.0), -6, 6)
    assert abs(m2 - 0.09) <= 1e-8


def test_bridge_symmetry_and_norm():
    ys = np.linspace(0.1, 2.0, 7)
    assert np.allclose(
        dens.bridge_density(0, 0.0, 0.5, ys, 1.0),
        dens.bridge_density(0, 0.0, 0.5, -ys, 1.0),
    )
    val = integrate(lambda y: dens.bridge_density(0, 0, 0.3, y, 1.0), -6, 6)
    assert abs(val - 1.0) <= 1e-10


def test_bridge_time_ordering():
    with pytest.raises(TimeOrdering):
        dens.bridge_density(0.5, 0.0, 0.4, 0.0, 1.0)
    with pytest.raises(TimeOrdering):
        dens.bridge_density(0.0, 0.0, 1.0, 0.0, 1.0)  # degenerate pinned endpoint


def test_absorbing_value():
    expect = (1 - math.exp(-2)) / math.sqrt(2 * math.pi)
    assert dens.absorbing_density(1, 1, 1) == pytest.approx(expect, abs=1e-15)


def test_absorbing_boundary_zero():
    assert dens.absorbing_density(0.7, 0.0, 1.3) == 0.0


def test_absorbing_integrates_to_survival():
    for (t, x) in ((1.0, 1.0), (0.5, 2.0)):
        val = integrate(lambda y: dens.absorbing_density(t, y, x), 0, x + 12 * math.sqrt(t))
        assert abs(val - dens.survival_h(t, x)) <= 1e-10


def test_survival_values():
    assert dens.survival_h(1, 1) == pytest.approx(math.erf(1 / math.sqrt(2)), abs=1e-15)
    assert dens.survival_h(1e-8, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert dens.survival_h(4, 1) < dens.survival_h(1, 1)
    with pytest.raises(DomainError):
        dens.survival_h(1.0, -0.5)


def test_bessel3_is_h_transform():
    # same floating-point expression: (y/x) * absorbing
    for (t, y, x) in ((1.0, 1.0, 1.0), (0.5, 2.2, 0.7)):
        assert dens.bessel3_density(t, y, x) == (y / x) * dens.absorbing_density(t, y, x)


def test_bessel3_value_and_origin():
    assert dens.bessel3_density(1, 1, 1) == pytest.approx(0.34495131388824467, abs=1e-12)
    assert dens.bessel3_density_origin(1.0, 0.0) == 0.0


def test_bessel3_equals_nu_half():
    ys = np.linspace(0.01, 6.0, 23)
    a = dens.bessel3_density(1.0, ys, 1.2)
    b = dens.bessel_density(0.5, 1.0, ys, 1.2)
    assert np.max(np.abs(a - b)) <= 1e-12
    a0 = dens.bessel3_density_origin(0.7, ys)
    b0 = dens.bessel_density(0.5, 0.7, ys, 0.0)
    assert np.max(np.abs(a0 - b0)) <= 1e-12


@pytest.mark.parametrize("nu,t,x", [(0.5, 1.0, 1.0), (0.0, 1.0, 2.0), (-0.4, 1.0, 1.0)])
def test_bessel_normalization(nu, t, x):
    val = integrate_powered_edge(
        lambda y: dens.bessel_density(nu, t, y, x), 2 * nu + 1,
        x + 14 * math.sqrt(t), n_panels=24,
    )
    assert abs(val - 1.0) <= 1e-8


def test_bessel_chapman_kolmogorov():
    nu, s, t, x, y = 0.5, 0.4, 0.7, 1.1, 0.8
    ck = integrate(
        lambda z: dens.bessel_density(nu, s, z, x) * dens.bessel_density(nu, t, y, z),
        0.0, 20.0, n_panels=24,
    )
    assert abs(ck - dens.bessel_density(nu, s + t, y, x)) <= 1e-6


def test_bessel_index_domain():
    with pytest.raises(DomainError):
        dens.bessel_density(-1.0, 1.0, 1.0, 1.0)


def test_bessel_i_values():
    assert dens.bessel_i(0, 0.0) == 1.0
    closed = math.sqrt(2 / (math.pi * 1.0)) * math.sinh(1.0)
    assert dens.bessel_i(0.5, 1.0) == pytest.approx(closed, rel=1e-12)


def test_bessel_i_monotone_positive():
    zs = np.linspace(0.0, 30.0, 40)
    vals = dens.bessel_i_scaled(0.7, zs) * np.exp(zs)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals[1:]) > 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, -0.4])
def test_bessel_i_seam(nu):
    z = np.array([25.0])
    series = dens._bessel_i_series_scaled(nu, z)[0]
    asym = dens._bessel_i_asym_scaled(nu, z)[0]
    assert abs(series - asym) / asym <= 1e-9


def test_bessel_i_scaled_matches_scipy_ive():
    special = pytest.importorskip("scipy.special")
    zs = np.logspace(-3.0, math.log10(600.0), 400)
    for nu in (0.0, 0.5, 1.0, 3.0, 8.0, 10.0, 15.0, 20.0):
        ref = special.ive(nu, zs)
        rel = np.abs(dens.bessel_i_scaled(nu, zs) - ref) / ref
        assert rel.max() <= 1e-12, (nu, zs[np.argmax(rel)], rel.max())


def test_bessel_i_scaled_large_order_past_25():
    # z = 26 is past the fixed switch at 25 but not past nu^2 = 64
    assert dens.bessel_i_scaled(8.0, 26.0) == pytest.approx(0.022642014000642457, rel=1e-12)


def test_bessel_i_scaled_order_range_enforced():
    special = pytest.importorskip("scipy.special")
    zs = np.array([1e-3, 1.0, 26.0, 399.0, 400.0, 401.0, 650.0])
    ref = special.ive(20.0, zs)
    assert np.max(np.abs(dens.bessel_i_scaled(20.0, zs) - ref) / ref) <= 1e-12
    # past nu = 20 the uniform expansion takes over: no raise, same accuracy
    for nu in (20.5, 26.0, 30.0):
        assert dens.bessel_i_scaled(nu, 676.0) == pytest.approx(
            special.ive(nu, 676.0), rel=1e-12)
    assert dens.bessel_i(26.0, 1.0) == pytest.approx(special.iv(26.0, 1.0), rel=1e-12)
    for nu in (-1.0, math.nan):
        with pytest.raises(BesselIndexOutOfRange):
            dens.bessel_i_scaled(nu, 676.0)


@pytest.mark.parametrize("nu", [20.5, 26.0, 30.0, 60.0, 100.0])
def test_bessel_i_scaled_large_order_matches_mpmath(nu):
    mp = pytest.importorskip("mpmath")
    zs = np.logspace(-3.0, math.log10(650.0), 40)
    got = dens.bessel_i_scaled(nu, zs)
    with mp.workdps(30):
        for z, v in zip(zs, got):
            ref = mp.besseli(nu, z) * mp.exp(-z)
            if ref < mp.mpf("1e-290"):  # below the double range: 0 or subnormal
                assert v < 1e-280
                continue
            assert abs(v - ref) <= 1e-12 * ref, (z, v)


def test_bessel_at_smallest_subnormal():
    assert dens.bessel_i_scaled(0.0, 5e-324) == 1.0
    assert math.isfinite(dens.bessel_density(0.0, 1.0, 5e-324, 1.0))


def test_bessel_i_overflow_and_scaled():
    with pytest.raises(OverflowSignal):
        dens.bessel_i(0.0, 800.0)
    val = dens.bessel_i_scaled(0.0, 800.0)
    assert 0.0 < val < 1.0  # ~ 1/sqrt(2 pi z)


def test_meander_normalization():
    val = integrate(lambda y: dens.meander_density(0, 0, 0.5, y, 1.0), 0, 10)
    assert abs(val - 1.0) <= 1e-8
    # t = T: h(0, y) = 1 gives the Rayleigh-type form
    val = integrate(lambda y: dens.meander_density(0, 0, 1.0, y, 1.0), 0, 10)
    assert abs(val - 1.0) <= 1e-8


def test_meander_imhof():
    T = 1.0
    for y in (0.5, 1.0, 2.0):
        ratio = dens.meander_density(0, 0, T, y, T) / dens.bessel3_density_origin(T, y)
        assert abs(ratio - math.sqrt(math.pi * T / 2) / y) <= 1e-10


def test_gen_meander_kappa0_is_bessel():
    p = DensityParams(nu=0.5, kappa=0.0, T=1.0)
    assert dens.gen_meander_density(p, 0.1, 0.7, 0.6, 1.3) == pytest.approx(
        dens.bessel_density(0.5, 0.5, 1.3, 0.7), rel=1e-14
    )


def test_gen_meander_equals_meander():
    p = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    for (s, x, t, y) in ((0.0, 0.0, 0.5, 1.0), (0.2, 0.8, 0.9, 1.4), (0.0, 0.0, 1.0, 0.7)):
        gm = dens.gen_meander_density(p, s, x, t, y)
        me = dens.meander_density(s, x, t, y, 1.0)
        assert abs(gm - me) <= 1e-13 * me


def test_gen_meander_imhof():
    nu, kappa, T = 0.7, 0.9, 2.0
    p = DensityParams(nu=nu, kappa=kappa, T=T)
    for y in (0.8, 1.7):
        ratio = dens.gen_meander_density(p, 0, 0, T, y) / dens.bessel_density(nu, T, y, 0.0)
        expect = (
            math.gamma(nu + 1) / math.gamma(nu + 1 - kappa / 2)
            * (math.sqrt(2 * T) / y) ** kappa
        )
        assert abs(ratio - expect) <= 1e-8


def test_gen_meander_normalization():
    p = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    val = integrate(lambda y: dens.gen_meander_density(p, 0, 0, 0.5, y), 0, 8)
    assert abs(val - 1.0) <= 1e-8


def test_h_nu_kappa_singularity_flagged():
    p = DensityParams(nu=0.0, kappa=2.0, T=1.0)  # kappa = 2(nu+1) allowed as a parameter
    with pytest.raises(IntegrableSingularity):
        dens.h_nu_kappa(p, 0.2, 1.0)


def test_h_nu_kappa_at_horizon():
    p = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    assert dens.h_nu_kappa(p, 1.0, 2.0) == 0.5


def test_densities_zero_outside_support():
    assert dens.absorbing_density(1.0, -0.5, 1.0) == 0.0
    assert dens.bessel_density(0.5, 1.0, -1.0, 1.0) == 0.0
    assert dens.meander_density(0, 0, 0.5, -1.0, 1.0) == 0.0


@given(
    st.floats(0.1, 3.0), st.floats(0.0, 5.0), st.floats(0.05, 4.0),
    st.floats(-0.9, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_bessel_density_nonnegative(t, y, x, nu):
    assert dens.bessel_density(nu, t, y, x) >= 0.0


def test_density_params_validation():
    with pytest.raises(DomainError):
        DensityParams(nu=-1.2, kappa=0.0, T=1.0)
    with pytest.raises(DomainError):
        DensityParams(nu=0.0, kappa=2.5, T=1.0)  # kappa > 2(nu+1)
    with pytest.raises(NonPositiveTime):
        DensityParams(nu=0.0, kappa=0.5, T=0.0)
