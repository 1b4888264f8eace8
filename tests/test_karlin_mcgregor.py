import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from noncollide import densities1d as dens
from noncollide import experiments as ex
from noncollide import karlin_mcgregor as km
from noncollide.core import RngStream, validate_chamber
from noncollide.densities1d import DensityParams
from noncollide.errors import (
    AccuracyLossWarning,
    BesselIndexOutOfRange,
    DivisionDegeneracy,
    DomainError,
    IntegrableSingularity,
    NumericalUnderflow,
    SizeMismatch,
)

A = lambda *v: validate_chamber(list(v), "A")
C = lambda *v: validate_chamber(list(v), "C")


def test_km_single_particle_exact():
    x, y = A(0.3), A(1.1)
    v = km.km_density(km.brownian_g, 0.0, x, 0.7, y, log_g=km.brownian_log_g)
    assert v == dens.bm_density(0.7, 1.1, 0.3)


def test_km_two_particle_hand_value():
    v = km.km_density(km.brownian_g, 0.0, A(0.0, 1.0), 1.0, A(0.0, 1.0),
                      log_g=km.brownian_log_g)
    assert v == pytest.approx((1 - math.exp(-1)) / (2 * math.pi), rel=1e-12)


def test_km_nonnegative_on_chamber_configs():
    stream = RngStream(5, 0)
    for _ in range(50):
        n = 2 + int(stream.uniform() * 3)
        x = A(*np.sort(stream.normal(n)) * 1.3)
        y = A(*np.sort(stream.normal(n)) * 1.3)
        assert km.km_density(km.brownian_g, 0.0, x, 0.9, y, log_g=km.brownian_log_g) >= 0.0


def test_km_size_mismatch():
    with pytest.raises(SizeMismatch):
        km.km_density(km.brownian_g, 0.0, A(0.0, 1.0), 1.0, A(0.0, 1.0, 2.0))


def test_fn_is_km_bitwise():
    x, y = A(-0.4, 0.8), A(0.1, 1.6)
    assert km.f_n(0.6, y, x) == km.km_density(
        km.brownian_g, 0.0, x, 0.6, y, log_g=km.brownian_log_g
    )


def test_logdet_antisymmetrization():
    a = np.log(np.array([[2.0, 1.0], [0.5, 3.0]]))
    sign, logabs = km._logdet_stable(a)
    sign_sw, logabs_sw = km._logdet_stable(a[::-1])
    assert sign == -sign_sw
    assert logabs == pytest.approx(logabs_sw, rel=1e-14)


def test_density_vanishes_as_coordinates_merge():
    x = A(0.0, 1.0)
    vals = [
        km.f_n(1.0, A(0.5, 0.5 + eps), x) for eps in (1e-1, 1e-3, 1e-5, 1e-7)
    ]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-7


def test_km_underflow_reported():
    x = A(0.0, 1.0)
    y = A(40.0, 41.0)
    with pytest.raises(NumericalUnderflow) as exc:
        km.f_n(1.0, y, x)
    assert exc.value.log_value < math.log(2.3e-308)
    assert exc.value.sign == 1.0


def _det2_log_mp(p, x, y):
    """log det[p(y_j, x_i)] of a 2 x 2 determinant in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        m = [[p(mp, mp.mpf(yj), mp.mpf(xi)) for yj in y] for xi in x]
        return float(mp.log(m[0][0] * m[1][1] - m[0][1] * m[1][0]))


def test_km_column_far_below_its_rows_vs_mpmath():
    # y_2 = 40 lies ~800 below every row maximum: row extraction alone left that column
    # zero, and f_n_log returned (0, -inf)
    x, y = A(0.0, 0.1), A(0.0, 40.0)
    exact = _det2_log_mp(lambda mp, b, a: mp.npdf(b, a), x.values, y.values)
    sign, logv = km.f_n_log(1.0, y, x)
    assert sign == 1.0 and abs(logv - exact) <= 1e-13 * abs(exact), (logv, exact)
    with pytest.raises(NumericalUnderflow):
        km.f_n(1.0, y, x)
    # Bessel targets at the wall: the column of y_1 lies ~1000 (nu = 40) or ~770 (nu = 10)
    # below its rows
    for nu, y in ((40.0, C(1e-4, 1.0)), (10.0, C(1e-15, 1.0))):
        x = C(0.5, 1.5)
        exact = _det2_log_mp(lambda mp, b, a: ((b / a) ** nu * b * mp.exp(-(a * a + b * b) / 2)
                                               * mp.besseli(nu, a * b)), x.values, y.values)
        sign, logv = km.f_n_nu_log(nu, 1.0, y, x)
        assert sign == 1.0 and abs(logv - exact) <= 1e-13 * abs(exact), (nu, logv, exact)
        with pytest.raises(NumericalUnderflow):
            km.f_n_nu(nu, 1.0, y, x)


def test_survival_time_zero_and_single():
    assert km.survival_n(0.0, A(0.0, 1.0)).value == 1.0
    assert km.survival_n(3.0, A(0.7)).value == 1.0


def test_survival_two_particles_vs_erf():
    for (t, gap) in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
        est = km.survival_n(t, A(0.0, gap))
        assert est.method == "pfaffian"
        assert abs(est.value - math.erf(gap / (2 * math.sqrt(t)))) <= 1e-14 * est.value


def _survival_sweep():
    """(t, x) with N = 2..8 and gaps uniform in [0.3, 2] sqrt(t)."""
    rng = np.random.default_rng(11)
    cases = []
    for n in range(2, 9):
        for _ in range(4):
            t = float(rng.uniform(0.2, 3.0))
            gaps = rng.uniform(0.3, 2.0, n - 1) * math.sqrt(t)
            cases.append((t, rng.normal() + np.concatenate([[0.0], np.cumsum(gaps)])))
    return cases


def _survival_mp(t, x):
    """de Bruijn's Pfaffian as sqrt(det) of the bordered erf matrix, 50 digits."""
    mp = pytest.importorskip("mpmath")
    n = len(x)
    with mp.workdps(50):
        a = mp.zeros(n + n % 2)
        for i in range(n):
            for j in range(n):
                a[i, j] = mp.erf((mp.mpf(x[j]) - mp.mpf(x[i])) / (2 * mp.sqrt(t)))
            if n % 2:
                a[i, n], a[n, i] = 1, -1
        return float(mp.sqrt(mp.det(a)))


def test_survival_pfaffian_vs_mpmath():
    tight = 0
    for t, x in _survival_sweep():
        val, est = km._survival_pf(t, x[None, :])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sv = km.survival_n(t, A(*x))
        assert sv.value == val[0] and sv.method == "pfaffian"
        assert bool(caught) == (est[0] > 1e-8)
        if est[0] <= 1e-12:
            tight += 1
            exact = _survival_mp(t, x)
            assert abs(sv.value - exact) <= 1e-12 * exact
    assert tight >= 14


def test_survival_error_estimate_bounds_actual():
    for t, x in _survival_sweep():
        val, est = km._survival_pf(t, x[None, :])
        exact = _survival_mp(t, x)
        assert abs(val[0] - exact) / exact <= est[0]


def test_survival_pinned_four_particles():
    # de Bruijn's Pfaffian in 60-digit arithmetic
    v = km.survival_n(1.0, A(-1.5, -0.5, 0.5, 1.5)).value
    assert abs(v - 0.0636331070602728) <= 1e-12 * v


def test_survival_tight_start_warns():
    with pytest.warns(AccuracyLossWarning, match="estimated relative error"):
        km.survival_n(1.0, A(*(0.3 * np.arange(8))))


def test_survival_asymptotic_ratio():
    # N(t,x) ~ (C2/C1) h(x/sqrt t) as |x|/sqrt t -> 0
    c = km.constants(2)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        x = A(-eps / 2, eps / 2)
        asym = math.exp(c.log_c2 - c.log_c1 + km.log_vandermonde(x.as_array()))
        errs.append(abs(km.survival_n(1.0, x).value / asym - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-4


def test_vandermonde_values():
    assert km.vandermonde([3.0]) == 1.0
    assert km.vandermonde([1.0, 3.0]) == 2.0
    assert km.vandermonde([0.0, 1.0, 2.0]) == 2.0
    assert km.vandermonde_alpha([1.0, 2.0], 0.0) == 3.0
    with pytest.raises(DomainError):
        km.vandermonde_alpha([-1.0, 2.0], 0.5)
    # y_j^2 - y_i^2 formed directly loses ~4 digits here; (y_j - y_i)(y_j + y_i) does not
    exact = Fraction(2.9001) ** 2 - Fraction(2.9) ** 2
    assert abs(Fraction(km.vandermonde_alpha([2.9, 2.9001], 0.0)) / exact - 1) <= 2.3e-16


def test_constants_values():
    c1 = km.constants(1)
    assert c1.c1 == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    c2 = km.constants(2)
    assert c2.c1 == pytest.approx(2 * math.pi, rel=1e-14)
    assert c2.c2 == pytest.approx(2 * math.sqrt(math.pi), rel=1e-14)
    assert km.constants(1, nu=0.0).c_nu == pytest.approx(1.0, rel=1e-14)
    assert km.constants(1, nu=0.5).c_nu == pytest.approx(
        2**0.5 * math.gamma(1.5), rel=1e-12
    )


def test_constants_match_direct_products():
    for n in (2, 3, 5):
        direct = (2 * math.pi) ** (n / 2) * np.prod([math.gamma(i) for i in range(1, n + 1)])
        assert km.constants(n).c1 == pytest.approx(direct, rel=1e-12)
        direct2 = 2 ** (n / 2) * np.prod([math.gamma(i / 2) for i in range(1, n + 1)])
        assert km.constants(n).c2 == pytest.approx(direct2, rel=1e-12)


def test_constants_memoized_and_always_validated():
    assert km.constants(4) is km.constants(4)
    assert km.constants(3, 0.5, 0.2) is km.constants(3, nu=0.5, kappa=0.2)
    bad = [((0,), DomainError), ((-2,), DomainError), ((2.5,), DomainError),
           ((math.nan,), DomainError), ((math.inf,), DomainError),
           ((2, -1.0), BesselIndexOutOfRange), ((2, math.nan), BesselIndexOutOfRange),
           ((2, 0.5, 3.0), IntegrableSingularity)]
    for args, err in bad:
        for _ in range(2):  # a repeat must raise too, errors are never cached
            with pytest.raises(err):
                km.constants(*args)


def test_vandermonde_accepts_lists_arrays_and_ints():
    x = [-0.7, 0.2, 1.5, 3.0]
    for form in (x, np.array(x), tuple(x)):
        assert km.vandermonde(form) == pytest.approx(np.prod(
            [b - a for i, a in enumerate(x) for b in x[i + 1:]]), rel=1e-15)
        assert km.log_vandermonde(form) == pytest.approx(
            math.log(km.vandermonde(form)), rel=1e-14)
    assert km.vandermonde(np.array([0, 1, 3])) == 6.0
    # tuples are read as they are, and every input form still gives a Python float
    for form in ((0, 1, 3), [0, 1, 3], np.array([0, 1, 3]), (np.int64(0), 1, np.float64(3))):
        for f, want in ((km.vandermonde, 6.0), (km.log_vandermonde, math.log(6.0)),
                        (partial(km.vandermonde_alpha, alpha=1.0), 0.0),
                        (partial(km.log_vandermonde_alpha, alpha=1.0), -math.inf)):
            assert type(f(form)) is float and f(form) == want, (f, form)
    assert km.log_vandermonde_alpha((1, 2, 4), 2.0) == pytest.approx(
        math.log(3 * 15 * 12 * 64), rel=1e-15)
    assert km.log_vandermonde([1.0, 0.5]) == -math.inf
    pos = [0.2, 0.5, 1.5]
    assert km.log_vandermonde_alpha(np.array(pos), 1.5) == pytest.approx(
        math.log(km.vandermonde_alpha(pos, 1.5)), rel=1e-14)
    assert km.log_vandermonde_alpha([-0.1, 0.5], 0.0) == -math.inf


def test_g_nt_horizon_boundary():
    # t = T: N(0, y) = 1 so g = f / N(T - s, x)
    for x, y in ((A(-1.0, 1.0), A(-0.5, 1.5)),
                 (A(-1.5, -0.5, 0.5, 1.5), A(-2.0, -0.6, 0.8, 2.1))):
        v = km.g_nt(0.0, x, 1.0, y, 1.0)
        expect = km.f_n(1.0, y, x) / km.survival_n(1.0, x).value
        assert v == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("c, eps", [(-0.25, 3e-6), (-0.945, 1e-6), (-0.394, 3e-6), (-0.593, 1e-6),
                                    (0.923, 1e-6), (0.897, 1e-6), (0.655, 1e-6)])
def test_g_nt_tight_start_never_negative(c, eps):
    # at these starts rounding can flip the sign of det[p_t(x_i, y_j)]; g_nt then
    # returns exactly 0.0, as p_n does, not a negative density
    x = A(*(c + eps * np.array([-1.5, -0.4, 0.3, 1.2])))
    y = A(-1.0, -0.2, 0.5, 1.3)
    with pytest.warns(AccuracyLossWarning):
        g = km.g_nt(0.0, x, 1.0, y, 3.0)
    assert g >= 0.0
    if km.p_n(1.0, y, x) == 0.0:
        assert g == 0.0


def test_g_nt_origin_is_goe_at_horizon():
    from noncollide.ensembles import EnsembleKind, eigen_density_exact

    y = A(-0.7, 1.2)
    v = km.g_nt_origin(1.0, y, 1.0)
    goe = eigen_density_exact(EnsembleKind("goe", 2), y, 1.0)
    assert v == pytest.approx(goe, rel=1e-12)


def test_g_nt_origin_single_particle_is_bm():
    y = A(0.8)
    assert km.g_nt_origin(0.4, y, 1.0) == pytest.approx(
        dens.bm_density(0.4, 0.8, 0.0), rel=1e-12
    )


def test_g_nt_origin_normalization():
    # vectorized oracle: same formula with the closed-form N=2 survival
    t, T = 0.5, 1.0
    pts, w = km._ordered_tensor_grid(96, -8.0, 8.0, 2)
    c = km.constants(2)
    surv = np.vectorize(math.erf)((pts[:, 1] - pts[:, 0]) / (2 * math.sqrt(T - t)))
    logv = (
        0.5 * math.log(T) - 2.0 * math.log(t) - c.log_c2
        + np.log(surv) + _pairwise_log_vandermonde(pts)
        - np.sum(pts**2, axis=1) / (2 * t)
    )
    assert abs(float(np.dot(w, np.exp(logv))) - 1.0) <= 1e-6
    # and g_nt_origin agrees with the oracle values pointwise
    for idx in (11, 570, 3001):
        assert km.g_nt_origin(t, A(*pts[idx]), T) == pytest.approx(
            math.exp(logv[idx]), rel=1e-6
        )


def test_p_n_reductions_and_normalization():
    assert km.p_n(0.7, A(1.1), A(0.3)) == pytest.approx(
        dens.bm_density(0.7, 1.1, 0.3), rel=1e-14
    )
    for n, tol in ((2, 1e-6), (3, 1e-6)):
        pts, w = km._ordered_tensor_grid(60 if n == 3 else 80, -8.0, 8.0, n)
        c = km.constants(n)
        logv = (
            -0.5 * n * n * math.log(1.0) - c.log_c1
            + 2.0 * _pairwise_log_vandermonde(pts)
            - np.sum(pts**2, axis=1) / 2.0
        )
        assert abs(float(np.dot(w, np.exp(logv))) - 1.0) <= tol
        mid = len(pts) // 2
        assert km.p_n_origin(1.0, A(*pts[mid])) == pytest.approx(
            math.exp(logv[mid]), rel=1e-12
        )


def test_p_n_chapman_kolmogorov():
    # p2(s, z|x0) p2(t-s, y|z) integrated over the chamber
    s, t = 0.4, 1.0
    x0 = A(-0.2, 0.2)
    y = A(-0.6, 1.0)
    pts, w = km._ordered_tensor_grid(80, -7.0, 7.0, 2)
    vals = np.array([
        km.p_n(s, A(*p), x0) * km.p_n(t - s, y, A(*p)) for p in pts
    ])
    assert abs(float(np.dot(w, vals)) - km.p_n(t, y, x0)) <= 1e-5


def test_h_transform_consistency():
    x, y = A(-0.4, 0.9), A(0.2, 1.7)
    lhs = km.p_n(0.8, y, x) * km.vandermonde(x.as_array())
    rhs = km.f_n(0.8, y, x) * km.vandermonde(y.as_array())
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_imhof_ratio_single_particle_unity():
    for (t, T) in ((0.3, 1.0), (1.0, 1.0)):
        assert km.imhof_ratio(t, A(0.7), T) == pytest.approx(1.0, rel=1e-12)


def test_imhof_ratio_two_particles():
    v = km.imhof_ratio(1.0, A(-1.0, 1.0), 1.0)
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_imhof_matches_formula_at_horizon():
    # (C1/C2) T^{N(N-1)/4} / h_N(y)
    for n, yv in ((2, [-0.5, 1.0]), (3, [-1.0, 0.2, 1.4])):
        y = A(*yv)
        T = 1.7
        c = km.constants(n)
        expect = math.exp(
            c.log_c1 - c.log_c2
            + 0.25 * n * (n - 1) * math.log(T)
            - km.log_vandermonde(y.as_array())
        )
        assert km.imhof_ratio(T, y, T) == pytest.approx(expect, rel=1e-8)


def test_imhof_degenerate_division():
    y = A(*(np.arange(4) * 60.0))  # p_n_origin underflows at huge spread
    with pytest.raises(DivisionDegeneracy):
        km.imhof_ratio(1.0, y, 1.0)


def _pairwise_log_vandermonde(pts):
    n = pts.shape[1]
    out = np.zeros(len(pts))
    for i in range(n):
        for j in range(i + 1, n):
            out += np.log(pts[:, j] - pts[:, i])
    return out


def test_fn_nu_single_particle():
    assert km.f_n_nu(0.5, 0.7, C(1.3), C(0.6)) == pytest.approx(
        dens.bessel_density(0.5, 0.7, 1.3, 0.6), rel=1e-12
    )


def test_fn_nu_dual_route():
    g, log_g = km.bessel_g(0.5)
    stream = RngStream(5, 5)
    for _ in range(25):
        n = 2 + int(stream.uniform() * 2)
        gaps = 0.06 + stream.uniform(n - 1)
        xv = 0.1 + stream.uniform() + np.concatenate([[0.0], np.cumsum(gaps)])
        gaps = 0.06 + stream.uniform(n - 1)
        yv = 0.1 + stream.uniform() + np.concatenate([[0.0], np.cumsum(gaps)])
        a = km.f_n_nu(0.5, 0.6, C(*yv), C(*xv))
        b = km.km_density(g, 0.0, C(*xv), 0.6, C(*yv), log_g=log_g)
        assert abs(a - b) <= 1e-10 * max(a, 1e-300)


def test_half_reflection_gate_sees_bessel_i_fault(monkeypatch):
    # I_nu off by 1e-6 relative: f_N^(1/2) moves by about N * 1e-6, the closed form does not
    exact = dens.bessel_i_scaled
    monkeypatch.setattr(dens, "bessel_i_scaled", lambda nu, z: exact(nu, z) * (1.0 + 1e-6))
    rep = ex.run_suite("km", 0)[0]
    assert not rep.verdicts["fn_nu_half_reflection"]


def test_p2_origin_norm_gate_sees_density_fault(monkeypatch):
    # the GUE density off by 1e-9 relative: the old 1e-6 bound passed it
    exact = km.p_n_origin
    monkeypatch.setattr(km, "p_n_origin", lambda t, y: exact(t, y) * (1.0 + 1e-9))
    rep = ex.run_suite("km", 0)[0]
    value = {s["name"]: s["value"] for s in rep.statistics}["p2_origin_norm"]
    assert abs(value) <= 1e-6 and not rep.verdicts["p2_origin_norm"]


def test_imhof_md_gate_sees_goe_constant_fault(monkeypatch):
    # the GOE-side log-density off by 1e-10: the old 1e-8 bound passed the ratio
    exact = km._log_g_nt_origin
    monkeypatch.setattr(km, "_log_g_nt_origin", lambda *args: exact(*args) + 1e-10)
    rep = ex.run_suite("km", 0)[0]
    value = {s["name"]: s["value"] for s in rep.statistics}["imhof_md"]
    assert abs(value) <= 1e-8 and not rep.verdicts["imhof_md"]


def test_fn_nu_asymptotics():
    # ratio against the small-x display tends to 1
    nu, n = 0.5, 2
    c = km.constants(n, nu)
    y = C(0.6, 1.4)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        x = C(eps, 2 * eps)
        asym = math.exp(
            -0.5 * n * (n + 1 + 2 * nu) * math.log(1.0)
            - c.log_c_nu
            + km.log_vandermonde_alpha(x.as_array(), 0.0)
            + km.log_vandermonde_alpha(y.as_array(), 2 * nu + 1)
            - float(y.as_array() @ y.as_array()) / 2.0
        )
        errs.append(abs(km.f_n_nu(nu, 1.0, y, x) / asym - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-4


def test_nn_tilde_exact_time_zero():
    x = C(0.5, 1.5)
    est = km.nn_tilde(0.5, 1.0, 0.0, x)
    assert est.value == pytest.approx((0.5 * 1.5) ** -1.0, rel=1e-14)


@pytest.mark.parametrize("nu,kappa,t,x", [
    (0.5, 1.0, 1.0, 0.7), (0.0, 0.5, 2.0, 1.3), (-0.4, 0.3, 0.5, 0.2),
    (2.3, 1.5, 1.0, 3.0), (-0.9, 0.05, 1.0, 1.0),
    # three draws on which an adaptive quadrature of the normalizer does not settle
    (3.173, 0.530, 2.485, 0.995), (3.981, 2.418, 0.808, 0.448), (3.529, 0.889, 1.160, 2.744),
    # kappa within c = 0.03, 0.007 and 0.0021 of 2 nu + 2, where the wall factor y^(c - 1)
    # under- and overflows and the bulk crowds into u ~ 1 - c
    (0.6823, 3.3335, 0.8309, 4.9859), (-0.7314, 0.5302, 2.4613, 0.751),
    (-0.595, 0.8079, 0.5, 4.865),
])
def test_nn_tilde_single_particle_vs_kummer(nu, kappa, t, x):
    # N = 1: E_x[Y_t^-kappa] = (2t)^(-kappa/2) Gamma(nu + 1 - kappa/2) / Gamma(nu + 1)
    #        * 1F1(kappa/2; nu + 1; -x^2 / 2t)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = float(
            (2 * mp.mpf(t)) ** (-mp.mpf(kappa) / 2) * mp.gamma(nu + 1 - mp.mpf(kappa) / 2)
            / mp.gamma(nu + 1) * mp.hyp1f1(mp.mpf(kappa) / 2, nu + 1, -mp.mpf(x) ** 2 / (2 * t))
        )
    est = km.nn_tilde(nu, kappa, t, C(x))
    assert est.method == "pfaffian"
    assert abs(est.value - exact) <= 1e-12 * exact
    # the meander normalizer is the same quantity, through the same route
    h = dens.h_nu_kappa(DensityParams(nu=nu, kappa=kappa, T=t), 0.0, x)
    assert abs(h - exact) <= 1e-12 * exact


def test_nn_tilde_separated_pair_is_product():
    # 30 sqrt t apart the two particles do not meet (erfc(15) ~ 1e-100), so N~ factorizes;
    # near the wall at c = 0.1 this start needs more than 256 nodes
    nu, kappa = -0.9, 0.1
    pair = km.nn_tilde(nu, kappa, 1.0, validate_chamber([0.05, 30.05], "D")).value
    one = [km.nn_tilde(nu, kappa, 1.0, validate_chamber([x], "D")).value for x in (0.05, 30.05)]
    assert abs(pair - one[0] * one[1]) <= 1e-12 * pair


def test_nn_tilde_pinned_three_particles():
    # a graded 3-D tensor quadrature of the density does not settle to 2e-6 at this start
    v = km.nn_tilde(0.0, 0.5, 1.0, C(0.3, 0.9, 1.6)).value
    assert abs(v - 8.392569446e-3) <= 1e-10 * v


def test_nn_tilde_pinned_four_particles():
    # Monte Carlo that checks the ordering at discrete times only gives ~10x this value
    xv = np.array([0.5, 1.0, 1.5, 2.0])
    v = km.nn_tilde(0.5, 0.0, 1.0, C(*xv)).value
    assert abs(v - 1.2327973986e-4) <= 1e-10 * v
    # independent route: 4-D ordered tensor quadrature of the Karlin-McGregor density
    pts, w = km._ordered_tensor_grid(24, 0.0, xv[-1] + 7.0, 4)
    total, log_p = 0.0, partial(dens.log_bessel_density, 0.5, 1.0)
    for lo in range(0, len(pts), 1 << 14):
        sign, logf = km._km_log(log_p, pts[lo:lo + (1 << 14)], xv)
        total += float(np.dot(w[lo:lo + (1 << 14)], sign * np.exp(logf)))
    assert abs(total - v) <= 2e-8 * v


def test_nn_tilde_tight_start_warns():
    with pytest.warns(AccuracyLossWarning, match="nn_tilde: estimated relative error"):
        km.nn_tilde(0.5, 1.0, 1.0, C(*(0.5 + 0.5 * np.arange(8))))


def test_g_nt_nu_kappa_reductions():
    params = DensityParams(nu=0.5, kappa=0.0, T=1.0)
    x, y = C(0.5, 1.2), C(0.7, 1.5)
    # kappa = 0: plain survival ratio times f^nu
    v = km.g_nt_nu_kappa(params, 0.0, x, 0.6, y)
    ratio = km.nn_tilde(0.5, 0.0, 0.4, y).value / km.nn_tilde(0.5, 0.0, 1.0, x).value
    assert v == pytest.approx(ratio * km.f_n_nu(0.5, 0.6, y, x), rel=1e-12)
    # N = 1 reduces to the generalized meander
    params = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    v = km.g_nt_nu_kappa(params, 0.2, C(0.8), 0.9, C(1.4))
    expect = dens.gen_meander_density(params, 0.2, 0.8, 0.9, 1.4)
    assert v == pytest.approx(expect, rel=1e-12)


def test_g_nt_nu_kappa_origin_normalization():
    params = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    pts, w = km._ordered_tensor_grid(32, 0.0, 7.0, 2)
    vals = np.array([km.g_nt_nu_kappa_origin(params, 0.5, C(*p)) for p in pts])
    assert abs(float(np.dot(w, vals)) - 1.0) <= 1e-12


_CLOSE_PAIRS = [(2.9, 2.9001), (0.3, 1.2, 1.20001), (1.0, 1.0000001, 2.5)]


def _laguerre_reference(mp, beta, nu, kappa, t, y):
    """|Delta(y^2)|^beta prod y^(2 nu + 1 - (2 - beta) kappa) e^(-|y|^2 / 2t) over its
    normalizer at variance t, in 50 digits: p_n_nu_origin at beta = 2 (kappa = 0), and
    g_nt_nu_kappa_origin at t = T, where N~(0, y) = prod y^-kappa, at beta = 1."""
    n, nu, kappa, t = len(y), mp.mpf(nu), mp.mpf(kappa), mp.mpf(t)
    y = [mp.mpf(v) for v in y]
    delta = mp.fprod(y[j] ** 2 - y[i] ** 2 for i in range(n) for j in range(i + 1, n))
    if beta == 2:
        log_c = n * (n + nu - 1) * mp.log(2) + mp.fsum(
            mp.loggamma(i) + mp.loggamma(i + nu) for i in range(1, n + 1))
        power = n * (n + nu)
    else:
        log_c = (n * (n + 2 * nu - kappa - 1) / 2 * mp.log(2) - n * mp.log(mp.pi) / 2
                 + mp.fsum(mp.loggamma(mp.mpf(i) / 2) + mp.loggamma((i + 2 * nu + 1 - kappa) / 2)
                           for i in range(1, n + 1)))
        power = n * (n + 2 * nu - kappa + 1) / 2
    weight = mp.fprod(v ** (2 * nu + 1 - (2 - beta) * kappa) for v in y)
    return delta ** beta * weight * mp.exp(-mp.fsum(v * v for v in y) / (2 * t) - log_c) / t ** power


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.3])
@pytest.mark.parametrize("yv", _CLOSE_PAIRS)
def test_bessel_origin_densities_close_pairs_vs_mpmath(nu, yv):
    mp = pytest.importorskip("mpmath")
    t, kappa = 0.8, 0.7
    with mp.workdps(50):
        want_p = float(_laguerre_reference(mp, 2, nu, 0.0, t, yv))
        want_g = float(_laguerre_reference(mp, 1, nu, kappa, t, yv))
    assert abs(km.p_n_nu_origin(nu, t, C(*yv)) / want_p - 1.0) <= 5e-14
    got_g = km.g_nt_nu_kappa_origin(DensityParams(nu=nu, kappa=kappa, T=t), t, C(*yv))
    assert abs(got_g / want_g - 1.0) <= 5e-14


def test_p_n_nu_reductions_and_normalization():
    assert km.p_n_nu(0.5, 0.7, C(1.3), C(0.6)) == pytest.approx(
        dens.bessel3_density(0.7, 1.3, 0.6), rel=1e-12
    )
    assert km.p_n_nu_origin(0.5, 0.7, C(1.3)) == pytest.approx(
        dens.bessel3_density_origin(0.7, 1.3), rel=1e-12
    )
    pts, w = km._ordered_tensor_grid(80, 0.0, 8.0, 2)
    nu = 0.5
    c = km.constants(2, nu)
    logsq = np.zeros(len(pts))
    logsq += np.log(pts[:, 1] ** 2 - pts[:, 0] ** 2)
    logsq += (nu + 0.5) * np.log(pts[:, 0] * pts[:, 1])
    logv = -2 * (2 + nu) * math.log(1.0) - c.log_c_nu + 2 * logsq - np.sum(pts**2, axis=1) / 2
    assert abs(float(np.dot(w, np.exp(logv))) - 1.0) <= 1e-6
    mid = len(pts) // 3
    assert km.p_n_nu_origin(nu, 1.0, C(*pts[mid])) == pytest.approx(
        math.exp(logv[mid]), rel=1e-12
    )


def test_generalized_imhof_at_horizon():
    nu, kappa, T = 0.5, 1.0, 1.0
    params = DensityParams(nu=nu, kappa=kappa, T=T)
    n = 2
    y = C(0.7, 1.5)
    ratio = km.g_nt_nu_kappa_origin(params, T, y) / km.p_n_nu_origin(nu, T, y)
    c = km.constants(n, nu, kappa)
    expect = math.exp(
        c.log_c_nu - c.log_c_nu_kappa
        + 0.5 * n * (n + kappa - 1) * math.log(T)
        - km.log_vandermonde_alpha(y.as_array(), kappa)
    )
    assert ratio == pytest.approx(expect, rel=1e-10)


def test_g_nt_mc_error_metadata():
    # N = 4 once needed a Monte Carlo survival; the Pfaffian route serves
    # both survivals g_nt uses
    x = A(-1.5, -0.5, 0.5, 1.5)
    y = A(-2.0, -0.6, 0.8, 2.1)
    nx, ny = km.survival_n(1.0, x), km.survival_n(0.5, y)
    for est in (nx, ny):
        assert est.method == "pfaffian"
        assert 0.0 < est.value < 1.0
    val = km.g_nt(0.0, x, 0.5, y, 1.0)
    assert val > 0.0
    assert val == pytest.approx(km.f_n(0.5, y, x) * ny.value / nx.value, rel=1e-12)
