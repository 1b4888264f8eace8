"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from noncollide import densities1d as dens
from noncollide import ensembles as ens
from noncollide import experiments as ex
from noncollide import fredholm as fred
from noncollide import karlin_mcgregor as km
from noncollide import kernels as ker
from noncollide import sde
from noncollide.cli import main as cli_main
from noncollide.core import Chamber, RngStream, TimeGrid, validate_chamber
from noncollide.densities1d import DensityParams
from oracles import (
    CHI2_CRIT_19DOF_1PCT,
    chi2_statistic,
    equal_mass_bins,
    integrate,
    integrate_powered_edge,
    panel_rule,
    two_sample_ks,
)

A = lambda *v: validate_chamber(list(v), "A")
C = lambda *v: validate_chamber(list(v), "C")


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_density_normalization_and_ck():
    t0 = time.monotonic()
    worst_norm = 0.0
    worst_norm = max(worst_norm, abs(integrate(lambda y: dens.bm_density(1, y, 0), -10, 10) - 1))
    worst_norm = max(worst_norm, abs(
        integrate(lambda y: dens.bridge_density(0, 0, 0.5, y, 1.0), -8, 8) - 1))
    surv = dens.survival_h(0.7, 1.1)
    worst_norm = max(worst_norm, abs(
        integrate(lambda y: dens.absorbing_density(0.7, y, 1.1), 0, 12) - surv))
    for nu, t, x in ((0.5, 1.0, 1.0), (0.0, 1.0, 2.0), (-0.4, 1.0, 1.0)):
        v = integrate_powered_edge(
            lambda y: dens.bessel_density(nu, t, y, x), 2 * nu + 1, x + 14 * math.sqrt(t)
        )
        worst_norm = max(worst_norm, abs(v - 1))
    worst_norm = max(worst_norm, abs(
        integrate(lambda y: dens.meander_density(0, 0, 0.5, y, 1.0), 0, 10) - 1))
    p = DensityParams(nu=0.5, kappa=1.0, T=1.0)
    worst_norm = max(worst_norm, abs(
        integrate(lambda y: dens.gen_meander_density(p, 0, 0, 0.5, y), 0, 8) - 1))

    worst_ck = 0.0
    ck = integrate(lambda z: dens.bm_density(0.4, z, 0.2) * dens.bm_density(0.5, 1.0, z), -12, 12)
    worst_ck = max(worst_ck, abs(ck - dens.bm_density(0.9, 1.0, 0.2)))
    for nu in (0.5, 0.0):
        ck = integrate(
            lambda z: dens.bessel_density(nu, 0.4, z, 1.1) * dens.bessel_density(nu, 0.3, 0.8, z),
            0, 20, n_panels=24,
        )
        worst_ck = max(worst_ck, abs(ck - dens.bessel_density(nu, 0.7, 0.8, 1.1)))
    elapsed = time.monotonic() - t0
    ok = worst_norm <= 1e-8 and worst_ck <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"norm err {worst_norm:.2e}, CK err {worst_ck:.2e}, {elapsed:.1f}s")


def test_criterion_02_km_consistency_and_imhof():
    t0 = time.monotonic()
    stream = RngStream(0, 100)
    g_b, log_b = km.bessel_g(0.5)
    worst = 0.0

    def random_config(n, chamber):
        start = 0.1 + stream.uniform() if chamber is Chamber.C else stream.normal()
        gaps = 0.05 + stream.uniform(n - 1) * 1.2
        return validate_chamber(start + np.concatenate([[0.0], np.cumsum(gaps)]), chamber)

    for _ in range(100):
        n = 2 + int(stream.uniform() * 3)
        x, y = random_config(n, Chamber.A), random_config(n, Chamber.A)
        a = km.f_n(0.7, y, x)
        b = km.km_density(km.brownian_g, 0, x, 0.7, y, log_g=km.brownian_log_g)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
        xc, yc = random_config(n, Chamber.C), random_config(n, Chamber.C)
        a = km.f_n_nu(0.5, 0.6, yc, xc)
        b = km.km_density(g_b, 0, xc, 0.6, yc, log_g=log_b)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))

    imhof_err = 0.0
    for y in (0.5, 1.3, 2.1):
        r = dens.meander_density(0, 0, 1.0, y, 1.0) / dens.bessel3_density_origin(1.0, y)
        imhof_err = max(imhof_err, abs(r - math.sqrt(math.pi / 2) / y))
    for n, yv in ((2, [-0.5, 1.0]), (3, [-1.0, 0.2, 1.4])):
        y = A(*yv)
        c = km.constants(n)
        expect = math.exp(
            c.log_c1 - c.log_c2 + 0.25 * n * (n - 1) * math.log(1.7)
            - km.log_vandermonde(y.as_array())
        )
        imhof_err = max(imhof_err, abs(km.imhof_ratio(1.7, y, 1.7) / expect - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and imhof_err <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"dual-route err {worst:.2e}, Imhof err {imhof_err:.2e}, {elapsed:.1f}s")


def test_criterion_03_asymptotics():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (2, 3):
        errs_f, errs_s = [], []
        y = A(*np.linspace(-1.0, 1.2, n))
        c = km.constants(n)
        for eps in (1e-1, 1e-2, 1e-3):
            xv = np.arange(n) * eps
            x = A(*(xv - xv.mean()))
            asym_f = math.exp(
                -c.log_c1 + km.log_vandermonde(x.as_array())
                + km.log_vandermonde(y.as_array())
                - float(y.as_array() @ y.as_array()) / 2.0
            )
            errs_f.append(abs(km.f_n(1.0, y, x) / asym_f - 1.0))
            asym_s = math.exp(c.log_c2 - c.log_c1 + km.log_vandermonde(x.as_array()))
            errs_s.append(abs(km.survival_n(1.0, x).value / asym_s - 1.0))
        ok &= errs_f[0] > errs_f[1] > errs_f[2] and errs_f[-1] <= 1e-4
        ok &= errs_s[0] > errs_s[1] > errs_s[2] and errs_s[-1] <= 1e-4
        detail.append(f"N={n}: f {errs_f[-1]:.1e}, surv {errs_s[-1]:.1e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_04_equivalences():
    t0 = time.monotonic()
    # GUE spectra vs the pooled marginal of g^GUE (chi-square)
    kind = ens.EnsembleKind("gue", 2)
    lam = ens.sample_spectra(kind, 1.0, 20_000, RngStream(0, 600), distinct=True)
    pooled = lam.ravel()
    span = 2.6 * math.sqrt(4.0)

    def gue2(a, b):
        av, bv = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        out = np.empty(av.shape)
        for i in np.ndindex(av.shape):
            y = validate_chamber([av[i], bv[i]], Chamber.A)
            out[i] = ens.eigen_density_exact(kind, y, 1.0)
        return out

    zs = np.linspace(-span, span, 1200)
    marg = ex.pooled_marginal_2(gue2, zs, -span, span)
    edges, probs = equal_mass_bins(lambda x: np.interp(x, zs, marg), -span, span, 20)
    chi_gue = chi2_statistic(pooled[(pooled >= -span) & (pooled <= span)], edges, probs)
    ok1 = chi_gue <= CHI2_CRIT_19DOF_1PCT
    # Laguerre sqrt spectra vs p^(nu)-origin marginal (nu = 0)
    lam = ens.sample_spectra(ens.EnsembleKind("laguerre", 2, nu=0), 1.0, 20_000, RngStream(0, 601))
    pooled = np.sqrt(lam).ravel()
    c = km.constants(2, 0.0)

    def density2(a, b):
        av, bv = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        logsq = 2 * (np.log(bv**2 - av**2) + 0.5 * np.log(av * bv))
        return np.exp(-c.log_c_nu + logsq - (av**2 + bv**2) / 2.0)

    span = 2.2 * math.sqrt(4.0) + 1.5
    zs = np.linspace(1e-9, span, 900)
    marg = ex.pooled_marginal_2(density2, zs, 0.0, span)
    edges, probs = equal_mass_bins(lambda x: np.interp(x, zs, marg), 0.0, span, 20)
    chi_lag = chi2_statistic(pooled[pooled <= span], edges, probs)
    ok2 = chi_lag <= CHI2_CRIT_19DOF_1PCT
    # SDE beta=2 vs GUE (two-sample KS)
    cloud = sde.dyson_cloud(2.0, [0.0, 0.0], TimeGrid.of([1.0]), RngStream(0, 300), 1e-3, 10_000)
    gue = ens.sample_spectra(ens.EnsembleKind("gue", 2), 1.0, 100_000, RngStream(0, 301))
    d, crit = two_sample_ks(cloud[:, 0, :].ravel(), gue.ravel())
    ok3 = d <= crit
    elapsed = time.monotonic() - t0
    ok = ok1 and ok2 and ok3 and elapsed < 300.0
    _report(4, ok, f"GUE chi2 {chi_gue:.3f}, Laguerre chi2 {chi_lag:.3f} <= "
                   f"{CHI2_CRIT_19DOF_1PCT}, "
                   f"SDE KS {d:.4f}<={crit:.4f}, {elapsed:.1f}s")


def test_criterion_05_structural_spectra():
    t0 = time.monotonic()
    s = RngStream(0, 200)
    lam = ens.sample_spectra(ens.EnsembleKind("gse", 2), 1.0, 1000, s)
    scale = np.max(np.abs(lam), axis=1, keepdims=True)
    ok_gse = np.max(np.abs(lam[:, 1::2] - lam[:, 0::2]) / scale) <= 1e-9
    ok_cd = True
    for tag in ("class_c", "class_d"):
        lam = ens.sample_spectra(ens.EnsembleKind(tag, 2), 1.0, 1000, s)
        resid = np.sort(lam, axis=1) + np.sort(-lam, axis=1)[:, ::-1]
        ok_cd &= np.max(np.abs(resid) / np.max(np.abs(lam), axis=1, keepdims=True)) <= 1e-9
    ok_pos = True
    for tag in ("wishart", "laguerre"):
        lam = ens.sample_spectra(ens.EnsembleKind(tag, 3, nu=1), 1.0, 1000, s)
        ok_pos &= np.min(lam) >= -1e-10 * np.max(np.abs(lam))
    elapsed = time.monotonic() - t0
    ok = bool(ok_gse and ok_cd and ok_pos) and elapsed < 30.0
    _report(5, ok, f"GSE {bool(ok_gse)}, classC/D {bool(ok_cd)}, nonneg {bool(ok_pos)}, {elapsed:.1f}s")


def test_criterion_06_kernel_suite():
    t0 = time.monotonic()
    xs, ws = panel_rule(-10.0, 10.0, 10)
    worst = 0.0
    for n in range(1, 6):
        kmat = ker.hermite_kernel(n).equal_time_matrix(0.5, xs)
        worst = max(worst, abs(float(np.dot(ws, np.diag(kmat))) - n))
        worst = max(worst, float(np.max(np.abs(kmat @ (ws[:, None] * kmat) - kmat))))
    for nu in (-0.4, 0.5):
        q = 2.0 if nu == 0.5 else 1.0 / (1.0 + nu)
        u, wu = panel_rule(0.0, 14.0 ** (1.0 / q), 12)
        xs_l, ws_l = u**q, wu * q * u ** (q - 1.0)
        for n in range(1, 5):
            kmat = ker.laguerre_kernel(n, nu).equal_time_matrix(0.5, xs_l)
            worst = max(worst, abs(float(np.dot(ws_l, np.diag(kmat))) - n))
            worst = max(worst, float(np.max(np.abs(kmat @ (ws_l[:, None] * kmat) - kmat))))
    ok_proj = worst <= 1e-8

    # rho_1 vs matrix-sampler histograms (chi-square at 1%)
    def chi2_vs_kernel(kern, n, samples, lo, span):
        zs = np.linspace(lo if lo > 0 else lo + 1e-9, span, 1000)
        rho = np.diag(kern.equal_time_matrix(1.0, zs)) / n
        edges, probs = equal_mass_bins(lambda x: np.interp(x, zs, rho), max(lo, 1e-9), span, 20)
        return chi2_statistic(samples[(samples > lo) & (samples < span)], edges, probs)

    lam = ens.sample_spectra(ens.EnsembleKind("gue", 4), 1.0, 20_000, RngStream(0, 610))
    r1 = chi2_vs_kernel(ker.hermite_kernel(4), 4, lam.ravel(), -2.5 * math.sqrt(8.0), 2.5 * math.sqrt(8.0))
    lam = ens.sample_spectra(
        ens.EnsembleKind("class_c", 2), 1.0, 20_000, RngStream(0, 611), distinct=True
    )
    r2 = chi2_vs_kernel(ker.laguerre_kernel(2, 0.5), 2, lam.ravel(), 0.0, 2.2 * 2.0 + 1.0)
    elapsed = time.monotonic() - t0
    ok = ok_proj and max(r1, r2) <= CHI2_CRIT_19DOF_1PCT and elapsed < 120.0
    _report(6, ok, f"projection err {worst:.2e}, GUE chi2 {r1:.3f}, "
                   f"classC chi2 {r2:.3f}, {elapsed:.1f}s")


def test_criterion_07_scaling_limits():
    t0 = time.monotonic()
    pts = ((-1.0, -1.0), (-0.5, 0.5), (0.0, 0.0), (0.7, -0.3), (1.0, 1.0))
    errs = []
    for n in (50, 100, 200):
        t = n ** (1.0 / 3.0)
        shift = 2.0 * n ** (2.0 / 3.0)
        worst = 0.0
        for xi, eta in pts:
            kn = ker.kernel_hermite(n, t, xi + shift, t, eta + shift)
            worst = max(worst, abs(kn - ker.kernel_airy(1.0, xi, 1.0, eta)))
        errs.append(worst)
    ok_soft = errs[0] > errs[1] > errs[2]
    ok_sine = abs(ker.kernel_sine(1.0, 0.4, 1.0, 0.4) - 1.0 / math.pi) <= 1e-12
    worst_hard = 0.0
    for nu in (-0.4, 0.5):
        for x0, y0 in ((0.7, 1.3), (0.4, 2.0)):
            closed = ker.kernel_bessel_hard(nu, 1.0, x0, 1.0, y0)
            intval = ker._hard_edge_head(nu, 0.0, np.array([x0]), np.array([y0]))[0, 0]
            worst_hard = max(worst_hard, abs(closed - intval))
    elapsed = time.monotonic() - t0
    ok = ok_soft and ok_sine and worst_hard <= 1e-6 and elapsed < 120.0
    _report(7, ok, f"soft-edge errs {['%.1e' % e for e in errs]}, sine {ok_sine}, "
                   f"hard dual {worst_hard:.1e}, {elapsed:.1f}s")


def test_criterion_08_tracy_widom_dual_route():
    t0 = time.monotonic()
    worst = max(
        abs(fred.tracy_widom_fredholm(a) - fred.tracy_widom_painleve(a))
        for a in (-5.0, -3.0, -1.0, 0.0, 1.0, 2.0)
    )
    phi_err = max(
        abs(fred.rightmost_cdf(1, t, a) - 0.5 * (1 + math.erf(a / math.sqrt(2 * t))))
        for (t, a) in ((1.0, 0.5), (2.0, -0.3))
    )
    lam = ens.sample_spectra(ens.EnsembleKind("gue", 2), 1.0, 1_000_000, RngStream(0, 620))
    top = lam[:, -1]
    ok_mc = True
    for alpha in (1.0, 2.0, 3.0):
        f = fred.rightmost_cdf(2, 1.0, alpha)
        emp = float(np.mean(top <= alpha))
        se = math.sqrt(f * (1 - f) / len(top))
        ok_mc &= abs(emp - f) <= 3 * se
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and phi_err <= 1e-8 and ok_mc and elapsed < 120.0
    _report(8, ok, f"TW dual {worst:.1e}, N=1 Phi err {phi_err:.1e}, MC gate {ok_mc}, {elapsed:.1f}s")


def test_criterion_09_bridge_and_harish_chandra():
    t0 = time.monotonic()
    rep = ex.run_bridge_check(2, 1.0, [0.05, 0.5, 1.0], 100_000, RngStream(0, 400))
    hc = ex.run_hc_check([1, 2, 3], 1.0, 1_000_000, RngStream(0, 500))
    elapsed = time.monotonic() - t0
    ok = rep.passed and hc.passed and elapsed < 300.0
    _report(9, ok, f"bridge verdicts {rep.verdicts}, HC verdicts {hc.verdicts}, {elapsed:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.monotonic()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli_main(["verify", "--suite", "all", "--seed", "0", "--out", str(out1)])
    rc2 = cli_main(["verify", "--suite", "all", "--seed", "0", "--out", str(out2)])
    elapsed = time.monotonic() - t0
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical and elapsed < 1200.0
    _report(10, ok, f"exit codes ({rc1},{rc2}), byte-identical {identical}, {elapsed:.1f}s")
