import math

import numpy as np
import pytest

from noncollide import densities1d as dens
from noncollide import ensembles as ens
from noncollide import karlin_mcgregor as km
from noncollide.core import Chamber, RngStream, TimeGrid, validate_chamber
from noncollide.errors import (
    DegenerateSpectrum,
    DomainError,
    NonPositiveTime,
    ParamMissing,
    SizeMismatch,
)
from oracles import two_sample_ks

A = lambda *v: validate_chamber(list(v), "A")

SIGMA1 = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
SIGMA2 = np.kron(np.eye(2), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def test_kind_validation():
    with pytest.raises(ParamMissing):
        ens.EnsembleKind("nosuch", 2)
    with pytest.raises(ParamMissing):
        ens.EnsembleKind("gse", 1)
    with pytest.raises(ParamMissing):
        ens.EnsembleKind("beta_tridiagonal", 2)  # beta missing
    with pytest.raises(ParamMissing):
        ens.EnsembleKind("gue_to_goe", 2)  # horizon missing


def test_gue_structure_and_moment():
    s = RngStream(11, 0)
    h = ens.sample_matrix(ens.EnsembleKind("gue", 4), 1.0, s).entries
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    spec = ens.sample_spectra(ens.EnsembleKind("gue", 2), 1.0, 50_000, s)
    tr2 = np.sum(spec**2, axis=1)
    se = tr2.std() / math.sqrt(len(tr2))
    assert abs(tr2.mean() - 4.0) <= 3 * se


def test_gse_pair_degeneracy():
    s = RngStream(11, 1)
    lam = ens.sample_spectra(ens.EnsembleKind("gse", 3), 1.0, 1000, s)
    gaps = np.abs(lam[:, 1::2] - lam[:, 0::2])
    norm = np.max(np.abs(lam), axis=1, keepdims=True)
    assert np.max(gaps / norm) <= 1e-9


def test_gse_self_dual_exact():
    s = RngStream(11, 2)
    h = ens.sample_matrix(ens.EnsembleKind("gse", 2), 1.0, s).entries
    assert np.max(np.abs(h.T @ SIGMA2 - SIGMA2 @ h)) == 0.0


def test_class_c_d_structure():
    s = RngStream(11, 3)
    hc = ens.sample_matrix(ens.EnsembleKind("class_c", 2), 1.0, s).entries
    assert np.max(np.abs(hc.T @ SIGMA2 + SIGMA2 @ hc)) == 0.0
    hd = ens.sample_matrix(ens.EnsembleKind("class_d", 2), 1.0, s).entries
    assert np.max(np.abs(hd.T @ SIGMA1 + SIGMA1 @ hd)) == 0.0


def test_class_d_spectrum_symmetric():
    s = RngStream(11, 4)
    lam = ens.sample_spectra(ens.EnsembleKind("class_d", 2), 1.0, 1000, s)
    resid = np.sort(lam, axis=1) + np.sort(-lam, axis=1)[:, ::-1]
    norm = np.max(np.abs(lam), axis=1, keepdims=True)
    assert np.max(np.abs(resid) / norm) <= 1e-9


def test_wishart_laguerre_nonnegative():
    s = RngStream(11, 5)
    for tag in ("wishart", "laguerre"):
        lam = ens.sample_spectra(ens.EnsembleKind(tag, 3, nu=1), 1.0, 1000, s)
        assert np.min(lam) >= -1e-10 * np.max(np.abs(lam))


def test_eigenvalues_contracts():
    kind = ens.EnsembleKind("goe", 3)
    d = ens.MatrixSample(kind=kind, time=1.0, entries=np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(ens.eigenvalues(d), [-1.0, 2.0, 3.0])
    m = ens.MatrixSample(
        kind=ens.EnsembleKind("goe", 2), time=1.0, entries=np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    assert np.allclose(ens.eigenvalues(m), [-1.0, 1.0])
    s = RngStream(11, 6)
    samp = ens.sample_matrix(ens.EnsembleKind("gue", 6), 1.0, s)
    lam = ens.eigenvalues(samp)
    assert abs(lam.sum() - np.trace(samp.entries).real) <= 1e-10 * np.abs(
        samp.entries
    ).max() * 6


def test_eigen_density_exact_identities():
    # GUE N=1 equals the BM density
    y = A(0.8)
    v = ens.eigen_density_exact(ens.EnsembleKind("gue", 1), y, 0.7)
    assert v == pytest.approx(dens.bm_density(0.7, 0.8, 0.0), rel=1e-14)
    # g^GUE == p_n_origin up to roundoff
    y2 = A(-0.6, 1.1)
    v = ens.eigen_density_exact(ens.EnsembleKind("gue", 2), y2, 1.3)
    assert v == pytest.approx(km.p_n_origin(1.3, y2), rel=1e-13)
    # int g^GOE over the chamber = 1 (N = 2 quadrature)
    pts, w = km._ordered_tensor_grid(80, -8.0, 8.0, 2)
    kind = ens.EnsembleKind("goe", 2)
    vals = np.array([ens.eigen_density_exact(kind, A(*p), 1.0) for p in pts])
    assert abs(float(np.dot(w, vals)) - 1.0) <= 1e-6


def _log_density_closed_form(beta: float, x: np.ndarray, t: float) -> float:
    """log of |Delta(x/sqrt t)|^beta e^{-|x|^2/2t} t^{-N/2} / C on the ordered
    chamber, C from Mehta's integral (2 pi)^{N/2} prod Gamma(1 + j beta/2)
    / Gamma(1 + beta/2) / N!."""
    n = len(x)
    y = x / math.sqrt(t)
    i, j = np.triu_indices(n, 1)
    log_delta = float(np.sum(np.log(y[j] - y[i])))
    log_c = 0.5 * n * math.log(2 * math.pi) - math.lgamma(n + 1) + sum(
        math.lgamma(1 + k * beta / 2) - math.lgamma(1 + beta / 2) for k in range(1, n + 1)
    )
    return beta * log_delta - float(np.sum(x * x)) / (2 * t) - 0.5 * n * math.log(t) - log_c


def test_eigen_density_exact_matches_mehta_closed_form():
    rng = np.random.default_rng(20)
    for tag, beta in (("gue", 2.0), ("goe", 1.0), ("gse", 4.0)):
        for n in range(2 if tag == "gse" else 1, 7):
            kind = ens.EnsembleKind(tag, n)
            for _ in range(25):
                t = float(rng.uniform(0.05, 5.0))
                x = np.sort(rng.normal(0.0, math.sqrt(2 * n * t), n))
                v = ens.eigen_density_exact(kind, validate_chamber(x, "A"), t)
                ref = math.exp(_log_density_closed_form(beta, x, t))
                assert v == pytest.approx(ref, rel=1e-12), (tag, n, t, x)


@pytest.mark.parametrize("y,t", [((2.9, 2.9001), 0.5), ((-3.1, -3.09999, 1.2), 0.3)])
def test_eigen_density_exact_close_pairs(y, t):
    # close pairs: dividing by sqrt t before differencing loses 6e-12 and 4.8e-11 here
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ym = [mp.mpf(v) for v in y]
        n = len(y)
        for tag, beta in (("gue", 2), ("goe", 1)):
            vand = mp.fprod(ym[j] - ym[i] for i in range(n) for j in range(i + 1, n))
            c = (2 * mp.pi) ** (mp.mpf(n) / 2) / mp.factorial(n) * mp.fprod(
                mp.gamma(1 + mp.mpf(k * beta) / 2) / mp.gamma(1 + mp.mpf(beta) / 2)
                for k in range(1, n + 1))
            exact = (vand ** beta * mp.exp(-mp.fsum(v * v for v in ym) / (2 * mp.mpf(t)))
                     * mp.mpf(t) ** (-mp.mpf(n) / 2 - mp.mpf(beta) * n * (n - 1) / 4) / c)
            v = ens.eigen_density_exact(ens.EnsembleKind(tag, n), validate_chamber(y, "A"), t)
            assert abs(v / exact - 1) <= 1e-13, tag


def test_gue_unitary_invariance():
    s = RngStream(11, 7)
    n = 3
    lam = ens.sample_spectra(ens.EnsembleKind("gue", n), 1.0, 10_000, s).ravel()
    h = ens._build_batch(ens.EnsembleKind("gue", n), 1.0, 10_000, s)
    u = ens._haar_batch(n, 10_000, s)
    rotated = np.conj(np.swapaxes(u, 1, 2)) @ h @ u
    lam_rot = np.linalg.eigvalsh(rotated).ravel()
    d, crit = two_sample_ks(lam, lam_rot)
    assert d <= crit


@pytest.mark.parametrize("beta,tag", [(1.0, "goe"), (2.0, "gue"), (4.0, "gse")])
def test_beta_tridiagonal_matches_dense(beta, tag):
    s = RngStream(11, 8)
    a = ens.sample_spectra(
        ens.EnsembleKind("beta_tridiagonal", 8, beta=beta), 1.0, 10_000, s
    ).ravel()
    b = ens.sample_spectra(ens.EnsembleKind(tag, 8), 1.0, 10_000, s, distinct=True).ravel()
    d, crit = two_sample_ks(a, b)
    assert d <= crit


def test_ginibre_second_moment():
    s = RngStream(11, 9)
    n = 48
    vals = []
    for _ in range(40):
        g = ens.sample_matrix(ens.EnsembleKind("ginibre", n), 1.0, s)
        z = np.linalg.eigvals(g.entries)
        vals.append(np.mean(np.abs(z) ** 2) / n)
    vals = np.asarray(vals)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.5) <= max(3 * se, 0.02)


def test_haar_unitarity_and_moment():
    s = RngStream(11, 10)
    for n in (2, 5, 16):
        u = ens.haar_unitary(n, s)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    us = ens._haar_batch(3, 50_000, s)
    m = np.abs(us[:, 0, 0]) ** 2
    se = m.std() / math.sqrt(len(m))
    assert abs(m.mean() - 1.0 / 3.0) <= 3 * se


def test_haar_left_invariance():
    s = RngStream(11, 11)
    us = ens._haar_batch(3, 8000, s)
    fixed = ens.haar_unitary(3, s)
    a = np.abs(us[:, 0, 0])
    b = np.abs((fixed @ us.transpose(0, 2, 1).conj()).transpose(0, 2, 1)[:, 0, 0])
    d, crit = two_sample_ks(a, b)
    assert d <= crit


def test_harish_chandra_n1_exact():
    r = ens.harish_chandra_check(A(0.3), A(1.0), 1.0, 50, RngStream(11, 12))
    expect = math.exp(-((0.3 - 1.0) ** 2) / 2.0)
    assert r.lhs_mc == pytest.approx(expect, abs=1e-14)
    assert r.rhs_exact == pytest.approx(expect, rel=1e-12)


def test_harish_chandra_n2_mc():
    r = ens.harish_chandra_check(A(0.0, 1.0), A(0.5, 2.0), 1.0, 200_000, RngStream(11, 13))
    assert r.deviation_sigmas <= 3.0


@pytest.mark.parametrize("n", [2, 4])
def test_harish_chandra_lhs_matches_complex_products(n):
    """The |U|^2 route averages the same integrand as ||X - U^dag Y U||^2
    computed from the complex products, over the same Haar draws."""
    # not arithmetic progressions: for those, sum x_i y_j |U_ji|^2 is the same
    # for U and U^*, which would hide a wrong antithetic term
    xv = np.array([-0.7, 0.1, 0.25, 1.3])[:n]
    yv = np.array([0.2, 1.4, 1.5, 2.6])[:n]
    sigma, n_mc = 0.8, 3000
    r = ens.harish_chandra_check(A(*xv), A(*yv), sigma, n_mc, RngStream(11, 20 + n))
    u = ens._haar_batch(n, n_mc, RngStream(11, 20 + n))
    vals = 0.0
    for uu in (u, np.conj(np.swapaxes(u, 1, 2))):
        m = np.diag(xv)[None] - np.conj(np.swapaxes(uu, 1, 2)) * yv @ uu
        vals = vals + 0.5 * np.exp(-np.sum(np.abs(m) ** 2, axis=(1, 2)) / (2 * sigma**2))
    assert r.lhs_mc == pytest.approx(vals.mean(), rel=1e-13, abs=0.0)


def test_harish_chandra_symmetry_and_degeneracy():
    x, y = A(0.0, 1.0), A(0.5, 2.0)
    rxy = ens.harish_chandra_check(x, y, 1.0, 10, RngStream(11, 14))
    ryx = ens.harish_chandra_check(y, x, 1.0, 10, RngStream(11, 15))
    assert rxy.rhs_exact == pytest.approx(ryx.rhs_exact, rel=1e-12)
    # a tied spectrum can only be built by bypassing chamber validation
    tied = ens.OrderedConfiguration(values=(2.0, 2.0), chamber=Chamber.A)
    with pytest.raises(DegenerateSpectrum):
        ens.harish_chandra_check(x, tied, 1.0, 10, RngStream(11, 16))


def test_bridge_real_at_horizon():
    s = RngStream(11, 17)
    kind = ens.EnsembleKind("gue_to_goe", 3, horizon=1.0)
    m = ens.sample_matrix(kind, 1.0, s)
    assert np.max(np.abs(m.entries.imag)) == 0.0
    path = ens.sample_path(kind, TimeGrid.of([0.4, 1.0], 1.0), s)
    assert np.max(np.abs(path.samples[-1].entries.imag)) == 0.0
    assert np.max(np.abs(path.samples[0].entries.imag)) > 0.0


def test_path_increments_independent():
    s = RngStream(11, 18)
    kind = ens.EnsembleKind("gue", 2)
    vals_t1, incs = [], []
    for _ in range(4000):
        p = ens.sample_path(kind, TimeGrid.of([0.5, 1.0]), s)
        a = p.samples[0].entries[0, 0].real
        b = p.samples[1].entries[0, 0].real
        vals_t1.append(a)
        incs.append(b - a)
    vals_t1, incs = np.asarray(vals_t1), np.asarray(incs)
    cov = np.mean(vals_t1 * incs) - vals_t1.mean() * incs.mean()
    se = np.std(vals_t1 * incs) / math.sqrt(len(incs))
    assert abs(cov) <= 3 * se
    assert abs(incs.var() - 0.5) <= 5 * 0.5 * math.sqrt(2.0 / len(incs))


def test_bridge_marginal_variance():
    # imaginary off-diagonal at t has variance t(T-t)/T / 2
    s = RngStream(11, 19)
    kind = ens.EnsembleKind("gue_to_goe", 2, horizon=1.0)
    vals = np.array([
        ens.sample_matrix(kind, 0.5, s).entries[0, 1].imag for _ in range(4000)
    ])
    expect = 0.5 * 0.5 / 1.0 / 2.0
    se = expect * math.sqrt(2.0 / len(vals))
    assert abs(vals.var() - expect) <= 4 * se


def test_dump_matrix_csv():
    s = RngStream(11, 20)
    kind = ens.EnsembleKind("gue", 2)
    m = ens.sample_matrix(kind, 1.0, s)
    text = ens.dump_matrix_csv(m, stream=s)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# gue 2")
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 4  # re/im per entry


def test_ginibre_eigenvalues_rejected():
    s = RngStream(11, 21)
    g = ens.sample_matrix(ens.EnsembleKind("ginibre", 3), 1.0, s)
    with pytest.raises(DomainError):
        ens.eigenvalues(g)


def test_spectra_deterministic():
    a = ens.sample_spectra(ens.EnsembleKind("gue", 3), 1.0, 50, RngStream(4, 2))
    b = ens.sample_spectra(ens.EnsembleKind("gue", 3), 1.0, 50, RngStream(4, 2))
    assert np.array_equal(a, b)


def test_laguerre_wishart_paths_nonnegative():
    s = RngStream(11, 22)
    for tag in ("laguerre", "wishart"):
        path = ens.sample_path(
            ens.EnsembleKind(tag, 2, nu=1), TimeGrid.of([0.3, 0.7, 1.0]), s
        )
        for samp in path.samples:
            lam = ens.eigenvalues(samp)
            assert lam.min() >= -1e-10 * max(abs(lam).max(), 1.0)


def test_static_kinds_have_no_path_law():
    s = RngStream(11, 23)
    with pytest.raises(ParamMissing):
        ens.sample_path(ens.EnsembleKind("ginibre", 3), TimeGrid.of([1.0]), s)


PATH_KINDS = (
    ens.EnsembleKind("gue", 3),
    ens.EnsembleKind("goe", 3),
    ens.EnsembleKind("gse", 2),
    ens.EnsembleKind("class_c", 2),
    ens.EnsembleKind("class_d", 3),
    ens.EnsembleKind("laguerre", 2, nu=1),
    ens.EnsembleKind("wishart", 3, nu=2),
    ens.EnsembleKind("gue_to_goe", 3, horizon=1.5),
)


def _second_moment(kind: ens.EnsembleKind, t: float) -> float:
    """Exact E Tr H(t)^2, summed entrywise from the component variances."""
    n, n_off = kind.n, kind.n * (kind.n - 1) // 2
    if kind.tag in ("gue", "goe", "gue_to_goe"):
        if kind.tag == "gue_to_goe":
            imag = t * (kind.horizon - t) / kind.horizon
        else:
            imag = t if kind.tag == "gue" else 0.0
        return n * t + n_off * (t + imag)
    if kind.tag in ("gse", "class_d"):
        return 2 * n * (2 * n - 1) * t
    if kind.tag == "class_c":
        return 2 * n * (2 * n + 1) * t
    rows = n + kind.nu
    if kind.tag == "laguerre":
        return 4.0 * t * t * rows * n * (n + rows)
    return t * t * rows * n * (n + rows + 1)  # wishart


@pytest.mark.parametrize("kind", PATH_KINDS, ids=lambda k: k.tag)
def test_one_time_path_equals_static_sample(kind):
    for t in (0.3, 1.5):
        path = ens.sample_path(kind, TimeGrid.of([t]), RngStream(12, 1))
        m = ens.sample_matrix(kind, t, RngStream(12, 1))
        assert path.samples[0].time == m.time == t
        assert np.array_equal(path.samples[0].entries, m.entries)


@pytest.mark.parametrize("kind", PATH_KINDS, ids=lambda k: k.tag)
def test_path_spectra_match_path_eigenvalues(kind):
    grid = TimeGrid.of([0.2, 0.9, 1.5])
    path = ens.sample_path(kind, grid, RngStream(12, 2))
    spectra = ens.sample_path_spectra(kind, grid, 1, RngStream(12, 2))
    assert spectra.shape == (1, 3, kind.n)
    for k, samp in enumerate(path.samples):
        assert np.array_equal(spectra[0, k], ens.distinct_spectrum(samp))


@pytest.mark.parametrize("kind", PATH_KINDS, ids=lambda k: k.tag)
def test_path_second_moment_exact(kind):
    grid = TimeGrid.of([0.2, 0.9, 1.5])
    count = 4000
    h = ens._path_batch(kind, grid, count, RngStream(12, 3))
    assert h.shape == (count, 3, kind.dim, kind.dim)
    tr2 = np.sum(np.abs(h) ** 2, axis=(2, 3))  # Tr H^2 of Hermitian H
    for k, t in enumerate(grid.times):
        exact = _second_moment(kind, t)
        z = (tr2[:, k].mean() - exact) / (tr2[:, k].std() / math.sqrt(count))
        assert abs(z) <= 4.0, (kind.tag, t, z)


def test_path_checks_keep_their_errors():
    s = RngStream(12, 4)
    bridge = ens.EnsembleKind("gue_to_goe", 2, horizon=1.0)
    with pytest.raises(ParamMissing):
        ens.sample_path_spectra(ens.EnsembleKind("beta_tridiagonal", 2, beta=2.0),
                                TimeGrid.of([1.0]), 5, s)
    with pytest.raises(ParamMissing):
        ens.sample_path_spectra(bridge, TimeGrid.of([0.5], horizon=2.0), 5, s)
    with pytest.raises(NonPositiveTime):
        ens.sample_path_spectra(bridge, TimeGrid.of([0.5, 1.5]), 5, s)
    with pytest.raises(NonPositiveTime):
        ens.sample_path(ens.EnsembleKind("gue", 2), TimeGrid.of([0.0, 1.0]), s)
    with pytest.raises(NonPositiveTime):
        ens.sample_matrix(bridge, 1.5, s)


def test_origin_spectra_tridiagonal_and_class_d_routes():
    n, t, count = 3, 0.7, 20_000
    lam = ens.origin_spectra("dyson", 3.0, n, t, count, RngStream(12, 5))
    tri = ens.sample_spectra(ens.EnsembleKind("beta_tridiagonal", n, beta=3.0), 1.0, count,
                             RngStream(12, 5))
    assert np.array_equal(lam, tri * math.sqrt(t))
    pos = ens.origin_spectra("bessel", -0.5, n, t, count, RngStream(12, 6))
    cd = ens.sample_spectra(ens.EnsembleKind("class_d", n), t, count, RngStream(12, 6),
                            distinct=True)
    assert np.array_equal(pos, cd)
    assert pos.min() > 0.0
    # E sum x_i^2(t) = (N + beta N (N - 1)/2) t, and 2N(N + nu) t for the Bessel system
    for x, exact in ((lam, (n + 3.0 * n * (n - 1) / 2.0) * t), (pos, 2 * n * (n - 0.5) * t)):
        sq = np.sum(x * x, axis=1)
        z = (sq.mean() - exact) / (sq.std() / math.sqrt(count))
        assert abs(z) <= 4.0, z


@pytest.mark.parametrize("nu", [-0.5, 0.3, 2.0])
def test_origin_spectra_bessel_one_particle(nu):
    # any nu > -1: the squared Bessel process from 0 at time t is 2t Gamma(nu + 1)
    t, count = 0.7, 20_000
    x = ens.origin_spectra("bessel", nu, 1, t, count, RngStream(12, 7))
    g = RngStream(12, 7).gamma(nu + 1.0, size=(count, 1))
    assert np.array_equal(x, np.sqrt(2.0 * t * g))
    sq = x[:, 0] ** 2
    z = (sq.mean() - 2.0 * t * (nu + 1.0)) / (sq.std() / math.sqrt(count))
    assert abs(z) <= 4.0, z


def test_eigen_density_exact_size_mismatch():
    with pytest.raises(SizeMismatch):
        ens.eigen_density_exact(ens.EnsembleKind("gue", 3), A(-0.5, 0.5), 1.0)
