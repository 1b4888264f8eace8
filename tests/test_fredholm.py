import math
import warnings

import numpy as np
import pytest

from noncollide import experiments as ex
from noncollide import fredholm as F
from noncollide import kernels as K
from noncollide.core import RngStream
from noncollide.errors import DomainError
from noncollide import ensembles as ens
from oracles import painleve2_rk4

# frozen from the m = 160 Nystrom oracle run before the main build
TW_AT_ZERO = 0.969372828355


def test_gauss_legendre_midpoint():
    rule = F.gauss_legendre(1, 0.0, 2.0)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_exactness():
    rule = F.gauss_legendre(2, -1.0, 1.0)
    assert float(np.dot(rule.weights, rule.nodes**2)) == pytest.approx(2 / 3, abs=1e-14)
    # degree 2m-1 exactness at m = 8: integrate x^15 over (0, 1)
    rule = F.gauss_legendre(8, 0.0, 1.0)
    assert float(np.dot(rule.weights, rule.nodes**15)) == pytest.approx(1 / 16, abs=1e-12)


def test_gauss_legendre_structure():
    rule = F.gauss_legendre(9, -2.0, 2.0)
    assert np.all(rule.weights > 0.0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)
    assert abs(rule.weights.sum() - 4.0) <= 1e-12
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -2.0 and rule.nodes[-1] < 2.0


def test_rank_one_identity():
    # K = phi_0 phi_0 on (0, inf): det = 1 - int_0^inf phi_0^2 = 1/2 by parity
    spec = F.GapSpec(kernel=K.hermite_kernel(1), time=0.5, window=(0.0, 12.0), m=64)
    assert F.fredholm_det(spec) == pytest.approx(0.5, abs=1e-9)


def test_empty_window_gives_one():
    spec = F.GapSpec(kernel=K.hermite_kernel(2), time=0.5, window=(1.0, 1.0), m=16)
    assert F.fredholm_det(spec) == 1.0


def test_rightmost_cdf_n1_gaussian():
    for (t, a) in ((1.0, 0.5), (2.0, -0.3), (0.5, 2.0)):
        v = F.rightmost_cdf(1, t, a)
        phi = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0 * t)))
        assert abs(v - phi) <= 1e-8
    # across both cuts, (a_1, b_1) = (-8.3, 14) sqrt(t), to rounding
    for t in (0.5, 3.0):
        for a in np.linspace(-9.0, 15.0, 97) * math.sqrt(t):
            phi = 0.5 * math.erfc(-a / math.sqrt(2.0 * t))
            assert abs(F.rightmost_cdf(1, t, a) - phi) <= 5e-15


def test_rightmost_cdf_limits_and_monotone():
    vals = [F.rightmost_cdf(2, 1.0, a, m=48) for a in np.linspace(-4.0, 8.0, 25)]
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] <= 1e-6
    assert vals[-1] >= 1.0 - 1e-9


def test_rightmost_cdf_vs_mc_max_eigenvalue():
    n, t = 2, 1.0
    lam = ens.sample_spectra(
        ens.EnsembleKind("gue", n), t, 1_000_000, RngStream(41, 0)
    )
    top = lam[:, -1]
    for alpha in (1.0, 2.0, 3.0):
        f = F.rightmost_cdf(n, t, alpha)
        emp = float(np.mean(top <= alpha))
        se = math.sqrt(f * (1 - f) / len(top))
        assert abs(emp - f) <= 3 * se


def test_rightmost_cdf_n160_matches_192_nodes():
    n, t = 160, 0.5
    lo, hi, m = F._rightmost_rule(n, t)
    edge = math.sqrt(t) * n ** (-1.0 / 6.0)
    assert m == 84
    for alpha in np.linspace(lo, hi, 13)[1:-1]:
        fine = F.fredholm_det(F.GapSpec(K.hermite_kernel(n), t, (alpha, hi), 192))
        # eight more edge scales past the cut b_N
        wide = F.fredholm_det(F.GapSpec(K.hermite_kernel(n), t, (alpha, hi + 8.0 * edge), 256))
        assert abs(F.rightmost_cdf(n, t, alpha) - fine) <= 1e-14
        assert abs(F.rightmost_cdf(n, t, alpha) - wide) <= 1e-14


@pytest.mark.parametrize("n, t", [(1, 1.0), (8, 0.5), (320, 2.0)])
def test_rightmost_cdf_exact_beyond_the_cuts(n, t):
    lo, hi, _ = F._rightmost_rule(n, t)
    assert lo == -8.3 * math.sqrt(t / n)
    assert hi == 2.0 * math.sqrt(n * t) + 12.0 * math.sqrt(t) * n ** (-1.0 / 6.0)
    for alpha in (hi, hi + 1e-9, 2.0 * hi):
        assert F.rightmost_cdf(n, t, alpha) == 1.0
    for alpha in (lo, lo - 1e-9, -5.0 * hi):
        assert F.rightmost_cdf(n, t, alpha) == 0.0


@pytest.mark.parametrize("n, t", [(1, 1.0), (8, 0.5), (80, 0.7), (320, 1.0)])
def test_rightmost_cdf_in_unit_interval_without_warning(n, t):
    _, hi, _ = F._rightmost_rule(n, t)
    alphas = np.linspace(-1.2 * 2.0 * math.sqrt(n * t), hi, 61)
    if n == 80:  # the old 10 sqrt(2Nt) window returned 855 here
        alphas = np.append(alphas, -17.96)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = np.array([F.rightmost_cdf(n, t, float(a)) for a in alphas])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals[:61]) >= -1e-14)


def test_fredholm_det_requires_finite_window():
    for window in ((0.0, math.inf), (-math.inf, 0.0), (1.0, 0.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            F.fredholm_det(F.GapSpec(K.airy_kernel(), 0.0, window, 16))


def test_tracy_widom_right_tail():
    assert 1.0 - F.tracy_widom_fredholm(8.0) < 1e-10


def test_tracy_widom_regression_value():
    assert F.tracy_widom_fredholm(0.0) == pytest.approx(TW_AT_ZERO, abs=1e-8)


def test_tracy_widom_monotone_on_grid():
    vals = [F.tracy_widom_fredholm(a, m=40) for a in np.linspace(-8.0, 4.0, 200)]
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("alpha", [-5.0, -3.0, -1.0, 0.0, 1.0, 2.0])
def test_tracy_widom_dual_route(alpha):
    f1 = F.tracy_widom_fredholm(alpha)
    f2 = F.tracy_widom_painleve(alpha)
    assert abs(f1 - f2) <= 1e-6


@pytest.mark.parametrize("alpha", [-2.0002, -2.0005, -3.1234, 0.0007])
def test_tracy_widom_painleve_off_grid(alpha):
    # alpha between the Painleve table's points: the partial cell must run
    assert abs(F.tracy_widom_painleve(alpha) - F.tracy_widom_fredholm(alpha)) <= 1e-10


def _airy_nystrom_scipy(alpha, m=120):
    """det(I - K_Airy) on (alpha, max(alpha, 0) + 16), kernel from scipy."""
    airy = pytest.importorskip("scipy.special").airy
    t, w = np.polynomial.legendre.leggauss(m)
    b = max(alpha, 0.0) + 16.0
    x = alpha + 0.5 * (b - alpha) * (t + 1.0)
    w = 0.5 * (b - alpha) * w
    ai, aip, _, _ = airy(x)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    k = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / d
    np.fill_diagonal(k, aip**2 - x * ai**2)
    rw = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - rw[:, None] * k * rw[None, :]))


@pytest.mark.parametrize("alpha", [-12.0, -11.5, -7.5003, -6.0, -2.0, 0.0, 3.3, 7.9, 8.0])
def test_tracy_widom_fredholm_matches_scipy_closed_form(alpha):
    assert abs(F.tracy_widom_fredholm(alpha) - _airy_nystrom_scipy(alpha)) <= 1e-12


def test_tracy_widom_fredholm_is_one_determinant(monkeypatch):
    calls, det = [], F.fredholm_det

    def counted(spec):
        calls.append(spec)
        return det(spec)

    monkeypatch.setattr(F, "fredholm_det", counted)
    for alpha in (-6.0, 0.0, 8.0):
        F.tracy_widom_fredholm(alpha)
    assert [(c.window, c.m) for c in calls] == [((a, 10.0), 48) for a in (-6.0, 0.0, 8.0)]


def test_painleve_boundary_condition():
    q = F.painleve2_hastings_mcleod([8.0, 7.0, 6.0])
    assert q[0] == K.airy_ai(8.0)
    assert q[2] == pytest.approx(K.airy_ai(6.0), rel=1e-9)


def test_painleve_independent_integrators_agree():
    # the Taylor continuation against fixed-step RK4 in steps of 2.5e-4
    grid = np.arange(8.0, -2.0 - 1e-9, -0.5)
    rk4, _ = painleve2_rk4(grid, K.airy_ai(8.0), K.airy_ai_prime(8.0), h_max=5e-4)
    assert np.max(np.abs(F.painleve2_hastings_mcleod(grid) - rk4)) <= 1e-8


@pytest.mark.parametrize("x0", [7.0, 9.0])
def test_painleve_grid_start_does_not_move_q(x0):
    # the table starts at 8 whatever the grid's start: RK4 from 8 below it, Ai above
    grid = np.arange(x0, -2.0 - 1e-9, -0.25)
    q = F.painleve2_hastings_mcleod(grid)
    below = grid <= 8.0
    rk4, _ = painleve2_rk4(np.concatenate(([8.0], grid[below])), K.airy_ai(8.0),
                           K.airy_ai_prime(8.0), h_max=5e-4)
    assert np.max(np.abs(q[below] - rk4[1:])) <= 1e-8
    assert np.array_equal(q[~below], K.airy_ai(grid[~below]))
    from_8 = F.painleve2_hastings_mcleod(np.arange(8.0, -2.0 - 1e-9, -0.25))
    assert np.array_equal(q[grid <= 7.0], from_8[4:])


def test_painleve_starts_on_airy():
    # near x0 = 8 the cubic term moves q off Ai by O(Ai^2): 1.1e-15 relative at 7.5
    grid = np.linspace(8.0, 7.5, 201)
    q = F.painleve2_hastings_mcleod(grid)
    assert np.max(np.abs(q / K.airy_ai(grid) - 1.0)) <= 1e-14


def test_painleve_taylor_patches_converged():
    # half the patch width and degree 32 instead of 24: q moves by 2.7e-15
    # relative on [-2, 8], and so do the moments at the shared patch centres
    grid = 8.0 - 1e-3 * np.arange(10001)
    tab, fine = F._PainleveTable(), F._PainleveTable(step=F._PII_STEP / 2, deg=32)
    assert np.max(np.abs(tab.q(grid) / fine.q(grid) - 1.0)) <= 1e-14
    shared = slice(0, 41)  # the centres 8, 7.75, ..., -2
    for coarse, half in ((tab.m0, fine.m0), (tab.m1, fine.m1)):
        coarse, half = np.array(coarse[shared]), np.array(half[0:81:2])
        assert np.max(np.abs(coarse - half)) <= 1e-14 * np.abs(half).max()


def test_painleve_positivity():
    grid = np.arange(8.0, -8.0 - 1e-9, -0.5)
    q = F.painleve2_hastings_mcleod(grid)
    assert np.all(q > 0.0)
    # left asymptote q ~ sqrt(-x/2)
    assert q[-1] == pytest.approx(math.sqrt(4.0), rel=0.02)


def test_painleve_unresolvable_range_flagged():
    with pytest.raises(DomainError):
        F.painleve2_hastings_mcleod(np.arange(8.0, -10.5, -0.5))


def test_tracy_widom_painleve_below_table():
    # alpha in [-10, -8): asymptotic continuation keeps the CDF tiny and ordered
    v10 = F.tracy_widom_painleve(-10.0)
    v9 = F.tracy_widom_painleve(-9.0)
    assert 0.0 <= v10 < v9 < 1e-15
    with pytest.raises(DomainError):
        F.tracy_widom_painleve(-10.5)


@pytest.mark.parametrize("alpha", [-8.5, -9.0, -10.0])
def test_painleve_asymptotic_integral_matches_32_node_rule(alpha):
    # the closed form below the table against the 32-node rule it replaced
    nodes, wts = np.polynomial.legendre.leggauss(32)
    x = alpha + 0.5 * (-8.0 - alpha) * (nodes + 1.0)
    q2 = -x / 2.0 - 1.0 / (8.0 * x * x)
    want = 0.5 * (-8.0 - alpha) * float(np.dot(wts, (x - alpha) * q2))
    assert F._asymptotic_integral(alpha) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tracy_widom_painleve_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        F.tracy_widom_painleve(bad)


@pytest.mark.parametrize("grid", [[math.nan], [8.0, math.nan], [math.inf, 7.0], [8.0, -math.inf]])
def test_painleve_rejects_non_finite_grid(grid):
    with pytest.raises(DomainError):
        F.painleve2_hastings_mcleod(grid)


def test_painleve_grid_validation():
    with pytest.raises(DomainError):
        F.painleve2_hastings_mcleod([5.0, 4.0])  # x0 < 6
    with pytest.raises(DomainError):
        F.painleve2_hastings_mcleod([8.0, 9.0])  # not decreasing


def test_tracy_widom_painleve_tail():
    assert 1.0 - F.tracy_widom_painleve(8.5) < 1e-10


def test_sine_gap_small_window_expansion():
    a = 1e-2
    v = F.sine_gap(a)
    assert abs(v - (1.0 - 2.0 * a / math.pi)) <= 1e-7


def test_sine_gap_limits_and_monotone():
    vals = [F.sine_gap(a) for a in (0.25, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) < 0.0)
    assert F.sine_gap(1e-4) == pytest.approx(1.0, abs=1e-4)


def test_sine_gap_default_nodes_converged_and_zero_past_the_cut():
    for a in (0.01, 0.7, 2.0, 5.0, 11.9):
        fine = F.fredholm_det(F.GapSpec(K.sine_kernel(), 0.0, (-a, a), 128))
        assert abs(F.sine_gap(a) - fine) <= 1e-14
    # the gap probability falls with a, so a >= 12 is below its value at 12
    at_cut = F.fredholm_det(F.GapSpec(K.sine_kernel(), 0.0, (-12.0, 12.0), 128))
    assert 0.0 < at_cut < 1e-31
    assert F.sine_gap(12.0) == F.sine_gap(80.0) == F.sine_gap(1e6) == 0.0


def test_nystrom_doubling_error_bar():
    spec = F.GapSpec(kernel=K.airy_kernel(), time=0.0, window=(-2.0, 12.0), m=64)
    val, err = F.fredholm_det_refined(spec)
    assert err <= 1e-8


def test_fredholm_value_in_unit_interval():
    for a in (-4.0, -1.0, 1.0):
        spec = F.GapSpec(
            kernel=K.airy_kernel(), time=0.0, window=(a, a + max(14.0, 9.0 - a)), m=64
        )
        v = F.fredholm_det(spec)
        assert 0.0 <= v <= 1.0


def test_left_tail_rounding_noise_clamps_quietly():
    """Deep left-tail determinants are rounding noise around 0 (the raw
    values are about -5e-64 for tracy_widom_fredholm(-12)); they return 0
    without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert F.tracy_widom_fredholm(-12.0) == 0.0
        assert F.rightmost_cdf(8, 0.5, -3.0) == 0.0


class _DiagonalKernel:
    """Kernel stub whose Nystrom matrix on (0, 1) is diag(det, 1, ..., 1)."""

    factor = None

    def __init__(self, det):
        self.det = det

    def equal_time_matrix(self, t, nodes):
        k = np.zeros((len(nodes), len(nodes)))
        k[0, 0] = (1.0 - self.det) / F.gauss_legendre(len(nodes), 0.0, 1.0).weights[0]
        return k


@pytest.mark.parametrize("det, clamped, warns", [
    (-1e-15, 0.0, False),  # within the floor 8 * 2**-52 = 1.8e-15
    (-1e-12, 0.0, True),
    (-1e-9, -1e-9, True),  # beyond the clamp margin: reported, not clamped
    (1.0 + 1e-15, 1.0, False),
    (1.0 + 1e-12, 1.0, True),
])
def test_fredholm_clamp_warns_beyond_rounding_floor(det, clamped, warns):
    spec = F.GapSpec(kernel=_DiagonalKernel(det), time=0.0, window=(0.0, 1.0), m=8)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        val = F.fredholm_det(spec)
    assert val == pytest.approx(clamped, rel=1e-3, abs=0.0)
    assert bool(seen) == warns


def _gram_nystrom(kernel, t, window, m):
    """det(I - W^(1/2) K W^(1/2)), the m x m Nystrom matrix from the Gram."""
    rule = F.gauss_legendre(m, *window)
    rw = np.sqrt(rule.weights)
    gram = kernel.equal_time_matrix(t, rule.nodes)
    return float(np.linalg.det(np.eye(m) - rw[:, None] * gram * rw))


@pytest.mark.parametrize("n, m", [(1, 64), (2, 33), (8, 65), (20, 16), (20, 64),
                                  (160, 84), (160, 192), (320, 104), (320, 352)])
def test_rank_route_matches_gram_route(n, m):
    """m < N factors I - B.T B, m > N the rank-space I - B B.T.  Above 128
    nodes each route carries its own ~1e-15 rounding (both are within
    1.1e-15 of 30-digit determinants at N = 160, m = 192), so their gap
    may grow with m."""
    t = 0.7
    kern = K.hermite_kernel(n)
    _, hi, _ = F._rightmost_rule(n, t)
    # across the edge, 2 sqrt(Nt) - 5 ... + 4 edge scales; with too few
    # nodes for the whole window, the edge part from -3 scales only
    scales = np.linspace(-5.0 if m >= 28 else -3.0, 4.0, 9)
    alphas = 2.0 * math.sqrt(n * t) + math.sqrt(t) * n ** (-1.0 / 6.0) * scales
    nodes = F.gauss_legendre(m, alphas[0], hi).nodes
    fac = kern.factor(t, nodes)
    gram = kern.equal_time_matrix(t, nodes)
    assert fac.shape == (n, m)
    assert np.allclose(fac.T @ fac, gram, rtol=0.0, atol=1e-14 * np.abs(gram).max())
    tol = 1e-15 if m <= 128 else 2e-17 * m
    for alpha in alphas:
        got = F.fredholm_det(F.GapSpec(kern, t, (alpha, hi), m))
        assert abs(got - _gram_nystrom(kern, t, (alpha, hi), m)) <= tol


def test_kernel_without_factor_takes_the_gram_path():
    calls = []

    class Counted(_DiagonalKernel):
        def equal_time_matrix(self, t, nodes):
            calls.append(len(nodes))
            return super().equal_time_matrix(t, nodes)

    spec = F.GapSpec(kernel=Counted(0.25), time=0.0, window=(0.0, 1.0), m=8)
    assert F.fredholm_det(spec) == pytest.approx(0.25, abs=1e-15)
    assert calls == [8]
    assert K.airy_kernel().factor is None and K.sine_kernel().factor is None


@pytest.mark.parametrize("n", [2.5, 0, -1, math.nan, math.inf])
def test_rightmost_cdf_rejects_non_integer_n(n):
    with pytest.raises(DomainError, match="N must be an integer >= 1"):
        F.rightmost_cdf(n, 1.0, 0.5)


def test_rightmost_cdf_integral_float_n():
    assert F.rightmost_cdf(2.0, 1.0, 0.5) == F.rightmost_cdf(2, 1.0, 0.5)


def test_painleve_patch_integrals_match_32_node_rule():
    """Each patch's partial integral C_j(d) and whole-patch moments against 32
    Gauss-Legendre nodes on that row's own polynomial (exact for its square,
    of degree 48), within the rounding of the 32-term sums (at most 6 and 1.5
    ulp over 2000 draws), and the CDF against the moments plus the 32-node C_j."""
    tab = F._table()
    x32, w32 = np.polynomial.legendre.leggauss(32)
    rng = np.random.default_rng(20)

    def rule(f, lo, hi):
        u = lo + 0.5 * (hi - lo) * (x32 + 1.0)
        return 0.5 * (hi - lo) * float(np.dot(w32, f(u)))

    for alpha in rng.uniform(-8.0, 8.0, 200):
        j = int((8.0 - alpha) / F._PII_STEP)
        c = 8.0 - F._PII_STEP * j
        d = alpha - c

        def q2(u, row=tab.coef[j]):
            return np.polynomial.polynomial.polyval(u, row) ** 2

        want = rule(lambda u: (u - d) * q2(u), d, 0.0)
        assert abs(np.polyval(tab.cell[j], d) * d * d - want) <= 8 * np.spacing(want)
        for m, weight in ((tab.m0, q2), (tab.m1, lambda u: (c + u) * q2(u))):
            patch = rule(weight, -F._PII_STEP, 0.0)
            ulp = np.spacing(abs(m[j + 1])) + np.spacing(abs(patch))
            assert abs(m[j + 1] - m[j] - patch) <= 2 * ulp
        cdf = math.exp(-(tab.m1[j] - alpha * tab.m0[j] + want))
        assert abs(F.tracy_widom_painleve(alpha) - cdf) <= 2 * np.spacing(cdf)


def test_tw_dual_route_gate_sees_coarse_nystrom(monkeypatch):
    # 18 Nystrom nodes instead of 48 are off by ~1e-9: the old 1e-6 bound passed them
    exact = F.tracy_widom_fredholm
    monkeypatch.setattr(F, "tracy_widom_fredholm", lambda alpha, m=18: exact(alpha, m))
    rep = ex.run_suite("fredholm", 0)[0]
    value = {s["name"]: s["value"] for s in rep.statistics}["tw_dual_route"]
    assert value <= 1e-6 and not rep.verdicts["tw_dual_route"]


def test_tw_dual_route_gate_sees_degree_12_table(monkeypatch):
    # Taylor patches of degree 12 instead of 24 are off by ~2.5e-13: the
    # earlier 3e-12 bound passed them
    monkeypatch.setattr(F, "_TABLE", F._PainleveTable(deg=12))
    rep = ex.run_suite("fredholm", 0)[0]
    value = {s["name"]: s["value"] for s in rep.statistics}["tw_dual_route"]
    assert 1e-13 <= value <= 3e-12 and not rep.verdicts["tw_dual_route"]


def test_rightmost_n1_gaussian_gate_sees_cdf_fault(monkeypatch):
    # the rightmost CDF off by 1e-10 relative: the old 1e-8 bound passed it
    exact = F.rightmost_cdf
    monkeypatch.setattr(F, "rightmost_cdf", lambda *a, **kw: exact(*a, **kw) * (1.0 + 1e-10))
    rep = ex.run_suite("fredholm", 0)[0]
    value = {s["name"]: s["value"] for s in rep.statistics}["rightmost_n1_gaussian"]
    assert abs(value) <= 1e-8 and not rep.verdicts["rightmost_n1_gaussian"]
