import math
import warnings

import numpy as np
import pytest

from noncollide import fredholm as F
from noncollide import kernels as K
from noncollide.core import RngStream
from noncollide.errors import DomainError
from noncollide import ensembles as ens

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
    spec = F.GapSpec(
        kernel=K.hermite_kernel(1), time=0.5, window=(0.0, math.inf), m=64, length=12.0
    )
    assert F.fredholm_det(spec) == pytest.approx(0.5, abs=1e-9)


def test_empty_window_gives_one():
    spec = F.GapSpec(
        kernel=K.hermite_kernel(2), time=0.5, window=(1.0, 1.0), m=16, length=6.0
    )
    assert F.fredholm_det(spec) == 1.0


def test_rightmost_cdf_n1_gaussian():
    for (t, a) in ((1.0, 0.5), (2.0, -0.3), (0.5, 2.0)):
        v = F.rightmost_cdf(1, t, a)
        phi = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0 * t)))
        assert abs(v - phi) <= 1e-8


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
    # h and h/4 fixed-step RK4 from the same boundary data
    def integrate_fixed(h):
        x, q, qp = 8.0, K.airy_ai(8.0), K.airy_ai_prime(8.0)
        while x > -2.0 + 1e-12:
            q, qp = F._rk4_step(x, q, qp, -h)
            x -= h
        return q

    a = integrate_fixed(1e-3)
    b = integrate_fixed(2.5e-4)
    assert abs(a - b) <= 1e-8


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


def test_nystrom_doubling_error_bar():
    spec = F.GapSpec(
        kernel=K.airy_kernel(), time=0.0, window=(-2.0, 12.0), m=64, length=14.0
    )
    val, err = F.fredholm_det_refined(spec)
    assert err <= 1e-8


def test_fredholm_value_in_unit_interval():
    for a in (-4.0, -1.0, 1.0):
        spec = F.GapSpec(
            kernel=K.airy_kernel(), time=0.0, window=(a, math.inf), m=64,
            length=max(14.0, 9.0 - a),
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
