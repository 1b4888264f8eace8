import math
import warnings

import numpy as np
import pytest

from noncollide import ensembles as ens
from noncollide import experiments as ex
from noncollide import kernels as K
from noncollide._quad import gl_nodes
from noncollide.core import RngStream
from noncollide.densities1d import bm_density
from noncollide.errors import AccuracyLossWarning, DomainError
from oracles import (
    CHI2_CRIT_19DOF_1PCT,
    glaguerre_rule,
    hermite_phi_decimal,
    integrate,
    panel_rule,
)


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def test_phi0_value():
    assert K.hermite_phi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_phi_parity():
    for n in (1, 4, 9):
        a = K.hermite_phi(n, 1.37)
        b = K.hermite_phi(n, -1.37)
        assert a == pytest.approx((-1.0) ** n * b, rel=1e-15)


def test_phi_orthonormality():
    xs, ws = panel_rule(-12.0, 12.0, 8)
    ph = K.hermite_phi_sequence(20, xs)
    gram = (ph * ws) @ ph.T
    assert np.max(np.abs(gram - np.eye(21))) <= 1e-9


def test_phi_deep_tail_no_overflow():
    vals = K.hermite_phi_sequence(10_000, [50.0])
    assert np.all(np.isfinite(vals))
    # classically forbidden seed underflows but later orders recover
    assert vals[0, 0] == 0.0
    assert abs(vals[10_000, 0]) > 1e-3


def test_phi_against_decimal_oracle():
    for (n, x) in ((60, 3.3), (500, 11.0), (2000, 50.0)):
        got = K.hermite_phi(n, x)
        want = hermite_phi_decimal(n, x)
        assert got == pytest.approx(want, rel=5e-11, abs=1e-280)


# ---------------------------------------------------------------------------
# Laguerre functions
# ---------------------------------------------------------------------------

def test_laguerre_phi0():
    assert K.laguerre_phi(0, 0.0, 0.0) == 1.0
    x = 0.8
    expect = math.exp(-x / 2.0) / math.sqrt(math.gamma(1.5)) * x**0.25
    assert K.laguerre_phi(0, 0.5, x) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 2.0])
def test_laguerre_orthonormality(nu):
    xs, ws = glaguerre_rule(nu)
    ph = K.laguerre_phi_sequence(20, nu, xs)
    gram = (ph * ws) @ ph.T
    assert np.max(np.abs(gram - np.eye(21))) <= 1e-9


def test_hermite_laguerre_correspondence():
    # phi_{2n}(x) = (-1)^n sqrt(x) phi^(-1/2)_n(x^2); odd orders via nu = 1/2
    xs = np.linspace(0.05, 3.5, 9)
    for n in (0, 1, 2, 5):
        lhs = K.hermite_phi_sequence(2 * n, xs)[2 * n]
        rhs = (-1.0) ** n * np.sqrt(xs) * K.laguerre_phi_sequence(n, -0.5, xs**2)[n]
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-8
        lhs = K.hermite_phi_sequence(2 * n + 1, xs)[2 * n + 1]
        rhs = (-1.0) ** n * np.sqrt(xs) * K.laguerre_phi_sequence(n, 0.5, xs**2)[n]
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-8


# ---------------------------------------------------------------------------
# Airy and Bessel J
# ---------------------------------------------------------------------------

def test_airy_at_zero():
    assert K.airy_ai(0.0) == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), rel=4e-15)
    assert K.airy_ai_prime(0.0) == pytest.approx(
        -(3 ** (-1 / 3)) / math.gamma(1 / 3), rel=4e-15
    )


@pytest.mark.parametrize("lo, hi, n, bound_ai, bound_aip, relative", [
    (-12.0, 0.0, 241, 5e-15, 5e-15, False),   # Taylor table
    (0.0, 10.0, 201, 5e-15, 5e-15, True),     # Taylor table, Ai decaying
    (10.0, 100.0, 181, 1e-14, 1e-14, True),   # decaying expansion, compensated zeta
    (-30.0, -12.0, 181, 8e-15, 4e-14, False),  # oscillatory expansion, phase rounding
])
def test_airy_matches_mpmath_over_range(lo, hi, n, bound_ai, bound_aip, relative):
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(lo, hi, n)[1:] if lo == 0.0 else np.linspace(lo, hi, n)
    ai, aip = K.airy_ai(xs), K.airy_ai_prime(xs)
    with mp.workdps(30):
        ref = np.array([[float(mp.airyai(x)), float(mp.airyai(x, 1))] for x in xs]).T
    err = np.abs([ai - ref[0], aip - ref[1]])
    if relative:
        err /= np.abs(ref)
    assert err[0].max() <= bound_ai
    assert err[1].max() <= bound_aip


def test_airy_equation_residual():
    # Richardson-extrapolated central differences kill the h^2 term; h is
    # sized so the 1/h^2 roundoff amplification stays below the tolerance
    for x0 in (-4.5, -2.0, 0.5, 3.0, 6.0):
        h = 1e-2
        d_h = (K.airy_ai(x0 + h) - 2 * K.airy_ai(x0) + K.airy_ai(x0 - h)) / h**2
        d_h2 = (K.airy_ai(x0 + h / 2) - 2 * K.airy_ai(x0) + K.airy_ai(x0 - h / 2)) / (h / 2) ** 2
        dd = (4 * d_h2 - d_h) / 3.0
        assert abs(dd - x0 * K.airy_ai(x0)) <= 1e-8


def test_airy_seams():
    # the Taylor table meets each asymptotic expansion at its switch
    for x, expansion in ((-12.0, K._airy_negative), (10.0, K._airy_decaying)):
        table = K._airy_table(np.array([x]))
        other = expansion(np.array([x]))
        for a, b in zip(table, other):
            assert abs(a[0] / b[0] - 1.0) <= 1e-14


def test_airy_known_values():
    assert K.airy_ai(1.0) == pytest.approx(0.13529241631288141, rel=1e-11)
    assert K.airy_ai(-5.0) == pytest.approx(0.35076100902411431, rel=1e-10)
    assert K.airy_ai(5.0) == pytest.approx(1.0834442813607441e-4, rel=1e-10)


def test_airy_accuracy_loss_flag():
    with pytest.warns(AccuracyLossWarning):
        K.airy_ai(-600.0)
    with pytest.raises(DomainError):
        K.airy_ai(-1500.0)


def test_bessel_j_half_integer():
    assert K.bessel_j(0.5, 2.0) == pytest.approx(
        math.sqrt(2 / (math.pi * 2.0)) * math.sin(2.0), rel=1e-12
    )


def test_bessel_j_seam():
    for nu in (0.0, 0.5, 2.0, -0.4):
        s = K._bessel_j_series(nu, np.array([14.0]))[0]
        a = K._bessel_j_asym(nu, np.array([14.0]))[0]
        assert abs(s - a) <= 1e-10


@pytest.mark.parametrize("nu", [-0.9, -0.4, 0.0, 0.5, 1.0, 2.3, 5.0, 10.0])
def test_bessel_j_matches_mpmath_over_range(nu):
    mp = pytest.importorskip("mpmath")
    # (lo, hi, bound): relative below 0.5, absolute above; the series loses
    # digits to cancellation as x nears its switch to the asymptotic form at 14
    for lo, hi, bound in ((1e-4, 0.5, 4e-15), (0.5, 10.0, 2e-13), (10.0, 30.0, 1e-11),
                          (30.0, 500.0, 5e-15)):
        xs = np.linspace(lo, hi, 121)
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(nu, x)) for x in xs])
        err = np.abs(K.bessel_j(nu, xs) - ref)
        if lo < 0.5:
            err /= np.maximum(np.abs(ref), 1.0)
        assert err.max() <= bound, (lo, hi)


def test_bessel_j_known():
    assert K.bessel_j(0.0, 1.0) == pytest.approx(0.76519768655796655, rel=1e-12)
    assert K.bessel_j(1.0, 2.0) == pytest.approx(0.57672480775687338, rel=1e-12)


# ---------------------------------------------------------------------------
# finite-N kernels
# ---------------------------------------------------------------------------

def test_hermite_kernel_value():
    assert K.kernel_hermite(1, 0.5, 0.0, 0.5, 0.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-14
    )


def test_hermite_kernel_trace_and_reproducing():
    xs, ws = panel_rule(-10.0, 10.0, 10)
    for n in range(1, 6):
        km = K.hermite_kernel(n).equal_time_matrix(0.5, xs)
        assert abs(float(np.dot(ws, np.diag(km))) - n) <= 1e-8
        assert np.max(np.abs(km @ (ws[:, None] * km) - km)) <= 1e-8


def test_hermite_kernel_symmetry():
    xs = np.array([-1.3, 0.2, 0.9])
    km = K.hermite_kernel(3).equal_time_matrix(0.7, xs)
    assert np.array_equal(km, km.T)


def test_hermite_kernel_telescoping():
    # head + tail = full bilinear sum (Mehler closed form), s > t branch
    n, s, t = 3, 1.0, 0.6
    val = K.kernel_hermite(n, s, 0.7, t, 0.4)  # = -tail
    r = math.sqrt(t / s)
    xa, ya = 0.7 / math.sqrt(2 * s), 0.4 / math.sqrt(2 * t)
    phx = K.hermite_phi_sequence(n - 1, [xa])[:, 0]
    phy = K.hermite_phi_sequence(n - 1, [ya])[:, 0]
    head = float(np.sum(r ** np.arange(n) * phx * phy)) / math.sqrt(2 * s)
    mehler = math.exp(
        (4 * xa * ya * r - (xa**2 + ya**2) * (1 + r * r)) / (2 * (1 - r * r))
    ) / math.sqrt(math.pi * (1 - r * r))
    full = mehler / math.sqrt(2 * s)
    assert abs(head - val - full) <= 1e-10


def test_hermite_kernel_branch_continuity():
    v_eq = K.kernel_hermite(3, 0.5, 0.3, 0.5, 0.8)
    v_lo = K.kernel_hermite(3, 0.5 * (1 - 1e-11), 0.3, 0.5, 0.8)
    assert abs(v_eq - v_lo) <= 1e-9


def _mp_hermite_kernel(mp, n, s, x, t, y):
    """Head sum minus Mehler's closed form, in mpmath arithmetic."""
    s, t, x, y = map(mp.mpf, (s, t, x, y))
    a, b, r = x / mp.sqrt(2 * s), y / mp.sqrt(2 * t), mp.sqrt(t / s)

    def phi(k, u):
        norm = mp.sqrt(mp.sqrt(mp.pi) * 2**k * mp.factorial(k))
        return mp.hermite(k, u) * mp.exp(-u * u / 2) / norm

    head = sum(r**k * phi(k, a) * phi(k, b) for k in range(n))
    q = 1 - r * r
    mehler = mp.exp((4 * a * b * r - (a * a + b * b) * (1 + r * r)) / (2 * q)) / mp.sqrt(mp.pi * q)
    return (head - mehler) / mp.sqrt(2 * s)


def _mp_laguerre_kernel(mp, n, nu, s, x, t, y):
    """Head sum minus the Hille-Hardy closed form, in mpmath arithmetic."""
    nu, s, t, x, y = map(mp.mpf, (nu, s, t, x, y))
    a, b, r = x * x / (2 * s), y * y / (2 * t), t / s

    def phi(k, u):
        norm = mp.sqrt(mp.factorial(k) / mp.gamma(k + nu + 1))
        return norm * u ** (nu / 2) * mp.exp(-u / 2) * mp.laguerre(k, nu, u)

    head = sum(r**k * phi(k, a) * phi(k, b) for k in range(n))
    full = (mp.exp(-(a + b) / 2 - (a + b) * r / (1 - r)) / (1 - r) * r ** (-nu / 2)
            * mp.besseli(nu, 2 * mp.sqrt(a * b * r) / (1 - r)))
    return mp.sqrt(x * y) / s * (head - full)


def _s_after_t_cases(rng, count):
    """(N, s, t) with N <= 30 and 0.02 <= t/s < 1."""
    for _ in range(count):
        n = int(rng.integers(1, 31))
        t = float(rng.uniform(0.1, 3.0))
        yield n, t / float(rng.uniform(0.02, 1.0)), t


def test_hermite_kernel_s_after_t_matches_mehler():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    with mp.workdps(30):
        for n, s, t in _s_after_t_cases(rng, 30):
            x = float(rng.normal() * math.sqrt(2 * n * s))
            y = float(rng.normal() * math.sqrt(2 * n * t))
            ref = _mp_hermite_kernel(mp, n, s, x, t, y)
            assert abs(K.kernel_hermite(n, s, x, t, y) - ref) <= 1e-13, (n, s, x, t, y)


@pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 2.3, 7.0, 19.5, 25.0, 40.0])
def test_laguerre_kernel_s_after_t_matches_hille_hardy(nu):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(62)
    with mp.workdps(30):
        for n, s, t in _s_after_t_cases(rng, 6):
            x = float(abs(rng.normal()) * math.sqrt(2 * (2 * n + nu + 1) * s))
            y = float(abs(rng.normal()) * math.sqrt(2 * (2 * n + nu + 1) * t))
            ref = _mp_laguerre_kernel(mp, n, nu, s, x, t, y)
            assert abs(K.kernel_laguerre(n, nu, s, x, t, y) - ref) <= 1e-13, (n, s, x, t, y)


def test_extended_kernels_continuous_from_above():
    # s = t (1 + 1e-7): the subtracted density is a spike of width ~3e-4
    # at x = y, so off the diagonal the kernel tends to its s = t value
    t, eps = 0.8, 1e-7
    for x, y in ((0.3, 0.8), (-1.1, 0.2), (1.5, 1.4)):
        v_eq = K.kernel_hermite(5, t, x, t, y)
        assert abs(K.kernel_hermite(5, t * (1 + eps), x, t, y) - v_eq) <= 1e-6
        for nu in (-0.4, 0.5, 25.0):
            xl, yl = abs(x) + 0.1, abs(y) + 0.1
            v_eq = K.kernel_laguerre(5, nu, t, xl, t, yl)
            assert abs(K.kernel_laguerre(5, nu, t * (1 + eps), xl, t, yl) - v_eq) <= 1e-6


def test_extended_grams_match_scalar_kernels():
    xs = np.array([0.2, 0.9, 1.7, 2.4])
    gram = K.hermite_kernel(4).equal_time_matrix(0.6, xs)
    lgram = K.laguerre_kernel(4, 1.5).equal_time_matrix(0.6, xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert gram[i, j] == pytest.approx(K.kernel_hermite(4, 0.6, x, 0.6, y), abs=1e-15)
            assert lgram[i, j] == pytest.approx(
                K.kernel_laguerre(4, 1.5, 0.6, x, 0.6, y), abs=1e-15)
    assert np.array_equal(lgram, lgram.T)


@pytest.mark.parametrize("kern", [K.hermite_kernel(4), K.laguerre_kernel(3, 0.5),
                                  K.sine_kernel(), K.airy_kernel(), K.bessel_hard_kernel(1.5)],
                         ids=["hermite", "laguerre", "sine", "airy", "hard_edge"])
@pytest.mark.parametrize("s, t", [(1.0, 0.6), (0.6, 1.0)], ids=["s_after_t", "s_before_t"])
def test_multi_point_two_time_blocks_match_scalar(kern, s, t):
    # three points at s against two at t: every head evaluates a 2-d argument
    xs, ys = np.array([0.1, 0.2, 0.5]), np.array([0.3, 0.9])
    if kern.domain == "line":
        ys = ys - 1.3
    want = np.array([[kern.evaluate(s, x, t, y) for y in ys] for x in xs])
    assert np.abs(kern.block(s, xs, t, ys) - want).max() <= 1e-15


def test_airy_three_point_two_time_correlation():
    pts = [(0.0, 0.1), (0.0, 0.2), (1.0, 0.3)]
    assert K.correlation_function(K.airy_kernel(), pts) == pytest.approx(
        3.30437401e-07, rel=1e-8)


def test_laguerre_kernel_trace_and_reproducing():
    for nu in (-0.4, 0.5):
        q = 2.0 if nu == 0.5 else 1.0 / (1.0 + nu)
        u, wu = panel_rule(0.0, 14.0 ** (1.0 / q), 12)
        xs = u**q
        ws = wu * q * u ** (q - 1.0)
        for n in range(1, 5):
            km = K.laguerre_kernel(n, nu).equal_time_matrix(0.5, xs)
            assert abs(float(np.dot(ws, np.diag(km))) - n) <= 1e-8
            assert np.max(np.abs(km @ (ws[:, None] * km) - km)) <= 1e-8


def test_laguerre_kernel_n1_normalization():
    val = integrate(
        lambda x: np.array([K.kernel_laguerre(1, 0.5, 0.7, v, 0.7, v) for v in x]),
        1e-9, 12.0, n_panels=12,
    )
    assert abs(val - 1.0) <= 1e-8


def test_sine_kernel_values():
    assert K.kernel_sine(1.0, 0.3, 1.0, 0.3) == pytest.approx(1 / math.pi, abs=1e-15)
    assert abs(K.kernel_sine(1.0, 0.0, 1.0, math.pi)) <= 1e-15
    v = K.kernel_sine(1.0 - 1e-11, 0.3, 1.0, 0.3)
    assert abs(v - 1 / math.pi) <= 1e-10


def test_sine_kernel_two_time_diagonal_closed_form():
    # s > t: K(s, x; t, x) = -(1/pi) int_1^inf e^{-b u^2} du = -erfc(sqrt b) / 2 sqrt(pi b)
    for gap in (0.05, 0.5, 1.5):
        b = gap / 2
        for x0 in (0.0, 2.3):
            want = -math.erfc(math.sqrt(b)) / (2 * math.sqrt(math.pi * b))
            assert abs(K.kernel_sine(1.0 + gap, x0, 1.0, x0) - want) <= 1e-13


def test_airy_kernel_diagonal_closed_form():
    for x0 in (-2.0, 0.0, 1.0):
        v = K.kernel_airy(1.0, x0, 1.0, x0)
        closed = K.airy_ai_prime(x0) ** 2 - x0 * K.airy_ai(x0) ** 2
        assert abs(v - closed) <= 1e-10


def test_airy_kernel_equal_time_matches_integral():
    # closed form (Taylor form for |x - y| < 1e-2) against the defining
    # integral int_0^inf Ai(x + v) Ai(y + v) dv of the s < t branch
    for y0 in (-6.0, -3.3, 0.0, 2.5, 5.0):
        for d in (0.0, 1e-9, 1e-5, 9.9e-3, 1.01e-2, 0.4, -0.4):
            closed = K.kernel_airy(1.0, y0 + d, 1.0, y0)
            integral = K.kernel_airy(1.0 - 1e-13, y0 + d, 1.0, y0)
            assert abs(closed - integral) <= 1e-11, (y0, d)


def test_airy_gram_matches_kernel():
    xs = np.linspace(-9.0, 6.0, 41)
    gram = K.airy_kernel().equal_time_matrix(0.0, xs)
    for i in (0, 7, 20, 40):
        for j in (0, 13, 20, 33):
            assert gram[i, j] == pytest.approx(K.kernel_airy(2.0, xs[i], 2.0, xs[j]), abs=1e-14)


def _airy_gram_formula(xs, ys):
    """The integrable quotient, and the quartic in d = x - y wherever |d| < 2e-3;
    also the number of such pairs."""
    ai, aip = K._airy_both(xs)
    ai_y, aip_y = K._airy_both(ys)
    d = xs[:, None] - ys[None, :]
    near = np.abs(d) < 2e-3
    out = (ai[:, None] * aip_y - aip[:, None] * ai_y) / np.where(near, 1.0, d)
    i, j = np.nonzero(near)
    d, f, fp, y = d[i, j], ai_y[j], aip_y[j], ys[j]
    ff, fpfp, ffp = f * f, fp * fp, f * fp
    out[i, j] = (fpfp - y * ff - d * ff / 2.0
                 + d**2 * (y * fpfp - ffp - y * y * ff) / 6.0
                 + d**3 * (fpfp - 2.0 * y * ff) / 12.0
                 + d**4 * (y * y * fpfp - 2.0 * y * ffp - 4.0 * ff - y**3 * ff) / 120.0)
    return out, len(i)


@pytest.mark.parametrize("m, a, b, off_diagonal_near", [
    (48, -6.0, 10.0, 0), (160, -2.0, 12.0, 0), (256, -2.0, 12.0, 4)])
def test_airy_gram_equals_quotient_and_quartic(m, a, b, off_diagonal_near):
    xs, _ = gl_nodes(m, a, b)
    want, near = _airy_gram_formula(xs, xs)
    assert near - m == off_diagonal_near
    assert np.array_equal(K.airy_kernel().equal_time_matrix(0.0, xs), want)


def test_airy_block_near_pairs_equal_quotient_and_quartic():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-13.0, 11.0, 60)
    ys = np.concatenate([xs[::-2] + rng.normal(scale=1e-3, size=30), xs[:5], [20.0, -20.0]])
    want, near = _airy_gram_formula(xs, ys)
    assert near >= 20
    assert np.array_equal(K._airy_block(0.5, xs, 0.5, ys), want)


def test_airy_kernel_decay():
    assert K.kernel_airy(1.0, 6.0, 1.0, 6.0) < math.exp(-6.0)


def test_hard_edge_closed_vs_integral():
    for nu in (-0.4, 0.0, 0.5, 1.0):
        for (x0, y0) in ((0.7, 1.3), (0.4, 2.0)):
            closed = K.kernel_bessel_hard(nu, 1.0, x0, 1.0, y0)
            intval = K._hard_edge_head(nu, 0.0, np.array([x0]), np.array([y0]))[0, 0]
            assert abs(closed - intval) <= 1e-6


@pytest.mark.parametrize("nu", [-0.4, 0.0, 2.3])
def test_hard_edge_near_pairs_take_the_full_head(nu):
    # the head evaluated at the near pairs only equals the full-grid head there
    xs, _ = gl_nodes(40, 0.0, 9.0)
    gram = K.bessel_hard_kernel(nu).equal_time_matrix(1.0, xs)
    full = K._hard_edge_head(nu, 0.0, xs, xs)
    assert np.abs(np.diag(gram) - np.diag(full)).max() <= 1e-14
    ys = xs[::-1] + np.where(np.arange(40) % 3 == 0, 5e-5, 1e-3)
    block = K._hard_edge_block(nu, 1.0, xs, 1.0, ys)
    i, j = np.nonzero(np.abs(xs[:, None] - ys[None, :]) < 1e-4)
    assert len(i) >= 10
    assert np.abs(block[i, j] - K._hard_edge_head(nu, 0.0, xs, ys)[i, j]).max() <= 1e-14


def test_hard_edge_diagonal_at_nu_2_3():
    # closed diagonal 2x [J_nu(2x)^2 - J_{nu+1}(2x) J_{nu-1}(2x)] at nu = 2.3,
    # x = 5, 30 digits; a u = 2 w^{1/(2 nu + 2)} substitution gave 0.590196
    assert K.kernel_bessel_hard(2.3, 1.0, 5.0, 1.0, 5.0) == pytest.approx(
        0.594997945497569699808701596796, abs=1e-12)


@pytest.mark.parametrize("nu", [-0.8, -0.4, 0.3, 2.3, 5.7])
def test_hard_edge_kernel_matches_mpmath(nu):
    # s <= t: the integral over u in (0, 2); s > t: minus the tail over (2, inf)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s, x, t, y in ((1.0, 5.0, 1.0, 5.0), (1.0, 0.7, 1.0, 1.3), (1.0, 3.0, 1.5, 2.2),
                           (1.5, 0.7, 1.0, 1.3), (1.8, 3.0, 1.2, 2.2)):
            span = [0, 0.5, 1, 1.5, 2] if s <= t else [2, 4, 8, 16]  # e^{-u^2/4} < 1e-27 past 16
            ref = mp.sqrt(x * y) * mp.quad(
                lambda u: mp.exp((t - s) * u * u / 2) * mp.besselj(nu, u * x) * u
                * mp.besselj(nu, u * y), span) * (1 if s <= t else -1)
            assert abs(K.kernel_bessel_hard(nu, s, x, t, y) - ref) <= 1e-12, (s, x, t, y)


@pytest.mark.parametrize("s, x, t, y", [(0.6, 0.3, 1.0, -1.2), (1.5, 0.3, 1.0, -1.2),
                                        (1.05, -2.5, 1.0, 1.7), (0.2, 1.9, 1.7, -2.8)])
def test_sine_kernel_two_time_matches_mpmath(s, x, t, y):
    # s < t: (1/pi) int_0^1 e^{(t-s)u^2/2} cos(u(x-y)) du; s > t: minus the tail over (1, inf)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        span = [0, 1] if s < t else [1 + k for k in range(40)] + [mp.inf]
        ref = mp.quad(lambda u: mp.exp((t - s) * u * u / 2) * mp.cos(u * (x - y)),
                      span) / mp.pi * (1 if s < t else -1)
    assert abs(K.kernel_sine(s, x, t, y) - ref) <= 1e-13


@pytest.mark.parametrize("s, x, t, y", [(0.4, -2.6, 1.0, 1.1), (1.0, 0.5, 1.3, -0.7),
                                        (4.0, -1.0, 1.0, 0.7)])
def test_airy_kernel_two_time_matches_mpmath(s, x, t, y):
    # s < t: int_0^inf e^{-(t-s)l/2} Ai(x+l) Ai(y+l) dl; s > t: minus the same
    # integrand over (-inf, 0), on panels of about a local period
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        c = (s - t) / 2
        if s < t:
            span = [0, 1, 2, 4, 8, 16, mp.inf]
        else:
            span, lam = [0.0], 0.0
            while lam < 40.0 / c:
                lam += min(1.0, 4.0 / math.sqrt(max(lam - min(x, y), 1.0)))
                span.append(-lam)
        ref = mp.quad(lambda v: mp.exp(c * v) * mp.airyai(x + v) * mp.airyai(y + v),
                      sorted(span)) * (1 if s < t else -1)
    assert abs(K.kernel_airy(s, x, t, y) - ref) <= 1e-13


@pytest.mark.parametrize("s, x, t, y, ref", [
    (1.107, -0.5, 1.0, 0.3, 0.0149779857202830451172066215824),
    (1.43, 0.2, 1.0, -1.0, -2.21860759553364476086464013167e-4),
])
def test_airy_kernel_s_gt_t_pinned(s, x, t, y, ref):
    # 30-digit values of -int_{-inf}^0 e^{(s-t)l/2} Ai(x+l) Ai(y+l) dl (mpmath,
    # Ai = Re of (Ai + i Bi) products, the fast one on the ray l = -r e^{-i pi/6});
    # a cut-off tail quadrature raises at the first and is 6e-6 off at the second
    assert abs(K.kernel_airy(s, x, t, y) - ref) <= 1e-13


@pytest.mark.parametrize("nu", [-0.4, 0.5, 2.3])
def test_hard_edge_gram_matches_scalar(nu):
    xs = np.concatenate([[0.0], gl_nodes(32, 0.0, 4.0)[0]])
    gram = K.bessel_hard_kernel(nu).equal_time_matrix(1.0, xs)
    scalar = np.array([[K.kernel_bessel_hard(nu, 1.0, x, 1.0, y) for y in xs] for x in xs])
    assert np.all(np.abs(gram - scalar) <= 1e-14 * np.abs(scalar))


def test_hard_edge_sine_reflection():
    for (x0, y0) in ((0.4, 1.1), (0.8, 2.3), (1.0, 1.0 + 2e-4)):
        v = K.kernel_bessel_hard(0.5, 1.0, x0, 1.0, y0)
        odd = math.sin(2 * (x0 - y0)) / (math.pi * (x0 - y0)) - math.sin(
            2 * (x0 + y0)
        ) / (math.pi * (x0 + y0))
        assert abs(v - odd) <= 1e-6
        v = K.kernel_bessel_hard(-0.5, 1.0, x0, 1.0, y0)
        even = math.sin(2 * (x0 - y0)) / (math.pi * (x0 - y0)) + math.sin(
            2 * (x0 + y0)
        ) / (math.pi * (x0 + y0))
        assert abs(v - even) <= 1e-6


def test_soft_edge_scaling_limit():
    pts = ((-1.0, -1.0), (-0.5, 0.5), (0.0, 0.0), (0.7, -0.3), (1.0, 1.0))
    errs = []
    for n in (50, 100, 200):
        t = n ** (1.0 / 3.0)
        shift = 2.0 * n ** (2.0 / 3.0)
        worst = 0.0
        for xi, eta in pts:
            kn = K.kernel_hermite(n, t, xi + shift, t, eta + shift)
            ka = K.kernel_airy(1.0, xi, 1.0, eta)
            worst = max(worst, abs(kn - ka))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]


def test_bulk_scaling_limit():
    errs = []
    for n in (50, 100, 200):
        v = K.kernel_hermite(n, float(n), 0.3, float(n), 0.9)
        errs.append(abs(v - K.kernel_sine(1.0, 0.3, 1.0, 0.9)))
    assert errs[0] > errs[1] > errs[2]


def test_hard_edge_scaling_limit():
    # the displayed limit kernel corresponds to time N/2 of the finite system
    errs = []
    for n in (50, 100, 200):
        v = K.kernel_laguerre(n, 0.5, n / 2.0, 0.4, n / 2.0, 1.1)
        errs.append(abs(v - K.kernel_bessel_hard(0.5, 1.0, 0.4, 1.0, 1.1)))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

def test_correlation_single_point():
    kern = K.hermite_kernel(2)
    assert K.correlation_function(kern, [(1.0, 0.5)]) == pytest.approx(
        kern.evaluate(1.0, 0.5, 1.0, 0.5), rel=1e-14
    )


def test_correlation_two_point_nonnegative():
    kern = K.hermite_kernel(3)
    for (x, y) in ((-0.5, 0.4), (0.1, 0.2)):
        rho2 = K.correlation_function(kern, [(1.0, x), (1.0, y)])
        assert rho2 >= -1e-12


@pytest.mark.parametrize("kern", [K.hermite_kernel(9), K.sine_kernel()],
                         ids=["hermite", "sine"])
def test_correlation_twenty_points_three_times(kern):
    rng = np.random.default_rng(11)
    times = np.repeat([0.6, 1.0, 1.7], [7, 7, 6])
    pts = [(float(t), float(x)) for t, x in zip(times, rng.uniform(-3.0, 3.0, 20))]
    order = rng.permutation(20)
    pts = [pts[i] for i in order]
    a = np.array([[kern.evaluate(s, x, t, y) for t, y in pts] for s, x in pts])
    want = float(np.linalg.det(a))
    assert K.correlation_function(kern, pts) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("t1, x1, t2, x2", [(0.5, 0.3, 1.0, -0.4), (0.2, -0.5, 1.7, 0.8),
                                             (1.0, 1.2, 1.3, 1.0)])
def test_correlation_n1_two_time_identity(t1, x1, t2, x2):
    # one Brownian particle: rho(t1, x1; t2, x2) = p(t1, x1 | 0) p(t2 - t1, x2 | x1)
    want = bm_density(t1, x1, 0.0) * bm_density(t2 - t1, x2, x1)
    kern = K.hermite_kernel(1)
    for pts in ([(t1, x1), (t2, x2)], [(t2, x2), (t1, x1)]):
        assert K.correlation_function(kern, pts) == pytest.approx(want, rel=1e-13)


def test_rho1_matches_gue_histogram():
    n, t = 4, 1.0
    lam = ens.sample_spectra(ens.EnsembleKind("gue", n), t, 20_000, RngStream(31, 0))
    pooled = lam.ravel()
    kern = K.hermite_kernel(n)
    span = 2.5 * math.sqrt(2 * n * t)
    zs = np.linspace(-span, span, 1200)
    rho = np.diag(kern.equal_time_matrix(t, zs)) / n
    cum = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) / 2 * np.diff(zs))])
    edges = np.interp(np.linspace(0, cum[-1], 21), cum, zs)
    counts, _ = np.histogram(pooled[(pooled > -span) & (pooled < span)], bins=edges)
    exp = counts.sum() / 20.0
    chi2 = float(np.sum((counts - exp) ** 2 / exp))
    assert chi2 <= CHI2_CRIT_19DOF_1PCT


def test_rho1_matches_class_c_histogram():
    # class C positive levels follow the nu = 1/2 Laguerre kernel
    n, t = 2, 1.0
    lam = ens.sample_spectra(
        ens.EnsembleKind("class_c", n), t, 20_000, RngStream(31, 1), distinct=True
    )
    pooled = lam.ravel()
    kern = K.laguerre_kernel(n, 0.5)
    span = 2.2 * math.sqrt(2 * n * t) + 1.0
    zs = np.linspace(0.0, span, 1200)
    rho = np.diag(kern.equal_time_matrix(t, zs)) / n
    cum = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) / 2 * np.diff(zs))])
    edges = np.interp(np.linspace(0, cum[-1], 21), cum, zs)
    counts, _ = np.histogram(pooled[pooled < span], bins=edges)
    exp = counts.sum() / 20.0
    chi2 = float(np.sum((counts - exp) ** 2 / exp))
    assert chi2 <= CHI2_CRIT_19DOF_1PCT


def test_multitime_correlation_vs_path_mc():
    # two-time 2-point function of the GUE eigenvalue process, N = 2
    n = 2
    t1, t2 = 0.5, 1.0
    x1, x2 = 0.3, 0.5
    half = 0.22
    n_paths = 200_000
    stream = RngStream(31, 2)
    hits = 0
    chunk = 20_000
    done = 0
    while done < n_paths:
        c = min(chunk, n_paths - done)
        d1 = stream.normal((c, n))
        o1 = stream.complex_normal((c, n * (n - 1) // 2), scale=math.sqrt(t1 / 2))
        dd = stream.normal((c, n))
        oo = stream.complex_normal((c, n * (n - 1) // 2), scale=math.sqrt((t2 - t1) / 2))
        h1 = np.zeros((c, n, n), dtype=complex)
        h1[:, 0, 0] = math.sqrt(t1) * d1[:, 0]
        h1[:, 1, 1] = math.sqrt(t1) * d1[:, 1]
        h1[:, 0, 1] = o1[:, 0]
        h1[:, 1, 0] = np.conj(o1[:, 0])
        h2 = h1.copy()
        h2[:, 0, 0] += math.sqrt(t2 - t1) * dd[:, 0]
        h2[:, 1, 1] += math.sqrt(t2 - t1) * dd[:, 1]
        h2[:, 0, 1] += oo[:, 0]
        h2[:, 1, 0] += np.conj(oo[:, 0])
        l1 = np.linalg.eigvalsh(h1)
        l2 = np.linalg.eigvalsh(h2)
        near1 = np.any(np.abs(l1 - x1) < half, axis=1)
        near2 = np.any(np.abs(l2 - x2) < half, axis=1)
        hits += int(np.sum(near1 & near2))
        done += c
    est = hits / n_paths / (2 * half) ** 2
    se = math.sqrt(hits) / n_paths / (2 * half) ** 2
    rho2 = K.correlation_function(K.hermite_kernel(n), [(t1, x1), (t2, x2)])
    # bin-averaging bias of the box estimator stays within a few percent
    assert abs(est - rho2) <= 3 * se + 0.05 * rho2


def test_correlation_half_line_wall():
    # a point at the wall makes a zero row for nu > -1/2; negative positions raise
    for kern in (K.laguerre_kernel(2, -0.4), K.bessel_hard_kernel(0.5)):
        assert K.correlation_function(kern, [(1.0, 0.0), (1.2, 0.7)]) == 0.0
        with pytest.raises(DomainError):
            K.correlation_function(kern, [(1.0, -0.1), (1.2, 0.7)])
    with pytest.raises(DomainError):
        K.correlation_function(K.laguerre_kernel(2, -0.6), [(1.0, 0.0)])


def test_half_line_grams_take_the_wall_limit():
    # a zero coordinate gives a zero row and column for nu > -1/2 and no 0 * inf
    xs = np.array([0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lag = K.laguerre_kernel(3, -0.4).equal_time_matrix(1.0, xs)
        hard = K.bessel_hard_kernel(-0.4).equal_time_matrix(0.0, xs)
        lag_two = K.laguerre_kernel(3, 0.5).block(1.5, xs, 1.0, np.array([0.0, 0.7]))
    assert np.array_equal(lag[:, 0], [0.0, 0.0]) and np.array_equal(lag[0], [0.0, 0.0])
    assert lag[1, 1] == K.kernel_laguerre(3, -0.4, 1.0, 0.5, 1.0, 0.5)
    assert np.array_equal(hard[:, 0], [0.0, 0.0]) and np.array_equal(hard[0], [0.0, 0.0])
    assert hard[1, 1] == pytest.approx(0.96562405, abs=1e-8)
    assert lag_two[1, 1] == K.kernel_laguerre(3, 0.5, 1.5, 0.5, 1.0, 0.7)
    assert np.all(lag_two[0] == 0.0) and np.all(lag_two[:, 0] == 0.0)
    for kern in (K.laguerre_kernel(3, -0.5), K.bessel_hard_kernel(-0.5)):
        with pytest.raises(DomainError):
            kern.equal_time_matrix(1.0, xs)


def test_bessel_j_at_zero():
    # J_nu(x) ~ (x/2)^nu / Gamma(nu + 1): 1 at nu = 0, 0 above, +inf below
    assert K.bessel_j(0.0, 0.0) == 1.0
    assert K.bessel_j(0.7, 0.0) == 0.0
    assert K.bessel_j(-0.4, 0.0) == math.inf
    assert K.bessel_j(-0.4, 1e-12) > 5e4


def test_laguerre_kernel_wall_values():
    # continuous wall limit for nu > -1/2; singular otherwise
    assert K.kernel_laguerre(2, 0.5, 1.0, 0.0, 1.0, 1.0) == 0.0
    assert K.kernel_laguerre(2, -0.4, 1.0, 1.0, 1.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        K.kernel_laguerre(2, -0.5, 1.0, 0.0, 1.0, 1.0)


def _kernels_gate(name):
    rep = ex.run_suite("kernels", 0)[0]
    return {s["name"]: s["value"] for s in rep.statistics}[name], rep.verdicts[name]


def test_hard_edge_dual_gate_sees_coarse_head_rule(monkeypatch):
    # the head's rule cut from 96 to 12 nodes is off by ~4e-11: the old 1e-6 bound passed it
    exact = K.gl_nodes
    monkeypatch.setattr(K, "gl_nodes", lambda m, a, b: exact(12, a, b))
    value, passed = _kernels_gate("hard_edge_dual")
    assert value <= 1e-6 and not passed


def test_hard_edge_sine_reflection_gate_sees_bessel_j_fault(monkeypatch):
    # J_nu off by 1e-9 relative moves the closed form by ~1e-9: the old 1e-6 bound passed it
    exact = K.bessel_j
    monkeypatch.setattr(K, "bessel_j", lambda nu, x: exact(nu, x) * (1.0 + 1e-9))
    value, passed = _kernels_gate("hard_edge_sine_reflection")
    assert value <= 1e-6 and not passed


@pytest.mark.parametrize("family, name", [("hermite", "hermite_phi_sequence"),
                                          ("laguerre", "laguerre_phi_sequence")])
def test_kernel_identity_gates_see_scaled_functions(family, name, monkeypatch):
    # phi_k off by 1e-10 relative moves the trace by ~1e-9 and the reproducing
    # residual by ~1e-10: the old 1e-8 bounds passed both
    exact = getattr(K, name)
    monkeypatch.setattr(K, name, lambda *args: exact(*args) * (1.0 + 1e-10))
    rep = ex.run_suite("kernels", 0)[0]
    values = {s["name"]: s["value"] for s in rep.statistics}
    for gate in (f"{family}_trace", f"{family}_reproducing"):
        assert values[gate] <= 1e-8 and not rep.verdicts[gate], gate
