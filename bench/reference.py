"""Independent reference values for the benchmark's output checks.

Everything here is built from numpy and scipy only and shares no code with
``noncollide``: Airy functions come from ``scipy.special.airy``, Hermite
polynomials from ``scipy.special.eval_hermite``, and every Fredholm
determinant is a Nystrom discretization on a Gauss-Legendre rule
(Bornemann, Math. Comp. 79 (2010) 871-915), with the kernel written in its
closed form.  ``test_reference.py`` checks these against literature values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import airy, erf, eval_hermite, gammaln


def _gl(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _nystrom_det(kernel, a: float, b: float, m: int) -> float:
    """det(I - K) on L^2(a, b) by the symmetric Nystrom matrix."""
    x, w = _gl(m, a, b)
    rw = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - rw[:, None] * kernel(x, x) * rw[None, :]))


def airy_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y), with diagonal Ai'(x)^2 - x Ai(x)^2."""
    ai_x, aip_x, _, _ = airy(x)
    ai_y, aip_y, _, _ = airy(y)
    num = ai_x[:, None] * aip_y[None, :] - aip_x[:, None] * ai_y[None, :]
    d = x[:, None] - y[None, :]
    same = d == 0.0
    diag = np.broadcast_to((aip_x**2 - x * ai_x**2)[:, None], d.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(same, diag, num / np.where(same, 1.0, d))


def tracy_widom_cdf(s: float, m: int = 100) -> float:
    """F_2(s) = det(I - K_Airy) on L^2(s, inf).

    The interval is cut at max(s, 0) + 14, where the kernel diagonal is
    below 1e-30.
    """
    return _nystrom_det(airy_kernel, s, max(s, 0.0) + 14.0, m)


def tracy_widom_moments(m_quad: int = 80) -> tuple[float, float]:
    """(mean, variance) of TW_2 from E X = int_0^inf (1 - F) - int_-inf^0 F
    and E X^2 = int_0^inf 2x (1 - F) + int_-inf^0 2|x| F, cut at -12 and 10."""
    xn, wn = _gl(m_quad, -12.0, 0.0)
    xp, wp = _gl(m_quad, 0.0, 10.0)
    fn = np.array([tracy_widom_cdf(v) for v in xn])
    fp = np.array([tracy_widom_cdf(v) for v in xp])
    mean = float(wp @ (1.0 - fp) - wn @ fn)
    second = float(wp @ (2.0 * xp * (1.0 - fp)) + wn @ (2.0 * np.abs(xn) * fn))
    return mean, second - mean * mean


def hermite_functions(n: int, u: np.ndarray) -> np.ndarray:
    """phi_0..phi_{n-1} at u, shape (n, len(u)): H_k(u) e^{-u^2/2} / sqrt(2^k k! sqrt(pi))."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    k = np.arange(n)[:, None]
    log_norm = 0.5 * (k * math.log(2.0) + gammaln(k + 1.0) + 0.5 * math.log(math.pi))
    return eval_hermite(k, u[None, :]) * np.exp(-0.5 * u[None, :] ** 2 - log_norm)


def hermite_kernel(n: int, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Equal-time kernel K_N(t; x, y) of N noncolliding Brownian motions from 0.

    It is the GUE kernel for the weight exp(-x^2 / 2t):
    (1 / sqrt(2t)) sum_{k<N} phi_k(x / sqrt(2t)) phi_k(y / sqrt(2t)).
    """
    c = math.sqrt(2.0 * t)
    return hermite_functions(n, np.asarray(x) / c).T @ hermite_functions(n, np.asarray(y) / c) / c


def hermite_density(n: int, t: float, x) -> np.ndarray:
    """One-point density K_N(t; x, x); it integrates to N."""
    phi = hermite_functions(n, np.asarray(x, dtype=float) / math.sqrt(2.0 * t))
    return np.sum(phi * phi, axis=0) / math.sqrt(2.0 * t)


def rightmost_cdf(n: int, t: float, alpha: float, m: int = 120) -> float:
    """P(all N particles <= alpha) = det(I - K_N) on L^2(alpha, inf)."""
    b = max(alpha, 0.0) + 12.0 * math.sqrt(t) + 2.0 * math.sqrt(2.0 * n * t)
    return _nystrom_det(lambda x, y: hermite_kernel(n, t, x, y), alpha, b, m)


def sine_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sin(x - y) / (pi (x - y)), density 1/pi."""
    return np.sinc((x[:, None] - y[None, :]) / math.pi) / math.pi


def sine_gap(a: float, m: int = 60) -> float:
    """P(no point of the sine process in (-a, a))."""
    return _nystrom_det(sine_kernel, -a, a, m)


def sine_gap_small(s: float) -> float:
    """Small-s expansion of E_2(0; s) for a gap of s mean spacings (Mehta)."""
    p2 = math.pi**2
    return 1.0 - s + p2 * s**4 / 36.0 - p2**2 * s**6 / 675.0 + p2**3 * s**8 / 17640.0


def bm_matrix(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(t, y_j | x_i) = exp(-(y_j - x_i)^2 / 2t) / sqrt(2 pi t)."""
    d = np.asarray(y)[None, :] - np.asarray(x)[:, None]
    return np.exp(-d * d / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def karlin_mcgregor(t: float, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(det[G(t, y_j | x_i)], Hadamard bound prod_i ||row_i||) for the absolute tolerance."""
    g = bm_matrix(t, x, y)
    return float(np.linalg.det(g)), float(np.prod(np.linalg.norm(g, axis=1)))


def survival_pair(t: float, gap: float) -> float:
    """P(two Brownian motions started gap apart do not meet by t) = erf(gap / 2 sqrt t)."""
    return float(erf(gap / (2.0 * math.sqrt(t))))


def harish_chandra_rhs(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Haar average of exp(-tr(X - U Y U*)^2 / 2 sigma^2) over U(N), in closed form:
    prod_{p<N} p! * sigma^{N(N-1)} det[exp(-(x_i - y_j)^2 / 2 sigma^2)] / (Delta(x) Delta(y))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    iu = np.triu_indices(n, 1)
    delta_x = np.prod(x[iu[1]] - x[iu[0]])
    delta_y = np.prod(y[iu[1]] - y[iu[0]])
    e = np.exp(-((x[:, None] - y[None, :]) ** 2) / (2.0 * sigma * sigma))
    pref = math.exp(sum(math.lgamma(p + 1.0) for p in range(1, n)))
    return float(pref * sigma ** (n * (n - 1)) * np.linalg.det(e) / (delta_x * delta_y))
