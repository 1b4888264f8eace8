"""Finite-N extended correlation kernels, their scaling limits, and the
special functions they need.

The special functions are implemented in-repo (series, asymptotic
expansions, and for Ai a Taylor table of the Airy equation between its two
expansions) so the kernel module stays dependency-free and bit-stable.
Orthonormal Hermite/Laguerre sequences run a scaled two-term recurrence
with a per-column log offset, which keeps the deep-tail values correct
far beyond the naive underflow point of the seed term.

All five extended kernels have one batched construction,
(s, xs, t, ys) -> (len xs, len ys): a head, a weighted sum of feature
products (the eigenfunctions for Hermite and Laguerre, a Gauss-Legendre
rule for the defining integral of the sine, Airy and hard-edge limits),
minus, for s > t, a gauge factor times the one-particle transition
density, the whole series or integral in closed form (Eynard-Mehta).
At s = t the limit kernels use their closed forms.  Scalar evaluations,
equal-time Grams and multi-time correlation functions all use it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._quad import gl_nodes
from .densities1d import log_bessel_density, log_bm_density
from .errors import AccuracyLossWarning, DomainError

__all__ = [
    "hermite_phi",
    "hermite_phi_sequence",
    "laguerre_phi",
    "laguerre_phi_sequence",
    "airy_ai",
    "airy_ai_prime",
    "bessel_j",
    "bessel_j_prime",
    "ExtendedKernel",
    "hermite_kernel",
    "laguerre_kernel",
    "sine_kernel",
    "airy_kernel",
    "bessel_hard_kernel",
    "kernel_hermite",
    "kernel_laguerre",
    "kernel_sine",
    "kernel_airy",
    "kernel_bessel_hard",
    "correlation_function",
]


# ---------------------------------------------------------------------------
# orthonormal Hermite functions
# ---------------------------------------------------------------------------

def _scaled_recurrence(n_max: int, offset: np.ndarray, p_prev: np.ndarray,
                       p_cur: np.ndarray, step: Callable) -> np.ndarray:
    """Rows p_0..p_n_max of a three-term recurrence times exp(offset); p_cur is
    p_1 and step(n, p_n, p_{n-1}) gives p_{n+1}.  Any |p| > 1e250 moves into
    the per-column log offset, so values stay correct far beyond the point
    where the seed exp(offset) alone would underflow."""
    out = np.empty((n_max + 1, len(offset)))
    out[0] = p_prev * np.exp(offset)
    if n_max == 0:
        return out
    out[1] = p_cur * np.exp(offset)
    for n in range(1, n_max):
        p_prev, p_cur = p_cur, step(n, p_cur, p_prev)
        big = np.abs(p_cur) > 1e250
        if big.any():
            scale = np.where(big, np.abs(p_cur), 1.0)
            p_cur = p_cur / scale
            p_prev = p_prev / scale
            offset = offset + np.log(scale)
        out[n + 1] = p_cur * np.exp(offset)
    return out


def hermite_phi_sequence(n_max: int, x) -> np.ndarray:
    """phi_0..phi_n_max at the points x; shape (n_max+1, len(x)), with the
    Gaussian seed carried as the log offset of :func:`_scaled_recurrence`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p0 = np.full_like(x, math.pi ** -0.25)
    return _scaled_recurrence(
        n_max, -0.5 * x * x, p0, math.sqrt(2.0) * x * p0,
        lambda n, p, q: math.sqrt(2.0 / (n + 1.0)) * x * p - math.sqrt(n / (n + 1.0)) * q)


def hermite_phi(n: int, x: float) -> float:
    """Orthonormal Hermite function phi_n(x)."""
    if n < 0:
        raise DomainError("n >= 0 required")
    return float(hermite_phi_sequence(n, [x])[n, 0])


# ---------------------------------------------------------------------------
# orthonormal Laguerre functions
# ---------------------------------------------------------------------------

def laguerre_phi_sequence(n_max: int, nu: float, x) -> np.ndarray:
    """phi^nu_0..phi^nu_n_max at x >= 0; shape (n_max+1, len(x))."""
    if not nu > -1.0:
        raise DomainError(f"nu must be > -1, got {nu}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise DomainError("x must be nonnegative")
    # x = 0 limit of the x^(nu/2) prefactor: 1 at nu = 0, 0 / +inf otherwise
    at_zero = -np.inf if nu > 0.0 else (np.inf if nu < 0.0 else 0.0)
    offset = np.full_like(x, at_zero)
    pos = x > 0.0
    offset[pos] = 0.5 * nu * np.log(x[pos]) - 0.5 * x[pos] - 0.5 * math.lgamma(nu + 1.0)
    # L_1^nu(x) = 1 + nu - x, normalized
    return _scaled_recurrence(
        n_max, offset, np.ones_like(x), (1.0 + nu - x) / math.sqrt(1.0 + nu),
        lambda n, p, q: (2.0 * n + 1.0 + nu - x) / math.sqrt((n + 1.0) * (n + 1.0 + nu)) * p
        - math.sqrt(n * (n + nu) / ((n + 1.0) * (n + 1.0 + nu))) * q)


def laguerre_phi(n: int, nu: float, x: float) -> float:
    """Orthonormal Laguerre function phi^nu_n(x) on the half-line."""
    if n < 0:
        raise DomainError("n >= 0 required")
    return float(laguerre_phi_sequence(n, nu, [x])[n, 0])


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------

def _airy_u_coeffs(n: int) -> tuple[np.ndarray, np.ndarray]:
    u, v = np.ones(n), np.ones(n)
    for k in range(n - 1):
        u[k + 1] = u[k] * (6 * k + 5.0) * (6 * k + 3.0) * (6 * k + 1.0) / (
            216.0 * (2 * k + 1.0) * (k + 1.0))
        v[k + 1] = -u[k + 1] * (6 * k + 7.0) / (6 * k + 5.0)
    return u, v


_AIRY_U, _AIRY_V = _airy_u_coeffs(20)
_AIRY_UV = np.stack([_AIRY_U, _AIRY_V], axis=1)


def _airy_negative(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') for x <= ~-7 via the oscillatory asymptotic expansion."""
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    inv = 1.0 / zeta
    even_u, odd_u, even_v, odd_v = (np.zeros_like(z) for _ in range(4))
    for k in range(0, 10):
        s = (-1.0) ** k
        even_u += s * _AIRY_U[2 * k] * inv ** (2 * k)
        odd_u += s * _AIRY_U[2 * k + 1] * inv ** (2 * k + 1)
        even_v += s * _AIRY_V[2 * k] * inv ** (2 * k)
        odd_v += s * _AIRY_V[2 * k + 1] * inv ** (2 * k + 1)
    phase = zeta - 0.25 * math.pi
    c, s_ = np.cos(phase), np.sin(phase)
    ai = (c * even_u + s_ * odd_u) / (math.sqrt(math.pi) * z**0.25)
    aip = (s_ * even_v - c * odd_v) * z**0.25 / math.sqrt(math.pi)
    return ai, aip


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, with Veltkamp's
    split of each factor into 26-bit halves)."""
    ah, bh = (134217729.0 * v - (134217729.0 * v - v) for v in (a, b))
    al, bl, p = a - ah, b - bh, a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _airy_decaying(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') for x >= 10: e^-zeta (2 sqrt(pi))^-1 times x^-1/4 sum (-1)^k u_k
    zeta^-k and -x^1/4 sum (-1)^k v_k zeta^-k.  As e^-zeta turns the absolute
    error of zeta = (2/3) x^3/2 into a relative one (1e-13 at x = 100 were it
    rounded), zeta + lo is exact to double precision by exact products."""
    r = np.sqrt(x)
    p, p_err = _two_prod(x, r)
    sq, sq_err = _two_prod(r, r)
    lo32 = p_err + x * ((x - sq) - sq_err) / (2.0 * r)  # x^3/2 = p + lo32
    zeta = 2.0 * p / 3.0
    q = 2.0 * zeta + zeta
    q_err = zeta - (q - 2.0 * zeta)  # Fast2Sum: 3 zeta = q + q_err exactly
    lo = ((2.0 * p - q) - q_err + 2.0 * lo32) / 3.0
    with np.errstate(under="ignore"):
        scale = np.exp(-zeta) * (1.0 - lo) / (2.0 * math.sqrt(math.pi))
    su, sv = (np.vander(-1.0 / zeta, len(_AIRY_U), increasing=True) @ _AIRY_UV).T
    q4 = np.sqrt(r)
    return scale * su / q4, -scale * q4 * sv


_AIRY_LO, _AIRY_HI, _AIRY_STEP, _AIRY_DEG = -12.0, 10.0, 0.25, 22  # the Taylor table


def _airy_taylor_table() -> np.ndarray:
    """Coefficients a_0.._AIRY_DEG of Ai about c_j = _AIRY_LO + j _AIRY_STEP, by
    rows.  Ai'' = x Ai gives a_2 = c a_0 / 2 and a_{k+2} = (c a_k + a_{k-1}) /
    ((k+1)(k+2)).  The last row starts from :func:`_airy_decaying`; each row at
    d = -_AIRY_STEP starts the one before.  Leftward Ai grows and Bi decays, so
    the stepping is stable (Gil, Segura & Temme, Numerical Methods for Special
    Functions, SIAM 2007, ch. 9)."""
    tab = np.empty((round((_AIRY_HI - _AIRY_LO) / _AIRY_STEP) + 1, _AIRY_DEG + 1))
    ai, aip = (float(v[0]) for v in _airy_decaying(np.array([_AIRY_HI])))
    for j in range(len(tab) - 1, -1, -1):
        c = _AIRY_LO + _AIRY_STEP * j
        a = [ai, aip, c * ai / 2.0]
        for k in range(1, _AIRY_DEG - 1):
            a.append((c * a[k] + a[k - 1]) / ((k + 1.0) * (k + 2.0)))
        tab[j] = a
        ai = np.polyval(tab[j, ::-1], -_AIRY_STEP)
        aip = np.polyval((tab[j, 1:] * np.arange(1.0, _AIRY_DEG + 1))[::-1], -_AIRY_STEP)
    return tab


_AIRY_TAB = _airy_taylor_table()
_AIRY_DTAB = _AIRY_TAB[:, 1:] * np.arange(1.0, _AIRY_DEG + 1)  # the coefficients of Ai'


def _airy_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') on [_AIRY_LO, _AIRY_HI] from the nearest centre, |d| <= 1/8."""
    j = np.rint((x - _AIRY_LO) / _AIRY_STEP).astype(np.intp)
    powers = np.vander(x - (_AIRY_LO + _AIRY_STEP * j), _AIRY_DEG + 1, increasing=True)
    return (powers * _AIRY_TAB[j]).sum(axis=1), (powers[:, :-1] * _AIRY_DTAB[j]).sum(axis=1)


def _airy_both(x) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai'): :func:`_airy_negative` below _AIRY_LO, the Taylor table
    on [_AIRY_LO, _AIRY_HI], :func:`_airy_decaying` above it.  An argument
    of two or more dimensions is evaluated flat and reshaped."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1:
        ai, aip = _airy_both(x.ravel())
        return ai.reshape(x.shape), aip.reshape(x.shape)
    lo, hi = np.fmin.reduce(x, initial=np.inf), np.fmax.reduce(x, initial=-np.inf)
    if lo < -1e3 or hi > 1e3:
        raise DomainError("|x| <= 1e3 supported")
    if lo < -500.0:
        digits = 16 - math.log10((2.0 / 3.0) * (-lo) ** 1.5)
        warnings.warn(f"deep oscillation: ~{digits:.1f} digits delivered for x < -500",
                      AccuracyLossWarning)
    if not np.isnan(x).any():  # one branch covering every point takes them all
        for branch, covers in ((_airy_table, _AIRY_LO <= lo and hi <= _AIRY_HI),
                               (_airy_negative, hi < _AIRY_LO), (_airy_decaying, lo > _AIRY_HI)):
            if covers:
                return branch(x)
    ai, aip = np.full_like(x, np.nan), np.full_like(x, np.nan)
    for part, branch in ((x < _AIRY_LO, _airy_negative), (x > _AIRY_HI, _airy_decaying),
                         ((x >= _AIRY_LO) & (x <= _AIRY_HI), _airy_table)):
        if part.any():
            ai[part], aip[part] = branch(x[part])
    return ai, aip


def airy_ai(x):
    """Airy function Ai(x), |x| <= 1e3.  Against 30-digit values Ai and Ai' are
    within 1e-15 absolute on [-12, 0] and relative on (0, 100].  Below -12 the
    rounded phase (2/3)|x|^3/2 dominates: 4.1e-15 for Ai and 2.3e-14 for Ai' on
    [-30, -12], growing like |x|^5/4 eps and |x|^7/4 eps (a warning below -500)."""
    ai, _ = _airy_both(x)
    return ai if np.ndim(x) else float(ai[0])


def airy_ai_prime(x):
    """Derivative Ai'(x), as :func:`airy_ai`."""
    _, aip = _airy_both(x)
    return aip if np.ndim(x) else float(aip[0])


def _near_pairs(xs: np.ndarray, ys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs |xs_i - ys_j| < tol, leaving out the
    diagonal of a Gram (ys is xs), by a sweep over the sorted ys that builds no
    len(xs) x len(ys) array."""
    gram = ys is xs
    order = np.argsort(ys)
    lo = np.searchsorted(ys[order], xs - 2.0 * tol)
    count = np.searchsorted(ys[order], xs + 2.0 * tol, side="right") - lo
    if count.max(initial=0) <= gram:  # a Gram row's one candidate is its diagonal
        return lo[:0], lo[:0]
    i = np.repeat(np.arange(len(xs)), count)
    j = order[np.arange(len(i)) + np.repeat(lo - np.cumsum(count) + count, count)]
    keep = np.abs(xs[i] - ys[j]) < tol
    if gram:
        keep &= i != j
    return i[keep], j[keep]


def _airy_closed(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Equal-time Airy kernel K(x_i, y_j) from the integrable form
    (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y), diagonal Ai'(x)^2 - x Ai(x)^2.

    Where |x - y| < 2e-3 the quotient would amplify the ~1e-15 error of Ai and
    Ai' by 1 / |x - y|, so the entry is the quartic Taylor polynomial in
    d = x - y about y (Ai'' = x Ai gives each coefficient from Ai and Ai' at y).
    A Gram (ys is xs) writes its diagonal directly, the quartic's value at
    d = 0.  Against 40-digit values on -12 <= x, y <= 8 the error is <= 1e-15
    for pairs 1e-2 apart or more and <= 1.2e-14 closer, where quotient and
    quartic meet.  A Nystrom determinant so needs Ai and Ai' at its nodes only
    (Bornemann, Math. Comp. 79 (2010) 871-915).
    """
    ai, aip = _airy_both(xs)
    ai_y, aip_y = (ai, aip) if ys is xs else _airy_both(ys)
    d = xs[:, None] - ys
    i, j = _near_pairs(xs, ys, 2e-3)
    d[i, j] = 1.0
    if ys is xs:
        d.flat[:: len(xs) + 1] = 1.0
    out = np.multiply.outer(ai, aip_y)
    out -= np.multiply.outer(aip, ai_y)
    out /= d
    if ys is xs:
        out.flat[:: len(xs) + 1] = aip * aip - xs * (ai * ai)
    if not len(i):
        return out
    d, f, fp, y = xs[i] - ys[j], ai_y[j], aip_y[j], ys[j]
    ff, fpfp, ffp = f * f, fp * fp, f * fp
    out[i, j] = (fpfp - y * ff - d * ff / 2.0
                 + d**2 * (y * fpfp - ffp - y * y * ff) / 6.0
                 + d**3 * (fpfp - 2.0 * y * ff) / 12.0
                 + d**4 * (y * y * fpfp - 2.0 * y * ffp - 4.0 * ff - y**3 * ff) / 120.0)
    return out


# ---------------------------------------------------------------------------
# Bessel function of the first kind
# ---------------------------------------------------------------------------

def _bessel_j_series(nu: float, x: np.ndarray) -> np.ndarray:
    term = np.exp(nu * np.log(x / 2.0) - math.lgamma(nu + 1.0))
    total = term.copy()
    q = -(x * x) / 4.0
    for k in range(200):
        term = term * q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-280)):
            break
    return total


def _bessel_j_asym(nu: float, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.full_like(x, (mu - 1.0) / 8.0) / x
    term = np.full_like(x, (mu - 1.0) / 8.0) / x
    sign = -1.0
    for k in range(2, 30):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        if k % 2 == 0:
            p += sign * term
        else:
            q += sign * term
            sign = -sign
    omega = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)


def bessel_j(nu: float, x):
    """Bessel function J_nu(x), nu > -1, 0 <= x <= 1e3: the power series up to
    x = 14, the Hankel asymptotic expansion above.  Against 30-digit values at
    nu in [-0.9, 10]: relative 1.8e-15 below x = 0.5, absolute 1.1e-13 on
    [0.5, 10] and 2.6e-15 on [30, 500].  The alternating series cancels as x
    nears the switch, up to 5.2e-12 just below 14 (the expansion just above
    it: 1.6e-14, 4.9e-13 at nu = 10)."""
    if not nu > -1.0:
        raise DomainError("nu > -1 required")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0) or np.any(x_arr > 1e3):
        raise DomainError("0 <= x <= 1e3 supported")
    if np.any(x_arr > 500.0):
        warnings.warn(
            "deep oscillation: reduced digits for x > 500", AccuracyLossWarning
        )
    out = np.empty_like(x_arr)
    zero = x_arr == 0.0
    if zero.any():
        out[zero] = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
    small = (~zero) & (x_arr <= 14.0)
    if small.any():
        out[small] = _bessel_j_series(nu, x_arr[small])
    large = x_arr > 14.0
    if large.any():
        out[large] = _bessel_j_asym(nu, x_arr[large])
    return out if np.ndim(x) else float(out[0])


def bessel_j_prime(nu: float, x):
    """J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0.0):
        raise DomainError("x > 0 required for the derivative identity")
    out = (nu / x_arr) * bessel_j(nu, x_arr) - bessel_j(nu + 1.0, x_arr)
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# extended kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedKernel:
    """Extended correlation kernel K(s, x; t, y) of one family.

    ``block(s, xs, t, ys)`` is the primary form, the matrix K(s, xs_i; t, ys_j)
    for 1-d float arrays.  ``evaluate`` is its scalar entry with the family's
    domain checks and ``equal_time_matrix(t, xs)`` the Gram block(t, xs, t, xs).
    A finite-rank family also has ``factor(t, xs)``, a fresh (rank, len xs)
    matrix F with ``equal_time_matrix(t, xs) = F.T @ F`` to rounding, which
    :func:`noncollide.fredholm.fredholm_det` uses; only the Hermite kernel
    has one, every other family has None.
    """

    block: Callable[[float, np.ndarray, float, np.ndarray], np.ndarray]
    evaluate: Callable[[float, float, float, float], float]
    equal_time_matrix: Callable[[float, np.ndarray], np.ndarray]
    domain: str  # "line" or "halfline"
    factor: Optional[Callable[[float, np.ndarray], np.ndarray]] = None


def _head_sum(features: Callable, weights, xa: np.ndarray, ya: np.ndarray, same: bool):
    """sum_k weights_k f_k(xa_i) f_k(ya_j), where features(v) has one row per k;
    no weights means ones, and then f.T @ f, exactly symmetric, if same."""
    fx = features(xa)
    fy = fx if same else features(ya)
    if weights is not None:
        fx = fx * weights[:, None]
    return fx.T @ fy


def _hermite_block(n: int, s: float, xs: np.ndarray, t: float, ys: np.ndarray) -> np.ndarray:
    """K_N(s, x_i; t, y_j) of the noncolliding BM, shape (len xs, len ys).

    The head sum over phi_k(x / sqrt 2s) phi_k(y / sqrt 2t) with weights
    r^k, r = sqrt(t/s), is the whole kernel for s <= t.  For s > t the kernel
    is the head minus the full sum (Eynard-Mehta), which Mehler's formula
    makes the gauge exp(x^2/4s - y^2/4t) times the Brownian density
    p(s - t, y | x).
    """
    r = math.sqrt(t / s)
    out = _head_sum(lambda u: hermite_phi_sequence(n - 1, u),
                    None if r == 1.0 else r ** np.arange(n), xs / math.sqrt(2.0 * s),
                    ys / math.sqrt(2.0 * t), s == t and ys is xs)
    out /= math.sqrt(2.0 * s)
    if s > t:
        xc, yr = xs[:, None], ys[None, :]
        out -= np.exp(xc * xc / (4.0 * s) - yr * yr / (4.0 * t)
                      + log_bm_density(s - t, yr, xc))
    return out


def _laguerre_block(
    n: int, nu: float, s: float, xs: np.ndarray, t: float, ys: np.ndarray
) -> np.ndarray:
    """K^(nu)_N(s, x_i; t, y_j) of the Bessel system, shape (len xs, len ys).

    As :func:`_hermite_block`, with phi^nu_k at x^2/2s and y^2/2t, r = t/s
    and the factor sqrt(x y) / s.  For s > t the Hille-Hardy formula makes
    the full sum exp((nu + 1/2) log(x/y) + (nu/2) log(s/t) + x^2/4s - y^2/4t)
    times the Bessel density p^(nu)(s - t, y | x).  Zero coordinates take
    :func:`_wall_limit`.
    """
    if np.any(xs == 0.0) or np.any(ys == 0.0):
        return _wall_limit(nu, partial(_laguerre_block, n, nu), s, xs, t, ys)
    r = t / s
    out = _head_sum(lambda u: laguerre_phi_sequence(n - 1, nu, u),
                    None if r == 1.0 else r ** np.arange(n), xs * xs / (2.0 * s),
                    ys * ys / (2.0 * t), s == t and ys is xs)
    out *= np.outer(np.sqrt(np.maximum(xs, 0.0)), np.sqrt(np.maximum(ys, 0.0)))
    out /= s
    if s > t:
        xc, yr = xs[:, None], ys[None, :]
        log_gauge = ((nu + 0.5) * np.log(xc / yr) + 0.5 * nu * math.log(s / t)
                     + xc * xc / (4.0 * s) - yr * yr / (4.0 * t))
        out -= np.exp(log_gauge + log_bessel_density(nu, s - t, yr, xc))
    return out


def _wall_limit(nu: float, block: Callable, s: float, xs: np.ndarray, t: float,
                ys: np.ndarray) -> np.ndarray:
    """A half-line block with zero coordinates.  Its features carry the factor
    x^(nu + 1/2), so rows and columns at x = 0 are the wall limit 0 for
    nu > -1/2; the others come from block with the zeros moved to 1, which
    leaves them bit for bit as they were.  nu <= -1/2 raises."""
    if not nu > -0.5:
        raise DomainError("kernel singular at the wall for nu <= -1/2")
    wx, wy = xs == 0.0, ys == 0.0
    inner = np.where(wx, 1.0, xs)
    out = block(s, inner, t, inner if ys is xs else np.where(wy, 1.0, ys))
    out[wx] = 0.0
    out[:, wy] = 0.0
    return out


def _sine_block(s: float, xs: np.ndarray, t: float, ys: np.ndarray) -> np.ndarray:
    """Sine kernel K(s, x_i; t, y_j): sin(x - y) / pi(x - y) at s = t, else the
    head (1/pi) int_0^1 e^{(t-s)u^2/2} cos(u(x - y)) du, a Gauss-Legendre sum
    over cos(ux), sin(ux) with more nodes as |x - y| and |t - s| grow, minus,
    for s > t, the integral over (0, inf), the heat kernel p(s - t, y | x)."""
    if s == t:
        d = xs[:, None] - ys[None, :]
        with np.errstate(invalid="ignore"):
            return np.where(d != 0.0, np.sin(d) / (math.pi * d), 1.0 / math.pi)
    reach = np.max(np.abs(xs), initial=0.0) + np.max(np.abs(ys), initial=0.0)
    u, w = gl_nodes(24 + math.ceil(0.5 * reach + abs(t - s)), 0.0, 1.0)
    out = _head_sum(lambda v: np.vstack([np.cos(np.outer(u, v)), np.sin(np.outer(u, v))]),
                    np.tile(w * np.exp((t - s) * u * u / 2.0) / math.pi, 2), xs, ys, False)
    if s > t:
        out -= np.exp(log_bm_density(s - t, ys[None, :], xs[:, None]))
    return out


def _airy_block(s: float, xs: np.ndarray, t: float, ys: np.ndarray) -> np.ndarray:
    """Airy kernel K(s, x_i; t, y_j): :func:`_airy_closed` at s = t, else the head
    int_0^inf e^{c lam} Ai(x + lam) Ai(y + lam) dlam, c = (s - t)/2, a
    Gauss-Legendre sum over Ai(x + lam), minus, for s > t, the integral over
    the whole line, by the Vallee-Soares formula the gauge
    exp(c^3/12 - c(x + y)/2) times the heat kernel p(s - t, y | x).

    With z0 = min(x, y, 0), Ai(z)^2 < e^{-4 z^{3/2}/3} puts the cut where
    (4/3)(z0 + cut)^{3/2} - c cut passes 45; the node count grows with the
    cut and with the phase (2/3)|z0|^{3/2} of Ai on [z0, 0].
    """
    if s == t:
        return _airy_closed(xs, ys)
    c = 0.5 * (s - t)
    z0, z = min(np.min(xs, initial=0.0), np.min(ys, initial=0.0)), 10.4
    while 4.0 / 3.0 * z**1.5 - c * (z - z0) < 45.0:
        z *= 1.25
    lam, w = gl_nodes(24 + 2 * math.ceil(z - z0) + math.ceil(0.5 * (-z0) ** 1.5), 0.0, z - z0)
    out = _head_sum(lambda v: _airy_both(np.add.outer(lam, v))[0], w * np.exp(c * lam),
                    xs, ys, False)
    if s > t:
        xc, yr = xs[:, None], ys[None, :]
        out -= np.exp(c**3 / 12.0 - c * (xc + yr) / 2.0 + log_bm_density(s - t, yr, xc))
    return out


def _hard_edge_head(nu: float, dt: float, xs: np.ndarray, ys: np.ndarray,
                    pairs: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """sqrt(x_i y_j) int_0^2 e^{dt u^2/2} J_nu(u x_i) u J_nu(u y_j) du, batched;
    given index arrays pairs = (i, j), only those entries, as a vector.

    The integrand behaves like u^{2 nu + 1} at 0.  The substitution
    u = 2 w^p makes it w^{p(2 nu + 2) - 1}; p = ceil(4 nu + 4) / (2 nu + 2)
    is the smallest p >= 2 that makes this power an integer.  p >= 2 keeps
    the nodes spread over u, where a small power for large nu would crowd
    them into w ~ 0.  96 nodes in w resolve the oscillation of
    J_nu(ux) J_nu(uy) up to x + y = 48 and 2(x + y) nodes past it.
    """
    p = math.ceil(4.0 * nu + 4.0) / (2.0 * nu + 2.0)
    reach = np.max(xs, initial=0.0) + np.max(ys, initial=0.0)
    w, wq = gl_nodes(max(96, 2 * math.ceil(reach)), 0.0, 1.0)
    u = 2.0 * w**p
    weights = wq * np.exp(dt * u * u / 2.0) * u * 2.0 * p * w ** (p - 1.0)

    def features(v):
        return bessel_j(nu, np.outer(u, v)) * np.sqrt(v)

    if pairs is None:
        return _head_sum(features, weights, xs, ys, ys is xs)
    i, j = pairs
    pts, inv = np.unique(np.concatenate((xs[i], ys[j])), return_inverse=True)
    f = features(pts)
    return weights @ (f[:, inv[: len(i)]] * f[:, inv[len(i):]])


def _hard_edge_closed(nu: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Equal-time hard-edge kernel K(x_i, y_j) = 2 sqrt(xy) [J_nu(2x) y J'_nu(2y) -
    J_nu(2y) x J'_nu(2x)] / (x^2 - y^2) for x, y > 0, Bessel functions at the
    m + n points only (m for a Gram, ys is xs).  The pairs with |x - y| < 1e-4,
    a Gram's diagonal among them, take the head at dt = 0 at those pairs only."""
    def j_and_prime(v):  # J_nu(2v) and J'_nu(2v) as bessel_j_prime forms it
        j = bessel_j(nu, 2.0 * v)
        return j, (nu / (2 * v)) * j - bessel_j(nu + 1.0, 2 * v)

    jx, dx = j_and_prime(xs)
    jy, dy = (jx, dx) if ys is xs else j_and_prime(ys)
    x, y = xs[:, None], ys[None, :]
    num = jx[:, None] * y * dy[None, :] - jy[None, :] * x * dx[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * np.sqrt(x * y) * num / (x * x - y * y)
    i, j = _near_pairs(xs, ys, 1e-4)
    if ys is xs:
        diag = np.arange(len(xs))
        i, j = np.concatenate((diag, i)), np.concatenate((diag, j))
    if len(i):
        out[i, j] = _hard_edge_head(nu, 0.0, xs, ys, (i, j))
    return out


def _hard_edge_block(nu: float, s: float, xs: np.ndarray, t: float, ys: np.ndarray) -> np.ndarray:
    """Hard-edge kernel K(s, x_i; t, y_j): :func:`_hard_edge_closed` at s = t, else
    the head at dt = t - s minus, for s > t, the integral over u in (0, inf),
    by Weber's formula the gauge (x/y)^(nu + 1/2) times the Bessel density
    p^(nu)(s - t, y | x).  Zero coordinates take :func:`_wall_limit`."""
    if np.any(xs == 0.0) or np.any(ys == 0.0):
        return _wall_limit(nu, partial(_hard_edge_block, nu), s, xs, t, ys)
    if s == t:
        return _hard_edge_closed(nu, xs, ys)
    out = _hard_edge_head(nu, t - s, xs, ys)
    if s > t:
        xc, yr = xs[:, None], ys[None, :]
        out -= np.exp((nu + 0.5) * np.log(xc / yr) + log_bessel_density(nu, s - t, yr, xc))
    return out


def _at(block: Callable, s: float, x: float, t: float, y: float) -> float:
    return float(block(s, np.array([float(x)]), t, np.array([float(y)]))[0, 0])


def kernel_hermite(n: int, s: float, x: float, t: float, y: float) -> float:
    """Extended Hermite kernel K_N(s, x; t, y) of the noncolliding BM.

    For s > t the value is a difference of two terms, so its error is
    absolute, which is what a Fredholm determinant needs: <= 1e-13 for
    N <= 30 and 0.02 <= t/s <= 0.999.  Near x = y it grows with the
    subtracted density as s comes down to t (4e-12 at t/s = 1 - 1e-7).
    """
    if not (s > 0.0 and t > 0.0):
        raise DomainError("s, t > 0 required")
    return _at(partial(_hermite_block, n), s, x, t, y)


def kernel_laguerre(n: int, nu: float, s: float, x: float, t: float, y: float) -> float:
    """Extended Laguerre kernel K^(nu)_N(s, x; t, y) of the Bessel system.

    For s > t the error is absolute, as for :func:`kernel_hermite`, with
    the same bounds at -1 < nu <= 40.
    """
    if not (s > 0.0 and t > 0.0):
        raise DomainError("s, t > 0 required")
    if x < 0.0 or y < 0.0:
        raise DomainError("x, y >= 0 required")
    return _at(partial(_laguerre_block, n, nu), s, x, t, y)


def kernel_sine(s: float, x: float, t: float, y: float) -> float:
    """Bulk-limit sine kernel, :func:`_sine_block`.  For s != t the error is
    absolute, as for :func:`kernel_hermite`: <= 1e-13 for -3 <= x, y <= 2 and
    0.05 <= |s - t| <= 1.5."""
    return _at(_sine_block, s, x, t, y)


def kernel_airy(s: float, x: float, t: float, y: float) -> float:
    """Soft-edge Airy kernel, :func:`_airy_block`.  For s != t the error is
    absolute: <= 1e-13 for -3 <= x, y <= 2 and 0.05 <= |s - t| <= 1.5."""
    return _at(_airy_block, s, x, t, y)


def kernel_bessel_hard(nu: float, s: float, x: float, t: float, y: float) -> float:
    """Hard-edge Bessel kernel, :func:`_hard_edge_block`.  For s != t the
    error is absolute: <= 1e-12 for 0.1 <= x, y <= 3 and 0.05 <= |s - t| <= 1.5."""
    if x < 0.0 or y < 0.0:
        raise DomainError("x, y >= 0 required")
    return _at(partial(_hard_edge_block, nu), s, x, t, y)


# ---------------------------------------------------------------------------
# kernel records and correlation functions
# ---------------------------------------------------------------------------

def _extended(domain: str, block: Callable, evaluate: Callable,
              factor: Optional[Callable] = None) -> ExtendedKernel:
    """The record of a family: its Gram is the block at s = t."""
    def gram(t: float, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return block(t, xs, t, xs)

    return ExtendedKernel(block, evaluate, gram, domain, factor)


def _hermite_factor(n: int, t: float, xs: np.ndarray) -> np.ndarray:
    """phi_0..phi_{N-1} at xs / sqrt 2t times (2t)^(-1/4): the Gram's factor."""
    out = hermite_phi_sequence(n - 1, np.asarray(xs, dtype=float) / math.sqrt(2.0 * t))
    out *= (2.0 * t) ** -0.25
    return out


def hermite_kernel(n: int) -> ExtendedKernel:
    return _extended("line", partial(_hermite_block, n), partial(kernel_hermite, n),
                     partial(_hermite_factor, n))


def laguerre_kernel(n: int, nu: float) -> ExtendedKernel:
    return _extended("halfline", partial(_laguerre_block, n, nu), partial(kernel_laguerre, n, nu))


def sine_kernel() -> ExtendedKernel:
    return _extended("line", _sine_block, kernel_sine)


def airy_kernel() -> ExtendedKernel:
    return _extended("line", _airy_block, kernel_airy)


def bessel_hard_kernel(nu: float) -> ExtendedKernel:
    return _extended("halfline", partial(_hard_edge_block, nu), partial(kernel_bessel_hard, nu))


def correlation_function(kernel: ExtendedKernel, points) -> float:
    """Multi-time correlation det[K(t_i, x_i; t_j, x_j)] over any number of
    (time, position) points.

    Sorting the points by time permutes rows and columns alike, which keeps
    the determinant, and makes the matrix one block per pair of times, each
    filled by one ``kernel.block`` call.  On the half-line a point at the
    wall makes a zero row (:func:`_wall_limit`), so the value is 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if kernel.domain == "halfline" and np.any(pts[:, 1] < 0.0):
        raise DomainError("positions >= 0 required on the half-line")
    if len(pts) == 0:
        return 1.0
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    times, first = np.unique(pts[:, 0], return_index=True)
    groups = list(zip(times.tolist(), np.split(pts[:, 1], first[1:])))
    return float(np.linalg.det(np.block([[kernel.block(s, xs, t, ys) for t, ys in groups]
                                         for s, xs in groups])))
