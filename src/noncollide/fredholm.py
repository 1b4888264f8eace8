"""Fredholm determinants by symmetrized Nystrom quadrature, rightmost-particle
distributions, and the Tracy-Widom law via two independent routes
(Airy-kernel determinant and the Painleve II integral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._quad import gl_nodes
from .errors import DomainError, QuadratureUnstable
from .kernels import (
    ExtendedKernel,
    _taylor_continuation,
    airy_ai,
    airy_ai_prime,
    airy_kernel,
    hermite_kernel,
    sine_kernel,
)

__all__ = [
    "QuadratureRule",
    "GapSpec",
    "gauss_legendre",
    "fredholm_det",
    "fredholm_det_refined",
    "rightmost_cdf",
    "tracy_widom_fredholm",
    "painleve2_hastings_mcleod",
    "tracy_widom_painleve",
    "sine_gap",
]


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre(m: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule on (a, b) by the Golub-Welsch eigenproblem."""
    if m < 1:
        raise DomainError("m >= 1 required")
    if not a < b:
        raise DomainError("need a < b")
    nodes, weights = gl_nodes(m, a, b)
    return QuadratureRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class GapSpec:
    """Fredholm-determinant problem: kernel restricted to a finite window at one time."""

    kernel: ExtendedKernel
    time: float
    window: tuple[float, float]  # (a, b), finite, a <= b
    m: int = 64

    def __post_init__(self):
        if self.m < 8:
            raise DomainError("quadrature order m >= 8 required")


def fredholm_det(spec: GapSpec) -> float:
    """det(I - W^(1/2) K W^(1/2)) on the windowed kernel at spec.time.

    A kernel with a ``factor`` (``ExtendedKernel``: K = F.T @ F, F of shape
    (rank, m) at the m nodes) is taken in rank space: with B = F W^(1/2),
    Sylvester's identity gives det(I_m - B.T B) = det(I_rank - B B.T), and
    the smaller of the two Grams is factored, O(rank^2 m + rank^3) for
    rank < m.  Other kernels assemble the m x m Nystrom matrix from
    ``equal_time_matrix``.

    An empty window gives det(I) = 1.  Values outside [0, 1] by less than
    1e-10 are clamped; the clamp warns only beyond the rounding floor
    m 2^-52 of the m x m determinant, so a left-tail value that is rounding
    noise around 0 returns 0 quietly.  Larger excursions are reported as
    instability.
    """
    a, b = spec.window
    if not -math.inf < a <= b < math.inf:
        raise DomainError("finite window a <= b required")
    if a == b:
        return 1.0
    nodes, weights = gl_nodes(spec.m, a, b)
    root_w = np.sqrt(weights)
    factor = spec.kernel.factor
    if factor is not None:
        rows = factor(spec.time, nodes)
        rows *= root_w
        mat = rows @ rows.T if len(rows) < spec.m else rows.T @ rows
    else:
        # every equal_time_matrix returns a fresh array, so the Nystrom matrix
        # I - W^(1/2) K W^(1/2) is assembled in it, with no m x m temporaries
        mat = spec.kernel.equal_time_matrix(spec.time, nodes)
        mat *= root_w[:, None]
        mat *= root_w
    np.negative(mat, out=mat)
    mat.flat[:: len(mat) + 1] += 1.0
    val = float(np.linalg.det(mat))
    clamped = min(max(val, 0.0), 1.0)
    if abs(val - clamped) > 1e-10:
        warnings.warn(f"Fredholm determinant {val} outside [0,1] beyond clamp margin")
        return val
    if abs(val - clamped) > spec.m * 2.0**-52:
        warnings.warn(f"Fredholm determinant {val} clamped to {clamped}")
    return clamped


def fredholm_det_refined(spec: GapSpec) -> tuple[float, float]:
    """(value at 2m, |value(2m) - value(m)|), the delivered error bar."""
    coarse = fredholm_det(spec)
    fine = fredholm_det(replace(spec, m=2 * spec.m))
    err = abs(fine - coarse)
    if 2 * spec.m >= 256 and err > 1e-6:
        raise QuadratureUnstable(
            f"doubling m to {2 * spec.m} still moves the determinant by {err:.3g}"
        )
    return fine, err


def _rightmost_rule(n: int, t: float) -> tuple[float, float, int]:
    """(a_N, b_N, m) of :func:`rightmost_cdf`: the window's cuts and node count."""
    edge = 2.0 * math.sqrt(n * t) + 12.0 * math.sqrt(t) * n ** (-1.0 / 6.0)
    return -8.3 * math.sqrt(t / n), edge, 64 + n // 8


def rightmost_cdf(n: int, t: float, alpha: float, m: Optional[int] = None) -> float:
    """P(rightmost of N noncolliding Brownian particles at time t <= alpha).

    One Nystrom determinant of the Hermite kernel on (alpha, b_N), b_N =
    2 sqrt(Nt) + 12 sqrt(t) N^(-1/6), with m = 64 + N // 8 nodes unless given:
    within 1e-14 of m = max(256, N + 160) determinants for N <= 512 and all
    alpha, with 16 or more nodes to spare at each N measured (README).  m
    depends on N only, so F is smooth and monotone in alpha.  alpha >= b_N
    gives 1; alpha <= a_N = -8.3 sqrt(t/N) gives 0, since the top eigenvalue
    is at least Tr H / N ~ N(0, t/N), so F(a_N) <= Phi(-8.3) = 5.2e-17.
    """
    if not n >= 1 or n % 1 != 0:
        raise DomainError("N must be an integer >= 1")
    if not t > 0.0:
        raise DomainError("t > 0 required")
    n = int(n)
    lo, hi, nodes = _rightmost_rule(n, t)
    if alpha >= hi or alpha <= lo:
        return float(alpha >= hi)
    return fredholm_det(GapSpec(hermite_kernel(n), t, (alpha, hi), nodes if m is None else m))


def tracy_widom_fredholm(alpha: float, m: int = 48) -> float:
    """Tracy-Widom CDF F2(alpha): one Nystrom determinant det(I - K_Airy) on
    (alpha, 10) with m Gauss-Legendre nodes.

    The rule converges exponentially (Bornemann, Math. Comp. 79 (2010)
    871-915): from m = 28 on the value is within 2.5e-15 of 320-node
    determinants for alpha in [-12, 8], and doubling the default m moves it
    by less than 1e-14 (``verify --suite fredholm`` checks this once).  The
    cut at x = 10 drops the kernel's trace on (10, inf), 2.9e-22.  Below
    alpha ~ -11.9, where F2 < 1e-61, the value is rounding noise of ~1e-63,
    and :func:`fredholm_det` clamps it quietly to 0 when it falls below 0.
    """
    if not -12.0 <= alpha <= 8.0:
        raise DomainError("alpha in [-12, 8] supported")
    return fredholm_det(GapSpec(kernel=airy_kernel(), time=0.0, window=(alpha, 10.0), m=m))


def sine_gap(a: float) -> float:
    """P(no bulk particle in (-a, a)), density 1/pi, by one 32-node Nystrom
    determinant of the sine kernel: for a < 12 it is within 1.2e-15 of
    256-node determinants (16 nodes pass; 24 fail near a = 80).  The gap
    probability falls with a and is 1.9e-32 at a = 12, so a >= 12 gives 0."""
    if not a > 0.0:
        raise DomainError("a > 0 required")
    if a >= 12.0:
        return 0.0
    return fredholm_det(GapSpec(kernel=sine_kernel(), time=0.0, window=(-a, a), m=32))


# ---------------------------------------------------------------------------
# Painleve II route
# ---------------------------------------------------------------------------

_PII_X0 = 8.0
# Backward continuation cannot track the Hastings-McLeod separatrix below
# x ~ -8 in double precision: roundoff excites the exp((2 sqrt 2/3)|x|^1.5)
# unstable mode, whatever the method.  The table stops there; the
# Tracy-Widom integral continues with the q^2 ~ -x/2 asymptotics, where
# the CDF is below 1e-18 absolutely.
_PII_XMIN = -8.0
_PII_STEP, _PII_DEG = 0.25, 24  # the Taylor patches: width and degree


def _airy_tail_moments(x: float) -> tuple[float, float]:
    """(int_x^inf Ai^2, int_x^inf t Ai(t)^2 dt) in closed form: the
    antiderivatives are x Ai^2 - Ai'^2 and (x^2 Ai^2 - x Ai'^2 + Ai Ai') / 3."""
    ai, aip = airy_ai(x), airy_ai_prime(x)
    return aip * aip - x * ai * ai, (x * aip * aip - x * x * ai * ai - ai * aip) / 3.0


def _asymptotic_integral(alpha: float) -> float:
    """int_alpha^-8 (x - alpha) q^2 dx with the left asymptotics
    q^2 = -x/2 - 1/(8 x^2), in closed form."""

    def antiderivative(x: float) -> float:
        return x * x * (alpha / 4.0 - x / 6.0) - (math.log(-x) + alpha / x) / 8.0

    return antiderivative(_PII_XMIN) - antiderivative(alpha)


class _PainleveTable:
    """The Hastings-McLeod q as Taylor patches, the only representation the
    Painleve route uses.  Row j of ``coef`` holds the coefficients of
    q(c_j + d), c_j = 8 - j step, for x = c_j + d in (c_j - step, c_j],
    continued from (Ai, Ai') at x0 = 8 by :func:`_taylor_continuation`.

    From each row's q^2 coefficients s_k, truncated at degree ``deg`` (the
    dropped terms are below 1e-20 at |d| <= 1/4), it keeps, all exact for
    the patch polynomials:
    - ``cell[j]``, the coefficients s_k / ((k+1)(k+2)) highest first, so that
      C_j(d) = int_d^0 (u - d) q(c_j + u)^2 du = d^2 sum_k s_k d^k / ((k+1)(k+2));
    - ``m0[j]``, ``m1[j]`` = int_{c_j}^inf x^k q^2 (k = 0, 1), with one more
      entry at x = -8: whole-patch integrals summed below the closed-form
      Airy tail at x0, where q = Ai to double precision."""

    def __init__(self, step: float = _PII_STEP, deg: int = _PII_DEG):
        self.step = step
        centres = _PII_X0 - step * np.arange(round((_PII_X0 - _PII_XMIN) / step))
        self.coef = _taylor_continuation(list(centres), airy_ai(_PII_X0),
                                         airy_ai_prime(_PII_X0), deg, step, cubic=True)
        sq = np.array([np.convolve(row, row)[: deg + 1] for row in self.coef])
        k1 = np.arange(1.0, deg + 2.0)  # k + 1
        self.cell = (sq / (k1 * (k1 + 1.0)))[:, ::-1].tolist()
        # int_{-step}^0 u^k du = -(-step)^(k+1) / (k+1), and the same with u^(k+1)
        patch0 = sq @ (-(-step) ** k1 / k1)
        patch1 = centres * patch0 + sq @ (-(-step) ** (k1 + 1.0) / (k1 + 1.0))
        tail0, tail1 = _airy_tail_moments(_PII_X0)
        self.m0 = np.cumsum(np.concatenate(([tail0], patch0))).tolist()
        self.m1 = np.cumsum(np.concatenate(([tail1], patch1))).tolist()

    def q(self, x: np.ndarray) -> np.ndarray:
        """q on [-8, 8]: one Horner pass over the coefficient columns of each
        point's patch."""
        j = np.minimum(((_PII_X0 - x) / self.step).astype(np.intp), len(self.coef) - 1)
        d = x - (_PII_X0 - self.step * j)
        out = np.zeros(len(x))
        for col in self.coef[j].T[::-1]:
            out = out * d + col
        return out


_TABLE: Optional[_PainleveTable] = None


def _table() -> _PainleveTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = _PainleveTable()
    return _TABLE


def painleve2_hastings_mcleod(x_grid) -> np.ndarray:
    """Hastings-McLeod solution q(x) on a strictly decreasing grid from
    x_grid[0] >= 6 down to -8, the range double precision resolves (README).

    Points in [-8, 8] take the cached Taylor patches of :class:`_PainleveTable`:
    within 1e-14 relative of Ai on [7.5, 8] and of patches half as wide, of
    degree 32, on [-2, 8] (1.3e-15 and 2.7e-15 measured).  Points above 8,
    where q = Ai to double precision, take :func:`airy_ai` (x <= 1e3).  The
    value at a point does not depend on the rest of the grid.
    """
    grid = np.asarray(x_grid, dtype=float)
    if len(grid) < 1 or not np.all(np.diff(grid) < 0.0):  # NaN-safe comparisons
        raise DomainError("x_grid must be strictly decreasing")
    if not grid[0] >= 6.0:
        raise DomainError("start abscissa x0 >= 6 required")
    if not grid[-1] >= _PII_XMIN:
        raise DomainError("x_grid below -8: past the double-precision resolvable range")
    head = int(np.count_nonzero(grid > _PII_X0))  # a decreasing grid's points above 8
    return np.concatenate((airy_ai(grid[:head]) if head else np.empty(0),
                           _table().q(grid[head:])))


def tracy_widom_painleve(alpha: float) -> float:
    """Tracy-Widom CDF F2(alpha) = exp(-int_alpha^inf (x - alpha) q(x)^2 dx),
    q Hastings-McLeod, for alpha in [-10, 1e3].

    On [-8, 8) the integral is m1 - alpha m0 at the centre c_j of alpha's
    Taylor patch plus the patch's exact partial integral C_j(alpha - c_j)
    (:class:`_PainleveTable`), one Horner sum in Python floats; from 8 up it
    is the closed-form Airy tail.  It agrees with the Nystrom determinant
    :func:`tracy_widom_fredholm` to 2e-14 on [-10, 8] (1.7e-15 measured on
    1801 points), and the integral is within 2.2e-14 relative of the
    patches' exact integral in 40-digit arithmetic.

    Below the resolvable table (alpha < -8) the integrand continues with
    the left asymptotics q^2 = -x/2 - 1/(8 x^2), integrated in closed form;
    there F < 1e-18, so the asymptotic remainder only perturbs an already
    negligible value.
    """
    if not alpha >= -10.0:
        raise DomainError("alpha >= -10 required")
    if alpha >= _PII_X0:
        m0, m1 = _airy_tail_moments(alpha)
        return math.exp(-(m1 - alpha * m0))
    tab = _table()
    if alpha < _PII_XMIN:
        return math.exp(-(tab.m1[-1] - alpha * tab.m0[-1] + _asymptotic_integral(alpha)))
    j = min(int((_PII_X0 - alpha) / tab.step), len(tab.cell) - 1)
    d = alpha - (_PII_X0 - tab.step * j)
    part = 0.0
    for s in tab.cell[j]:
        part = part * d + s
    return math.exp(-(tab.m1[j] - alpha * tab.m0[j] + part * d * d))
