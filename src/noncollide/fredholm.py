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
    rule = gauss_legendre(spec.m, a, b)
    root_w = np.sqrt(rule.weights)
    factor = spec.kernel.factor
    if factor is not None:
        rows = factor(spec.time, rule.nodes)
        rows *= root_w
        mat = rows @ rows.T if len(rows) < spec.m else rows.T @ rows
    else:
        # every equal_time_matrix returns a fresh array, so the Nystrom matrix
        # I - W^(1/2) K W^(1/2) is assembled in it, with no m x m temporaries
        mat = spec.kernel.equal_time_matrix(spec.time, rule.nodes)
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
# Backward marching cannot track the Hastings-McLeod separatrix below
# x ~ -8 in double precision: roundoff excites the exp((2 sqrt 2/3)|x|^1.5)
# unstable mode regardless of step size.  The table stops there; the
# Tracy-Widom integral continues with the q^2 ~ -x/2 asymptotics, where
# the CDF is below 1e-18 absolutely.
_PII_XMIN = -8.0
_PII_H = 1e-3
# 4-point Gauss-Legendre rule on [-1, 1] in closed form, (node, weight)
_GL4 = tuple((sign * node, weight) for node, weight in (
    (math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(1.2)), (18.0 + math.sqrt(30.0)) / 36.0),
    (math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(1.2)), (18.0 - math.sqrt(30.0)) / 36.0),
) for sign in (-1.0, 1.0))


def _pii_rhs(x: float, q: float, qp: float) -> tuple[float, float]:
    return qp, 2.0 * q**3 + x * q


def _rk4_step(x: float, q: float, qp: float, h: float) -> tuple[float, float]:
    k1q, k1p = _pii_rhs(x, q, qp)
    k2q, k2p = _pii_rhs(x + h / 2, q + h / 2 * k1q, qp + h / 2 * k1p)
    k3q, k3p = _pii_rhs(x + h / 2, q + h / 2 * k2q, qp + h / 2 * k2p)
    k4q, k4p = _pii_rhs(x + h, q + h * k3q, qp + h * k3p)
    return (
        q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
        qp + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )


def _march(grid: np.ndarray, h_max: float = _PII_H) -> tuple[np.ndarray, np.ndarray]:
    """(q, q') on a decreasing grid, stepping back from (Ai, Ai') at grid[0] in steps
    of at most h_max, each taken as two RK4 half-steps; |q| > 1e6 signals leaving the
    Hastings-McLeod branch."""
    x = float(grid[0])
    q, qp = airy_ai(x), airy_ai_prime(x)
    qs, qps = np.empty(len(grid)), np.empty(len(grid))
    qs[0], qps[0] = q, qp
    for i in range(1, len(grid)):
        target = float(grid[i])
        while x > target + 1e-13:
            h = min(h_max, x - target)
            q, qp = _rk4_step(x, q, qp, -h / 2)
            q, qp = _rk4_step(x - h / 2, q, qp, -h / 2)
            x -= h
            if abs(q) > 1e6:
                raise DomainError("Painleve II blow-up: x0 too small for the branch")
        qs[i], qps[i] = q, qp
    return qs, qps


def painleve2_hastings_mcleod(x_grid) -> np.ndarray:
    """Hastings-McLeod solution q(x) on a decreasing grid from x_grid[0] >= 6.

    Integrates q'' = 2 q^3 + x q backward from (Ai(x0), Ai'(x0)) with classical
    RK4 in steps of at most 5e-4, two per march step of at most 1e-3; blow-up beyond
    1e6 signals leaving the Hastings-McLeod branch.
    """
    grid = np.asarray(x_grid, dtype=float)
    if len(grid) < 1 or np.any(np.diff(grid) >= 0.0):
        raise DomainError("x_grid must be strictly decreasing")
    if grid[0] < 6.0:
        raise DomainError("start abscissa x0 >= 6 required")
    out, _ = _march(grid)
    if np.any(out <= 0.0):
        raise DomainError(
            "Hastings-McLeod positivity lost: the requested grid extends past "
            "the double-precision resolvable range (x >~ -8)"
        )
    return out


def _airy_tail_moments(x: float) -> tuple[float, float]:
    """(int_x^inf Ai^2, int_x^inf t Ai(t)^2 dt) in closed form: the
    antiderivatives are x Ai^2 - Ai'^2 and (x^2 Ai^2 - x Ai'^2 + Ai Ai') / 3."""
    ai, aip = airy_ai(x), airy_ai_prime(x)
    return aip * aip - x * ai * ai, (x * aip * aip - x * x * ai * ai - ai * aip) / 3.0


class _PainleveTable:
    """q and q' cached on the uniform grid x0 down to x_min, with the moments
    moments[k, i] = int_{x_i}^inf x^k q^2 (k = 0, 1): cumulative trapezoid
    sums with the Euler-Maclaurin end correction (h^2/12)(f'(x_i) - f'(x0)),
    f' from the tabulated q', and above x0, where q = Ai to double
    precision, the closed-form Airy tail."""

    def __init__(self, x0: float = _PII_X0, x_min: float = _PII_XMIN, h: float = _PII_H):
        self.x0 = x0
        self.h = h
        n = int(round((x0 - x_min) / h))
        self.xs = x0 - h * np.arange(n + 1)
        self.qs, self.qps = _march(self.xs, h)
        q2 = self.qs * self.qs
        dq2 = 2.0 * self.qs * self.qps
        tail0, tail1 = _airy_tail_moments(x0)
        self.moments = np.stack((tail0 + self._cumulative(q2, dq2),
                                 tail1 + self._cumulative(self.xs * q2, q2 + self.xs * dq2)))

    def _cumulative(self, f: np.ndarray, fp: np.ndarray) -> np.ndarray:
        """int_{x_i}^{x0} f for every i: trapezoid plus end correction."""
        csum = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]))))
        return self.h * csum + (self.h**2 / 12.0) * (fp - fp[0])

    def cell_integral(self, idx: int, lo: float, alpha: float) -> float:
        """int (x - alpha) q^2 over [lo, x_idx], part of the cell [x_{idx+1},
        x_idx], with q the Hermite cubic through the cell's (q, q'): the
        integrand has degree 7, so the 4-point Gauss-Legendre rule is exact;
        Python floats."""
        xa = float(self.xs[idx])
        hseg = float(self.xs[idx + 1]) - xa  # negative
        qa, qb = float(self.qs[idx]), float(self.qs[idx + 1])
        da, db = hseg * float(self.qps[idx]), hseg * float(self.qps[idx + 1])
        half, mid = 0.5 * (xa - lo), 0.5 * (xa + lo)
        total = 0.0
        for u, w in _GL4:
            x = mid + half * u
            s = (x - xa) / hseg
            r2 = (1.0 - s) * (1.0 - s)
            q = ((1.0 + 2.0 * s) * r2 * qa + s * r2 * da
                 + s * s * ((3.0 - 2.0 * s) * qb + (s - 1.0) * db))
            total += w * (x - alpha) * q * q
        return half * total


_TABLE: Optional[_PainleveTable] = None


def _table() -> _PainleveTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = _PainleveTable()
    return _TABLE


def tracy_widom_painleve(alpha: float) -> float:
    """Tracy-Widom CDF via exp(-int (x - alpha) q(x)^2 dx), q Hastings-McLeod.

    The integral is I1 - alpha I0 with the table's cumulative moments
    I_k = int_{x_lo}^inf x^k q^2 at x_lo, the table point at or above alpha,
    plus the exact 4-point Gauss-Legendre rule on the Hermite-cubic
    interpolant over the partial cell [alpha, x_lo]; above the table
    (alpha >= 8) it is the closed-form Airy tail.  It agrees with a Nystrom determinant of the
    Airy kernel to 3e-12 on [-6, 4], off-grid alpha included.

    Below the resolvable table (alpha < -8) the integrand continues with
    the left asymptotics q^2 = -x/2 - 1/(8 x^2); there F < 1e-18, so the
    asymptotic remainder only perturbs an already negligible value.
    """
    if alpha < -10.0:
        raise DomainError("alpha >= -10 required")
    tab = _table()
    if alpha >= tab.x0:
        m0, m1 = _airy_tail_moments(alpha)
        return math.exp(-(m1 - alpha * m0))
    extra = 0.0
    alpha_eff = alpha
    if alpha < _PII_XMIN:
        nodes, wts = gl_nodes(32, alpha, _PII_XMIN)
        q2 = -nodes / 2.0 - 1.0 / (8.0 * nodes * nodes)
        extra = float(np.dot(wts, (nodes - alpha) * q2))
        alpha_eff = _PII_XMIN
    idx = min(int(math.floor((tab.x0 - alpha_eff) / tab.h)), len(tab.xs) - 1)
    x_lo = tab.xs[idx]
    i0, i1 = tab.moments[:, idx]
    total = i1 - alpha * i0 + extra
    if x_lo > alpha_eff:
        total += tab.cell_integral(idx, alpha_eff, alpha)
    return math.exp(-total)
