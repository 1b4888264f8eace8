"""Internal quadrature machinery: Golub-Welsch rules and adaptive panels.

The public quadrature surface lives in :mod:`noncollide.fredholm`; this
module holds the cached Legendre rules that every module maps, and the
adaptive panel driver of the density module.  All integrands are expected
to be vectorized over numpy arrays.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import QuadratureUnstable


@functools.lru_cache(maxsize=128)
def legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] via the Jacobi matrix."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return np.array([0.0]), np.array([2.0])
    k = np.arange(1, m)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jac = np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = 2.0 * vecs[0, :] ** 2
    return nodes, weights


@functools.lru_cache(maxsize=8)
def legendre_integration(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u and weights w on [0, 1], and the matrix S with
    (S f)_a = int_0^{u_a} of the degree m - 1 interpolant of f at the nodes: discrete
    orthogonality gives its Legendre coefficients (2k + 1)/2 sum_b w_b P_k f_b, and
    int_{-1}^x P_k = (P_{k+1} - P_{k-1}) / (2k + 1)."""
    x, w = legendre_rule(m)
    p = np.empty((m + 1, m))
    p[0], p[1] = 1.0, x
    for k in range(1, m):
        p[k + 1] = ((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1)
    antider = np.vstack([x + 1.0, p[2:] - p[:-2]])
    return 0.5 * (x + 1.0), 0.5 * w, 0.25 * antider.T @ (p[:m] * w)


def gl_nodes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to (a, b)."""
    x, w = legendre_rule(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    max_depth: int = 24,
) -> float:
    """Adaptive bisection with an embedded 30/61-point Legendre pair.

    The error estimate per panel is |GL61 - GL30|; panels are split until
    the estimate is below the panel's share of the tolerance.
    """
    def rule(lo: float, hi: float, m: int) -> float:
        x, w = gl_nodes(m, lo, hi)
        return float(np.dot(w, f(x)))

    total_scale = abs(rule(a, b, 61)) + abs_tol

    def recurse(lo: float, hi: float, depth: int) -> float:
        coarse = rule(lo, hi, 30)
        fine = rule(lo, hi, 61)
        err = abs(fine - coarse)
        tol_here = max(rel_tol * max(total_scale, abs(fine)), abs_tol, 1e-300)
        if err <= tol_here or depth >= max_depth:
            if depth >= max_depth and err > 100.0 * tol_here:
                raise QuadratureUnstable(
                    f"panel [{lo:.6g},{hi:.6g}] error {err:.3g} after max depth"
                )
            return fine
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, depth + 1) + recurse(mid, hi, depth + 1)

    return recurse(float(a), float(b), 0)
