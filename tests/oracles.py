"""Independent oracles used by the test suite.

Everything here is deliberately separate from the library code paths it
checks: panel Gauss-Legendre composites for normalizations, Golub-Welsch
rules built from the classical recurrences, a Decimal-precision Hermite
recurrence, and closed forms quoted from elementary calculus.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np


def legendre_rule_11(m: int):
    """Gauss-Legendre on [-1, 1] via the Jacobi eigenproblem (oracle copy)."""
    if m == 1:
        return np.array([0.0]), np.array([2.0])
    k = np.arange(1, m)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jac = np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, 2.0 * vecs[0] ** 2


def panel_rule(a: float, b: float, n_panels: int, m: int = 61):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    base_x, base_w = legendre_rule_11(m)
    edges = np.linspace(a, b, n_panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(lo + half * (base_x + 1.0))
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def integrate(f, a: float, b: float, n_panels: int = 16, m: int = 61) -> float:
    xs, ws = panel_rule(a, b, n_panels, m)
    return float(np.dot(ws, f(xs)))


def glaguerre_rule(nu: float, upper: float = 220.0, n_panels: int = 24):
    """Composite rule on [0, upper] resolving the x^nu edge at 0.

    Integer nu: plain panels.  Half-integer nu: x = u^2.  Otherwise the
    power map x = u^(1/(1+nu)) flattens the edge exponent to zero.
    """
    if nu == int(nu):
        return panel_rule(1e-300, upper, n_panels)
    q = 2.0 if 2.0 * nu == int(2.0 * nu) else 1.0 / (1.0 + nu)
    u, wu = panel_rule(0.0, upper ** (1.0 / q), n_panels)
    return u**q, wu * q * u ** (q - 1.0)


def integrate_powered_edge(f, edge_exponent: float, upper: float,
                           n_panels: int = 24, m: int = 61) -> float:
    """int_0^upper f with f ~ y^edge_exponent at 0, via y = u^(1/(1+a))."""
    a = edge_exponent
    if a == int(a) and a >= 0.0:
        return integrate(f, 0.0, upper, n_panels, m)
    q = 2.0 if 2.0 * a == int(2.0 * a) else 1.0 / (1.0 + a)
    u, wu = panel_rule(0.0, upper ** (1.0 / q), n_panels, m)
    y = u**q
    return float(np.dot(wu * q * u ** (q - 1.0), f(y)))


def two_sample_ks(a, b) -> tuple[float, float]:
    """(D, 1% critical) for two samples (oracle-side implementation)."""
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    n, m = len(a), len(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / m
    d = float(np.max(np.abs(fa - fb)))
    return d, 1.628 * math.sqrt((n + m) / (n * m))


CHI2_CRIT_19DOF_1PCT = 36.191  # upper 1% point of chi-square with 19 degrees of freedom


def equal_mass_bins(density, lo: float, hi: float, n_bins: int, grid_size: int = 2000):
    """(edges, probs) of n_bins bins of equal trapezoid mass under density on [lo, hi]."""
    xs = np.linspace(lo, hi, grid_size)
    vals = density(xs)
    cum = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0 * np.diff(xs))])
    edges = np.interp(np.linspace(0.0, cum[-1], n_bins + 1), cum, xs)
    edges[0], edges[-1] = lo, hi
    return edges, np.full(n_bins, 1.0 / n_bins)


def chi2_statistic(sample, bin_edges, expected_probs) -> float:
    """Pearson's binned chi-square of sample against bin probabilities."""
    counts, _ = np.histogram(np.asarray(sample, dtype=float), bins=bin_edges)
    exp = np.asarray(expected_probs) * counts.sum()
    if np.any(exp < 5.0):
        raise ValueError("expected counts too small; rebin")
    return float(np.sum((counts - exp) ** 2 / exp))


def hermite_phi_decimal(n: int, x: float, digits: int = 40) -> float:
    """phi_n(x) through the same recurrence in Decimal arithmetic.

    An independent-precision oracle: 40 digits of headroom make the
    accumulated rounding of the double recurrence visible.
    """
    getcontext().prec = digits
    xd = Decimal(repr(x))
    pi_d = Decimal("3.14159265358979323846264338327950288419716939937510")
    # scaled recurrence: track p_n with the log offset handled at the end
    p_prev = Decimal(1) / pi_d.sqrt().sqrt()
    if n == 0:
        return float(p_prev * (-xd * xd / 2).exp())
    p_cur = Decimal(2).sqrt() * xd * p_prev
    for k in range(1, n):
        c1 = (Decimal(2) / Decimal(k + 1)).sqrt()
        c2 = (Decimal(k) / Decimal(k + 1)).sqrt()
        p_prev, p_cur = p_cur, c1 * xd * p_cur - c2 * p_prev
    return float(p_cur * (-xd * xd / 2).exp())


def painleve2_rk4(grid, q: float, qp: float, h_max: float = 1e-3):
    """(q, q') of q'' = 2 q^3 + x q on a decreasing grid from (q, q') at grid[0],
    by classical RK4 in steps of at most h_max, each taken as two half-steps:
    a fixed-step march, independent of the library's Taylor continuation."""

    def rhs(x, q, qp):
        return qp, 2.0 * q**3 + x * q

    def rk4_step(x, q, qp, h):
        k1q, k1p = rhs(x, q, qp)
        k2q, k2p = rhs(x + h / 2, q + h / 2 * k1q, qp + h / 2 * k1p)
        k3q, k3p = rhs(x + h / 2, q + h / 2 * k2q, qp + h / 2 * k2p)
        k4q, k4p = rhs(x + h, q + h * k3q, qp + h * k3p)
        return (q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
                qp + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))

    x = float(grid[0])
    qs, qps = np.empty(len(grid)), np.empty(len(grid))
    qs[0], qps[0] = q, qp
    for i in range(1, len(grid)):
        target = float(grid[i])
        while x > target + 1e-13:
            h = min(h_max, x - target)
            q, qp = rk4_step(x, q, qp, -h / 2)
            q, qp = rk4_step(x - h / 2, q, qp, -h / 2)
            x -= h
        qs[i], qps[i] = q, qp
    return qs, qps


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron_batch(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(c, 2N, 2N) Kronecker products a_k (x) sigma of a (c, N, N) batch."""
    c, n, _ = a.shape
    return np.einsum("cij,ab->ciajb", a.astype(complex), sigma).reshape(c, 2 * n, 2 * n)


def quaternion_kron(tag: str, sym, antisym) -> np.ndarray:
    """GSE / class C / class D batches as sums of Kronecker products with the
    Pauli matrices, accumulated term by term.  ``sym()`` and ``antisym()``
    draw the real symmetric and antisymmetric components, called in the
    order the ensemble's construction draws them."""
    if tag == "gse":
        out = kron_batch(sym(), PAULI[0])
        for rho in (1, 2, 3):
            out += 1j * kron_batch(antisym(), PAULI[rho])
        return out
    if tag == "class_c":
        out = 1j * kron_batch(antisym(), PAULI[0])
        for rho in (1, 2, 3):
            out += kron_batch(sym(), PAULI[rho])
        return out
    if tag == "class_d":
        out = 1j * kron_batch(antisym(), PAULI[0])
        for rho in (1, 2):
            out += 1j * kron_batch(antisym(), PAULI[rho])
        out += kron_batch(sym(), PAULI[3])
        return out
    raise ValueError(f"no quaternion construction for {tag!r}")


def harish_chandra_lhs(xv, yv, sigma: float, n_mc: int, stream):
    """(mean, stderr) of the Haar average of exp(-||X - U^dag Y U||^2 / 2 sigma^2),
    paired with U^*, over whole chunks of 2e6 / n^2 Haar matrices: each chunk
    one Ginibre batch from ``stream.complex_normal``, one QR and one phase fix."""
    n = len(xv)
    sq = float(xv @ xv + yv @ yv)
    scale = -1.0 / (2.0 * sigma * sigma)
    total = total_sq = 0.0
    done = 0
    chunk = max(1, int(2e6 / (n * n)))
    while done < n_mc:
        c = min(chunk, n_mc - done)
        z = stream.complex_normal((c, n, n), scale=math.sqrt(0.5))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2).copy()
        d /= np.abs(d)
        u = q * d[:, None, :]
        w = u.real ** 2 + u.imag ** 2
        vals = 0.5 * (np.exp((sq - 2.0 * (yv @ w @ xv)) * scale)
                      + np.exp((sq - 2.0 * (xv @ w @ yv)) * scale))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += c
    mean = total / n_mc
    return mean, math.sqrt(max(total_sq / n_mc - mean * mean, 0.0) / n_mc)
