"""Determinantal transition densities for N noncolliding particles.

The determinant of one-particle transition densities is evaluated in log
scale with per-row exponent extraction: for separated configurations the
Gaussian factors underflow long before the determinant itself is
meaningless, so all assembly happens on logs and is exponentiated last.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .core import Chamber, OrderedConfiguration
from .densities1d import _erf_vec, log_bessel_density, log_bm_density
from .errors import (
    AccuracyLossWarning,
    BesselIndexOutOfRange,
    DivisionDegeneracy,
    DomainError,
    IntegrableSingularity,
    NonPositiveTime,
    NumericalUnderflow,
    QuadratureUnstable,
    SizeMismatch,
    TimeOrdering,
)
from ._quad import legendre_integration, legendre_rule

__all__ = [
    "NormalizationConstants",
    "SurvivalEstimate",
    "brownian_g",
    "brownian_log_g",
    "bessel_g",
    "km_density",
    "km_log_density",
    "f_n",
    "f_n_log",
    "survival_n",
    "nn_tilde",
    "vandermonde",
    "vandermonde_alpha",
    "log_vandermonde",
    "log_vandermonde_alpha",
    "constants",
    "g_nt",
    "g_nt_origin",
    "p_n",
    "p_n_origin",
    "imhof_ratio",
    "f_n_nu",
    "f_n_nu_log",
    "g_nt_nu_kappa",
    "g_nt_nu_kappa_origin",
    "p_n_nu",
    "p_n_nu_origin",
]

_LOG_MIN_NORMAL = math.log(2.2250738585072014e-308)


# ---------------------------------------------------------------------------
# one-particle transition callbacks (s, x; t, y)
# ---------------------------------------------------------------------------

def brownian_g(s: float, x: float, t: float, y):
    return np.exp(log_bm_density(t - s, y, x))


def brownian_log_g(s: float, x: float, t: float, y):
    return log_bm_density(t - s, y, x)


def bessel_g(nu: float) -> tuple[Callable, Callable]:
    """(g, log_g) pair for the 2(nu+1)-dimensional Bessel process."""

    def g(s, x, t, y):
        return np.exp(log_bessel_density(nu, t - s, y, x))

    def log_g(s, x, t, y):
        return log_bessel_density(nu, t - s, y, x)

    return g, log_g


# ---------------------------------------------------------------------------
# log-scaled determinants
# ---------------------------------------------------------------------------

def _logdet_stable(log_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|det|) of exp(log_a) with per-row exponent extraction.

    log_a has shape (..., N, N); rows that are entirely -inf give det 0.
    """
    r = np.max(log_a, axis=-1, keepdims=True)
    r_safe = np.where(np.isfinite(r), r, 0.0)
    m = np.exp(log_a - r_safe)
    sign, logdet = np.linalg.slogdet(m)
    return sign, logdet + np.sum(np.squeeze(r_safe, axis=-1), axis=-1)


def _check_pair(x: OrderedConfiguration, y: OrderedConfiguration):
    if x.n != y.n:
        raise SizeMismatch(f"sizes differ: {x.n} vs {y.n}")
    if x.chamber is not y.chamber:
        raise SizeMismatch(f"chambers differ: {x.chamber} vs {y.chamber}")


def _km_log(log_p: Callable, y_pts: np.ndarray, xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|det[p(y_j | x_i)]|) over stacked configurations y_pts (P, N): the
    Karlin-McGregor determinant of the one-particle log-density log_p(y, x), its time bound,
    which is called once on the (P, N, N) grid of y_pts[:, None, :] and xv[None, :, None]."""
    return _logdet_stable(log_p(y_pts[:, None, :], xv[None, :, None]))


def km_log_density(
    g: Callable,
    s: float,
    x: OrderedConfiguration,
    t: float,
    y: OrderedConfiguration,
    log_g: Optional[Callable] = None,
) -> tuple[float, float]:
    """(sign, log|det|) of the noncolliding transition determinant: :func:`_km_log` of
    ``log_g``, or of log max(g, 0) when only ``g`` is given."""
    _check_pair(x, y)
    if not s < t:
        raise TimeOrdering("need s < t")

    def log_p(yv, xv):
        if log_g is not None:
            return log_g(s, xv, t, yv)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(np.asarray(g(s, xv, t, yv), float), 0.0))

    sign, logabs = _km_log(log_p, y.as_array()[None, :], x.as_array())
    return float(sign[0]), float(logabs[0])


def km_density(
    g: Callable,
    s: float,
    x: OrderedConfiguration,
    t: float,
    y: OrderedConfiguration,
    log_g: Optional[Callable] = None,
) -> float:
    """det_{ij} g(s, x_i; t, y_j), the Karlin-McGregor transition density, by the one
    determinant route (:func:`_km_log`) that :func:`f_n` and :func:`f_n_nu` share.

    ``g`` (or ``log_g``, when given) is called once, on the (1, N, N) grid of starts
    x[None, :, None] and targets y[None, None, :], so it must broadcast over x and y as
    :func:`brownian_g` and :func:`bessel_g`'s pair do.
    """
    return _signed_exp(*km_log_density(g, s, x, t, y, log_g))


def _signed_exp(sign: float, logabs: float) -> float:
    """sign * exp(logabs), raising where a nonzero value leaves the normal range."""
    if sign != 0.0 and logabs < _LOG_MIN_NORMAL:
        raise NumericalUnderflow(logabs, sign)
    return float(sign * math.exp(logabs)) if sign != 0.0 else 0.0


def _doob(sign: float, logf: float, log_hy: float, log_hx: float) -> float:
    """exp(logf + log h(y) - log h(x)), the Doob transform of an absorbing density by a
    positive harmonic function h: exactly 0.0 where the determinant's sign or h(y) is not
    positive (rounding can flip the sign at tight starts), and :class:`DivisionDegeneracy`
    where h(x) is not."""
    if not log_hx > -math.inf:
        raise DivisionDegeneracy("h of the start configuration is not positive")
    if sign <= 0.0 or not log_hy > -math.inf:
        return 0.0
    return math.exp(logf + log_hy - log_hx)


def _log_pos(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def f_n_log(t: float, y: OrderedConfiguration, x: OrderedConfiguration) -> tuple[float, float]:
    """(sign, log|f_N|) of the absorbing density: :func:`_km_log` of the Brownian log-density."""
    _check_pair(x, y)
    if not t > 0.0:
        raise TimeOrdering("need s < t")
    sign, logabs = _km_log(partial(log_bm_density, t), y.as_array()[None, :], x.as_array())
    return float(sign[0]), float(logabs[0])


def f_n(t: float, y: OrderedConfiguration, x: OrderedConfiguration) -> float:
    """Absorbing density of N Brownian motions in the type-A chamber."""
    return _signed_exp(*f_n_log(t, y, x))


# ---------------------------------------------------------------------------
# Vandermonde products and normalization constants
# ---------------------------------------------------------------------------

def _floats(x) -> list[float]:
    """x as a list of Python floats: scalar loops over them beat numpy indexing."""
    if isinstance(x, np.ndarray):
        return np.asarray(x, dtype=float).tolist()
    return [float(a) for a in x]


def vandermonde(x) -> float:
    """prod_{i<j} (x_j - x_i); sign follows the input order."""
    v = _floats(x)
    out = 1.0
    for i, a in enumerate(v):
        for b in v[i + 1:]:
            out *= b - a
    return out


def vandermonde_alpha(x, alpha: float) -> float:
    """prod_{i<j} (x_j^2 - x_i^2) * prod_k x_k^alpha; each factor is (x_j - x_i)(x_j + x_i),
    so close pairs keep their digits."""
    v = _floats(x)
    if alpha != int(alpha) and any(a <= 0.0 for a in v):
        raise DomainError("nonpositive entries need integer alpha")
    out = 1.0
    for i, a in enumerate(v):
        for b in v[i + 1:]:
            out *= (b - a) * (b + a)
    return float(out * np.prod(np.power(v, alpha)))


def log_vandermonde(x) -> float:
    """log prod (x_j - x_i) for a strictly increasing x."""
    v = _floats(x)
    out = 0.0
    for i, a in enumerate(v):
        for b in v[i + 1:]:
            d = b - a
            if d <= 0.0:
                return -math.inf
            out += math.log(d)
    return out


def log_vandermonde_alpha(x, alpha: float) -> float:
    """log of vandermonde_alpha for strictly increasing positive x (-inf otherwise): the
    logs of the factors (x_j - x_i)(x_j + x_i) and x_k^alpha added by ``math.fsum``."""
    v = _floats(x)
    if (v and v[0] <= 0.0) or any(b <= a for a, b in zip(v, v[1:])):
        return -math.inf
    pairs = [math.log((b - a) * (b + a)) for i, a in enumerate(v) for b in v[i + 1:]]
    return math.fsum(pairs + [alpha * math.log(a) for a in v])


@dataclass(frozen=True)
class NormalizationConstants:
    """C1, C2, C^(nu), C^(nu,kappa) for size N, kept in log domain.

    The exponentiated fields overflow to inf around N ~ 35; every ratio
    used by the density formulas is assembled from the log fields.
    """

    n: int
    nu: float
    kappa: float
    log_c1: float
    log_c2: float
    log_c_nu: float
    log_c_nu_kappa: float

    @property
    def c1(self) -> float:
        return math.exp(self.log_c1) if self.log_c1 < 709.0 else math.inf

    @property
    def c2(self) -> float:
        return math.exp(self.log_c2) if self.log_c2 < 709.0 else math.inf

    @property
    def c_nu(self) -> float:
        return math.exp(self.log_c_nu) if self.log_c_nu < 709.0 else math.inf

    @property
    def c_nu_kappa(self) -> float:
        return math.exp(self.log_c_nu_kappa) if self.log_c_nu_kappa < 709.0 else math.inf


def constants(n: int, nu: float = 0.0, kappa: float = 0.0) -> NormalizationConstants:
    """Normalization constants by log-gamma accumulation.

    The arguments are checked on every call, so an invalid call always
    raises; valid ones are memoized per (n, nu, kappa).
    """
    if not n >= 1 or n % 1 != 0:
        raise DomainError(f"N must be an integer >= 1, got {n}")
    if not nu > -1.0:
        raise BesselIndexOutOfRange(f"nu must be > -1, got {nu}")
    if kappa >= 2.0 * (nu + 1.0):
        raise IntegrableSingularity("kappa >= 2(nu+1)")
    return _constants(n, nu, kappa)


@lru_cache(maxsize=1024)
def _constants(n: int, nu: float, kappa: float) -> NormalizationConstants:
    i = np.arange(1, n + 1, dtype=float)
    lg = math.lgamma
    log_c1 = 0.5 * n * math.log(2.0 * math.pi) + sum(lg(v) for v in i)
    log_c2 = 0.5 * n * math.log(2.0) + sum(lg(v / 2.0) for v in i)
    log_c_nu = n * (n + nu - 1.0) * math.log(2.0) + sum(lg(v) + lg(v + nu) for v in i)
    log_c_nk = (
        0.5 * n * (n + 2.0 * nu - kappa - 1.0) * math.log(2.0)
        - 0.5 * n * math.log(math.pi)
        + sum(lg(v / 2.0) + lg((v + 2.0 * nu + 1.0 - kappa) / 2.0) for v in i)
    )
    return NormalizationConstants(
        n=n, nu=nu, kappa=kappa,
        log_c1=log_c1, log_c2=log_c2, log_c_nu=log_c_nu, log_c_nu_kappa=log_c_nk,
    )


@lru_cache(maxsize=None)
def _gaussian_norm(beta: float, n: int) -> tuple[float, float]:
    """(log C_beta, power of t) of the GOE/GUE/GSE density at variance t, beta = 1/2/4."""
    c = _constants(n, 0.0, 0.0)
    log_c3 = 0.5 * n * math.log(2.0 * math.pi) + sum(math.lgamma(2.0 * i) for i in range(1, n + 1))
    return {1.0: c.log_c2, 2.0: c.log_c1, 4.0: log_c3}[beta], 0.5 * n + 0.25 * beta * n * (n - 1)


def _log_gaussian_ensemble(beta: float, t: float, y) -> float:
    """log |Delta(y)|^beta e^(-|y|^2 / 2t) t^(-N/2 - beta N(N-1)/4) / C_beta, the GOE/GUE/GSE
    density (beta = 1/2/4) at variance t of an ordered y, on Python floats (per-call numpy
    arrays would cost more).  Differences of the raw positions come first and the powers of
    t after, so close pairs keep their digits."""
    log_c, power = _gaussian_norm(beta, len(y))
    sq = 0.0
    for v in y:
        sq += v * v
    return beta * log_vandermonde(y) - sq / (2.0 * t) - power * math.log(t) - log_c


def _log_laguerre_ensemble(beta: float, mu: float, t: float, y) -> float:
    """log |Delta(y^2)|^beta prod y^(2 mu + 1) e^(-|y|^2 / 2t) t^(-N(1 + mu) - beta N(N-1)/2) / C,
    the beta = 1/2 Laguerre (chiral) ensemble density at variance t of an ordered y > 0, mu > -1,
    in Python floats, -inf if some y_i <= 0; Delta(y^2) by :func:`log_vandermonde_alpha`.  C is
    C^(mu) at beta = 2 and C^(nu,kappa), a function of 2 nu - kappa = 2 mu only, at beta = 1."""
    n = len(y)
    c = _constants(n, mu, 0.0)
    log_c = {1.0: c.log_c_nu_kappa, 2.0: c.log_c_nu}[beta]
    sq = 0.0
    for v in y:
        sq += v * v
    power = n * (1.0 + mu) + 0.5 * beta * n * (n - 1)
    return (beta * log_vandermonde_alpha(y, (2.0 * mu + 1.0) / beta) - sq / (2.0 * t)
            - power * math.log(t) - log_c)


# ---------------------------------------------------------------------------
# survival probabilities (de Bruijn's Pfaffian)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalEstimate:
    """Noncollision probability and the route that gave it ("exact" or "pfaffian")."""

    value: float
    method: str

    def __float__(self) -> float:
        return self.value


def _ordered_tensor_grid(m: int, lo: float, hi: float, n: int):
    """Nodes/weights of a nested map of [0,1]^n onto lo < y_1 < ... < y_n < hi."""
    u, w = legendre_rule(m)
    grids = np.meshgrid(*([0.5 * (u + 1.0)] * n), indexing="ij")
    ys, weight, prev = [], np.ones_like(grids[0]), np.full_like(grids[0], lo)
    for g in grids:
        weight = weight * (hi - prev)
        prev = prev + (hi - prev) * g
        ys.append(prev)
    for wg in np.meshgrid(*([0.5 * w] * n), indexing="ij"):
        weight = weight * wg
    return np.stack([y.ravel() for y in ys], axis=-1), weight.ravel()


def _pfaffian(a: np.ndarray) -> np.ndarray:
    """Pfaffians of stacked skew-symmetric matrices a (P, M, M), M even.

    Parlett-Reid elimination: step k swaps the largest |a[i, k]|, i > k, into
    row and column k + 1 (a congruence that flips the sign), takes a[k, k+1]
    as the next factor and replaces the trailing block by its skew Schur
    complement.  Overwrites a.
    """
    p, m = a.shape[0], a.shape[1]
    r = np.arange(p)[:, None]
    pf = np.ones(p)
    for k in range(0, m, 2):
        piv = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        swap = np.stack([np.full(p, k + 1), piv], axis=1)
        a[r, swap] = a[r, swap[:, ::-1]]
        a[r, :, swap] = a[r, :, swap[:, ::-1]]
        head = a[:, k, k + 1]
        pf = np.where(piv == k + 1, pf, -pf) * head
        u, v = a[:, k, k + 2:], a[:, k + 1, k + 2:]
        # a zero head already made pf 0; dividing by 1 keeps the block finite
        h = np.where(head == 0.0, 1.0, head)[:, None, None]
        a[:, k + 2:, k + 2:] -= (u[:, :, None] * v[:, None, :] - v[:, :, None] * u[:, None, :]) / h
    return pf


_PF_DELTA = 1e-6  # relative entry perturbation of the error probe
_SURVIVAL_RTOL = 1e-8  # survival_n and nn_tilde warn above this estimated relative error


def _de_bruijn(a: np.ndarray, border) -> tuple[np.ndarray, np.ndarray]:
    """(Pf, estimated relative rounding error) of skew matrices a (P, N, N) bordered
    by the column ``border`` when N is odd: de Bruijn's (J. Indian Math. Soc. 19
    (1955) 133-151) int_{y_1 < ... < y_N} det[phi_i(y_j)] dy for
    a_ij = int int sgn(y' - y) phi_i(y) phi_j(y') and border_i = int phi_i.  A second
    elimination on the entries scaled by 1 +- 1e-6 in a checkerboard pattern measures
    how much relative entry errors are amplified; that factor times the double
    epsilon is the estimate."""
    p, n = a.shape[0], a.shape[1]
    m = n + n % 2
    full = np.zeros((p, m, m))
    full[:, :n, :n] = a
    if n % 2:
        full[:, :n, n], full[:, n, :n] = border, -np.asarray(border)
    checker = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    both = _pfaffian(np.concatenate([full, full * (1.0 + _PF_DELTA * checker)]))
    val, probe = both[:p], both[p:]
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.abs(probe - val) / np.abs(val) * (np.finfo(float).eps / _PF_DELTA)
    return val, est


def _pfaffian_estimate(name: str, val: np.ndarray, est: np.ndarray) -> SurvivalEstimate:
    """One configuration's de Bruijn value, warning where its estimate exceeds 1e-8."""
    if not est[0] <= _SURVIVAL_RTOL:
        warnings.warn(f"{name}: estimated relative error {est[0]:.1e} (gaps small against sqrt t)",
                      AccuracyLossWarning, stacklevel=3)
    return SurvivalEstimate(float(val[0]), "pfaffian")


def _survival_pf(t: float, x_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N_N(t, x), estimated relative rounding error) over configurations x_pts (P, N):
    :func:`_de_bruijn` of erf((x_j - x_i) / 2 sqrt t), bordered by ones when N is odd."""
    # erf is odd to the last bit, so the matrix is exactly skew
    a = _erf_vec((x_pts[:, None, :] - x_pts[:, :, None]) / (2.0 * math.sqrt(t)))
    return _de_bruijn(a, 1.0)


def survival_n(t: float, x: OrderedConfiguration) -> SurvivalEstimate:
    """Probability N_N(t, x) that N Brownian motions from x stay ordered on [0, t].

    Closed form for every N: de Bruijn's Pfaffian of erf((x_j - x_i) / 2 sqrt t)
    (:func:`_survival_pf`), method ``"pfaffian"``.  Contract: the
    relative error is at most 1e-8 unless an :class:`AccuracyLossWarning`
    carrying the estimated relative error is emitted.  The estimate bounded
    the actual error against 50-digit arithmetic wherever it was checked
    (N <= 8, gaps 0.3 to 2 sqrt t); digits are lost when the gaps are small
    against sqrt t, e.g. N = 8 at gap 0.3 sqrt t warns.  An estimate near 1
    or above means no digit is left, and it can then understate the error.
    """
    if x.chamber is not Chamber.A:
        raise DomainError("survival_n is defined on chamber A")
    if t < 0.0:
        raise NonPositiveTime("t must be nonnegative")
    if t == 0.0 or x.n == 1:
        return SurvivalEstimate(1.0, "exact")
    return _pfaffian_estimate("survival_n", *_survival_pf(t, x.as_array()[None, :]))


# ---------------------------------------------------------------------------
# noncolliding Brownian motion densities
# ---------------------------------------------------------------------------

def g_nt(s: float, x: OrderedConfiguration, t: float, y: OrderedConfiguration, T: float) -> float:
    """Transition density of the noncolliding Brownian motion on (0, T]: f_N(t - s, y|x)
    Doob-transformed by the survival N_N(T - ., .) (:func:`_doob`), so exactly 0.0 where
    rounding makes the determinant nonpositive at a tight start."""
    if not (0.0 <= s < t <= T):
        raise TimeOrdering("need 0 <= s < t <= T")
    ny = survival_n(T - t, y).value
    nx = survival_n(T - s, x).value
    return _doob(*f_n_log(t - s, y, x), _log_pos(ny), _log_pos(nx))


def _log_g_nt_origin(t: float, yv, T: float, n_surv: float) -> float:
    """log g_NT_origin: the GOE density at variance t times (T/t)^(N(N-1)/4) N_N(T - t, y)."""
    if not n_surv > 0.0:
        return -math.inf
    n = len(yv)
    log_goe = _log_gaussian_ensemble(1.0, t, yv)
    return log_goe + 0.25 * n * (n - 1.0) * math.log(T / t) + math.log(n_surv)


def g_nt_origin(t: float, y: OrderedConfiguration, T: float) -> float:
    """Density at time t of N noncolliding Brownian motions started at 0: the GOE density
    at variance t (:func:`_log_gaussian_ensemble`) times (T/t)^(N(N-1)/4) N_N(T - t, y).
    At t = T, the GOE density (Imhof), it is within 1.7e-14 relative of 40-digit values on
    302 random configurations with N <= 6; before T, N_N's 1e-8 contract applies."""
    if not (0.0 < t <= T):
        raise TimeOrdering("need 0 < t <= T")
    if y.chamber is not Chamber.A:
        raise DomainError("chamber A required")
    surv = survival_n(T - t, y)
    return math.exp(_log_g_nt_origin(t, y.values, T, surv.value))


def p_n(t: float, y: OrderedConfiguration, x: OrderedConfiguration) -> float:
    """Transition density of the temporally homogeneous noncolliding BM: f_N(t, y|x)
    Doob-transformed by the Vandermonde product (:func:`_doob`).  The determinant loses
    digits as the start x tightens against sqrt t, with no warning."""
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    _check_pair(x, y)
    return _doob(*f_n_log(t, y, x), log_vandermonde(y.as_array()), log_vandermonde(x.as_array()))


def p_n_origin(t: float, y: OrderedConfiguration) -> float:
    """Density at time t of the homogeneous process started at the origin: the GUE density
    at variance t (:func:`_log_gaussian_ensemble`), within 2.8e-14 relative of 40-digit
    values on 302 random configurations with N <= 6, close pairs included."""
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    if y.chamber is not Chamber.A:
        raise DomainError("chamber A required")
    return math.exp(_log_gaussian_ensemble(2.0, t, y.values))


def imhof_ratio(t: float, y: OrderedConfiguration, T: float) -> float:
    """g_nt_origin / p_n_origin, the multidimensional Imhof density ratio."""
    if not (0.0 < t <= T):
        raise TimeOrdering("need 0 < t <= T")
    log_p = _log_gaussian_ensemble(2.0, t, y.values)
    if log_p < _LOG_MIN_NORMAL:
        raise DivisionDegeneracy("p_n_origin underflows at this configuration")
    surv = survival_n(T - t, y)
    return math.exp(_log_g_nt_origin(t, y.values, T, surv.value) - log_p)


# ---------------------------------------------------------------------------
# noncolliding Bessel / generalized-meander densities
# ---------------------------------------------------------------------------

def _check_positive_config(x: OrderedConfiguration, nu: float):
    if nu >= 0.0:
        if x.chamber is not Chamber.C:
            raise DomainError("chamber C required for nu >= 0")
    else:
        if x.chamber not in (Chamber.C, Chamber.D):
            raise DomainError("chamber C or D required")
        if x.values[0] < 0.0:
            raise DomainError("only the nonnegative branch is implemented")


def f_n_nu_log(
    nu: float, t: float, y: OrderedConfiguration, x: OrderedConfiguration
) -> tuple[float, float]:
    """(sign, log) of the noncolliding Bessel absorbing density f_N^(nu): :func:`_km_log` of
    the Bessel log-density at time t, the route :func:`km_density` takes with :func:`bessel_g`."""
    if not nu > -1.0:
        raise BesselIndexOutOfRange(f"nu must be > -1, got {nu}")
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    _check_pair(x, y)
    _check_positive_config(x, nu)
    xv = x.as_array()
    if np.any(xv <= 0.0):
        raise DomainError("start coordinates must be strictly positive")
    sign, logv = _km_log(partial(log_bessel_density, nu, t), y.as_array()[None, :], xv)
    return float(sign[0]), float(logv[0])


def f_n_nu(nu: float, t: float, y: OrderedConfiguration, x: OrderedConfiguration) -> float:
    return _signed_exp(*f_n_nu_log(nu, t, y, x))


_NN_TILDE_RULES = (32, 64, 128, 256, 512, 1024)  # Gauss-Legendre sizes tried by doubling
_NN_TILDE_RTOL = 1e-10  # successive rules agree to this, relative to the largest entry


def _nn_tilde_pf(
    nu: float, kappa: float, t: float, x_pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N~^(nu,kappa)(t, x), estimated relative rounding error) over configurations x_pts (P, N).

    :func:`_de_bruijn` for phi_i(y) = p^(nu)(t, y|x_i) y^-kappa on y = L + (H - L) v(u)^p.
    H = x_N + 10 sqrt t, and L = max(0, x_1 - 10 sqrt t) drops where every phi_i is below
    e^-50 of its peak, so the rule size follows the spread of x against sqrt t.  Where
    L = 0, p = ceil(2c) / c turns the wall behaviour y^(c - 1) (analytic in y^2),
    c = 2 nu + 2 - kappa, into an integer power of u; elsewhere p = 1.  v(u) = u, except
    where L = 0 and c < 1/2: there p = 1/c would crowd the bulk of phi into u > 1 - O(c),
    and v = 1 - (1 - u)^3 spreads it out.  Below y = 1e-12 sqrt t, phi_i equals its wall
    term y^(c - 1) e^(-x_i^2 / 2t) / (2^nu t^(nu + 1) Gamma(nu + 1)) to the last bit; the
    integrand is taken in logs there, as y, y^(c - 1) and I_nu leave the double range first.
    With psi_i the integrand at m Gauss-Legendre nodes in u, F_i = w psi_i and G_i = S psi_i
    (integrals up to each node, :func:`legendre_integration`) give a = G F^T - F G^T and
    b_i = sum F_i.  m doubles from 32 to 1024, per configuration, until successive entries
    agree to 1e-10 relative to the largest; the finer set is used.
    """
    c = 2.0 * nu + 2.0 - kappa
    power = math.ceil(2.0 * c) / c
    log_wall = -nu * math.log(2.0) - (nu + 1.0) * math.log(t) - math.lgamma(nu + 1.0)

    def entries(xc, m):
        u, w, integ = legendre_integration(m)
        lo_y = np.maximum(xc[:, :1] - 10.0 * math.sqrt(t), 0.0)
        span = xc[:, -1:] + 10.0 * math.sqrt(t) - lo_y
        graded = lo_y == 0.0
        pw = np.where(graded, power, 1.0)
        v, dv = u, 1.0
        if c < 0.5:
            v = np.where(graded, u * (3.0 - u * (3.0 - u)), u)
            dv = np.where(graded, 3.0 * (1.0 - u) ** 2, 1.0)
        y = lo_y + span * v**pw
        with np.errstate(divide="ignore", invalid="ignore"):
            log_psi = log_bessel_density(nu, t, y, xc) - kappa * np.log(y)
        wall = np.broadcast_to(y < 1e-12 * math.sqrt(t), log_psi.shape)
        log_psi[wall] = -np.inf
        psi = np.exp(log_psi) * (span * pw * v ** (pw - 1.0) * dv)
        if wall.any():  # the integrand in u is span^c p v^(pc - 1) v' e^(-x^2 / 2t + log_wall)
            near = (c * np.log(span) + np.log(pw) + (pw * c - 1.0) * np.log(v) + np.log(dv)
                    - xc * xc / (2.0 * t) + log_wall)
            psi[wall] = np.exp(near)[wall]
        gf = (psi @ integ.T) @ np.swapaxes(psi * w, 1, 2)
        return np.concatenate([gf - np.swapaxes(gf, 1, 2), psi @ w[:, None]], axis=2)

    val, est, todo = np.empty(len(x_pts)), np.empty(len(x_pts)), np.arange(len(x_pts))
    coarse = entries(x_pts[:, :, None], _NN_TILDE_RULES[0])
    for m in _NN_TILDE_RULES[1:]:
        fine = entries(x_pts[todo, :, None], m)
        diff, scale = (np.max(np.abs(v), axis=(1, 2)) for v in (fine - coarse, fine))
        done = diff <= _NN_TILDE_RTOL * scale
        val[todo[done]], est[todo[done]] = _de_bruijn(fine[done, :, :-1], fine[done, :, -1])
        todo, coarse = todo[~done], fine[~done]
        if not len(todo):
            return val, est
    raise QuadratureUnstable(
        f"nn_tilde entries did not settle to {_NN_TILDE_RTOL:.0e} by {_NN_TILDE_RULES[-1]} nodes"
    )


def nn_tilde(nu: float, kappa: float, t: float, x: OrderedConfiguration) -> SurvivalEstimate:
    """Weighted survival N~^(nu,kappa)(t, x) = E_x[prod Y_i(t)^-kappa; no collision on [0, t]].

    Closed form for every N: de Bruijn's Pfaffian of 2-D integrals (:func:`_nn_tilde_pf`),
    method ``"pfaffian"``.  Contract, as for :func:`survival_n`: the relative
    error is at most 1e-8 unless an :class:`AccuracyLossWarning` carrying the estimated
    relative error is emitted; N = 8 at spacing sqrt(t) / 2 warns.  The estimate takes the
    entries as exact to the double epsilon: over 150 starts (N <= 8, gaps 0.002 to 0.6 sqrt t)
    128- and 256-point values differed by up to 8 times it, 2.2e-8 where it did not warn, and at
    N = 3 with c = 2 nu + 2 - kappa = 0.0018 rules up to 2048 points spread by 3e-8.  Raises
    :class:`QuadratureUnstable` where 1024-point rules do not settle the entries: at N = 1, 3 of
    60 random starts with c in (1e-6, 1e-4) and none of 240 with c in
    (1e-4, 1), x in (0.01, 6) and t in (0.05, 3); an N = 2 spread of 600 sqrt t settles.
    """
    if not nu > -1.0:
        raise BesselIndexOutOfRange(f"nu must be > -1, got {nu}")
    if kappa >= 2.0 * (nu + 1.0):
        raise IntegrableSingularity("kappa >= 2(nu+1)")
    _check_positive_config(x, nu)
    xv = x.as_array()
    if t < 0.0:
        raise NonPositiveTime("t must be nonnegative")
    if t == 0.0:
        return SurvivalEstimate(float(np.prod(xv ** (-kappa))), "exact")
    return _pfaffian_estimate("nn_tilde", *_nn_tilde_pf(nu, kappa, t, xv[None, :]))


def g_nt_nu_kappa(
    params, s: float, x: OrderedConfiguration, t: float, y: OrderedConfiguration
) -> float:
    """Transition density of the noncolliding generalized meander."""
    T = params.T
    if not (0.0 <= s < t <= T):
        raise TimeOrdering("need 0 <= s < t <= T")
    ny = nn_tilde(params.nu, params.kappa, T - t, y).value
    nx = nn_tilde(params.nu, params.kappa, T - s, x).value
    return _doob(*f_n_nu_log(params.nu, t - s, y, x), _log_pos(ny), _log_pos(nx))


def g_nt_nu_kappa_origin(params, t: float, y: OrderedConfiguration) -> float:
    """Origin-start density of the noncolliding generalized meander: the beta = 1 Laguerre
    ensemble at mu = nu - kappa/2 (:func:`_log_laguerre_ensemble`) times
    (T/t)^(N(N+kappa-1)/2) N~^(nu,kappa)(T - t, y) prod y^kappa.  At t = T, where
    N~ = prod y^-kappa, it is within 2.7e-14 relative of 50-digit values on 1500 random
    configurations (N <= 6, nu in (-0.9, 3), kappa in (0, 2 nu + 2), half of them holding a
    pair 1e-8 to 1e-3 apart); before T, N~'s 1e-8 contract applies."""
    T, nu, kappa = params.T, params.nu, params.kappa
    if not (0.0 < t <= T):
        raise TimeOrdering("need 0 < t <= T")
    _check_positive_config(y, nu)
    surv = nn_tilde(nu, kappa, T - t, y)
    log_p = _log_laguerre_ensemble(1.0, nu - 0.5 * kappa, t, y.values)
    if not (surv.value > 0.0 and log_p > -math.inf):
        return 0.0
    n = y.n
    return math.exp(log_p + 0.5 * n * (n + kappa - 1.0) * math.log(T / t)
                    + math.log(surv.value) + kappa * math.fsum(map(math.log, y.values)))


def p_n_nu(nu: float, t: float, y: OrderedConfiguration, x: OrderedConfiguration) -> float:
    """Transition density of the noncolliding Bessel process: f_N^(nu)(t, y|x)
    Doob-transformed by Delta(y^2) (:func:`_doob`)."""
    return _doob(*f_n_nu_log(nu, t, y, x), log_vandermonde_alpha(y.as_array(), 0.0),
                 log_vandermonde_alpha(x.as_array(), 0.0))


def p_n_nu_origin(nu: float, t: float, y: OrderedConfiguration) -> float:
    """Origin-start density of the noncolliding Bessel process: the beta = 2 Laguerre
    ensemble at mu = nu and variance t (:func:`_log_laguerre_ensemble`), within 3.7e-14
    relative of 50-digit values on 1500 random configurations (N <= 6, nu in (-0.9, 3),
    half of them holding a pair 1e-8 to 1e-3 apart)."""
    if not nu > -1.0:
        raise BesselIndexOutOfRange(f"nu must be > -1, got {nu}")
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    _check_positive_config(y, nu)
    return math.exp(_log_laguerre_ensemble(2.0, nu, t, y.values))
