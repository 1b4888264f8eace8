"""Gaussian matrix ensembles and matrix-valued processes.

Construction conventions (diagonal variance t throughout):

* GUE/GOE: diagonal N(0, t); off-diagonal parts N(0, t/2).
* GSE, class C, class D: 2N x 2N realizations assembled from the Pauli
  tensor decomposition, so the defining symmetry holds exactly by
  construction (GSE self-dual; class C/D anticommute with Sigma_2/Sigma_1).
* Laguerre/Wishart: (N+nu) x N rectangles with entry parts N(0, t),
  squared up to L*L / W^T W.
* Every path-capable ensemble has one construction from Gaussian
  components.  Drawn at one time t they give the static ensemble at
  variance t; drawn as Brownian motions (bridges) on a time grid they give
  the matrix-valued process, whose value at t has that same law.
* beta-tridiagonal and Ginibre are static ensembles (t normalized to 1):
  tridiagonal has N(0,1) diagonal and chi_{(N-k) beta}/sqrt(2) off-diagonal;
  Ginibre entries are N(0,1/2) + i N(0,1/2) (unit-variance complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
import numpy as np

from .core import Chamber, OrderedConfiguration, RngStream, TimeGrid
from .errors import (
    ConvergenceFailure,
    DegenerateSpectrum,
    DomainError,
    NonPositiveTime,
    ParamMissing,
    SizeMismatch,
)
from .densities1d import log_bm_density
from .karlin_mcgregor import _km_log, _log_gaussian_ensemble, constants, log_vandermonde

__all__ = [
    "EnsembleKind",
    "MatrixSample",
    "MatrixPath",
    "HarishChandraReport",
    "sample_matrix",
    "sample_path",
    "sample_path_spectra",
    "sample_spectra",
    "origin_spectra",
    "eigenvalues",
    "distinct_spectrum",
    "eigen_density_exact",
    "haar_unitary",
    "harish_chandra_check",
    "dump_matrix_csv",
]

_BETA = {"gue": 2.0, "goe": 1.0, "gse": 4.0}  # the Gaussian ensembles' Dyson index
GAUSSIAN_TAGS = tuple(_BETA)
TAGS = GAUSSIAN_TAGS + (
    "laguerre",
    "wishart",
    "class_c",
    "class_d",
    "gue_to_goe",
    "beta_tridiagonal",
    "ginibre",
)
_DOUBLED_TAGS = ("gse", "class_c", "class_d")
_STATIC_TAGS = ("beta_tridiagonal", "ginibre")
_A = Chamber.A  # bound once: a member lookup costs more than the check
_SLICE_ENTRIES = 32768  # Haar matrices per QR slice: this many entries over n^2


@dataclass(frozen=True)
class EnsembleKind:
    """Ensemble tag plus the parameters its construction needs."""

    tag: str
    n: int
    nu: int = 0
    beta: float = 0.0
    horizon: float = 0.0

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ParamMissing(f"unknown ensemble tag {self.tag!r}")
        if self.n < 1:
            raise ParamMissing("N >= 1 required")
        if self.tag in _DOUBLED_TAGS and self.n < 2:
            raise ParamMissing(f"{self.tag} uses 2Nx2N realizations; need N >= 2")
        if self.tag in ("laguerre", "wishart"):
            if self.nu < 0 or self.nu != int(self.nu):
                raise ParamMissing("laguerre/wishart need integer nu >= 0")
        if self.tag == "beta_tridiagonal" and not self.beta > 0.0:
            raise ParamMissing("beta_tridiagonal needs beta > 0")
        if self.tag == "gue_to_goe" and not self.horizon > 0.0:
            raise ParamMissing("gue_to_goe needs a horizon T > 0")

    @property
    def dim(self) -> int:
        return 2 * self.n if self.tag in _DOUBLED_TAGS else self.n


@dataclass(frozen=True)
class MatrixSample:
    kind: EnsembleKind
    time: float
    entries: np.ndarray


@dataclass(frozen=True)
class MatrixPath:
    kind: EnsembleKind
    grid: TimeGrid
    samples: tuple[MatrixSample, ...]


# ---------------------------------------------------------------------------
# one construction per ensemble, fed by Brownian components on a time grid
# ---------------------------------------------------------------------------

class _OnGrid:
    """Components along a time grid, flattened to (count * m,) + shape with
    the path index outermost: cumulative Brownian sums, and the bridge
    stepped conditionally on its previous value (exactly 0 at t = T)."""

    def __init__(self, times: np.ndarray, horizon: float, count: int, stream: RngStream):
        self.times, self.horizon, self.count, self.stream = times, horizon, count, stream
        self.dts = np.diff(np.concatenate([[0.0], times]))

    def bm(self, shape: tuple, var: float) -> np.ndarray:
        z = self.stream.normal((self.count, len(self.times)) + shape)
        steps = np.sqrt(self.dts * var).reshape((1, -1) + (1,) * len(shape))
        return np.cumsum(z * steps, axis=1).reshape((self.count * len(self.times),) + shape)

    def bridge(self, shape: tuple, var: float) -> np.ndarray:
        T = self.horizon
        out = np.zeros((self.count, len(self.times)) + shape)
        prev = np.zeros((self.count,) + shape)
        t_prev = 0.0
        for k, tk in enumerate(self.times):
            if tk >= T:
                prev = np.zeros_like(prev)
            else:
                shrink = (T - tk) / (T - t_prev)
                var_k = (tk - t_prev) * (T - tk) / (T - t_prev)
                z = self.stream.normal((self.count,) + shape)
                prev = prev * shrink + math.sqrt(var_k * var) * z
            out[:, k] = prev
            t_prev = tk
        return out.reshape((self.count * len(self.times),) + shape)


def _sym(n: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Symmetric matrices from diagonal and upper-triangle components."""
    out = np.zeros((len(diag), n, n))
    iu = np.triu_indices(n, 1)
    out[:, np.arange(n), np.arange(n)] = diag
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = off
    return out


def _antisym(n: int, off: np.ndarray) -> np.ndarray:
    """Antisymmetric matrices from upper-triangle components."""
    out = np.zeros((len(off), n, n))
    iu = np.triu_indices(n, 1)
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = -off
    return out


def _quaternion(parts: list, imag: tuple) -> np.ndarray:
    """sum_rho P_rho (x) sigma_rho from real (c, N, N) parts R_rho, where P_rho
    is i R_rho if imag[rho] and R_rho otherwise: the 2x2 blocks
    [[P0 + P3, P1 - iP2], [P1 + iP2, P0 - P3]] written into one (c, 2N, 2N)
    array.  Working memory: that array plus the four parts.  Each real and
    imaginary part is a sum with an explicit 0.0 (never a negation), which
    fixes the signed zeros LAPACK's spectra depend on."""
    c, n, _ = parts[0].shape
    re = [0.0 if i else p for p, i in zip(parts, imag)]
    im = [p if i else 0.0 for p, i in zip(parts, imag)]
    out = np.empty((c, 2 * n, 2 * n), dtype=complex)
    blocks = out.reshape(c, n, 2, n, 2)
    add, sub = np.add, np.subtract
    for a, b, f, x, y, g, u, v in ((0, 0, add, re[0], re[3], add, im[0], im[3]),
                                   (1, 1, sub, re[0], re[3], sub, im[0], im[3]),
                                   (0, 1, add, re[1], im[2], sub, im[1], re[2]),
                                   (1, 0, sub, re[1], im[2], add, im[1], re[2])):
        f(x, y, out=blocks[:, :, a, :, b].real)
        g(u, v, out=blocks[:, :, a, :, b].imag)
    return out


def _construct(kind: EnsembleKind, src) -> np.ndarray:
    """(B, dim, dim) realizations of a path-capable ensemble.

    ``src`` supplies the Gaussian components: ``src.bm(shape, var)`` gives
    Brownian parts of variance var per unit time, ``src.bridge(shape, var)``
    the GUE-to-GOE bridge's imaginary parts.  A one-time grid [t] gives the
    static ensemble at variance t.
    """
    tag, n = kind.tag, kind.n
    n_off = n * (n - 1) // 2

    def sym():
        diag = src.bm((n,), 1.0)
        return _sym(n, diag, src.bm((n_off,), 0.5))

    def antisym(part=src.bm):
        return _antisym(n, part((n_off,), 0.5))

    if tag == "goe":
        return sym()
    if tag in ("gue", "gue_to_goe"):
        s = sym()
        return s + 1j * antisym(src.bridge if tag == "gue_to_goe" else src.bm)
    if tag == "gse":
        return _quaternion([sym(), antisym(), antisym(), antisym()], (False, True, True, True))
    if tag == "class_c":
        return _quaternion([antisym(), sym(), sym(), sym()], (True, False, False, False))
    if tag == "class_d":
        return _quaternion([antisym(), antisym(), antisym(), sym()], (True, True, True, False))
    if tag in ("laguerre", "wishart"):
        shape = (n + kind.nu, n)
        re = src.bm(shape, 1.0)
        if tag == "wishart":
            return np.swapaxes(re, 1, 2) @ re
        l = re + 1j * src.bm(shape, 1.0)
        return np.conj(np.swapaxes(l, 1, 2)) @ l
    raise ParamMissing(f"no matrix construction for {tag!r}")  # pragma: no cover


def _check_times(kind: EnsembleKind, first: float, last: float) -> None:
    """Sample times must be positive, and at most T for the bridge."""
    if not first > 0.0:
        raise NonPositiveTime("sample times must be positive")
    if kind.tag == "gue_to_goe" and not last <= kind.horizon:
        raise NonPositiveTime("bridge sample times may not exceed T")


def _build_batch(kind: EnsembleKind, t: float, count: int, stream: RngStream) -> np.ndarray:
    tag, n = kind.tag, kind.n
    if tag == "beta_tridiagonal":
        out = np.zeros((count, n, n))
        out[:, np.arange(n), np.arange(n)] = stream.normal((count, n))
        for k in range(1, n):
            c = stream.chi((n - k) * kind.beta, size=count) / math.sqrt(2.0)
            out[:, k - 1, k] = c
            out[:, k, k - 1] = c
        return out
    if tag == "ginibre":
        return stream.complex_normal((count, n, n), scale=math.sqrt(0.5))
    _check_times(kind, t, t)
    return _construct(kind, _OnGrid(np.array([t]), kind.horizon, count, stream))


def _path_batch(kind: EnsembleKind, grid: TimeGrid, count: int, stream: RngStream) -> np.ndarray:
    """(count, m, dim, dim) independent matrix paths at the m grid times."""
    if kind.tag in _STATIC_TAGS:
        raise ParamMissing(f"{kind.tag} is a static ensemble; no path law")
    if kind.tag == "gue_to_goe" and grid.horizon not in (None, kind.horizon):
        raise ParamMissing("grid horizon must equal the bridge horizon")
    times = grid.as_array()
    _check_times(kind, times[0], times[-1])
    h = _construct(kind, _OnGrid(times, kind.horizon, count, stream))
    return h.reshape((count, len(times)) + h.shape[1:])


def _distinct(kind: EnsembleKind, lam: np.ndarray) -> np.ndarray:
    """Ascending spectra (last axis) reduced to the N distinct/positive levels.

    GSE: degenerate pairs averaged; class C/D: positive halves of the
    +-omega pairs; anything else: unchanged.
    """
    if kind.tag == "gse":
        return 0.5 * (lam[..., 0::2] + lam[..., 1::2])
    if kind.tag in ("class_c", "class_d"):
        return lam[..., kind.n:]
    return lam


def sample_matrix(kind: EnsembleKind, t: float, stream: RngStream) -> MatrixSample:
    """One matrix with the exact element law of the ensemble at time t."""
    t_eff = 1.0 if kind.tag in _STATIC_TAGS else t
    entries = _build_batch(kind, t_eff, 1, stream)[0]
    return MatrixSample(kind=kind, time=t_eff, entries=entries)


def eigenvalues(m: MatrixSample) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian-structured sample."""
    if m.kind.tag == "ginibre":
        raise DomainError("ginibre spectra are complex; use numpy.linalg.eigvals")
    try:
        return np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc


def distinct_spectrum(m: MatrixSample) -> np.ndarray:
    """Spectrum reduced to the N distinct/positive levels of doubled kinds."""
    return _distinct(m.kind, eigenvalues(m))


def sample_spectra(
    kind: EnsembleKind, t: float, count: int, stream: RngStream, distinct: bool = False
) -> np.ndarray:
    """(count, dim) ascending spectra, batched for Monte Carlo suites;
    (count, N) with ``distinct``, reduced as :func:`distinct_spectrum`."""
    t_eff = 1.0 if kind.tag in _STATIC_TAGS else t
    out = []
    chunk = max(1, int(4e6 / (kind.dim * kind.dim)))
    done = 0
    while done < count:
        c = min(chunk, count - done)
        lam = np.linalg.eigvalsh(_build_batch(kind, t_eff, c, stream))
        out.append(_distinct(kind, lam) if distinct else lam)
        done += c
    return np.concatenate(out, axis=0)


def origin_spectra(
    system: str, param: float, n: int, t: float, count: int, stream: RngStream
) -> np.ndarray:
    """(count, n) exact positions at time t of a process started at the origin.

    ``system`` "dyson" (param beta): GOE/GUE/GSE levels at beta = 1/2/4,
    the beta-tridiagonal model otherwise.  ``system`` "bessel" (param nu):
    square roots of Laguerre eigenvalues at integer nu >= 0, the positive
    class C / class D levels at nu = 1/2 / -1/2.  N = 1 draws the
    one-particle law directly.  Any other nu raises DomainError.
    """
    if system == "dyson":
        if n == 1:
            return math.sqrt(t) * stream.normal((count, 1))
        tag = {1.0: "goe", 2.0: "gue", 4.0: "gse"}.get(param)
        if tag is None:
            kind = EnsembleKind("beta_tridiagonal", n, beta=param)
            return sample_spectra(kind, 1.0, count, stream) * math.sqrt(t)
        return sample_spectra(EnsembleKind(tag, n), t, count, stream, distinct=True)
    if system != "bessel":
        raise DomainError(f"unknown system {system!r}")
    if n == 1:
        # squared Bessel from 0 at time t is 2t * Gamma(nu + 1)
        return np.sqrt(2.0 * t * stream.gamma(param + 1.0, size=(count, 1)))
    if param == int(param) and param >= 0:
        kind = EnsembleKind("laguerre", n, nu=int(param))
        return np.sqrt(sample_spectra(kind, t, count, stream))
    tag = {0.5: "class_c", -0.5: "class_d"}.get(param)
    if tag is None:
        raise DomainError(
            f"zero start not realizable for nu={param}: no exact ensemble bootstrap"
        )
    return sample_spectra(EnsembleKind(tag, n), t, count, stream, distinct=True)


# ---------------------------------------------------------------------------
# matrix-valued paths
# ---------------------------------------------------------------------------

def sample_path(kind: EnsembleKind, grid: TimeGrid, stream: RngStream) -> MatrixPath:
    """Matrix path with entrywise Brownian (or bridge) increments at grid times."""
    mats = _path_batch(kind, grid, 1, stream)[0]
    samples = tuple(
        MatrixSample(kind=kind, time=float(tk), entries=mats[k])
        for k, tk in enumerate(grid.times)
    )
    return MatrixPath(kind=kind, grid=grid, samples=samples)


def sample_path_spectra(
    kind: EnsembleKind, grid: TimeGrid, count: int, stream: RngStream
) -> np.ndarray:
    """(count, m, N) distinct spectra of count independent matrix paths."""
    return _distinct(kind, np.linalg.eigvalsh(_path_batch(kind, grid, count, stream)))


# ---------------------------------------------------------------------------
# exact eigenvalue densities and the Harish-Chandra identity
# ---------------------------------------------------------------------------

def eigen_density_exact(kind: EnsembleKind, x: OrderedConfiguration, t: float) -> float:
    """g^GUE / g^GOE / g^GSE evaluated at an ordered configuration.

    ``karlin_mcgregor._log_gaussian_ensemble``, which ``p_n_origin`` and ``g_nt_origin``
    evaluate too.  GUE and GOE are within 2.8e-14 relative of 40-digit values on 302 random
    configurations with N <= 6, close pairs such as (2.9, 2.9001) at t = 0.5 included.
    """
    beta = _BETA.get(kind.tag)
    if beta is None:
        raise DomainError("exact densities cover gue/goe/gse only")
    if x.chamber is not _A:
        raise DomainError("chamber A required")
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    y = x.values
    if len(y) != kind.n:
        raise SizeMismatch(f"{len(y)} points for an N = {kind.n} ensemble")
    return math.exp(_log_gaussian_ensemble(beta, t, y))


def haar_unitary(n: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_batch(n, 1, stream)[0]


def _haar_batch(n: int, count: int, stream: RngStream) -> np.ndarray:
    return _haar_qr(stream.complex_normal((count, n, n), scale=math.sqrt(0.5)))


def _haar_qr(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a complex Ginibre batch: Q of z = QR with its
    columns turned by the phases of diag R (Mezzadri's fix)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d /= np.abs(d)
    return q * d[:, None, :]


@dataclass(frozen=True)
class HarishChandraReport:
    lhs_mc: float
    lhs_stderr: float
    rhs_exact: float
    n_mc: int

    @property
    def deviation_sigmas(self) -> float:
        return abs(self.lhs_mc - self.rhs_exact) / max(self.lhs_stderr, 1e-300)


def harish_chandra_check(
    x: OrderedConfiguration,
    y: OrderedConfiguration,
    sigma: float,
    n_mc: int,
    stream: RngStream,
) -> HarishChandraReport:
    """Monte Carlo LHS vs exact determinantal RHS of the Haar-average identity.

    The LHS averages pairs (U, U^*), both Haar; U^* costs no draw but cuts
    little variance against U alone: none at N = 2 or when x or y is an
    arithmetic progression, where the two terms agree up to rounding, and
    0.2-7.5 % on six random N = 3 configurations.  The exponent needs only
    W = |U|^2 elementwise: ||X - U^dag Y U||^2 = sum x^2 + sum y^2
    - 2 sum_ij x_i y_j W_ji, and U^* = conj(U^T) has W transposed.  Each
    chunk of 2e6 / n^2 draws is drawn whole (its real parts, then its
    imaginary parts) and factored in slices of _SLICE_ENTRIES / n^2
    matrices, so the working memory is the draws plus one slice.
    """
    if sigma == 0.0:
        raise DomainError("sigma must be nonzero")
    n = x.n
    xv, yv = x.as_array(), y.as_array()
    if len(set(xv)) < n or len(set(yv)) < n:
        raise DegenerateSpectrum("configurations must have distinct entries")

    sq = float(xv @ xv + yv @ yv)
    scale = -1.0 / (2.0 * sigma * sigma)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = max(1, int(2e6 / (n * n)))
    step = max(1, _SLICE_ENTRIES // (n * n))
    while done < n_mc:
        c = min(chunk, n_mc - done)
        re, im = stream.normal((c, n, n)), stream.normal((c, n, n))  # as complex_normal
        vals = np.empty(c)
        for i in range(0, c, step):
            u = _haar_qr(math.sqrt(0.5) * (re[i:i + step] + 1j * im[i:i + step]))
            w = u.real ** 2 + u.imag ** 2
            vals[i:i + step] = 0.5 * (np.exp((sq - 2.0 * (yv @ w @ xv)) * scale)
                                      + np.exp((sq - 2.0 * (xv @ w @ yv)) * scale))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += c
    mean = total / n_mc
    var = max(total_sq / n_mc - mean * mean, 0.0)
    stderr = math.sqrt(var / n_mc)

    log_h = log_vandermonde(x.values) + log_vandermonde(y.values)
    sign, logdet = _km_log(partial(log_bm_density, sigma * sigma), yv[None, :], xv)
    log_rhs = constants(n).log_c1 + n * n * math.log(abs(sigma)) - log_h + float(logdet[0])
    rhs = float(sign[0] * math.exp(log_rhs))
    return HarishChandraReport(lhs_mc=mean, lhs_stderr=stderr, rhs_exact=rhs, n_mc=n_mc)


def dump_matrix_csv(sample: MatrixSample, stream: RngStream | None = None) -> str:
    """Debug dump: row-major CSV of real/imag parts with a parameter header."""
    k = sample.kind
    seed = stream.seed if stream is not None else ""
    sid = stream.stream_id if stream is not None else ""
    lines = [f"# {k.tag} {k.n} {sample.time!r} {seed} {sid}"]
    cplx = np.iscomplexobj(sample.entries)
    for row in np.atleast_2d(sample.entries):
        cells = []
        for v in row:
            cells.append(format(float(np.real(v)), ".17g"))
            if cplx:
                cells.append(format(float(np.imag(v)), ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
