"""Gaussian matrix ensembles and matrix-valued processes.

Construction conventions (diagonal variance t throughout):

* GUE/GOE: diagonal N(0, t); off-diagonal parts N(0, t/2).
* GSE, class C, class D: 2N x 2N realizations assembled from the Pauli
  tensor decomposition, so the defining symmetry holds exactly by
  construction (GSE self-dual; class C/D anticommute with Sigma_2/Sigma_1).
* Laguerre/Wishart: (N+nu) x N rectangles with entry parts N(0, t),
  squared up to L*L / W^T W.
* beta-tridiagonal and Ginibre are static ensembles (t normalized to 1):
  tridiagonal has N(0,1) diagonal and chi_{(N-k) beta}/sqrt(2) off-diagonal;
  Ginibre entries are N(0,1/2) + i N(0,1/2) (unit-variance complex).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .core import Chamber, OrderedConfiguration, RngStream, TimeGrid
from .errors import (
    ConvergenceFailure,
    DegenerateSpectrum,
    DomainError,
    NonPositiveTime,
    ParamMissing,
)
from .karlin_mcgregor import constants, log_vandermonde, _logdet_stable
from .densities1d import log_bm_density

__all__ = [
    "EnsembleKind",
    "MatrixSample",
    "MatrixPath",
    "HarishChandraReport",
    "sample_matrix",
    "sample_path",
    "sample_spectra",
    "eigenvalues",
    "distinct_spectrum",
    "eigen_density_exact",
    "haar_unitary",
    "harish_chandra_check",
    "dump_matrix_csv",
]

GAUSSIAN_TAGS = ("gue", "goe", "gse")
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

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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
# batched component draws
# ---------------------------------------------------------------------------

def _sym_batch(count: int, n: int, t: float, stream: RngStream) -> np.ndarray:
    """Symmetric matrices: diag N(0,t), off-diag N(0,t/2)."""
    out = np.zeros((count, n, n))
    iu = np.triu_indices(n, 1)
    out[:, np.arange(n), np.arange(n)] = math.sqrt(t) * stream.normal((count, n))
    off = math.sqrt(t / 2.0) * stream.normal((count, len(iu[0])))
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = off
    return out


def _antisym_batch(count: int, n: int, t: float, stream: RngStream) -> np.ndarray:
    """Antisymmetric matrices: off-diag N(0,t/2), zero diagonal."""
    out = np.zeros((count, n, n))
    iu = np.triu_indices(n, 1)
    off = math.sqrt(t / 2.0) * stream.normal((count, len(iu[0])))
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = -off
    return out


def _kron_batch(a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    c, n, _ = a.shape
    return np.einsum("cij,ab->ciajb", a.astype(complex), sigma).reshape(c, 2 * n, 2 * n)


def _build_batch(kind: EnsembleKind, t: float, count: int, stream: RngStream) -> np.ndarray:
    tag, n = kind.tag, kind.n
    if tag not in _STATIC_TAGS and not t > 0.0:
        raise NonPositiveTime("t must be positive")
    if tag == "gue":
        s = _sym_batch(count, n, t, stream)
        a = _antisym_batch(count, n, t, stream)
        return s + 1j * a
    if tag == "goe":
        return _sym_batch(count, n, t, stream)
    if tag == "gse":
        s0 = _sym_batch(count, n, t, stream)
        out = _kron_batch(s0, _SIGMA[0])
        for rho in (1, 2, 3):
            out += 1j * _kron_batch(_antisym_batch(count, n, t, stream), _SIGMA[rho])
        return out
    if tag == "class_c":
        out = 1j * _kron_batch(_antisym_batch(count, n, t, stream), _SIGMA[0])
        for rho in (1, 2, 3):
            out += _kron_batch(_sym_batch(count, n, t, stream), _SIGMA[rho])
        return out
    if tag == "class_d":
        out = 1j * _kron_batch(_antisym_batch(count, n, t, stream), _SIGMA[0])
        out += 1j * _kron_batch(_antisym_batch(count, n, t, stream), _SIGMA[1])
        out += 1j * _kron_batch(_antisym_batch(count, n, t, stream), _SIGMA[2])
        out += _kron_batch(_sym_batch(count, n, t, stream), _SIGMA[3])
        return out
    if tag == "laguerre":
        rows = n + kind.nu
        l = math.sqrt(t) * (
            stream.normal((count, rows, n)) + 1j * stream.normal((count, rows, n))
        )
        return np.conj(np.swapaxes(l, 1, 2)) @ l
    if tag == "wishart":
        rows = n + kind.nu
        w = math.sqrt(t) * stream.normal((count, rows, n))
        return np.swapaxes(w, 1, 2) @ w
    if tag == "gue_to_goe":
        T = kind.horizon
        if not t <= T:
            raise NonPositiveTime("bridge sample time must satisfy t <= T")
        s = _sym_batch(count, n, t, stream)
        var_im = t * (T - t) / T
        a = _antisym_batch(count, n, var_im, stream) if var_im > 0.0 else np.zeros_like(s)
        return s + 1j * a
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
    raise ParamMissing(f"unknown tag {tag!r}")  # pragma: no cover


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
    """Spectrum reduced to the N distinct/positive levels of doubled kinds.

    GSE: degenerate pairs averaged; class C/D: positive halves of the
    +-omega pairs; anything else: the plain ascending spectrum.
    """
    lam = eigenvalues(m)
    if m.kind.tag == "gse":
        return 0.5 * (lam[0::2] + lam[1::2])
    if m.kind.tag in ("class_c", "class_d"):
        return lam[m.kind.n:]
    return lam


def sample_spectra(
    kind: EnsembleKind, t: float, count: int, stream: RngStream, distinct: bool = False
) -> np.ndarray:
    """(count, dim) ascending spectra, batched for Monte Carlo suites."""
    t_eff = 1.0 if kind.tag in _STATIC_TAGS else t
    out = []
    chunk = max(1, int(4e6 / (kind.dim * kind.dim)))
    done = 0
    while done < count:
        c = min(chunk, count - done)
        h = _build_batch(kind, t_eff, c, stream)
        lam = np.linalg.eigvalsh(h)
        if distinct:
            if kind.tag == "gse":
                lam = 0.5 * (lam[:, 0::2] + lam[:, 1::2])
            elif kind.tag in ("class_c", "class_d"):
                lam = lam[:, kind.n:]
        out.append(lam)
        done += c
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# matrix-valued paths
# ---------------------------------------------------------------------------

def _bm_steps(count: int, shape: tuple, dts: np.ndarray, stream: RngStream) -> np.ndarray:
    """Cumulative BM values at len(dts) grid times for iid components."""
    z = stream.normal((count, len(dts)) + shape)
    return np.cumsum(z * np.sqrt(dts).reshape((1, -1) + (1,) * len(shape)), axis=1)


def _bridge_steps(
    count: int, shape: tuple, times: np.ndarray, T: float, stream: RngStream
) -> np.ndarray:
    """Brownian-bridge values at the grid times, exactly 0 at t = T."""
    out = np.zeros((count, len(times)) + shape)
    prev = np.zeros((count,) + shape)
    t_prev = 0.0
    for k, tk in enumerate(times):
        if tk >= T:
            prev = np.zeros_like(prev)
        else:
            shrink = (T - tk) / (T - t_prev)
            var = (tk - t_prev) * (T - tk) / (T - t_prev)
            prev = prev * shrink + math.sqrt(var) * stream.normal((count,) + shape)
        out[:, k] = prev
        t_prev = tk
    return out


def sample_path(kind: EnsembleKind, grid: TimeGrid, stream: RngStream) -> MatrixPath:
    """Matrix path with entrywise Brownian (or bridge) increments at grid times."""
    if kind.tag in _STATIC_TAGS:
        raise ParamMissing(f"{kind.tag} is a static ensemble; no path law")
    times = grid.as_array()
    if times[0] <= 0.0:
        raise NonPositiveTime("grid times must be positive")
    dts = np.diff(np.concatenate([[0.0], times]))
    n = kind.n
    m = len(times)

    def assemble_sym(vals_diag, vals_off):
        iu = np.triu_indices(n, 1)
        out = np.zeros((m, n, n))
        out[:, np.arange(n), np.arange(n)] = vals_diag[0]
        out[:, iu[0], iu[1]] = vals_off[0] / math.sqrt(2.0)
        out[:, iu[1], iu[0]] = vals_off[0] / math.sqrt(2.0)
        return out

    def assemble_antisym(vals_off):
        iu = np.triu_indices(n, 1)
        out = np.zeros((m, n, n))
        out[:, iu[0], iu[1]] = vals_off[0] / math.sqrt(2.0)
        out[:, iu[1], iu[0]] = -vals_off[0] / math.sqrt(2.0)
        return out

    n_off = n * (n - 1) // 2
    tag = kind.tag
    if tag in ("goe", "gue", "gse", "class_c", "class_d"):
        def sym_path():
            return assemble_sym(
                _bm_steps(1, (n,), dts, stream), _bm_steps(1, (n_off,), dts, stream)
            )

        def antisym_path():
            return assemble_antisym(_bm_steps(1, (n_off,), dts, stream))

        if tag == "goe":
            mats = sym_path().astype(complex)
        elif tag == "gue":
            mats = sym_path() + 1j * antisym_path()
        elif tag == "gse":
            mats = np.array([np.kron(s, _SIGMA[0]) for s in sym_path()], dtype=complex)
            for rho in (1, 2, 3):
                ap = antisym_path()
                mats += 1j * np.array([np.kron(a, _SIGMA[rho]) for a in ap])
        elif tag == "class_c":
            mats = 1j * np.array([np.kron(a, _SIGMA[0]) for a in antisym_path()])
            for rho in (1, 2, 3):
                sp = sym_path()
                mats += np.array([np.kron(s, _SIGMA[rho]) for s in sp], dtype=complex)
        else:  # class_d
            mats = 1j * np.array([np.kron(a, _SIGMA[0]) for a in antisym_path()])
            mats += 1j * np.array([np.kron(a, _SIGMA[1]) for a in antisym_path()])
            mats += 1j * np.array([np.kron(a, _SIGMA[2]) for a in antisym_path()])
            mats += np.array([np.kron(s, _SIGMA[3]) for s in sym_path()], dtype=complex)
    elif tag in ("laguerre", "wishart"):
        rows = n + kind.nu
        re = _bm_steps(1, (rows, n), dts, stream)[0]
        if tag == "laguerre":
            im = _bm_steps(1, (rows, n), dts, stream)[0]
            l = re + 1j * im
            mats = np.conj(np.swapaxes(l, 1, 2)) @ l
        else:
            mats = np.swapaxes(re, 1, 2) @ re
    elif tag == "gue_to_goe":
        T = kind.horizon
        if grid.horizon is not None and grid.horizon != T:
            raise ParamMissing("grid horizon must equal the bridge horizon")
        if times[-1] > T:
            raise NonPositiveTime("bridge grid may not exceed T")
        sym = assemble_sym(
            _bm_steps(1, (n,), dts, stream), _bm_steps(1, (n_off,), dts, stream)
        )
        iu = np.triu_indices(n, 1)
        br = _bridge_steps(1, (n_off,), times, T, stream)[0] / math.sqrt(2.0)
        imag = np.zeros((m, n, n))
        imag[:, iu[0], iu[1]] = br
        imag[:, iu[1], iu[0]] = -br
        mats = sym + 1j * imag
    else:  # pragma: no cover
        raise ParamMissing(f"no path law for {tag!r}")

    samples = tuple(
        MatrixSample(kind=kind, time=float(tk), entries=mats[k])
        for k, tk in enumerate(times)
    )
    return MatrixPath(kind=kind, grid=grid, samples=samples)


# ---------------------------------------------------------------------------
# exact eigenvalue densities and the Harish-Chandra identity
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _log_c3(n: int) -> float:
    return 0.5 * n * math.log(2.0 * math.pi) + sum(
        math.lgamma(2.0 * i) for i in range(1, n + 1)
    )


def eigen_density_exact(kind: EnsembleKind, x: OrderedConfiguration, t: float) -> float:
    """g^GUE / g^GOE / g^GSE evaluated at an ordered configuration."""
    if kind.tag not in GAUSSIAN_TAGS:
        raise DomainError("exact densities cover gue/goe/gse only")
    if x.chamber is not Chamber.A:
        raise DomainError("chamber A required")
    if not t > 0.0:
        raise NonPositiveTime("t must be positive")
    # Python floats throughout: per-call numpy arrays would cost more than the arithmetic
    n = x.n
    rt = math.sqrt(t)
    xs = [v / rt for v in x.values]
    log_h = log_vandermonde(xs)
    sq = 0.0
    for v in xs:
        sq += v * v
    if kind.tag == "gue":
        log_c, power = constants(n).log_c1, 2.0
    elif kind.tag == "goe":
        log_c, power = constants(n).log_c2, 1.0
    else:
        log_c, power = _log_c3(n), 4.0
    logv = -0.5 * n * math.log(t) - log_c + power * log_h - sq / 2.0
    return math.exp(logv)


def haar_unitary(n: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_batch(n, 1, stream)[0]


def _haar_batch(n: int, count: int, stream: RngStream) -> np.ndarray:
    z = stream.complex_normal((count, n, n), scale=math.sqrt(0.5))
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

    The LHS average uses antithetic pairs (U, U^*), both Haar, which cuts
    the variance at no extra sampling cost.
    """
    if sigma == 0.0:
        raise DomainError("sigma must be nonzero")
    n = x.n
    xv, yv = x.as_array(), y.as_array()
    if len(set(xv)) < n or len(set(yv)) < n:
        raise DegenerateSpectrum("configurations must have distinct entries")

    lam_x = xv.reshape(1, n, 1)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = max(1, int(2e6 / (n * n)))
    while done < n_mc:
        c = min(chunk, n_mc - done)
        u = _haar_batch(n, c, stream)
        vals = None
        for uu in (u, np.conj(np.swapaxes(u, 1, 2))):
            rot = np.conj(np.swapaxes(uu, 1, 2)) * yv[None, None, :] @ uu
            m = lam_x * np.eye(n)[None] - rot
            tr2 = np.sum(np.abs(m) ** 2, axis=(1, 2))
            f = np.exp(-tr2 / (2.0 * sigma * sigma))
            vals = f if vals is None else 0.5 * (vals + f)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += c
    mean = total / n_mc
    var = max(total_sq / n_mc - mean * mean, 0.0)
    stderr = math.sqrt(var / n_mc)

    log_h = log_vandermonde(xv) + log_vandermonde(yv)
    a = log_bm_density(sigma * sigma, yv[None, :], xv[:, None])
    sign, logdet = _logdet_stable(a)
    log_rhs = constants(n).log_c1 + n * n * math.log(abs(sigma)) - log_h + logdet
    rhs = float(sign * math.exp(log_rhs))
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
