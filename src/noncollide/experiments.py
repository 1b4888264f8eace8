"""Cross-validation harness: every sampler route gated against exact
power-sum moments, deterministic checks of the analytic routes, and
reproducible JSON reports.

Gate contract.  Every stochastic verdict is one test at level alpha = 1e-4.
A sampler route draws P configurations of N levels; its moment gate takes the
per-draw power sums (p_2, p_4), p_k = sum_i x_i^k, their sample mean minus the
exact (E p_2, E p_4) as d and their sample covariance as S, and rejects when
chi2 = P d^T S^-1 d exceeds the chi-square(2) point -2 ln alpha = 18.42.  The
scalar z-statistics (rightmost-particle CDF, Harish-Chandra, step halving,
the fixed-start Dyson second moment) reject when |z| exceeds the two-sided
normal point 3.891.  About 25 such verdicts run in ``verify --suite all``,
so a correct sampler fails the whole suite on at most about 0.25 % of seeds.
Powers above 4 are left out: with p_6 added, a chi-square(3) gate on 20k GOE
N = 3 spectra exceeded its nominal 1e-3 point in 6 of 2000 runs, this gate
in 1.  Deterministic verdicts compare a quadrature with a closed form under
a bound set from the quadrature's measured convergence.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import adaptive_quad, gl_nodes
from .core import Chamber, RngStream, TimeGrid, validate_chamber
from .densities1d import DensityParams
from .errors import DomainError, RouteInapplicable
from . import densities1d as dens
from . import karlin_mcgregor as km
from . import ensembles as ens
from . import sde as sdemod
from . import kernels as ker
from . import fredholm as fred

__all__ = [
    "ExperimentReport",
    "run_marginal_check",
    "run_equivalence_check",
    "run_bridge_check",
    "run_hc_check",
    "run_suite",
    "SUITES",
]


# ---------------------------------------------------------------------------
# exact power-sum moments and the moment gate
# ---------------------------------------------------------------------------

def _gaussian_moments(beta: float, n: int, t: float) -> tuple[float, float]:
    """(E p_2, E p_4) of the Gaussian beta-ensemble at variance t, density
    proportional to |Delta(x)|^beta exp(-|x|^2 / 2t): GUE/GOE/GSE distinct
    levels, the beta-tridiagonal model, Dyson's model from 0.  Wick counting on
    the Dumitriu-Edelman tridiagonal model (J. Math. Phys. 43 (2002) 5830-5847);
    beta = 2 gives Harer-Zagier's N^2 t and (2N^3 + N) t^2."""
    pairs = n * (n - 1)
    return (
        t * (n + 0.5 * beta * pairs),
        t * t * (3 * n + 2.5 * beta * pairs + 0.25 * beta * beta * pairs * (2 * n - 3)),
    )


def _laguerre_moments(nu: float, n: int, t: float) -> tuple[float, float]:
    """(E sum X^2, E sum X^4) of the Bessel system from 0 at time t, X = sqrt of
    the Laguerre (beta = 2) eigenvalues: class C/D at nu = +-1/2, the Gamma law at N = 1."""
    return 2.0 * t * n * (n + nu), 4.0 * t * t * n * (n + nu) * (2 * n + nu)


def _bridge_moments(n: int, t: float, c: float) -> tuple[float, float]:
    """(E p_2, E p_4) of the GUE-to-GOE bridge at time t: real parts as GOE at
    variance t, imaginary parts of variance c/2, c = t(T - t)/T.  In a = (t - c)/2
    and b = (t + c)/2; c = t is GUE at variance t, c = 0 is GOE."""
    a, b = 0.5 * (t - c), 0.5 * (t + c)
    return (
        a * n + b * n * n,
        (n * n + 2 * n) * a * a + (4 * n * n + 2 * n) * a * b + (2 * n ** 3 + n) * b * b,
    )


_ALPHA = 1e-4
_CHI2_CRIT = -2.0 * math.log(_ALPHA)  # chi-square(2) tail is exp(-x/2)
_Z_CRIT = 3.890592  # two-sided standard normal point at _ALPHA


def _moment_gate(rep: ExperimentReport, name: str, levels, exact) -> None:
    """Add the moment gate of levels (P, N) against exact (E p_2, E p_4) to rep."""
    x2 = np.asarray(levels, dtype=float) ** 2
    p = np.stack([x2.sum(axis=1), (x2 * x2).sum(axis=1)], axis=1)
    d = p.mean(axis=0) - np.asarray(exact, dtype=float)
    chi2 = len(p) * float(d @ np.linalg.solve(np.cov(p, rowvar=False), d))
    rep.add(name, chi2, chi2 <= _CHI2_CRIT, critical_value=_CHI2_CRIT)


# ---------------------------------------------------------------------------
# pooled marginals of small-N ordered densities
# ---------------------------------------------------------------------------

def pooled_marginal_2(density2: Callable, zs: np.ndarray, lo: float, hi: float, m: int = 200):
    """Pooled one-particle marginal of an ordered 2-particle density."""
    nodes, weights = gl_nodes(m, lo, hi)
    out = np.empty_like(zs)
    for i, z in enumerate(zs):
        above = nodes > z
        below = ~above
        v = 0.0
        if above.any():
            v += float(np.dot(weights[above], density2(z, nodes[above])))
        if below.any():
            v += float(np.dot(weights[below], density2(nodes[below], z)))
        out[i] = v
    return out


def pooled_marginal_3(density3: Callable, zs: np.ndarray, lo: float, hi: float, m: int = 80):
    """Pooled one-particle marginal of an ordered 3-particle density.

    density3(a, b, c) must broadcast over same-shape arrays.
    """
    nodes, weights = gl_nodes(m, lo, hi)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    wu, wv = np.meshgrid(weights, weights, indexing="ij")
    w2 = (wu * wv).ravel()
    u, v = u.ravel(), v.ravel()
    out = np.empty_like(zs)
    for i, z in enumerate(zs):
        total = 0.0
        sel = (z < u) & (u < v)
        if sel.any():
            total += float(np.dot(w2[sel], density3(z, u[sel], v[sel])))
        sel = (u < z) & (z < v)
        if sel.any():
            total += float(np.dot(w2[sel], density3(u[sel], z, v[sel])))
        sel = (u < v) & (v < z)
        if sel.any():
            total += float(np.dot(w2[sel], density3(u[sel], v[sel], z)))
        out[i] = total
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    experiment_id: str
    parameters: dict
    seed: int
    streams: list
    statistics: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add(
        self,
        name: str,
        value: float,
        passed: bool,
        stderr: Optional[float] = None,
        critical_value: Optional[float] = None,
    ):
        entry = {"name": name, "value": float(value)}
        if stderr is not None:
            entry["stderr"] = float(stderr)
        if critical_value is not None:
            entry["critical_value"] = float(critical_value)
        self.statistics.append(entry)
        self.verdicts[name] = bool(passed)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> str:
        doc = {
            "experiment_id": self.experiment_id,
            "parameters": self.parameters,
            "seed": self.seed,
            "streams": self.streams,
            "statistics": self.statistics,
            "verdicts": self.verdicts,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        doc = json.loads(text)
        return ExperimentReport(
            experiment_id=doc["experiment_id"],
            parameters=doc["parameters"],
            seed=doc["seed"],
            streams=doc["streams"],
            statistics=doc["statistics"],
            verdicts=doc["verdicts"],
        )


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _pin(report: ExperimentReport, t0: float) -> ExperimentReport:
    report.wall_time = time.monotonic() - t0
    return report


def _merge(rep: ExperimentReport, prefix: str, sub: ExperimentReport) -> None:
    """Copy sub's statistics and verdicts into rep, names prefixed."""
    for s_ in sub.statistics:
        rep.add(prefix + s_["name"], s_["value"], sub.verdicts[s_["name"]],
                stderr=s_.get("stderr"), critical_value=s_.get("critical_value"))


def run_marginal_check(
    kind: ens.EnsembleKind,
    t: float,
    n_samples: int,
    stream: RngStream,
) -> ExperimentReport:
    """Spectra of a Gaussian beta-ensemble (GUE/GOE/GSE distinct levels at
    variance t, or the beta-tridiagonal model, static at t = 1) gated on their
    exact moments; for GUE also the top eigenvalue against rightmost_cdf.
    Laguerre spectra (levels sqrt(lambda)) and class C/D spectra (positive
    levels) are the Bessel system from 0 at nu and nu = +-1/2, gated on
    ``_laguerre_moments``; Wishart raises RouteInapplicable."""
    t0 = time.monotonic()
    beta = {"gue": 2.0, "goe": 1.0, "gse": 4.0, "beta_tridiagonal": kind.beta}.get(kind.tag)
    nu = {"laguerre": kind.nu, "class_c": 0.5, "class_d": -0.5}.get(kind.tag)
    if beta is None and nu is None:
        raise RouteInapplicable(
            "moment gates cover gue/goe/gse/beta_tridiagonal/laguerre/class_c/class_d")
    rep = ExperimentReport(
        experiment_id=f"marginal-{kind.tag}-n{kind.n}",
        parameters={"tag": kind.tag, "n": kind.n, "t": t, "n_samples": n_samples,
                    "beta": kind.beta, "nu": kind.nu},
        seed=stream.seed,
        streams=[stream.stream_id],
    )
    lam = ens.sample_spectra(kind, t, n_samples, stream, distinct=True)
    if nu is not None:
        levels = np.sqrt(lam) if kind.tag == "laguerre" else lam
        _moment_gate(rep, "moments", levels, _laguerre_moments(nu, kind.n, t))
        return _pin(rep, t0)
    t_eff = 1.0 if kind.tag == "beta_tridiagonal" else t
    _moment_gate(rep, "moments", lam, _gaussian_moments(beta, kind.n, t_eff))
    if kind.tag == "gue":
        top = lam[:, -1]
        for alpha in (1.0, 2.0, 3.0):
            a_s = alpha * math.sqrt(t) * math.sqrt(kind.n)
            f = fred.rightmost_cdf(kind.n, t, a_s)
            emp = float(np.mean(top <= a_s))
            se = math.sqrt(max(f * (1 - f), 1.0 / n_samples) / n_samples)
            rep.add(
                f"rightmost_alpha_{alpha}", emp - f, abs(emp - f) <= _Z_CRIT * se, stderr=se
            )
    return _pin(rep, t0)


def _kernel_moments(system: str, param: float, n: int, t: float) -> np.ndarray:
    """(int x^2 K_N(x, x) dx, int x^4 K_N(x, x) dx) at time t by 200-point
    Gauss-Legendre over the Gram diagonal; on the half-line the nodes are graded
    as x = span u^4 toward the hard edge, where K_N(x, x) ~ x^(2 nu + 1).  Matches
    the closed forms to <= 4e-14 relative for N <= 30, -0.9 <= nu <= 7.5."""
    span = (3.0 * math.sqrt(n + (param if system == "bessel" else 0.0)) + 10.0) * math.sqrt(t)
    if system == "dyson":
        xs, ws = gl_nodes(200, -span, span)
        kern = ker.hermite_kernel(n)
    else:
        u, wu = gl_nodes(200, 0.0, 1.0)
        xs, ws = span * u ** 4, wu * 4.0 * span * u ** 3
        kern = ker.laguerre_kernel(n, param)
    mass = ws * np.diag(kern.equal_time_matrix(t, xs))
    return np.array([np.dot(mass, xs ** 2), np.dot(mass, xs ** 4)])


def run_equivalence_check(
    route_a: str,
    route_b: str,
    params: dict,
    stream: RngStream,
) -> ExperimentReport:
    """The routes sde, matrix and kernel to the law at time t of the Dyson
    (param beta) or Bessel (param nu) system from 0, each against the exact
    moments: a moment gate on each drawn cloud, and for the kernel the
    Gram-diagonal moments within 1e-12 relative."""
    t0 = time.monotonic()
    routes = (route_a, route_b)
    unknown = [r for r in routes if r not in ("sde", "matrix", "kernel")]
    if unknown:
        raise RouteInapplicable(f"unknown route {unknown[0]!r}: use sde, matrix or kernel")
    if route_a == route_b:
        raise RouteInapplicable("routes must differ")
    n = int(params["n"])
    t = float(params.get("t", 1.0))
    n_samples = int(params.get("n_samples", 10_000))
    system = params.get("system", "dyson")
    param = float(params.get("beta", 2.0) if system == "dyson" else params.get("nu", 0.0))
    if "kernel" in routes and system == "dyson" and param != 2.0:
        raise RouteInapplicable("the Hermite kernel route is the beta = 2 law")
    rep = ExperimentReport(
        experiment_id=f"equiv-{route_a}-{route_b}-{system}-n{n}",
        parameters={**params, "n": n, "t": t, "n_samples": n_samples},
        seed=stream.seed,
        streams=[stream.stream_id],
    )
    exact = (_gaussian_moments if system == "dyson" else _laguerre_moments)(param, n, t)
    # caller order fixes which cloud draws from the shared stream first
    for r in routes:
        if r == "matrix":
            try:
                lam = ens.origin_spectra(system, param, n, t, n_samples, stream)
            except DomainError as exc:
                raise RouteInapplicable(f"no matrix route for {system} at {param}") from exc
            _moment_gate(rep, "moments_matrix", lam, exact)
        elif r == "sde":
            cloud = sdemod.dyson_cloud if system == "dyson" else sdemod.bessel_cloud
            lam = cloud(param, [0.0] * n, TimeGrid.of([t]), stream,
                        float(params.get("dt_max", 1e-3)), n_samples)[:, 0, :]
            _moment_gate(rep, "moments_sde", lam, exact)
        else:
            err = float(np.max(np.abs(_kernel_moments(system, param, n, t) / exact - 1.0)))
            rep.add("moments_kernel", err, err <= 1e-12)
    return _pin(rep, t0)


def _gnt_origin_moments(n: int, T: float, t: float) -> np.ndarray:
    """(E p_2, E p_4) under g_NT_origin at 0 < t < T by a 96-point-per-axis ordered
    tensor quadrature of the density over |y| < 8 sqrt t + 2 sqrt(N t).  At N = 2
    it matches the closed form to <= 3e-15 relative for 1e-3 T <= t <= 0.99 T
    and 3.1e-13 at t = 0.999 T, where the survival factor's boundary layer of
    width sqrt(T - t) starts to need more nodes; 48 nodes read 5e-9 at t = 0.05 T.
    The density at each node is the library's (``karlin_mcgregor._log_g_nt_origin``)."""
    h = 8.0 * math.sqrt(t) + 2.0 * math.sqrt(n * t)
    pts, w = km._ordered_tensor_grid(96, -h, h, n)
    surv = km._survival_pf(T - t, pts)[0]
    mass = w * np.exp([km._log_g_nt_origin(t, y, T, s_) for y, s_ in zip(pts.tolist(), surv)])
    x2 = pts * pts
    return np.array([np.dot(mass, x2.sum(axis=1)), np.dot(mass, (x2 * x2).sum(axis=1))])


def run_bridge_check(
    n: int,
    T: float,
    times: Sequence[float],
    n_samples: int,
    stream: RngStream,
) -> ExperimentReport:
    """GUE-to-GOE bridge spectra gated on their exact moments at every time
    0 < t <= T; at interior times also the moments of g_NT_origin, the density
    of N noncolliding Brownian motions from 0 conditioned to survive to T, by
    quadrature against the same closed form (within 1e-12 relative, which holds
    for t <= 0.999 T)."""
    t0 = time.monotonic()
    if n != 2:
        raise RouteInapplicable("the g_NT_origin quadrature is implemented for N = 2")
    rep = ExperimentReport(
        experiment_id=f"bridge-n{n}-T{T}",
        parameters={"n": n, "T": T, "times": list(times), "n_samples": n_samples},
        seed=stream.seed,
        streams=[stream.stream_id],
    )
    grid = TimeGrid.of(sorted(times), horizon=T)
    spectra = ens.sample_path_spectra(
        ens.EnsembleKind("gue_to_goe", n, horizon=T), grid, n_samples, stream
    )
    for k, tt in enumerate(grid.times):
        exact = _bridge_moments(n, tt, tt * (T - tt) / T)
        _moment_gate(rep, f"moments_t{tt}", spectra[:, k, :], exact)
        if tt < T:
            err = float(np.max(np.abs(_gnt_origin_moments(n, T, tt) / exact - 1.0)))
            rep.add(f"gnt_origin_moments_t{tt}", err, err <= 1e-12)
    return _pin(rep, t0)


def run_hc_check(
    sizes: Sequence[int], sigma: float, n_mc: int, stream: RngStream
) -> ExperimentReport:
    """Harish-Chandra identity: exact at N = 1, Monte Carlo z-gates at N >= 2."""
    t0 = time.monotonic()
    rep = ExperimentReport(
        experiment_id="harish-chandra",
        parameters={"sizes": list(sizes), "sigma": sigma, "n_mc": n_mc},
        seed=stream.seed,
        streams=[stream.stream_id],
    )
    for n in sizes:
        x = validate_chamber([0.35 * i - 0.2 for i in range(n)], Chamber.A)
        y = validate_chamber([0.5 * i + 0.1 for i in range(n)], Chamber.A)
        r = ens.harish_chandra_check(x, y, sigma, n_mc if n > 1 else 100, stream)
        if n == 1:
            ok = abs(r.lhs_mc - r.rhs_exact) <= 1e-12
            rep.add("hc_n1_exact", r.lhs_mc - r.rhs_exact, ok)
        else:
            ok = r.deviation_sigmas <= _Z_CRIT
            rep.add(f"hc_n{n}_dev_sigmas", r.deviation_sigmas, ok, stderr=r.lhs_stderr)
    return _pin(rep, t0)


# ---------------------------------------------------------------------------
# verification suites (CLI `verify --suite ...`)
# ---------------------------------------------------------------------------

def _suite_densities(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(
        experiment_id="suite-densities", parameters={}, seed=seed, streams=[]
    )
    val = adaptive_quad(lambda y: dens.bm_density(1.0, y, 0.0), -10, 10, rel_tol=1e-12)
    rep.add("bm_norm", val - 1.0, abs(val - 1.0) <= 1e-10)
    val = adaptive_quad(lambda y: dens.bridge_density(0, 0, 0.5, y, 1.0), -8, 8, rel_tol=1e-12)
    rep.add("bridge_norm", val - 1.0, abs(val - 1.0) <= 1e-10)
    h = dens.survival_h(0.7, 1.1)
    val = adaptive_quad(lambda y: dens.absorbing_density(0.7, y, 1.1), 0, 12, rel_tol=1e-12)
    rep.add("absorbing_vs_survival", val - h, abs(val - h) <= 1e-10)
    for nu, t, x in ((0.5, 1.0, 1.0), (0.0, 1.0, 2.0), (-0.4, 1.0, 1.0)):
        val = adaptive_quad(
            lambda y: dens.bessel_density(nu, t, y, x), 0.0, x + 14 * math.sqrt(t),
            rel_tol=1e-10,
        )
        rep.add(f"bessel_norm_nu{nu}", val - 1.0, abs(val - 1.0) <= 1e-8)
    # Chapman-Kolmogorov: G, G^(1/2), G^(nu)
    ck = adaptive_quad(
        lambda z: dens.bm_density(0.4, z, 0.2) * dens.bm_density(0.5, 1.0, z), -12, 12,
        rel_tol=1e-10,
    )
    rep.add("ck_bm", ck - dens.bm_density(0.9, 1.0, 0.2),
            abs(ck - dens.bm_density(0.9, 1.0, 0.2)) <= 1e-6)
    for nu in (0.5, 0.0):
        ck = adaptive_quad(
            lambda z: dens.bessel_density(nu, 0.4, z, 1.1) * dens.bessel_density(nu, 0.3, 0.8, z),
            0.0, 20.0, rel_tol=1e-10,
        )
        target = dens.bessel_density(nu, 0.7, 0.8, 1.1)
        rep.add(f"ck_bessel_nu{nu}", ck - target, abs(ck - target) <= 1e-6)
    # meander normalization and 1D Imhof
    val = adaptive_quad(lambda y: dens.meander_density(0, 0, 0.5, y, 1.0), 0, 10, rel_tol=1e-10)
    rep.add("meander_norm", val - 1.0, abs(val - 1.0) <= 1e-8)
    r = dens.meander_density(0, 0, 1.0, 1.7, 1.0) / dens.bessel3_density_origin(1.0, 1.7)
    imhof = math.sqrt(math.pi / 2.0) / 1.7
    rep.add("imhof_1d", r - imhof, abs(r - imhof) <= 1e-10)
    p = DensityParams(nu=0.7, kappa=0.9, T=2.0)
    r = dens.gen_meander_density(p, 0, 0, 2.0, 1.3) / dens.bessel_density(0.7, 2.0, 1.3, 0.0)
    expect = math.exp(math.lgamma(1.7) - math.lgamma(1.25)) * (math.sqrt(4.0) / 1.3) ** 0.9
    rep.add("imhof_gen_1d", r - expect, abs(r - expect) <= 1e-8)
    return _pin(rep, t0)


def _suite_km(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    stream = RngStream(seed, 100)
    rep = ExperimentReport(experiment_id="suite-km", parameters={}, seed=seed, streams=[100])
    # f_N^(1/2) against the reflection principle: BES(3) is Brownian motion killed at 0,
    # h-transformed by h(x) = x, so p(t, y|x) = (y/x) phi_t(y - x)(1 - e^(-2xy/t))
    worst_bessel = 0.0

    def random_config(n, chamber):
        # minimum gap 0.05 keeps the shared determinant well conditioned
        start = 0.1 + stream.uniform() if chamber is Chamber.C else stream.normal()
        gaps = 0.05 + stream.uniform(n - 1) * 1.2
        return validate_chamber(start + np.concatenate([[0.0], np.cumsum(gaps)]), chamber)

    for _ in range(100):
        n = 2 + int(stream.uniform() * 3)  # 2..4
        for _ in range(2):  # unused type-A draws: they fix the stream positions below
            random_config(n, Chamber.A)
        xc = random_config(n, Chamber.C)
        yc = random_config(n, Chamber.C)
        a = km.f_n_nu(0.5, 0.6, yc, xc)
        xv, yv = xc.as_array()[:, None], yc.as_array()[None, :]
        b = np.prod(yv) / np.prod(xv) * np.linalg.det(
            dens.bm_density(0.6, yv, xv) * -np.expm1(-2.0 * xv * yv / 0.6))
        worst_bessel = max(worst_bessel, abs(a - b) / max(abs(a), 1e-300))
    # semigroup identity int_W f_N(t, y|x) N_N(s, y) dy = N_N(t + s, x): a tensor
    # quadrature of the Karlin-McGregor determinant against de Bruijn's Pfaffian
    worst_bm = 0.0
    for xv in (np.array([-0.3, 0.5]), np.array([-0.6, 0.1, 0.9])):
        pts, w = km._ordered_tensor_grid(48, xv[0] - 8.0 * math.sqrt(0.7),
                                         xv[-1] + 8.0 * math.sqrt(0.7), len(xv))
        sign, logf = km._km_log(partial(dens.log_bm_density, 0.7), pts, xv)
        for s in (0.0, 0.5):
            surv = km._survival_pf(s, pts)[0] if s > 0.0 else 1.0
            lhs = float(np.dot(w, sign * np.exp(logf) * surv))
            rhs = km.survival_n(0.7 + s, validate_chamber(xv, Chamber.A)).value
            worst_bm = max(worst_bm, abs(lhs / rhs - 1.0))
    rep.add("fn_semigroup_bm", worst_bm, worst_bm <= 1e-9)
    # the same for the weighted survival at (nu, kappa) = (1/2, 1); N~(0, y) = prod y^-kappa
    x_nu = validate_chamber([0.4, 1.1], Chamber.C)
    pts, w = km._ordered_tensor_grid(32, 0.0, 1.1 + 8.0 * math.sqrt(0.7), 2)
    sign, logf = km._km_log(partial(dens.log_bessel_density, 0.5, 0.7), pts, x_nu.as_array())
    worst_nn, nn_pts = 0.0, km._nn_tilde_pf(0.5, 1.0, 0.4, pts)[0]
    for s, inner in ((0.0, 1.0 / np.prod(pts, axis=1)), (0.4, nn_pts)):
        lhs = float(np.dot(w, sign * np.exp(logf) * inner))
        worst_nn = max(worst_nn, abs(lhs / km.nn_tilde(0.5, 1.0, 0.7 + s, x_nu).value - 1.0))
    rep.add("nn_tilde_semigroup", worst_nn, worst_nn <= 1e-12)
    rep.add("fn_nu_half_reflection", worst_bessel, worst_bessel <= 1e-10)
    # multidimensional Imhof at t = T (closed form both sides)
    y = validate_chamber([-1.0, 1.0], Chamber.A)
    r = km.imhof_ratio(1.0, y, 1.0)
    expect = math.sqrt(math.pi) / 2.0
    rep.add("imhof_md", r - expect, abs(r - expect) <= 1e-8)
    # origin normalization (N = 2)
    pts, w = km._ordered_tensor_grid(80, -8.0, 8.0, 2)
    vals = np.array([km.p_n_origin(1.0, validate_chamber(p, Chamber.A)) for p in pts])
    total = float(np.dot(w, vals))
    rep.add("p2_origin_norm", total - 1.0, abs(total - 1.0) <= 1e-6)
    # asymptotics ratios decreasing toward 1
    for n in (2, 3):
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            xv = np.arange(n, dtype=float) * eps
            x = validate_chamber(xv - xv.mean(), Chamber.A)
            yv = validate_chamber(np.linspace(-1.0, 1.2, n), Chamber.A)
            fa = km.f_n(1.0, yv, x)
            c = km.constants(n)
            asym = math.exp(
                -0.25 * n * (n + 1) * math.log(1.0) - c.log_c1
                + km.log_vandermonde(x.as_array())
                + km.log_vandermonde(yv.as_array())
                - float(np.dot(yv.as_array(), yv.as_array())) / 2.0
            )
            ratios.append(fa / asym)
        errs = [abs(r - 1.0) for r in ratios]
        rep.add(f"fn_asym_n{n}", errs[-1], errs[0] > errs[1] > errs[2] and errs[-1] <= 1e-4)
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            xv = np.arange(n, dtype=float) * eps
            x = validate_chamber(xv - xv.mean(), Chamber.A)
            sv = km.survival_n(1.0, x)
            c = km.constants(n)
            asym = math.exp(
                c.log_c2 - c.log_c1 + km.log_vandermonde(x.as_array())
            )
            ratios.append(sv.value / asym)
        errs = [abs(r - 1.0) for r in ratios]
        rep.add(f"surv_asym_n{n}", errs[-1], errs[0] > errs[1] > errs[2] and errs[-1] <= 1e-4)
    return _pin(rep, t0)


def _suite_ensembles(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(
        experiment_id="suite-ensembles", parameters={}, seed=seed, streams=[200, 201, 202]
    )
    s = RngStream(seed, 200)
    lam = ens.sample_spectra(ens.EnsembleKind("gse", 2), 1.0, 1000, s)
    gaps = np.abs(lam[:, 1::2] - lam[:, 0::2])
    scale = np.max(np.abs(lam), axis=1, keepdims=True)
    rep.add("gse_degeneracy", float(np.max(gaps / scale)), bool(np.max(gaps / scale) <= 1e-9))
    for tag in ("class_c", "class_d"):
        lam = ens.sample_spectra(ens.EnsembleKind(tag, 2), 1.0, 1000, s)
        resid = np.max(np.abs(np.sort(lam, axis=1) + np.sort(-lam, axis=1)[:, ::-1]), axis=1)
        scale = np.max(np.abs(lam), axis=1)
        rep.add(f"{tag}_pm_symmetry", float(np.max(resid / scale)),
                bool(np.max(resid / scale) <= 1e-9))
    for tag, nu in (("laguerre", 1), ("wishart", 2)):
        lam = ens.sample_spectra(ens.EnsembleKind(tag, 3, nu=nu), 1.0, 1000, s)
        scale = np.max(lam, axis=1)
        rep.add(f"{tag}_nonneg", float(np.min(lam / scale[:, None])),
                bool(np.min(lam) >= -1e-10 * np.max(scale)))
    s2 = RngStream(seed, 201)
    spec = ens.sample_spectra(ens.EnsembleKind("gue", 2), 1.0, 100_000, s2)
    _moment_gate(rep, "gue2_moments", spec, _gaussian_moments(2.0, 2, 1.0))
    # beta-tridiagonal and dense N = 8 spectra, beta in {1, 2, 4}
    s3 = RngStream(seed, 202)
    for beta, tag in ((1.0, "goe"), (2.0, "gue"), (4.0, "gse")):
        exact = _gaussian_moments(beta, 8, 1.0)
        a = ens.sample_spectra(ens.EnsembleKind("beta_tridiagonal", 8, beta=beta), 1.0, 10_000, s3)
        _moment_gate(rep, f"tridiag_beta{beta}_moments", a, exact)
        b = ens.sample_spectra(ens.EnsembleKind(tag, 8), 1.0, 10_000, s3, distinct=True)
        _moment_gate(rep, f"{tag}8_moments", b, exact)
    # Ginibre circular-law second moment: E|z|^2 / N -> 1/2
    g = ens.sample_matrix(ens.EnsembleKind("ginibre", 64), 1.0, s3)
    z = np.linalg.eigvals(g.entries)
    m2 = float(np.mean(np.abs(z) ** 2)) / 64.0
    rep.add("ginibre_m2", m2 - 0.5, abs(m2 - 0.5) <= 0.05)
    return _pin(rep, t0)


def _suite_sde(seed: int, dt_max: float = 1e-3) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(
        experiment_id="suite-sde", parameters={"dt_max": dt_max}, seed=seed,
        streams=[300, 301, 302, 303, 304, 305],
    )
    for prefix, law, n_samples, stream_id in (
        ("dyson_", {"system": "dyson", "beta": 2.0}, 10_000, 300),
        ("bessel_", {"system": "bessel", "nu": 0.0}, 8_000, 301),
    ):
        params = {**law, "n": 2, "t": 1.0, "n_samples": n_samples, "dt_max": dt_max}
        _merge(rep, prefix,
               run_equivalence_check("sde", "matrix", params, RngStream(seed, stream_id)))
    # N = 1 free case: X(1) ~ N(0, 1)
    cloud = sdemod.dyson_cloud(2.0, [0.0], TimeGrid.of([1.0]), RngStream(seed, 302),
                               dt_max, 10_000)
    _moment_gate(rep, "dyson_n1_moments", cloud[:, 0, :], _gaussian_moments(2.0, 1, 1.0))
    # step halving moves the top-particle mean by less than MC error; the two
    # clouds come from independent streams, as the stderr assumes
    x0 = validate_chamber([-0.5, 0.5], Chamber.A)
    a = sdemod.dyson_cloud(2.0, x0, TimeGrid.of([1.0]), RngStream(seed, 303), dt_max, 4000)
    b = sdemod.dyson_cloud(2.0, x0, TimeGrid.of([1.0]), RngStream(seed, 304), dt_max / 2, 4000)
    ma, mb = a[:, 0, 1].mean(), b[:, 0, 1].mean()
    se = math.hypot(a[:, 0, 1].std(), b[:, 0, 1].std()) / math.sqrt(4000)
    rep.add("step_halving", float(ma - mb), abs(ma - mb) <= _Z_CRIT * se, stderr=se)
    # a start near the wall shows the step bias the zero-start gates cannot:
    # E sum x_i^2(t) = sum x_i(0)^2 + (N + beta N(N-1)/2) t
    x0 = np.array([-0.01, 0.01])
    cloud = sdemod.dyson_cloud(2.0, validate_chamber(x0, Chamber.A), TimeGrid.of([1.0]),
                               RngStream(seed, 305), dt_max, 10_000)
    p2 = np.sum(cloud[:, 0, :] ** 2, axis=1)
    d = float(p2.mean()) - (float(x0 @ x0) + 4.0)  # N + beta N(N-1)/2 = 4 at N = beta = 2
    se = float(p2.std()) / math.sqrt(len(p2))
    rep.add("dyson_fixed_start_p2", d, abs(d) <= _Z_CRIT * se, stderr=se)
    return _pin(rep, t0)


def _suite_kernels(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(experiment_id="suite-kernels", parameters={}, seed=seed, streams=[])
    # traces and reproducing property
    edges = np.linspace(-10.0, 10.0, 11)
    xs = np.concatenate([gl_nodes(61, a, b)[0] for a, b in zip(edges, edges[1:])])
    ws = np.concatenate([gl_nodes(61, a, b)[1] for a, b in zip(edges, edges[1:])])
    worst_tr, worst_rep = 0.0, 0.0
    for n in range(1, 6):
        kmat = ker.hermite_kernel(n).equal_time_matrix(0.5, xs)
        worst_tr = max(worst_tr, abs(float(np.dot(ws, np.diag(kmat))) - n))
        worst_rep = max(worst_rep, float(np.max(np.abs(kmat @ (ws[:, None] * kmat) - kmat))))
    rep.add("hermite_trace", worst_tr, worst_tr <= 1e-8)
    rep.add("hermite_reproducing", worst_rep, worst_rep <= 1e-8)
    # laguerre with substituted grid for the hard-edge singularity
    worst_tr, worst_rep = 0.0, 0.0
    for nu in (-0.4, 0.5):
        q = 2.0 if nu == 0.5 else 1.0 / (1.0 + nu)
        uedges = np.linspace(0.0, 12.0 ** (1.0 / q), 11)
        us = np.concatenate([gl_nodes(61, a, b)[0] for a, b in zip(uedges, uedges[1:])])
        uw = np.concatenate([gl_nodes(61, a, b)[1] for a, b in zip(uedges, uedges[1:])])
        xs_l = us**q
        ws_l = uw * q * us ** (q - 1.0)
        for n in range(1, 5):
            kmat = ker.laguerre_kernel(n, nu).equal_time_matrix(0.5, xs_l)
            worst_tr = max(worst_tr, abs(float(np.dot(ws_l, np.diag(kmat))) - n))
            worst_rep = max(
                worst_rep, float(np.max(np.abs(kmat @ (ws_l[:, None] * kmat) - kmat)))
            )
    rep.add("laguerre_trace", worst_tr, worst_tr <= 1e-8)
    rep.add("laguerre_reproducing", worst_rep, worst_rep <= 1e-8)
    # Airy table: Ai(0), Ai'(0) against their Gamma closed forms, and the table
    # against each asymptotic expansion at its switch (numpy only)
    at_zero = ker._airy_both(np.array([0.0]))
    devs = [abs(at_zero[0][0] * 3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0) - 1.0),
            abs(at_zero[1][0] * -(3.0 ** (1.0 / 3.0)) * math.gamma(1.0 / 3.0) - 1.0)]
    for seam, expansion in ((-12.0, ker._airy_negative), (10.0, ker._airy_decaying)):
        table, other = ker._airy_table(np.array([seam])), expansion(np.array([seam]))
        devs += [abs(a[0] / b[0] - 1.0) for a, b in zip(table, other)]
    rep.add("airy_table", max(devs), max(devs) <= 1e-14)
    rep.add("sine_diag", ker.kernel_sine(1.0, 0.3, 1.0, 0.3) - 1.0 / math.pi,
            abs(ker.kernel_sine(1.0, 0.3, 1.0, 0.3) - 1.0 / math.pi) <= 1e-12)
    # s > t, head minus heat kernel: K(s, x; t, x) = -erfc(sqrt b) / 2 sqrt(pi b), b = (s - t)/2
    worst = max(abs(ker.kernel_sine(1.0 + 2.0 * b, x0, 1.0, x0)
                    + math.erfc(math.sqrt(b)) / (2.0 * math.sqrt(math.pi * b)))
                for b in (0.025, 0.25, 0.75) for x0 in (0.0, 2.3))
    rep.add("sine_two_time_diag", worst, worst <= 1e-13)
    # soft-edge approach
    errs = []
    for n in (50, 100, 200):
        t = n ** (1.0 / 3.0)
        a = 2.0 * n ** (2.0 / 3.0)
        worst = 0.0
        for xi, eta in ((-1.0, -1.0), (-0.5, 0.5), (0.0, 0.0), (0.7, -0.3), (1.0, 1.0)):
            kn = ker.kernel_hermite(n, t, xi + a, t, eta + a)
            ka = ker.kernel_airy(1.0, xi, 1.0, eta)
            worst = max(worst, abs(kn - ka))
        errs.append(worst)
    rep.add("soft_edge_approach", errs[-1], errs[0] > errs[1] > errs[2])
    # hard-edge closed form vs the quadrature of its defining integral
    worst = 0.0
    for nu in (-0.4, 0.5):
        for x0, y0 in ((0.7, 1.3), (0.4, 2.0)):
            closed = ker.kernel_bessel_hard(nu, 1.0, x0, 1.0, y0)
            integral = ker._hard_edge_head(nu, 0.0, np.array([x0]), np.array([y0]))[0, 0]
            worst = max(worst, abs(closed - integral))
    rep.add("hard_edge_dual", worst, worst <= 1e-6)
    # one Brownian particle: rho(t1, x1; t2, x2) = p(t1, x1 | 0) p(t2 - t1, x2 | x1),
    # from the blocks s < t and s > t alike (both point orders)
    worst = 0.0
    for t1, x1, t2, x2 in ((0.5, 0.3, 1.0, -0.4), (0.2, -0.5, 1.7, 0.8), (1.0, 1.2, 1.3, 1.0)):
        want = dens.bm_density(t1, x1, 0.0) * dens.bm_density(t2 - t1, x2, x1)
        for pts in ([(t1, x1), (t2, x2)], [(t2, x2), (t1, x1)]):
            rho = ker.correlation_function(ker.hermite_kernel(1), pts)
            worst = max(worst, abs(rho / want - 1.0))
    rep.add("correlation_n1_two_time", worst, worst <= 1e-13)
    # hard edge nu=+-1/2 vs odd/even sine kernels
    worst = 0.0
    for x0, y0 in ((0.4, 1.1), (0.8, 2.3)):
        v = ker.kernel_bessel_hard(0.5, 1.0, x0, 1.0, y0)
        odd = math.sin(2 * (x0 - y0)) / (math.pi * (x0 - y0)) - math.sin(2 * (x0 + y0)) / (
            math.pi * (x0 + y0)
        )
        worst = max(worst, abs(v - odd))
        v = ker.kernel_bessel_hard(-0.5, 1.0, x0, 1.0, y0)
        even = math.sin(2 * (x0 - y0)) / (math.pi * (x0 - y0)) + math.sin(2 * (x0 + y0)) / (
            math.pi * (x0 + y0)
        )
        worst = max(worst, abs(v - even))
    rep.add("hard_edge_sine_reflection", worst, worst <= 1e-6)
    return _pin(rep, t0)


def _suite_fredholm(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(experiment_id="suite-fredholm", parameters={}, seed=seed, streams=[])
    worst = 0.0
    for a in (-5.0, -3.0, -1.0, 0.0, 1.0, 2.0):
        diff = abs(fred.tracy_widom_fredholm(a) - fred.tracy_widom_painleve(a))
        worst = max(worst, diff)
    rep.add("tw_dual_route", worst, worst <= 1e-6)
    v = fred.rightmost_cdf(1, 1.0, 0.5)
    phi = 0.5 * (1.0 + math.erf(0.5 / math.sqrt(2.0)))
    rep.add("rightmost_n1_gaussian", v - phi, abs(v - phi) <= 1e-8)
    v = fred.sine_gap(1e-2)
    expect = 1.0 - 2e-2 / math.pi
    rep.add("sine_gap_expansion", v - expect, abs(v - expect) <= 1e-7)
    vals = [fred.tracy_widom_fredholm(a) for a in np.linspace(-6.0, 3.0, 19)]
    rep.add("tw_monotone", float(np.min(np.diff(vals))), bool(np.all(np.diff(vals) > -1e-12)))
    # the default node count against twice as many, once here instead of in every call
    worst = max(abs(fred.tracy_widom_fredholm(a) - fred.tracy_widom_fredholm(a, m=96))
                for a in (-10.0, -6.0, -3.0, 0.0, 3.0, 7.9))
    rep.add("tw_nodes_converged", worst, worst <= 1e-14)
    # rightmost_cdf's node rule m(N) against 2 m(N), across each window
    worst = 0.0
    for n in (1, 8, 160, 320):
        lo, hi, m = fred._rightmost_rule(n, 1.0)
        for a in np.linspace(lo, hi, 11)[1:-1]:
            worst = max(worst, abs(fred.rightmost_cdf(n, 1.0, a)
                                   - fred.rightmost_cdf(n, 1.0, a, m=2 * m)))
    rep.add("rightmost_nodes_converged", worst, worst <= 1e-14)
    # the N -> inf edge limit: max over s of |F_N(2 sqrt N + s N^(-1/6)) - F2(s)|
    # falls like N^(-2/3), so err(N) / err(4N) tends to 4^(2/3)
    s_grid = np.arange(-3.0, 2.0)
    f2 = [fred.tracy_widom_fredholm(s) for s in s_grid]
    err = {n: max(abs(fred.rightmost_cdf(n, 1.0, 2.0 * math.sqrt(n) + s * n ** (-1.0 / 6.0)) - f)
                  for s, f in zip(s_grid, f2)) for n in (20, 80, 320)}
    dev = max(abs(err[n] / err[4 * n] / 4.0 ** (2.0 / 3.0) - 1.0) for n in (20, 80))
    rep.add("edge_rate", dev, dev <= 0.05)
    return _pin(rep, t0)


def _suite_bridge(seed: int) -> ExperimentReport:
    return run_bridge_check(2, 1.0, [0.05, 0.5, 1.0], 100_000, RngStream(seed, 400))


def _suite_hc(seed: int) -> ExperimentReport:
    return run_hc_check([1, 2, 3], 1.0, 1_000_000, RngStream(seed, 500))


def _suite_marginals(seed: int) -> ExperimentReport:
    t0 = time.monotonic()
    rep = ExperimentReport(
        experiment_id="suite-marginals", parameters={}, seed=seed, streams=[600, 601, 602]
    )
    for prefix, kind, n_samples, stream_id in (
        ("gue2_", ens.EnsembleKind("gue", 2), 20_000, 600),
        ("goe3_", ens.EnsembleKind("goe", 3), 20_000, 601),
        ("tridiag4_", ens.EnsembleKind("beta_tridiagonal", 4, beta=4.0), 10_000, 602),
    ):
        _merge(rep, prefix, run_marginal_check(kind, 1.0, n_samples, RngStream(seed, stream_id)))
    return _pin(rep, t0)


SUITES = {
    "densities": _suite_densities,
    "km": _suite_km,
    "ensembles": _suite_ensembles,
    "sde": _suite_sde,
    "kernels": _suite_kernels,
    "fredholm": _suite_fredholm,
    "bridge": _suite_bridge,
    "hc": _suite_hc,
    "marginals": _suite_marginals,
}


def run_suite(name: str, seed: int, **overrides) -> list[ExperimentReport]:
    """Run one named verification suite (or 'all'); returns its reports."""
    if name == "all":
        return [fn(seed, **overrides) if key == "sde" else fn(seed) for key, fn in SUITES.items()]
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; options: {sorted(SUITES)} or 'all'")
    return [SUITES[name](seed, **overrides)]
