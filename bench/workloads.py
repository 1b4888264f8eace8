"""The benchmark's three workloads: inputs, timed program calls and checks.

A workload runs in rounds.  Each round draws fresh inputs from
``(seed, round)``, calls the program (only these calls are timed), and
checks every output against ``reference.py`` or an exact identity.  An
operation is one evaluated point, curve, cloud or identity; it fails when
the program raises or when its output check does not hold.

Stochastic checks compare a Monte Carlo mean with its exact value by
z = (mean - exact) / stderr and reject when |z| > Z_BOUND.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference as ref

Z_BOUND = 5.0
DT_MAX = 1e-3  # the library default step cap of the SDE clouds
SDE_GRID = (0.2, 0.4)

# output-check tolerances; README.md gives the accuracy each one rests on
TW_FREDHOLM_ATOL = 1e-12
TW_PAINLEVE_ATOL = 1e-6  # the library's dual-route Tracy-Widom gate
DET_ATOL = 1e-12
KERNEL_RTOL = 1e-10
GUE2_POINT_ATOL = 1e-10
GUE2_MOMENT_RTOL = 1e-9
GOE3_MOMENT_RTOL = 1e-2  # O(h^2) kink error of the m=60 tensor rule
KM_RTOL = 1e-9
SURVIVAL_RTOL = 1e-6  # survival_n's documented quadrature accuracy


@dataclass
class Round:
    """Counts and timings of one round of operations."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    program_s: float = 0.0  # time inside program calls
    values: int = 0  # primary output values (values_per_s numerator)
    values_s: float = 0.0  # time of the calls that produced them
    nominal_increments: int = 0  # SDE paths x particles x nominal steps
    diag: dict = field(default_factory=dict)  # worst error seen, by name
    zs: list = field(default_factory=list)  # every stochastic check's z

    def worst(self, name: str, value: float) -> None:
        self.diag[name] = max(self.diag.get(name, 0.0), float(value))

    def z_check(self, label: str, z: float, got: float, exact: float) -> list[str]:
        self.zs.append(z)
        self.worst("max_abs_z", abs(z))
        if abs(z) <= Z_BOUND:
            return []
        return [f"{label}: Monte Carlo {got!r} vs exact {exact!r}, z = {z:.2f}"]

    def mean_check(self, label: str, samples: np.ndarray, exact: float) -> list[str]:
        """z-test of the mean of iid ``samples`` against its exact value."""
        mean = float(samples.mean())
        se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
        return self.z_check(label, (mean - exact) / se, mean, exact)

    def op(self, label: str, compute, check, values: int = 0):
        """Time compute(), then check its output; check returns failure messages."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = compute()
        except Exception:
            self.program_s += time.perf_counter() - t0
            self.failed += 1
            print(f"operation raised: {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        self.program_s += dt
        if values:
            self.values += values
            self.values_s += dt
        problems = check(out)
        if problems:
            self.failed += 1
            self.mismatched += 1
            print(f"check failed: {label}: " + "; ".join(problems), file=sys.stderr)
        return out


def run_timings(rounds: list[Round]) -> tuple[float, float]:
    """``(wall_s, values_per_s)`` over all of a run's rounds: time inside
    program calls per round, and values per second of the calls that make
    them.

    Totals over the whole run rather than medians of single rounds: the
    host's CPU speed drifts in phases of one to two minutes, and a run that
    spans two phases then reports their weighted average, where a median of
    a few long rounds jumps to one of them.
    """
    wall_s = sum(r.program_s for r in rounds) / len(rounds)
    return wall_s, sum(r.values for r in rounds) / sum(r.values_s for r in rounds)


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{name}: got {got.flat[i]!r}, want {want.flat[i]!r}"]
    return []


def _unit_interval(name: str, values) -> list[str]:
    v = np.asarray(values, dtype=float)
    return [] if np.all((v >= 0.0) & (v <= 1.0)) else [f"{name} outside [0, 1]"]


def _monotone(name: str, values, increasing: bool) -> list[str]:
    d = np.diff(np.asarray(values, dtype=float))
    ok = np.all(d >= -1e-15) if increasing else np.all(d <= 1e-15)
    return [] if ok else [f"{name} not monotone"]


def _chamber_start(rng, n: int, positive: bool) -> np.ndarray:
    """Strictly increasing start with gaps >= 0.25 (and x_1 >= 0.25 if positive)."""
    x = np.cumsum(0.25 + 0.5 * rng.exponential(size=n))
    return x if positive else x - x.mean()


def _program_seed(rng) -> int:
    return int(rng.integers(2**62))


# ---------------------------------------------------------------------------
# tw-edge: Tracy-Widom by both routes, rightmost-particle CDFs, sine gaps
# ---------------------------------------------------------------------------

TW_LO, TW_HI, TW_CELLS = -6.0, 4.0, 10
RIGHTMOST_NS = (1, 2, 4, 8)


def tw_edge(rnd: Round, rng, nc) -> None:
    fred = nc.fredholm
    cell = (TW_HI - TW_LO) / TW_CELLS
    alphas = TW_LO + cell * (np.arange(TW_CELLS) + rng.uniform(size=TW_CELLS))
    for a in alphas:
        want = ref.tracy_widom_cdf(a)
        for route, fn, atol in (
            ("fredholm", fred.tracy_widom_fredholm, TW_FREDHOLM_ATOL),
            ("painleve", fred.tracy_widom_painleve, TW_PAINLEVE_ATOL),
        ):
            def check(v, route=route, atol=atol):
                rnd.worst(f"tw_{route}_abs_err", abs(v - want))
                return _close(f"TW {route} at {a!r}", v, want, atol) + _unit_interval("TW", v)

            rnd.op(f"tracy_widom_{route}({a!r})", lambda fn=fn: fn(float(a)), check, values=1)

    t = float(rng.uniform(0.5, 2.0))
    for n in RIGHTMOST_NS:
        grid = np.sort(math.sqrt(2.0 * n * t) * rng.uniform(-1.0, 1.5, size=6))

        def check(vals, n=n, grid=grid):
            want = [ref.rightmost_cdf(n, t, a) for a in grid]
            return (_close(f"rightmost_cdf n={n} t={t!r}", vals, want, DET_ATOL)
                    + _unit_interval("rightmost_cdf", vals)
                    + _monotone("rightmost_cdf", vals, increasing=True))

        rnd.op(f"rightmost_cdf n={n}",
               lambda n=n, grid=grid: [fred.rightmost_cdf(n, t, float(a)) for a in grid], check)

    gaps = np.sort(rng.uniform(0.05, 3.0, size=8))

    def check_sine(vals):
        want = [ref.sine_gap(a) for a in gaps]
        return (_close("sine_gap", vals, want, DET_ATOL) + _unit_interval("sine_gap", vals)
                + _monotone("sine_gap", vals, increasing=False))

    rnd.op("sine_gap", lambda: [fred.sine_gap(float(a)) for a in gaps], check_sine)


# ---------------------------------------------------------------------------
# exact-marginals: pooled marginals of exact eigenvalue densities, Hermite
# kernel densities, Karlin-McGregor determinants, survival probabilities
# ---------------------------------------------------------------------------

GUE2_Z, GUE2_SPAN = 48, 8.0  # z-grid size, half-width in units of sqrt(t)
GOE3_Z, GOE3_SPAN, GOE3_M = 24, 7.0, 60
KM_NS, KM_PAIRS = (2, 3, 4, 5, 6), 8


def _scalar_density(nc, kind, t):
    """The per-point density callback ``run_marginal_check`` builds: one
    validate_chamber and one eigen_density_exact call per configuration."""
    ens, core = nc.ensembles, nc.core

    def density(*coords):
        arrs = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
        out = np.empty(arrs[0].shape)
        for i in np.ndindex(out.shape):
            cfg = core.validate_chamber([a[i] for a in arrs], core.Chamber.A)
            out[i] = ens.eigen_density_exact(kind, cfg, t)
        return out

    return density


def _marginal_checks(name, marg, zs, wz, n, beta, t, rtol) -> list[str]:
    # pooled over N particles, so marg / N is a probability density with
    # second moment (1 + beta (N - 1) / 2) t
    mass = float(wz @ marg) / n
    m2 = float(wz @ (zs * zs * marg)) / n
    return (_close(f"{name} mass", mass, 1.0, 0.0, rtol)
            + _close(f"{name} second moment", m2, (1.0 + beta * (n - 1) / 2.0) * t, 0.0, rtol))


def exact_marginals(rnd: Round, rng, nc) -> None:
    ens, ex, km, ker, core = nc.ensembles, nc.experiments, nc.karlin_mcgregor, nc.kernels, nc.core
    t = float(rng.uniform(0.5, 2.0))

    span = GUE2_SPAN * math.sqrt(t)
    zs, wz = ref._gl(GUE2_Z, -span, span)
    gue2 = _scalar_density(nc, ens.EnsembleKind("gue", 2), t)

    def check_gue2(marg):
        want = ref.hermite_density(2, t, zs)
        return (_close("GUE N=2 marginal vs K_N(x,x)", marg, want, GUE2_POINT_ATOL)
                + _marginal_checks("GUE N=2", marg, zs, wz, 2, 2.0, t, GUE2_MOMENT_RTOL))

    rnd.op("pooled_marginal_2 gue", lambda: ex.pooled_marginal_2(gue2, zs, -span, span),
           check_gue2, values=len(zs))

    span3 = GOE3_SPAN * math.sqrt(t)
    zs3, wz3 = ref._gl(GOE3_Z, -span3, span3)
    goe3 = _scalar_density(nc, ens.EnsembleKind("goe", 3), t)

    rnd.op("pooled_marginal_3 goe",
           lambda: ex.pooled_marginal_3(goe3, zs3, -span3, span3, m=GOE3_M),
           lambda marg: _marginal_checks("GOE N=3", marg, zs3, wz3, 3, 1.0, t, GOE3_MOMENT_RTOL),
           values=len(zs3))

    for n in range(1, 9):
        xs = math.sqrt(2.0 * n * t) * rng.uniform(-1.5, 1.5, size=6)

        def hermite_curve(n=n, xs=xs):
            k = ker.hermite_kernel(n)
            return [k.evaluate(t, float(x), t, float(x)) for x in xs]

        rnd.op(f"hermite density n={n}", hermite_curve,
               lambda v, n=n, xs=xs: _close(f"K_{n}(x,x)", v, ref.hermite_density(n, t, xs),
                                            0.0, KERNEL_RTOL))

    for n in KM_NS:
        for _ in range(KM_PAIRS):
            x = _chamber_start(rng, n, False) + rng.normal()
            y = _chamber_start(rng, n, False) + rng.normal()
            s, tt = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.8, 2.0))
            want, scale = ref.karlin_mcgregor(tt, x, y)
            rnd.op(f"f_n n={n}",
                   lambda: km.f_n(tt, core.validate_chamber(y, "A"), core.validate_chamber(x, "A")),
                   lambda v: _close(f"f_n n={n}", v, want, DET_ATOL * scale, KM_RTOL))
            want_s, scale_s = ref.karlin_mcgregor(tt - s, x, y)
            rnd.op(f"km_density n={n}",
                   lambda: km.km_density(km.brownian_g, s, core.validate_chamber(x, "A"),
                                         tt, core.validate_chamber(y, "A")),
                   lambda v: _close(f"km_density n={n}", v, want_s, DET_ATOL * scale_s, KM_RTOL))

    for _ in range(2):
        x = _chamber_start(rng, 2, False)
        tt = float(rng.uniform(0.3, 2.0))
        rnd.op("survival_n n=2",
               lambda: km.survival_n(tt, core.validate_chamber(x, "A")).value,
               lambda v: _close("survival_n n=2", v, ref.survival_pair(tt, x[1] - x[0]),
                                0.0, SURVIVAL_RTOL))
    x = _chamber_start(rng, 3, False)
    tt = float(rng.uniform(0.3, 2.0))
    pair = [ref.survival_pair(tt, g) for g in np.diff(x)]

    def check_survival3(v):
        # no collision of the triple implies none of either adjacent pair, and
        # a collision of the triple is a collision of an adjacent pair
        lo, hi = 1.0 - sum(1.0 - p for p in pair), min(pair)
        ok = max(lo, 0.0) - SURVIVAL_RTOL <= v <= hi * (1.0 + SURVIVAL_RTOL) and v > 0.0
        return [] if ok else [f"survival_n n=3: {v!r} outside [{lo!r}, {hi!r}]"]

    rnd.op("survival_n n=3", lambda: km.survival_n(tt, core.validate_chamber(x, "A")).value,
           check_survival3)


# ---------------------------------------------------------------------------
# mc-paths: Dyson and Bessel-system clouds, matrix spectra, Harish-Chandra
# ---------------------------------------------------------------------------

DYSON = [(beta, n, paths) for beta in (1.0, 2.0, 4.0) for n, paths in ((2, 4000), (8, 250))]
BESSEL = [(nu, n, paths) for nu in (0.0, 0.5) for n, paths in ((2, 4000), (8, 250))]
ZERO_START = (2.0, 4, 500)  # beta, N, paths
GAUSSIAN_SPECTRA = (("gue", 2.0), ("goe", 1.0), ("gse", 4.0))  # tag, beta
LAGUERRE_NU, SPECTRA_N, SPECTRA_COUNT = 2, 8, 2000
HC_N, HC_SIGMA, HC_MC = 3, 1.0, 40_000


def cloud_checks(rnd: Round, label, cloud, x0, times, rate, positive) -> list[str]:
    """Open chamber at every output time, and E sum x_i^2(t) = sum x_i(0)^2 + rate t."""
    problems = []
    if not np.all(np.isfinite(cloud)) or not np.all(np.diff(cloud, axis=2) > 0.0) or (
        positive and not np.all(cloud[..., 0] > 0.0)
    ):
        problems.append(f"{label}: output outside the open chamber")
    for k, tk in enumerate(times):
        problems += rnd.mean_check(f"{label} E sum x^2({tk})", np.sum(cloud[:, k, :] ** 2, axis=1),
                                   float(x0 @ x0) + rate * tk)
    return problems


def mc_paths(rnd: Round, rng, nc) -> None:
    sde, ens, core = nc.sde, nc.ensembles, nc.core
    grid = core.TimeGrid.of(SDE_GRID)
    steps = math.ceil(SDE_GRID[-1] / DT_MAX - 1e-9)

    for beta, n, paths in DYSON:
        x0 = _chamber_start(rng, n, False)
        stream = core.RngStream(_program_seed(rng), 0)
        rate = n + beta * n * (n - 1) / 2.0
        rnd.nominal_increments += paths * n * steps
        rnd.op(f"dyson_cloud beta={beta} n={n}",
               lambda: sde.dyson_cloud(beta, core.validate_chamber(x0, "A"), grid, stream,
                                       DT_MAX, paths),
               lambda c: cloud_checks(rnd, f"dyson beta={beta} n={n}", c, x0, SDE_GRID, rate,
                                      False),
               values=paths * steps)

    for nu, n, paths in BESSEL:
        x0 = _chamber_start(rng, n, True)
        stream = core.RngStream(_program_seed(rng), 0)
        rnd.nominal_increments += paths * n * steps
        rnd.op(f"bessel_cloud nu={nu} n={n}",
               lambda: sde.bessel_cloud(nu, core.validate_chamber(x0, "C"), grid, stream,
                                        DT_MAX, paths),
               lambda c: cloud_checks(rnd, f"bessel nu={nu} n={n}", c, x0, SDE_GRID,
                                      2.0 * n * (n + nu), True),
               values=paths * steps)

    beta, n, paths = ZERO_START
    zero_steps = steps - 1  # the bootstrap sample covers the first dt_max
    stream = core.RngStream(_program_seed(rng), 0)
    rnd.nominal_increments += paths * n * zero_steps
    rnd.op("dyson_cloud zero start",
           lambda: sde.dyson_cloud(beta, [0.0] * n, grid, stream, DT_MAX, paths),
           lambda c: cloud_checks(rnd, "dyson zero start", c, np.zeros(n), SDE_GRID,
                                  n + beta * n * (n - 1) / 2.0, False),
           values=paths * zero_steps)

    t = float(rng.uniform(0.5, 2.0))
    n = SPECTRA_N
    cases = [(ens.EnsembleKind(tag, n), lambda lam: np.sum(lam**2, axis=1),
              (n + beta * n * (n - 1) / 2.0) * t, False) for tag, beta in GAUSSIAN_SPECTRA]
    # Laguerre eigenvalues are the X_i^2 of the Bessel system with index nu
    cases.append((ens.EnsembleKind("laguerre", n, nu=LAGUERRE_NU), lambda lam: np.sum(lam, axis=1),
                  2.0 * n * (n + LAGUERRE_NU) * t, True))
    for kind, stat, exact, positive in cases:
        stream = core.RngStream(_program_seed(rng), 0)

        def check(lam, kind=kind, stat=stat, exact=exact, positive=positive):
            problems = []
            if lam.shape != (SPECTRA_COUNT, n) or not np.all(np.diff(lam, axis=1) > 0.0) or (
                positive and not np.all(lam[:, 0] > 0.0)
            ):
                problems.append(f"{kind.tag} spectra outside the open chamber")
            return problems + rnd.mean_check(f"{kind.tag} spectra moment", stat(lam), exact)

        rnd.op(f"sample_spectra {kind.tag}",
               lambda kind=kind, stream=stream: ens.sample_spectra(
                   kind, t, SPECTRA_COUNT, stream, distinct=True), check)

    x = _chamber_start(rng, HC_N, False) * 0.5
    y = _chamber_start(rng, HC_N, False) * 0.5
    stream = core.RngStream(_program_seed(rng), 0)
    rhs = ref.harish_chandra_rhs(x, y, HC_SIGMA)

    def check_hc(r):
        return (_close("Harish-Chandra exact side", r.rhs_exact, rhs, 0.0, 1e-10)
                + rnd.z_check("Harish-Chandra", (r.lhs_mc - rhs) / r.lhs_stderr, r.lhs_mc, rhs))

    rnd.op("harish_chandra_check",
           lambda: ens.harish_chandra_check(core.validate_chamber(x, "A"),
                                            core.validate_chamber(y, "A"), HC_SIGMA, HC_MC,
                                            stream),
           check_hc)


WORKLOADS = {"tw-edge": tw_edge, "exact-marginals": exact_marginals, "mc-paths": mc_paths}
