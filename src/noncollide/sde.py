"""Euler-Maruyama integrators for Dyson's Brownian motion model and the
noncolliding Bessel system.

Singular drifts are handled by rejection: a proposed substep that leaves
the open chamber is discarded (noise included) and retried with half the
step, down to dt_max / 2**10.  Discarding the noise biases the law, and
the bias is large at moderate steps: for beta = 2, N = 2 started at
(-0.01, 0.01), E gap^2(1) is exactly 6.0004, and 40k paths give 7.03 at
dt_max = 1e-2, 6.060 at 2e-3 and 6.019 at 1e-3.  The Bessel system is biased
even from the origin: at nu = 0, N = 2, E sum X^2(1) is exactly 8, and 40k
paths give 8.072 (z = 3.6) at dt_max = 1e-3.  Starts from the all-zero
configuration are bootstrapped by one exact ensemble sample
(``ensembles.origin_spectra``), since no Euler step can split coinciding
particles correctly.

Cost model: each proposal, accepted or not, costs one drift evaluation and
one Gaussian draw of its (P, N) shape.  The drift travels with the state:
the validity check evaluates it at the proposal, and the next step from an
accepted state reuses that value, so only the start of each output segment
adds an evaluation.  One evaluation is O(P N^2) work on an (N, N, P) array
of pairwise inverse differences.

Layout: the engine keeps the state, the drift and the proposals
particle-major, as C-contiguous (N, P) arrays with one column per path, so
every elementwise operation runs over rows of length P rather than over
rows of length N (often 2 or 8).  The Gaussian draws are still taken as
(P, N) and added transposed, and the pairwise sums add their terms in the
order numpy uses along a contiguous axis, so the clouds are bit for bit
those of a path-major engine.  ``_run_cloud`` transposes once on the way in
and once on the way out; clouds are returned as (P, T, N).  One call of
``_inverse_gap_sums`` takes about 40 us at (N, P) = (2, 4000), against
160 us in the (P, N) layout, and 60 against 100 us at (8, 250) (timeit,
one core of a 2-core x86 host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Chamber, OrderedConfiguration, RngStream, TimeGrid, validate_chamber
from .ensembles import origin_spectra
from .errors import BetaOutOfRange, DomainError, NuOutOfRange, StepFloorReached

__all__ = ["SdeRun", "simulate_dyson", "simulate_bessel_system",
           "dyson_cloud", "bessel_cloud", "dump_path_csv"]

_MAX_HALVINGS = 10


@dataclass
class SdeRun:
    """One realized path: positions at the output grid times."""

    system: str
    param: float  # beta for dyson, nu for the bessel system
    x0: object  # OrderedConfiguration, or an all-zero sequence for the origin start
    grid: TimeGrid
    paths: np.ndarray  # (n_times, n_particles)
    step_stats: dict = field(default_factory=dict)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of ``a`` over its middle axis, (N, K, P) -> (N, P), added in the
    order numpy's ``add.reduce`` uses along a contiguous axis of length K,
    so the sums are bit for bit those of the (P, N, K) layout.

    Fewer than 8 terms are added in sequence; up to 128 go to eight
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), with the
    remainder then added in sequence; longer axes are halved at a multiple
    of 8 and each half summed the same way.
    """
    k = a.shape[1]
    if k < 8:
        out = a[:, 0].copy()
        for j in range(1, k):
            out += a[:, j]
        return out
    if k <= 128:
        r = a[:, :8].copy()
        m = k - k % 8
        for i in range(8, m, 8):
            r += a[:, i:i + 8]
        out = (r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])
        out += (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
        for j in range(m, k):
            out += a[:, j]
        return out
    half = k // 2 - (k // 2) % 8
    return _row_sum(a[:, :half]) + _row_sum(a[:, half:])


def _inverse_gap_sums(v: np.ndarray) -> np.ndarray:
    """(N, P) sums over j != i of 1 / (v_i - v_j), for each of the P columns.

    The (N, N, P) array of differences keeps every elementwise operation on
    contiguous rows of length P.  Its diagonal rows are set to inf, so they
    add 1/inf = 0; an exact tie between two particles gives an infinite or
    NaN sum, which ``_Engine._valid`` rejects.
    """
    n, p = v.shape
    inv = v[:, None, :] - v[None, :, :]
    inv.reshape(n * n, p)[:: n + 1] = np.inf
    np.divide(1.0, inv, out=inv)
    return _row_sum(inv)


def _dyson_drift(beta: float):
    def drift(x: np.ndarray) -> np.ndarray:
        f = _inverse_gap_sums(x)
        f *= 0.5 * beta
        return f

    return drift


def _bessel_drift(nu: float):
    def drift(x: np.ndarray) -> np.ndarray:
        f = 2.0 * x
        f *= _inverse_gap_sums(x * x)
        f += (nu + 0.5) / x
        return f

    return drift


def _in_chamber(x: np.ndarray, positive: bool) -> np.ndarray:
    """Per column of the (N, P) array x: strictly increasing, and positive
    when ``positive``."""
    ok = np.logical_and.reduce(x[1:] > x[:-1], axis=0)
    if positive:
        ok &= x[0] > 0.0
    return ok


class _Engine:
    """Halving Euler-Maruyama steps of an (N, P) cloud, one column per
    path, the drift carried with the state (see the module docstring's
    cost model)."""

    def __init__(self, drift, positive: bool, reflect: bool, stream: RngStream):
        self.drift = drift
        self.positive = positive
        self.reflect = reflect
        self.stream = stream
        self.rejected = 0
        self.max_depth = 0

    def _valid(self, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Chamber membership plus drift resolvability at step size h, and
        the drift at x.

        A state whose next drift increment would cover more than a quarter
        of the distance to the chamber boundary is rejected: the explicit
        scheme cannot resolve the singular layer there, and accepting such
        states strands paths where no admissible step exists.
        """
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            f = self.drift(x)
            reach = np.abs(f)
            reach *= h
        # |f_i| h against a quarter of each gap beside particle i (and of the
        # distance to the wall); NaN drift compares False, the conservative outcome
        gaps = x[1:] - x[:-1]
        quarter = 0.25 * gaps
        ok = gaps > 0.0
        ok &= reach[:-1] <= quarter
        ok &= reach[1:] <= quarter
        ok = np.logical_and.reduce(ok, axis=0)
        if self.positive:
            ok &= x[0] > 0.0
            ok &= reach[0] <= 0.25 * x[0]
        return ok, f

    def _propose(self, x: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
        prop = f * h
        prop += x
        # drawn path-major, as (P, N), so the stream's path is layout-free
        noise = self.stream.normal(x.shape[::-1])
        noise *= math.sqrt(h)
        prop += noise.T
        return np.abs(prop, out=prop) if self.reflect else prop

    def _step(
        self, x: np.ndarray, f: np.ndarray, h: float, depth: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step of size h from x, whose drift is f: the new state and its drift."""
        prop = self._propose(x, f, h)
        ok, f_prop = self._valid(prop, h)
        bad = ~ok
        if not bad.any():
            return prop, f_prop
        self.rejected += int(bad.sum())
        self.max_depth = max(self.max_depth, depth + 1)
        if depth >= _MAX_HALVINGS:
            # at the floor: bounded same-size retries before giving up
            idx = np.flatnonzero(bad)
            for _ in range(200):
                retry = self._propose(x[:, idx], f[:, idx], h)
                ok, f_retry = self._valid(retry, h)
                prop[:, idx[ok]] = retry[:, ok]
                f_prop[:, idx[ok]] = f_retry[:, ok]
                idx = idx[~ok]
                if len(idx) == 0:
                    return prop, f_prop
                self.rejected += len(idx)
            raise StepFloorReached(
                f"{len(idx)} paths rejected at dt_max/2**{_MAX_HALVINGS}"
            )
        sub, f_sub = self._step(x[:, bad], f[:, bad], h / 2.0, depth + 1)
        sub, f_sub = self._step(sub, f_sub, h / 2.0, depth + 1)
        prop[:, bad] = sub
        f_prop[:, bad] = f_sub
        return prop, f_prop

    def advance(
        self, x: np.ndarray, t_from: float, t_to: float, dt_max: float, warmup: bool
    ) -> np.ndarray:
        """Advance from t_from to t_to; ``warmup`` enables time-proportional
        substeps (h <= 0.05 t) that resolve the singular drift after a
        zero start."""
        f = self.drift(x)
        if warmup:
            t = t_from
            while t < t_to - 1e-15:
                h = min(dt_max, max(0.05 * t, 1e-4 * dt_max), t_to - t)
                if t_to - (t + h) < 0.5 * h:
                    h = t_to - t
                x, f = self._step(x, f, h, 0)
                t += h
            return x
        n_steps = max(1, int(math.ceil((t_to - t_from) / dt_max - 1e-12)))
        h = (t_to - t_from) / n_steps
        for _ in range(n_steps):
            x, f = self._step(x, f, h, 0)
        return x


def _run_cloud(
    system: str,
    param: float,
    x0,
    grid: TimeGrid,
    stream: RngStream,
    dt_max: float,
    n_paths: int,
) -> tuple[np.ndarray, dict]:
    times = grid.as_array()
    if times[0] <= 0.0:
        raise DomainError("output times must be positive")
    if not dt_max > 0.0:
        raise DomainError("dt_max must be positive")

    if system == "dyson":
        drift, positive, reflect = _dyson_drift(param), False, False
        chamber = Chamber.A
    else:
        drift, positive, reflect = _bessel_drift(param), True, param == -0.5
        chamber = Chamber.C

    if x0 is None:
        raise DomainError("x0 required (configuration or the all-zero start)")
    xv = x0.as_array() if isinstance(x0, OrderedConfiguration) else np.asarray(x0, float)
    n = len(xv)
    zero_start = bool(np.all(xv == 0.0))
    if not zero_start:
        validate_chamber(xv, chamber)

    eng = _Engine(drift, positive, reflect, stream)
    # the engine runs particle-major, (N, P); the cloud is (P, T, N)
    out = np.empty((len(times), n, n_paths))
    if zero_start:
        t_cur = min(dt_max, times[0])
        x = np.ascontiguousarray(origin_spectra(system, param, n, t_cur, n_paths, stream).T)
    else:
        t_cur = 0.0
        x = np.repeat(xv[:, None], n_paths, axis=1)
    for k, t_out in enumerate(times):
        if t_out > t_cur:
            x = eng.advance(x, t_cur, t_out, dt_max, warmup=zero_start)
            t_cur = t_out
        if not np.all(_in_chamber(x, positive)):
            raise StepFloorReached("chamber violated at an output time")  # pragma: no cover
        out[k] = x
    stats = {"rejected_steps": eng.rejected, "max_halving_depth": eng.max_depth}
    return np.ascontiguousarray(out.transpose(2, 0, 1)), stats


def simulate_dyson(
    beta: float,
    x0: OrderedConfiguration | Sequence[float],
    grid: TimeGrid,
    stream: RngStream,
    dt_max: float = 1e-3,
) -> SdeRun:
    """One path of Dyson's Brownian motion model with parameter beta >= 1."""
    if beta < 1.0:
        raise BetaOutOfRange("beta >= 1 required: collisions occur below 1")
    cloud, stats = _run_cloud("dyson", beta, x0, grid, stream, dt_max, 1)
    return SdeRun("dyson", beta, x0, grid, cloud[0], stats)


def simulate_bessel_system(
    nu: float,
    x0: OrderedConfiguration | Sequence[float],
    grid: TimeGrid,
    stream: RngStream,
    dt_max: float = 1e-3,
) -> SdeRun:
    """One path of the noncolliding Bessel system with index nu >= -1/2.

    nu = -1/2 gets a reflecting wall at the origin (absolute value after
    each substep).
    """
    if nu < -0.5:
        raise NuOutOfRange("nu >= -1/2 required: not a semimartingale below")
    cloud, stats = _run_cloud("bessel", nu, x0, grid, stream, dt_max, 1)
    return SdeRun("bessel", nu, x0, grid, cloud[0], stats)


def dyson_cloud(
    beta: float,
    x0: OrderedConfiguration | Sequence[float],
    grid: TimeGrid,
    stream: RngStream,
    dt_max: float,
    n_paths: int,
) -> np.ndarray:
    """(n_paths, n_times, N) Dyson paths evolved in lockstep from one stream."""
    if beta < 1.0:
        raise BetaOutOfRange("beta >= 1 required")
    cloud, _ = _run_cloud("dyson", beta, x0, grid, stream, dt_max, n_paths)
    return cloud


def bessel_cloud(
    nu: float,
    x0: OrderedConfiguration | Sequence[float],
    grid: TimeGrid,
    stream: RngStream,
    dt_max: float,
    n_paths: int,
) -> np.ndarray:
    """(n_paths, n_times, N) Bessel-system paths in lockstep."""
    if nu < -0.5:
        raise NuOutOfRange("nu >= -1/2 required")
    cloud, _ = _run_cloud("bessel", nu, x0, grid, stream, dt_max, n_paths)
    return cloud


def dump_path_csv(run: SdeRun, seed: Optional[int] = None) -> str:
    """CSV dump ``time,particle_index,position`` with a full parameter echo."""
    head = (
        f"# system={run.system} param={run.param!r} n={run.paths.shape[1]} "
        f"grid={list(run.grid.times)!r} seed={seed!r}"
    )
    lines = [head, "time,particle_index,position"]
    for k, t in enumerate(run.grid.times):
        for i in range(run.paths.shape[1]):
            lines.append(f"{t!r},{i},{format(run.paths[k, i], '.17g')}")
    return "\n".join(lines) + "\n"
