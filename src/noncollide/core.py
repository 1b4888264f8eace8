"""Shared domain types: Weyl-chamber configurations, RNG streams, time grids.

Every sampler in the package draws from an :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream_id)``.  Identical keys
reproduce identical draw sequences regardless of how work is split across
workers, which is what makes the Monte Carlo suites deterministic.

Philox draws are also splittable in sequence: Gaussian draws taken in
chunks of any sizes are the values of one draw of the total size, in order,
and leave the generator in the same state.  The SDE engine relies on this to
take its increments from blocks drawn ahead on a helper thread
(:class:`NormalPrefetch`).
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ChamberViolation, DomainError, NonFinite, TimeOrdering

__all__ = [
    "Chamber",
    "OrderedConfiguration",
    "RngStream",
    "NormalPrefetch",
    "TimeGrid",
    "validate_chamber",
    "gaussian",
]

_MASK64 = (1 << 64) - 1


class Chamber(Enum):
    """Weyl-chamber type tagging an ordered configuration."""

    A = "A"  # x1 < x2 < ... < xN
    C = "C"  # 0 < x1 < ... < xN
    D = "D"  # |x1| < x2 < ... < xN


@dataclass(frozen=True)
class OrderedConfiguration:
    """N strictly ordered particle positions inside a Weyl chamber."""

    values: tuple[float, ...]
    chamber: Chamber

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def validate_chamber(x: Sequence[float], chamber: Chamber | str) -> OrderedConfiguration:
    """Tag ``x`` with ``chamber`` iff the strict chamber inequalities hold.

    Ties are rejected: the chambers are open sets.  Values are returned
    unmodified (validation is order-checking only).
    """
    if isinstance(chamber, str):
        chamber = Chamber(chamber.upper())
    vals = tuple(map(float, x))
    if not vals:
        raise DomainError("configuration must be nonempty")
    if not all(map(math.isfinite, vals)):
        raise NonFinite("configuration contains NaN or Inf")

    if chamber is Chamber.C and not vals[0] > 0.0:
        raise ChamberViolation(0, "chamber C requires 0 < x1")
    start = 1
    if chamber is Chamber.D and len(vals) >= 2:
        if not abs(vals[0]) < vals[1]:
            raise ChamberViolation(1, "chamber D requires |x1| < x2")
        start = 2
    for i in range(start, len(vals)):
        if not vals[i - 1] < vals[i]:
            raise ChamberViolation(i)
    return OrderedConfiguration(values=vals, chamber=chamber)


def _usable_cpus() -> int:
    """CPUs this process may run on; :class:`NormalPrefetch` draws on a
    helper thread only when there are at least two."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks on this platform
        return os.cpu_count() or 1


class NormalPrefetch:
    """Standard normals of one stream handed out in stream order from blocks
    drawn ahead.

    ``take(n)`` returns the next n values of the stream's Gaussian sequence,
    exactly those ``stream.normal(n)`` would return.  While the caller works
    on the current block, a single helper thread draws the next two (numpy
    releases the GIL while it fills a block), so at most two blocks are in
    flight and the helper never waits for the caller to ask for the next.
    With fewer than two usable CPUs there is no helper: the next block is
    drawn inline when the current one runs out.

    Whoever draws a block records the generator state just before it.
    :meth:`close` shuts the helper down (a block it has not started is
    cancelled), restores the state recorded before the current block and
    redraws the part of it already taken, so the stream stands exactly where
    direct draws of the values taken would have left it, however the caller
    exits.  Between opening and closing, the helper is the stream's only
    drawer: nothing else may draw from the stream.  Values returned by
    ``take`` are views into a block that is never reused, so the caller may
    scale them in place.
    """

    _AHEAD = 2  # blocks queued on the helper

    def __init__(self, stream: "RngStream", block: int):
        self._stream = stream
        self._bitgen = stream._gen.bit_generator
        self._block = int(block)
        # an empty current block: closing before any take restores this state
        self._cur, self._pos, self._cur_state = np.empty(0), 0, self._bitgen.state
        self._ahead = deque()
        self._pool = None
        if _usable_cpus() >= 2:
            # imported here: concurrent.futures adds ~8 ms to the package import
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rng-prefetch")
            for _ in range(self._AHEAD):
                self._ahead.append(self._pool.submit(self._draw))

    def _draw(self) -> tuple[dict, np.ndarray]:
        """The generator state before the next block, and the block."""
        return self._bitgen.state, self._stream.normal(self._block)

    def _next_block(self) -> None:
        if self._pool is None:
            self._cur_state, self._cur = self._draw()
        else:
            self._cur_state, self._cur = self._ahead.popleft().result()
            self._ahead.append(self._pool.submit(self._draw))
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        """The next n standard normals of the stream, as a flat array."""
        pos = self._pos
        if pos + n <= len(self._cur):
            self._pos = pos + n
            return self._cur[pos:pos + n]
        parts = [self._cur[pos:]]
        n -= len(parts[0])
        while n > 0:
            self._next_block()
            k = min(n, self._block)
            parts.append(self._cur[:k])
            self._pos = k
            n -= k
        return np.concatenate(parts)

    def close(self) -> None:
        """Stop the helper and rewind the stream to the values taken."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._bitgen.state = self._cur_state
        if self._pos:
            self._stream.normal(self._pos)
        ahead, self._ahead = self._ahead, deque()
        for fut in ahead:
            if not fut.cancelled():
                fut.result()  # re-raises a failure of the helper

    def __enter__(self) -> "NormalPrefetch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RngStream:
    """Deterministic counter-based random stream keyed by ``(seed, stream_id)``.

    Wraps a Philox generator.  Distinct ``stream_id`` values give
    statistically independent streams; a stream is single-owner and its
    counter advances with each draw.  While a :class:`NormalPrefetch` of the
    stream is open, its helper is the stream's only drawer; on closing it
    leaves the stream where direct draws would have.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    # thin draw wrappers; everything funnels through the one generator
    def normal(self, size=None) -> np.ndarray | float:
        return self._gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray | float:
        return self._gen.random(size)

    def gamma(self, shape, scale=1.0, size=None):
        return self._gen.standard_gamma(shape, size) * scale

    def chi(self, df, size=None):
        """chi-distributed draws (sqrt of chi-square with ``df`` dof), df > 0 real."""
        return np.sqrt(2.0 * self._gen.standard_gamma(df / 2.0, size))

    def complex_normal(self, size=None, scale=1.0):
        """(re + 1j*im) with independent N(0, scale^2) parts."""
        re = self._gen.standard_normal(size)
        im = self._gen.standard_normal(size)
        return scale * (re + 1j * im)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def gaussian(stream: RngStream) -> float:
    """One standard normal variate from ``stream``."""
    return float(stream.normal())


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nonnegative output times, optionally capped by T."""

    times: tuple[float, ...]
    horizon: Optional[float] = None

    def __post_init__(self):
        ts = self.times
        if len(ts) == 0:
            raise DomainError("time grid must be nonempty")
        if not all(math.isfinite(t) for t in ts):
            raise NonFinite("time grid contains NaN or Inf")
        if ts[0] < 0.0:
            raise TimeOrdering("times must be nonnegative")
        for a, b in zip(ts, ts[1:]):
            if not a < b:
                raise TimeOrdering("times must be strictly increasing")
        if self.horizon is not None and ts[-1] > self.horizon:
            raise TimeOrdering("last time exceeds the horizon T")

    @staticmethod
    def of(times: Sequence[float], horizon: Optional[float] = None) -> "TimeGrid":
        return TimeGrid(tuple(float(t) for t in times), horizon)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)
