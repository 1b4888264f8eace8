"""Shared domain types: Weyl-chamber configurations, RNG streams, time grids.

Every sampler in the package draws from an :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream_id)``.  Identical keys
reproduce identical draw sequences regardless of how work is split across
workers, which is what makes the Monte Carlo suites deterministic.
"""

from __future__ import annotations

import math
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


class RngStream:
    """Deterministic counter-based random stream keyed by ``(seed, stream_id)``.

    Wraps a Philox generator.  Distinct ``stream_id`` values give
    statistically independent streams; a stream is single-owner and its
    counter advances with each draw.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    def child(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream_id)

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
