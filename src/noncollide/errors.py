"""Exception hierarchy shared by all noncollide modules."""

from __future__ import annotations


class NoncollideError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(NoncollideError):
    """Input contains NaN or Inf."""


class ChamberViolation(NoncollideError):
    """An ordering inequality of the requested Weyl chamber fails.

    ``index`` is the position of the first violated inequality
    (the inequality between values[index-1] and values[index], with the
    chamber-specific boundary condition counting as index 0).
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"chamber inequality violated at index {index}")


class NonPositiveTime(NoncollideError):
    """A time argument that must be strictly positive is not."""


class TimeOrdering(NoncollideError):
    """Time arguments violate the required ordering (e.g. s < t <= T)."""


class DomainError(NoncollideError):
    """Argument outside the mathematical domain of the operation."""


class BesselIndexOutOfRange(DomainError):
    """Bessel index nu <= -1 is not allowed."""


class IntegrableSingularity(DomainError):
    """kappa >= 2(nu+1): the defining integral diverges at the origin."""


class OverflowSignal(NoncollideError):
    """Result exceeds the double exponent range; use the scaled variant."""


class SizeMismatch(NoncollideError):
    """Configurations differ in size or chamber where they must agree."""


class NumericalUnderflow(NoncollideError):
    """A determinant is nonzero but below the smallest normal double.

    Carries ``log_value`` (natural log of the absolute value) and ``sign``.
    """

    def __init__(self, log_value: float, sign: float):
        self.log_value = log_value
        self.sign = sign
        super().__init__(f"determinant underflows: sign={sign}, log|det|={log_value:.6g}")


class DivisionDegeneracy(NoncollideError):
    """Denominator density underflowed; the ratio is not representable."""


class ParamMissing(NoncollideError):
    """EnsembleKind lacks a parameter required by its tag."""


class ConvergenceFailure(NoncollideError):
    """An iterative solver exceeded its iteration cap."""


class StepFloorReached(NoncollideError):
    """SDE step halving hit the floor dt_max / 2**10 without acceptance."""


class BetaOutOfRange(DomainError):
    """Dyson beta < 1: collisions occur and no reflection rule is defined."""


class NuOutOfRange(DomainError):
    """Bessel-system nu < -1/2: the SDE form is not a semimartingale."""


class DegenerateSpectrum(NoncollideError):
    """Spectrum arguments contain coinciding entries where forbidden."""


class RouteInapplicable(NoncollideError):
    """Requested cross-validation route pair cannot handle the parameters."""


class QuadratureUnstable(NoncollideError):
    """Nystrom refinement did not converge to the required tolerance."""


class AccuracyLossWarning(UserWarning):
    """Deep-oscillation regime: fewer digits delivered than the contract.

    The warning message carries an estimate of the delivered digits.
    """
