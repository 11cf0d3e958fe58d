"""Exception and warning types shared across the package, and the two number
checks a config parse applies to every scalar it reads."""

import math


class SphereFlowError(Exception):
    """Base class for package-specific errors."""


class SpacingTooCoarse(SphereFlowError):
    pass


class LatticeTooLarge(SphereFlowError):
    pass


class NoGraphAvailable(SphereFlowError):
    pass


class DimensionMismatch(SphereFlowError):
    pass


class NearZeroVector(SphereFlowError):
    pass


class GridMismatch(SphereFlowError):
    pass


class NoConvergence(SphereFlowError):
    pass


class OrderTooHighForGrid(SphereFlowError):
    pass


class CFLViolated(SphereFlowError):
    pass


class NormBlowup(SphereFlowError):
    pass


class TimeNotBeforeCenter(SphereFlowError):
    pass


class WindowOutsideTrajectory(SphereFlowError):
    pass


class EmptyIntersection(SphereFlowError):
    pass


class TooFewScales(SphereFlowError):
    pass


class PoleProximity(SphereFlowError):
    pass


class ConfigError(SphereFlowError):
    pass


class KernelUnderresolved(UserWarning):
    """Gaussian weight narrower than a few grid cells; quadrature degraded."""


def finite(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def integer(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is an integer below 2^53 in
    magnitude (a larger float holds no fraction to check)."""
    x = finite(name, value)
    if x != int(x) or abs(x) >= 2.0 ** 53:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(x)
