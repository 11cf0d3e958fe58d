"""Exception and warning types shared across the package, and the checks a
config parse applies to every section, scalar and array it reads."""

import math

import numpy as np


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


def section(name: str, value, keys) -> dict:
    """``value``; ConfigError unless it is an object whose keys are all in
    ``keys``, the keys the parse reads of it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"{name} has no key {unknown[0]!r}; its keys are "
                          f"{', '.join(keys)}")
    return value


def _number(name: str, value):
    # float() takes a bool as 0 or 1 and parses a string; a config means neither
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def finite(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is a finite number."""
    x = float(_number(name, value))
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


def numbers(name: str, value) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float array;
    ConfigError on a bool or a string anywhere in it."""
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo += v
        else:
            _number(name, v)
    return np.asarray(value, dtype=float)
