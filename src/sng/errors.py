"""Exception types shared across the package, and the argument checks
that raise them."""

import math
import sys

__all__ = [
    "SngError",
    "InvalidArgumentError",
    "InvalidFieldError",
    "InvalidBracketError",
    "WrongStateError",
    "ConvergenceError",
    "StepRejectedError",
]


class SngError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SngError, ValueError):
    """An argument violates a documented precondition."""


class InvalidFieldError(SngError, ValueError):
    """A radial field is malformed (wrong length, non-finite, wrong dtype)."""


class InvalidBracketError(SngError):
    """A bisection bracket does not actually bracket a transition."""


class WrongStateError(SngError):
    """A converged trajectory has the wrong node count or lies outside the
    exponentially decaying regime; the caller must rebracket or enlarge the
    domain."""


class ConvergenceError(SngError):
    """An iterative procedure failed to converge within its iteration budget."""


class StepRejectedError(SngError):
    """A time step was rejected because the nonlinear potential changed too much
    between predictor and corrector.

    Attributes
    ----------
    suggested_dt : float
        A smaller step size expected to be accepted.
    """

    def __init__(self, message: str, suggested_dt: float):
        super().__init__(message)
        self.suggested_dt = suggested_dt


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int when it is an integer no smaller than ``minimum``;
    InvalidArgumentError naming ``name`` otherwise (a bool is not a count)."""
    try:
        ok = not isinstance(value, bool) and value >= minimum and float(value).is_integer()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_normal(name: str, value: float) -> float:
    """``value`` if it is a positive finite normal double, else
    InvalidArgumentError naming ``name``."""
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise InvalidArgumentError(f"{name} = {value!r} is not a positive finite normal double")
    return value


def check_positive(name: str, value) -> float:
    """``value`` as a float when it is finite and positive;
    InvalidArgumentError naming ``name`` otherwise."""
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value!r}")
    return float(value)
