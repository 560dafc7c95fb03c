"""Exception types shared across the package, each carrying the CLI's
exit code for it as ``exit_code``, and the argument checks that raise them."""

import math
import sys

__all__ = [
    "SngError",
    "InvalidArgumentError",
    "InvalidBracketError",
    "WrongStateError",
    "ConvergenceError",
    "StepRejectedError",
]


class SngError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidArgumentError(SngError, ValueError):
    """An argument violates a documented precondition, a radial field
    among them (wrong length, non-finite samples, a complex source)."""

    exit_code = 2


class InvalidBracketError(SngError):
    """A bisection bracket does not actually bracket a transition."""

    exit_code = 3


class WrongStateError(SngError):
    """A converged trajectory has the wrong node count or lies outside the
    exponentially decaying regime; the caller must rebracket or enlarge the
    domain."""

    exit_code = 4


class ConvergenceError(SngError):
    """An iterative procedure failed to converge within its iteration budget."""

    exit_code = 4


class StepRejectedError(SngError):
    """A time step of ``dt`` was rejected because the nonlinear potential
    changed by the share ``change`` between predictor and corrector;
    ``suggested_dt`` is a smaller step expected to be accepted."""

    exit_code = 5

    def __init__(self, change: float, dt: float, suggested_dt: float):
        super().__init__(f"potential changed {change:.1%} within one step of dt={dt:.3e}")
        self.change, self.dt, self.suggested_dt = change, dt, suggested_dt

    def __reduce__(self):
        # args hold only the message; pickle rebuilds from the three numbers
        return type(self), (self.change, self.dt, self.suggested_dt)


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
