"""Exception types shared across the library."""

from __future__ import annotations


class SbsError(Exception):
    """Base class for all library errors."""


class OutOfDomain(SbsError):
    """A point violates the box bounds of an objective."""


class NonFiniteValue(SbsError):
    """An evaluation returned NaN or infinity."""


class ShapeMismatch(SbsError):
    """Arrays disagree on particle count or layout."""


class UnsupportedDimension(SbsError):
    """A benchmark does not support the requested dimension."""


class DegenerateGrid(SbsError):
    """A quadrature grid has too few points or zero extent."""


class BudgetTooSmall(SbsError):
    """The evaluation budget cannot cover the minimum required work."""


class BudgetExceeded(SbsError):
    """A finished run used more evaluations than its budget allows."""


class NotTwoDimensional(SbsError):
    """Trajectory plotting is only defined for 2-d runs."""


class ConfigError(SbsError):
    """An experiment configuration is invalid.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
