"""Exception hierarchy shared by every stopwright module."""

from __future__ import annotations


class StopwrightError(Exception):
    """Base class for all domain errors; ``violation`` is their structured cause, if known."""

    def __init__(self, message: str = "", violation=None):
        super().__init__(message)
        self.violation = violation


class ProbabilitySumError(StopwrightError):
    """Leaf probabilities of a scenario tree do not sum to one."""


class ZeroProbabilityError(StopwrightError):
    """A leaf carries probability <= 0; every outcome must have positive mass."""


class StructureError(StopwrightError):
    """The scenario tree is malformed (orphan node, uneven leaf depth, ...)."""


class ValidationError(StopwrightError):
    """A stopping rule or a process value failed validation."""


class SpaceMismatch(StopwrightError):
    """A process or strategy references blocks/atoms unknown to the space."""


class NotAStoppingMeasure(StopwrightError):
    """A mass table violates the stopping-measure conditions."""


class NotZeroSum(StopwrightError):
    """Operation requires a zero-sum game but payoffs do not cancel."""


class ConsistencyFailure(StopwrightError):
    """Two computations that must agree by construction disagreed.

    This always indicates an implementation bug, never bad input.
    """


class FormatError(StopwrightError):
    """A JSON document does not follow the documented file format."""
