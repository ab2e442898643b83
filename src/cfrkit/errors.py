"""Exception and warning types shared across the toolkit."""

__all__ = [
    "CfrError",
    "ParseError",
    "EstimationError",
    "DegenerateSampleError",
    "AssumptionWarning",
]


class CfrError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CfrError):
    """Malformed line-list input."""


class EstimationError(CfrError):
    """An estimate is undefined for the given data: empty denominator,
    no eligible deaths, or a delay CDF that violates assumption A1."""


class DegenerateSampleError(EstimationError):
    """A delay sample carries too little information to identify the model."""


class AssumptionWarning(UserWarning):
    """Confidence intervals were produced although an asymptotic assumption
    (A1-A3) failed on some evaluation day."""
