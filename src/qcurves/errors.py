"""Exception types shared across the package, and the count and named-choice
checks.

All numerical / estimation failures raise subclasses of :class:`QcurvesError`
so callers (and the CLI) can distinguish them from programming errors.  Every
count, size and seed goes through ``_check_count``, and every choice made by
name (a shape method, MD reference, plotting-position scheme or study
estimator) through ``_check_choice``.
"""

import numbers

__all__ = [
    "QcurvesError",
    "DomainError",
    "DegenerateSample",
    "DegenerateQuantile",
    "NoBracket",
    "NonConvergence",
    "StartFailure",
    "BracketFailure",
]


class QcurvesError(Exception):
    """Base class for all estimation and numerical errors."""


class DomainError(QcurvesError):
    """Input lies outside the mathematical domain of an operation."""


class DegenerateSample(QcurvesError):
    """Sample carries no usable information (e.g. all values equal)."""


class DegenerateQuantile(QcurvesError):
    """A denominator quantile is zero, so a curve ratio is undefined."""


class NoBracket(QcurvesError):
    """A root finder could not bracket a sign change."""


class NonConvergence(QcurvesError):
    """An iterative procedure failed to reach its tolerance."""


class StartFailure(QcurvesError):
    """No usable starting value for an iterative fit."""


class BracketFailure(QcurvesError):
    """A minimizer's bracket could not be expanded to contain the minimum."""


def _check_count(value, minimum: int, name: str, maximum: int | None = None) -> int:
    """``value`` as an int; DomainError unless it is an integer, not a bool,
    of at least ``minimum`` and, if given, at most ``maximum``.  Counts, sizes
    and seeds all pass through here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {value!r}")
    return int(value)


def _check_choice(value, choices, name: str) -> str:
    """``value``; DomainError naming the valid ``choices``, in their order,
    unless it is a string among them.  Any other value, an array or list
    included, is an unknown ``name``."""
    if not (isinstance(value, str) and value in choices):
        raise DomainError(f"unknown {name} {value!r}; valid: {', '.join(choices)}")
    return value
