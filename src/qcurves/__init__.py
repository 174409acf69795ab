"""Quantile-based concentration curves and Weibull shape estimation.

The package computes two quantile-ratio concentration curves and their
indices for arbitrary quantile functions, provides closed forms and a range
of shape estimators for the Weibull family (likelihood, moment, L-moment,
regression, percentile, and minimum-distance flavors), the asymptotic
variance of the minimum-distance estimators, a reproducible Monte Carlo
harness comparing estimator accuracy, and an Anderson-Darling bootstrap
goodness-of-fit test.  The ``qcurves`` console script exposes the main
operations.
"""

from importlib import import_module

from ._version import __version__

# Each module's ``__all__`` is the one list of its public names; the package
# exports their union.  Every module is imported before any name is bound,
# so the ``empirical_qf`` function, not its module, ends up under that name.
_MODULES = [import_module(f"{__name__}.{name}") for name in (
    "asymptotics", "curves", "datasets", "empirical_qf", "errors", "gof",
    "md_estimation", "shape_estimators", "simulation", "weibull")]
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
globals().update((name, getattr(module, name)) for module in _MODULES for name in module.__all__)
del _MODULES, import_module
