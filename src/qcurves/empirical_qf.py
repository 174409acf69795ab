"""Empirical quantile functions: step form and plotting-position interpolants.

The step form is the generalized inverse Qn(p) = inf{t : Fn(t) >= p}, equal
to the k-th order statistic on ((k-1)/n, k/n] and to the sample minimum at
p = 0.  The smooth variants interpolate linearly between plotting positions

    hf:  p_k = (k - 1/3) / (n + 1/3)
    wg:  p_k = k / (n + 1)

and are constant below the first and above the last position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import _on_unit_interval, _real_array
from .errors import DomainError, _check_choice, _check_count

__all__ = [
    "SortedSample",
    "plotting_positions",
    "empirical_qf",
    "plotting_position_qf",
    "EmpiricalQF",
    "PlottingPositionQF",
]

_SCHEMES = ("hf", "wg")


def check_values(values: np.ndarray):
    """Raise DomainError unless every value is finite and nonnegative."""
    if not np.all(np.isfinite(values)):
        raise DomainError("sample values must be finite")
    if np.any(values < 0.0):
        raise DomainError("sample values must be nonnegative")


@dataclass(frozen=True)
class SortedSample:
    """Nonnegative sample stored in ascending order.

    The constructor checks its values (real numbers, not booleans, at least
    one, all finite and nonnegative; DomainError otherwise) and keeps a
    sorted, read-only copy, so ``SortedSample(data)`` and
    ``SortedSample.from_data(data)`` are the same sample.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _real_array(self.values).ravel()
        if values.size < 1:
            raise DomainError("sample must contain at least one value")
        check_values(values)
        values = np.sort(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        return cls(data)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _as_sorted_sample(data) -> SortedSample:
    """``data`` itself if it is a SortedSample, else its SortedSample."""
    return data if isinstance(data, SortedSample) else SortedSample.from_data(data)


def plotting_positions(n: int, scheme: str = "hf") -> np.ndarray:
    """Plotting positions p_1 < ... < p_n for the given scheme, ``hf`` or
    ``wg``; DomainError unless ``scheme`` is one of them, as a string."""
    _check_choice(scheme, _SCHEMES, "plotting-position scheme")
    _check_count(n, 1, "number of observations")
    k = np.arange(1, n + 1, dtype=float)
    if scheme == "hf":
        return (k - 1.0 / 3.0) / (n + 1.0 / 3.0)
    return k / (n + 1.0)


def step_indices(n: int, q: np.ndarray) -> np.ndarray:
    """Order-statistic index (0-based) picked by the step quantile function at q."""
    idx = np.ceil(n * np.asarray(q, dtype=float)).astype(np.int64) - 1
    np.clip(idx, 0, n - 1, out=idx)
    return idx


def interp_plan(positions: np.ndarray, q: np.ndarray):
    """Gather plan (j0, j1, frac) for linear interpolation at orders q.

    An order that hits a position gets that node as j0 and frac 0, so
    ``_interpolate`` returns the node value exactly there; the plan is
    constant beyond the ends.
    """
    q = np.asarray(q, dtype=float)
    j = np.searchsorted(positions, q, side="right")
    j0 = np.clip(j - 1, 0, positions.size - 1)
    j1 = np.clip(j, 0, positions.size - 1)
    gap = positions[j1] - positions[j0]
    with np.errstate(invalid="ignore"):
        frac = np.where(gap > 0.0, (q - positions[j0]) / np.where(gap > 0.0, gap, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return j0, j1, frac


def _interpolate(x: np.ndarray, plan, out=None) -> np.ndarray:
    """x0 + frac * (x1 - x0), with x0 = x[..., j0] and x1 = x[..., j1], for
    ``interp_plan``'s ``(j0, j1, frac)``, along the last axis, in ``out``
    (one new C-ordered array by default).  Between tied values it is exactly
    their value."""
    j0, j1, frac = plan
    # the plan's indices are in range, and "clip" lets take write into out
    # without the buffered copy that its default mode makes
    out = np.take(x, j0, axis=-1, out=out, mode="clip")
    step = np.take(x, j1, axis=-1)
    step -= out
    step *= frac
    out += step
    return out


@dataclass(frozen=True)
class EmpiricalQF:
    """Step quantile function of a sorted sample; callable on scalars/arrays."""

    sample: SortedSample

    def __call__(self, p):
        values, n = self.sample.values, self.sample.n
        return _on_unit_interval(p, lambda p: values[step_indices(n, p)], "quantile order")


@dataclass(frozen=True)
class PlottingPositionQF:
    """Piecewise-linear quantile function through plotting positions."""

    sample: SortedSample
    scheme: str = "hf"
    positions: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "positions", plotting_positions(self.sample.n, self.scheme))

    def __call__(self, p):
        values, positions = self.sample.values, self.positions
        return _on_unit_interval(p, lambda p: _interpolate(values, interp_plan(positions, p)),
                                 "quantile order")


def empirical_qf(sample: SortedSample) -> EmpiricalQF:
    """Step quantile function Qn of the sample."""
    return EmpiricalQF(sample)


def plotting_position_qf(sample: SortedSample, scheme: str = "hf") -> PlottingPositionQF:
    """Interpolated quantile function through ``hf`` or ``wg`` positions."""
    return PlottingPositionQF(sample, scheme)
