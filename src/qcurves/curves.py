"""Concentration curves built from an arbitrary quantile function.

For a quantile function q the two curves are

    qZ(p) = 1 - q(p/2) / q((1+p)/2)
    qD(p) = 1 - q(p/2) / q(1 - p/2)

for p in (0, 1), with the conventions qZ(0) = qZ(1) = qD(0) = 1 and
qD(1) = 0.  Both take values in [0, 1] whenever q is nonnegative and
nondecreasing, and both vanish identically for a degenerate (constant)
distribution.  The summary index of a curve is its integral over [0, 1],
computed with composite Gauss-Legendre quadrature on one fixed grid
(``GRID``, 256 panels of 8 nodes, also the grid of the MD distance and of
the study) so that repeated runs are bit-identical.

The grid is built from Gauss-Legendre nodes and weights computed on first
use in 50-digit decimal arithmetic and each rounded once to the nearest
double (``_rule``).  No eigen-solver or libm routine decides a digit, so the
indices are the same on every host whatever its LAPACK.  Rules of 1 to
``MAX_NODES`` = 16 nodes per panel are supported.

The curve kinds are defined here only: ``CurveKind`` owns the kind names,
the quantile orders u, v and 1 - v and the endpoint values, and every curve
evaluator of the package, data-based or closed-form, goes through
``_curve_eval``.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DegenerateQuantile, DomainError, _check_count

__all__ = [
    "CurveKind",
    "QuadratureSpec",
    "gauss_legendre_grid",
    "curve_value",
    "curve_index",
    "curve_grid",
    "CurveSamples",
]


class CurveKind(Enum):
    """``CurveKind(x)`` takes a member, ``"qz"`` or ``"qd"``; else DomainError."""

    QZ = "qz"
    QD = "qd"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown curve kind {value!r}")

    def orders(self, p, out=None):
        """Quantile orders (u, v, 1 - v) of the curve at the array ``p``: u = p/2,
        v = (1 + p)/2 for qZ and 1 - p/2 for qD.  Each is formed from u in one
        step, bitwise equal to its formula in p; 1 - v directly, so it keeps
        full precision where v rounds to 1 (for qD it is u itself).  Given
        ``out``, three arrays (the first may be ``p``), they are computed
        there in place; for qD the third is not written."""
        u, v, one_minus_v = (None, None, None) if out is None else out
        u = np.multiply(p, 0.5, out=u)
        if self is CurveKind.QZ:
            return u, np.add(u, 0.5, out=v), np.subtract(0.5, u, out=one_minus_v)
        return u, np.subtract(1.0, u, out=v), u

    @property
    def ends(self):
        """Curve values at p = 0 and p = 1."""
        return (1.0, 1.0) if self is CurveKind.QZ else (1.0, 0.0)


def _real_array(x) -> np.ndarray:
    """The float array of ``x``; DomainError when ``x`` holds booleans or
    anything but real numbers, or is ragged."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind not in "iufO":  # an object array converts element by element
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise DomainError(f"expected real numbers, got {reprlib.repr(x)}") from None


def _elementwise(x, fn, bad, message: str):
    """``fn`` of the float array of ``x`` (``_real_array``), a float for
    scalar ``x``; DomainError with ``message`` where ``bad`` of that array
    holds anywhere."""
    arr = _real_array(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(bad(arr)):
        raise DomainError(message)
    out = fn(arr)
    return float(out[0]) if scalar else out


def _on_unit_interval(p, fn, what: str):
    """``fn`` of the array of ``p``, a float for scalar ``p``; DomainError,
    naming ``what`` p is, unless every p lies in [0, 1]."""
    return _elementwise(p, fn, lambda p: (p < 0.0) | (p > 1.0) | np.isnan(p),
                        f"{what} must lie in [0, 1]")


def _curve_eval(p, inner, ends):
    """A curve at p in [0, 1]: ``ends`` at p = 0 and 1, ``inner`` between."""

    def values(p):
        out = np.empty_like(p)
        out[p == 0.0], out[p == 1.0] = ends
        inside = (p > 0.0) & (p < 1.0)
        if np.any(inside):
            out[inside] = inner(p[inside])
        return out

    return _on_unit_interval(p, values, "curve argument")


# Most nodes per panel of a quadrature rule.
MAX_NODES = 16

# Most points a quadrature grid or ``curve_grid`` holds: 2**20, 8 MB per
# float array.  Larger counts are rejected before anything is allocated.
MAX_GRID_NODES = 2 ** 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: ``panels`` equal panels of ``nodes`` points.

    The per-panel rule (``_rule``) has correctly rounded nodes and weights,
    exactly symmetric about the panel midpoint, and ``nodes`` must lie in
    1..``MAX_NODES``; DomainError otherwise, when either count
    is not an integer, or when the grid would hold more than
    ``MAX_GRID_NODES`` points.
    """

    panels: int = 256
    nodes: int = 8

    def __post_init__(self):
        _check_count(self.panels, 1, "quadrature panels")
        if _check_count(self.nodes, 1, "quadrature nodes") > MAX_NODES:
            raise DomainError(
                f"quadrature supports 1 to {MAX_NODES} nodes per panel, got {self.nodes!r}")
        if self.panels * self.nodes > MAX_GRID_NODES:
            raise DomainError(
                f"quadrature holds at most {MAX_GRID_NODES} nodes, got {self.panels!r} "
                f"panels of {self.nodes!r}")


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in the current
    decimal context; x must not be +-1."""
    p_prev, p = 1, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1)


@lru_cache(maxsize=None)
def _rule(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method finds the positive roots of P_n in 50-digit decimal
    arithmetic, each started at cos(pi (k + 3/4) / (n + 1/2)); the weight of
    a node x is 2 / ((1 - x^2) P_n'(x)^2).  Each value is rounded once to
    the nearest double (``float`` of a Decimal is correctly rounded), so the
    rule is the same on every host.  The negative nodes mirror the positive
    ones and an odd rule's middle node is 0.0: the rule is exactly symmetric.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        upper = []
        for k in range(n // 2):
            x = Decimal(math.cos(math.pi * (k + 0.75) / (n + 0.5)))
            for _ in range(20):  # every n <= 16 meets the step test by pass 6
                p, dp = _legendre(n, x)
                step = p / dp
                if abs(step) < Decimal("1e-40"):
                    break
                x -= step
            upper.append((float(x), float(2 / ((1 - x * x) * dp * dp))))
        middle = [(0.0, float(2 / _legendre(n, Decimal(0))[1] ** 2))] if n % 2 else []
    rows = [(-x, w) for x, w in upper] + middle + upper[::-1]
    return tuple(x for x, _ in rows), tuple(w for _, w in rows)


@lru_cache(maxsize=32)
def _grid(panels: int, nodes: int):
    x, w = (np.array(v) for v in _rule(nodes))
    h = 1.0 / panels
    starts = np.arange(panels, dtype=float) * h
    points = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * w, (panels, nodes)).ravel().copy()
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


# The one grid of every curve index and MD distance: 256 panels of 8 nodes.
GRID = QuadratureSpec()


def gauss_legendre_grid(spec: QuadratureSpec = GRID):
    """Quadrature points and weights on [0, 1]; cached, read-only arrays."""
    return _grid(spec.panels, spec.nodes)


def curve_value(qf, kind, p):
    """Evaluate a concentration curve of the quantile function ``qf``.

    ``p`` may be a scalar or array in [0, 1].  Endpoint conventions are
    applied before the ratio formula.  Raises DegenerateQuantile when a
    denominator quantile is zero.
    """
    kind = CurveKind(kind)

    def ratio(p):
        u, v, _ = kind.orders(p)
        num = np.asarray(qf(u), dtype=float)
        den = np.asarray(qf(v), dtype=float)
        if np.any(den == 0.0):
            raise DegenerateQuantile("denominator quantile is zero")
        return 1.0 - num / den

    return _curve_eval(p, ratio, kind.ends)


def curve_index(qf, kind) -> float:
    """Integral of the curve over [0, 1] by composite Gauss-Legendre on ``GRID``."""
    points, weights = gauss_legendre_grid(GRID)
    # elementwise product + pairwise sum keeps the reduction order fixed
    return float((weights * curve_value(qf, kind, points)).sum())


@dataclass(frozen=True)
class CurveSamples:
    """Curve sampled on a grid; serializes to two-column CSV.  ``kind`` may
    be a CurveKind or its name; it is stored as the member."""

    p: np.ndarray
    values: np.ndarray
    kind: CurveKind

    def __post_init__(self):
        object.__setattr__(self, "kind", CurveKind(self.kind))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "value"])
        for pi, vi in zip(self.p, self.values):
            writer.writerow([format(pi, ".17g"), format(vi, ".17g")])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, kind) -> "CurveSamples":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["p", "value"]:
            raise DomainError("curve CSV must start with header p,value")
        data = []
        for line, row in enumerate(rows[1:], start=2):
            try:
                pi, vi = (float(v) for v in row)
            except ValueError:
                raise DomainError(
                    f"curve CSV row {line} must hold two numbers p,value, got {row}") from None
            if not (0.0 <= pi <= 1.0 and math.isfinite(vi)):
                raise DomainError(
                    f"curve CSV row {line} must hold p in [0, 1] and a finite value, got {row}")
            data.append((pi, vi))
        p, values = np.array(data, dtype=float).reshape(-1, 2).T
        return cls(p=p, values=values, kind=kind)


def _unit_grid(grid_size: int) -> np.ndarray:
    """``grid_size + 1`` equally spaced points of [0, 1] incl. endpoints;
    DomainError, before anything is allocated, when that exceeds
    ``MAX_GRID_NODES`` points."""
    _check_count(grid_size, 1, "grid size", MAX_GRID_NODES - 1)
    return np.linspace(0.0, 1.0, grid_size + 1)


def curve_grid(qf, kind, grid_size: int = 200) -> CurveSamples:
    """Sample the curve on ``grid_size + 1`` equally spaced points incl.
    endpoints; DomainError when that exceeds ``MAX_GRID_NODES`` points."""
    p = _unit_grid(grid_size)
    return CurveSamples(p=p, values=curve_value(qf, kind, p), kind=kind)
