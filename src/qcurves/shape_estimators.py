"""Shape estimators for the two-parameter Weibull model.

All estimators are scale invariant and return only the shape; when a scale
is needed downstream it is recovered as (mean(x**b))**(1/b) for the fitted
shape b.  Likelihood-type equations are solved with a bracketed
secant/bisection (Illinois) root finder on a fixed shape bracket so results
are deterministic.

Each estimator has one implementation, a row kernel in ``_ROW_KERNELS``
called as ``kernel(x_rows, strict)``.  It maps sorted samples, one per row,
to (shapes, root-finder iterations, residuals); a row it cannot fit is NaN,
or with ``strict`` raises the typed error.  The Monte Carlo study calls the
kernels on chunks of replicates and each ``*_shape`` function is the
one-row call of its kernel, so batched and scalar fits agree by construction.

Method identifiers: ml, mml, bcml, me, lm, tmml, ls, wls, g1, pe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .empirical_qf import SortedSample, interp_plan, plotting_positions
from .errors import DegenerateSample, DomainError, NoBracket, NonConvergence

__all__ = [
    "EstimateResult",
    "BRACKET_LO",
    "BRACKET_HI",
    "BCML_FACTOR",
    "ml_shape",
    "mml_shape",
    "bcml_shape",
    "moment_shape",
    "lmoment_shape",
    "gini_shape",
    "pe_shape",
    "ls_shape",
    "wls_shape",
    "tmml_shape",
    "SHAPE_METHODS",
    "fit_shape",
    "profile_scale",
]

# Fixed search bracket for shape equations; outside it data are treated as
# unresolvable (NoBracket) rather than extrapolated.
BRACKET_LO = 1e-3
BRACKET_HI = 1e3

# Multiplicative bias correction for the ML shape at sample size n.
BCML_FACTOR = 1.3795

_LOG2 = math.log(2.0)
# Quantile orders of the percentile estimator and the numerator they give.
_PE_ORDERS = np.array([0.31, 0.63])
_PE_NUM = math.log(-math.log1p(-0.63)) - math.log(-math.log1p(-0.31))


@dataclass(frozen=True)
class EstimateResult:
    """Fitted shape with solver diagnostics."""

    method: str
    beta_hat: float
    iterations: int = 0
    residual: float = 0.0
    start: float | None = None


def _bracketed_root(f, rows, strict, xtol=1e-12, maxiter=200):
    """Vectorized Illinois root finder on the bracket [BRACKET_LO, BRACKET_HI].

    ``f`` maps a 1-d array of ``rows`` candidates to their residuals.  Rows
    whose bracket shows no sign change raise NoBracket (strict) or come back
    NaN.  Returns (roots, iterations, |f(roots)|), the residual being that of
    the evaluation that settled each root.  Runs inside a kernel's errstate.
    """
    a = np.full(rows, BRACKET_LO)
    b = np.full(rows, BRACKET_HI)
    fa = f(a)
    fb = f(b)
    root = np.full(rows, np.nan)
    root[fa == 0.0] = a[fa == 0.0]
    root[fb == 0.0] = b[fb == 0.0]
    residual = np.where(np.isnan(root), np.nan, 0.0)
    active = np.isnan(root)
    # a NaN end value (a residual undefined for these data) is no sign change
    no_bracket = active & ~(np.sign(fa) * np.sign(fb) < 0.0)
    if np.any(no_bracket):
        if strict:
            raise NoBracket(f"no sign change on [{BRACKET_LO:g}, {BRACKET_HI:g}]")
        active &= ~no_bracket
    side = np.zeros(rows, dtype=np.int8)  # -1: lower end moved last, +1: upper
    iterations = 0
    for it in range(maxiter):
        if not np.any(active):
            break
        iterations = it + 1
        x = (a * fb - b * fa) / (fb - fa)
        inside = np.isfinite(x) & (x > np.minimum(a, b)) & (x < np.maximum(a, b))
        x = np.where(inside, x, 0.5 * (a + b))
        x = np.where(active, x, a)
        fx = f(x)
        exact = active & (fx == 0.0)
        active &= ~exact
        lower = active & (np.sign(fx) == np.sign(fa))
        upper = active & ~lower
        halve_b = lower & (side == -1)
        halve_a = upper & (side == 1)
        a[lower] = x[lower]
        fa[lower] = fx[lower]
        fb[halve_b] *= 0.5
        side[lower] = -1
        b[upper] = x[upper]
        fb[upper] = fx[upper]
        fa[halve_a] *= 0.5
        side[upper] = 1
        tight = active & (np.abs(b - a) < xtol + 4.0 * np.finfo(float).eps * np.abs(b))
        settled = exact | tight
        root[settled] = x[settled]
        residual[settled] = np.abs(fx[settled])
        active &= ~tight
    if np.any(active):
        if strict:
            raise NonConvergence(f"root finder hit the {maxiter}-iteration cap")
        # leave unconverged entries NaN
    return root, iterations, residual


_ROW_KERNELS = {}  # method identifier -> row kernel


def _row_kernel(method, *bound):
    """Register the decorated function, given the trailing arguments ``bound``,
    as the kernel of ``method``; it runs with numpy's floating-point warnings
    off, as its own checks mark the rows it cannot fit."""

    def register(kernel):
        @functools.wraps(kernel)
        def quiet(x_rows, strict, *args):
            with np.errstate(all="ignore"):
                return kernel(x_rows, strict, *bound, *args)

        _ROW_KERNELS[method] = quiet
        return kernel

    return register


def _reject(strict, bad, exc, message, *values):
    """Mark rows ``bad`` failed; with ``strict``, raise ``exc`` if any are, its
    ``message`` formatted with the first failing row of each of ``values``."""
    if strict and bad.any():
        raise exc(message.format(*(v[bad][0] for v in values)))
    return bad


def _screen(x_rows, strict, n_min, positive=False, spread=False):
    """Rows failing the input checks the kernels share, applied in this order."""
    rows, n = x_rows.shape
    if n < n_min:
        if strict:
            raise DomainError(f"method requires at least {n_min} observations")
        return np.ones(rows, dtype=bool)
    bad = np.zeros(rows, dtype=bool)
    if positive:
        bad |= _reject(strict, x_rows[:, 0] <= 0.0, DomainError,
                       "method requires strictly positive data")
    if spread:
        bad |= _reject(strict, x_rows[:, 0] == x_rows[:, -1], DegenerateSample,
                       "all sample values are equal")
    return bad


def _closed_form(bad, beta):
    """Kernel output of an estimator that needs no root finder."""
    return np.where(bad, np.nan, beta), 0, np.zeros(beta.shape)


def _values(sample: SortedSample) -> np.ndarray:
    if not isinstance(sample, SortedSample):
        sample = SortedSample.from_data(sample)
    return sample.values


def _fit_one(method: str, sample: SortedSample) -> EstimateResult:
    beta, iterations, residual = _ROW_KERNELS[method](_values(sample)[None, :], True)
    return EstimateResult(method, float(beta[0]), iterations, float(residual[0]))


@_row_kernel("mml", True)
@_row_kernel("ml", False)
def _profile_rows(x_rows, strict, modified):
    """Roots of shift/b + mean(log y) - sum(y^b log y)/sum(y^b) = 0, where the
    shift is 1 for ml and (n-1)/n for mml."""
    bad = _screen(x_rows, strict, 2, positive=True, spread=True)
    n = x_rows.shape[1]
    shift = (n - 1.0) / n if modified else 1.0
    # Work with y = x / max(x); the profile equation is invariant and
    # y**beta stays in (0, 1] for any shape, avoiding overflow.
    ly = np.log(x_rows / x_rows[:, -1:])
    mean_ly = ly.mean(axis=1)

    def g(beta):
        w = np.exp(beta[:, None] * ly)
        return shift / beta + mean_ly - (w * ly).sum(axis=1) / w.sum(axis=1)

    beta, iterations, residual = _bracketed_root(g, len(x_rows), strict)
    return np.where(bad, np.nan, beta), iterations, residual


def ml_shape(sample: SortedSample) -> EstimateResult:
    """Maximum likelihood shape via the profile equation.

    Solves 1/b + mean(log x) = sum(x**b * log x) / sum(x**b); the left-hand
    side minus the right is strictly decreasing in b, so the bracketed
    solve is reliable whenever a sign change exists on the bracket.
    """
    return _fit_one("ml", sample)


def mml_shape(sample: SortedSample) -> EstimateResult:
    """Modified (unbiased estimating equation) maximum likelihood shape.

    The profile score of the shape has exact expectation 1/b at the true
    parameter; subtracting it yields the unbiased estimating equation

        (n-1)/(n*b) + mean(log x) = sum(x**b * log x) / sum(x**b).
    """
    return _fit_one("mml", sample)


@_row_kernel("bcml")
def _bcml_rows(x_rows, strict, ml=None):
    """``ml``: the output of the ml kernel on these rows, when already known."""
    bad = _screen(x_rows, strict, 3)
    beta, iterations, residual = _profile_rows(x_rows, strict, False) if ml is None else ml
    beta = np.where(bad, np.nan, beta * (1.0 - BCML_FACTOR / x_rows.shape[1]))
    return beta, iterations, residual


def bcml_shape(sample: SortedSample) -> EstimateResult:
    """Bias-corrected ML shape: the ML estimate times (1 - 1.3795/n)."""
    return _fit_one("bcml", sample)


@_row_kernel("me")
def _moment_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2, spread=True)
    # the CV is scale invariant; on y = x / max(x) its moments neither
    # overflow nor underflow anywhere in the float range
    y = x_rows / x_rows[:, -1:]
    m1 = y.mean(axis=1)
    bad |= _reject(strict, m1 <= 0.0, DegenerateSample, "sample mean is zero")
    target = np.log1p(((y - m1[:, None]) ** 2).mean(axis=1) / m1**2)

    def h(beta):
        return gammaln(1.0 + 2.0 / beta) - 2.0 * gammaln(1.0 + 1.0 / beta) - target

    beta, iterations, residual = _bracketed_root(h, len(x_rows), strict)
    return np.where(bad, np.nan, beta), iterations, residual


def moment_shape(sample: SortedSample) -> EstimateResult:
    """Moment estimator: invert the coefficient of variation.

    For shape b the squared CV is gamma(1+2/b)/gamma(1+1/b)**2 - 1, a
    strictly decreasing function of b; the sample CV uses 1/n moments.
    Tolerates zeros.
    """
    return _fit_one("me", sample)


def _binary_scaled(x_rows):
    """Rows divided by the power of two of their maximum: exact, and a weighted
    sum of n such values stays below n**2 instead of overflowing near 1e308."""
    return np.ldexp(x_rows, -np.frexp(x_rows[:, -1:])[1])


@_row_kernel("lm")
def _lmoment_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2, spread=True)
    x = _binary_scaled(x_rows)
    n = x.shape[1]
    b1 = (np.arange(n, dtype=float) * x).sum(axis=1) / (n * (n - 1.0))
    l1 = x.mean(axis=1)
    tau = (2.0 * b1 - l1) / l1  # unbiased l2 / l1
    bad |= _reject(strict, ~((tau > 0.0) & (tau < 1.0)), DomainError,
                   "L-moment ratio {:.6g} outside the invertible range (0, 1)", tau)
    return _closed_form(bad, _LOG2 / -np.log1p(-tau))


def lmoment_shape(sample: SortedSample) -> EstimateResult:
    """L-moment estimator: invert tau = l2/l1 = 1 - 2**(-1/b).

    Uses the unbiased sample l2, so tau equals the sample Gini index with
    the n*(n-1) mean-difference denominator.  Tolerates zeros.
    """
    return _fit_one("lm", sample)


@_row_kernel("g1")
def _gini_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2, spread=True)
    x = _binary_scaled(x_rows)
    n = x.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    gini = ((2.0 * i - n - 1.0) * x).sum(axis=1) / (n * x.sum(axis=1))
    bad |= _reject(strict, ~((gini > 0.0) & (gini < 1.0)), DomainError,
                   "sample Gini {:.6g} outside the invertible range (0, 1)", gini)
    return _closed_form(bad, _LOG2 / -np.log1p(-gini))


def gini_shape(sample: SortedSample) -> EstimateResult:
    """Gini-based estimator: invert the model Gini index 1 - 2**(-1/b).

    Uses the n**2-denominator sample Gini (mean absolute difference over
    2*n**2*mean), which is (n-1)/n times the L-moment ratio, so this
    estimator differs from ``lm`` in finite samples.  Tolerates zeros.
    """
    return _fit_one("g1", sample)


@_row_kernel("pe")
def _pe_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2)
    j0, j1, frac = interp_plan(plotting_positions(x_rows.shape[1], "hf"), _PE_ORDERS)
    q1, q2 = ((1.0 - frac) * x_rows[:, j0] + frac * x_rows[:, j1]).T
    bad |= _reject(strict, q1 == q2, DomainError,
                   "sample quantiles at orders 0.31 and 0.63 coincide")
    bad |= _reject(strict, q1 <= 0.0, DomainError, "quantile at order 0.31 must be positive")
    return _closed_form(bad, _PE_NUM / (np.log(q2) - np.log(q1)))


def pe_shape(sample: SortedSample) -> EstimateResult:
    """Percentile estimator from the 0.31 and 0.63 sample quantiles.

    With Q(p) = sigma*(-log(1-p))**(1/b), two quantile orders give
    b = [log(-log(1-p2)) - log(-log(1-p1))] / [log q(p2) - log q(p1)];
    the 0.31/0.63 pair follows Seki & Yokoyama (1993).  Quantiles come
    from the interpolated quantile function.
    """
    return _fit_one("pe", sample)


@_row_kernel("wls", True)
@_row_kernel("ls", False)
def _plot_regression(x_rows, strict, weighted):
    """Slope of log(-log(1-p_k)) on log x_(k) at the hf positions."""
    bad = _screen(x_rows, strict, 2, positive=True, spread=True)
    p = plotting_positions(x_rows.shape[1], "hf")
    yv = np.log(-np.log1p(-p))
    u = np.log(x_rows)
    w = ((1.0 - p) * np.log1p(-p)) ** 2 if weighted else np.ones_like(p)
    sw = w.sum()
    ub = (w * u).sum(axis=1) / sw
    yb = (w * yv).sum() / sw
    du = u - ub[:, None]
    denom = (w * du * du).sum(axis=1)
    bad |= _reject(strict, ~(denom > 0.0), DegenerateSample, "log data carry no variation")
    return _closed_form(bad, (w * du * (yv - yb)).sum(axis=1) / denom)


def ls_shape(sample: SortedSample) -> EstimateResult:
    """Least-squares shape: slope of the probability plot.

    Regresses log(-log(1-p_k)) on log x_(k) with the hf plotting
    positions; the slope estimates the shape directly.
    """
    return _fit_one("ls", sample)


def wls_shape(sample: SortedSample) -> EstimateResult:
    """Weighted least-squares shape with Bergman (1986) weights.

    Same regression as ``ls`` but weighted by ((1-p_k)*log(1-p_k))**2,
    the inverse of the leading variance factor of the plot ordinate.
    """
    return _fit_one("wls", sample)


@_row_kernel("tmml")
def _tmml_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2, positive=True, spread=True)
    n = x_rows.shape[1]
    y = np.log(x_rows)
    q = np.arange(1, n + 1, dtype=float) / (n + 1.0)
    bi = -np.log1p(-q)
    ti = np.log(bi)
    ai = bi * (1.0 - ti)
    m = float(bi.sum())
    kappa = (bi * y).sum(axis=1) / m
    excess = (n - float(ai.sum())) / m
    w = y - kappa[:, None]
    lin = ((ai - 1.0) * w).sum(axis=1)
    quad = (bi * w * w).sum(axis=1)
    lead = n - excess * float((ai - 1.0).sum()) - excess * excess * m
    bad |= _reject(strict, np.full(len(x_rows), lead <= 0.0), NonConvergence,
                   "linearized likelihood lost positive curvature")
    delta = (lin + np.sqrt(lin * lin + 4.0 * lead * quad)) / (2.0 * lead)
    bad |= _reject(strict, ~(delta > 0.0), DomainError,
                   "linearized scale estimate is not positive")
    return _closed_form(bad, 1.0 / delta)


def tmml_shape(sample: SortedSample) -> EstimateResult:
    """Modified ML shape via Tiku-style linearization on the log scale.

    log x follows a location-scale smallest-extreme-value model with scale
    1/b.  The intractable e**z terms of the likelihood equations are
    linearized around t_i = log(-log(1 - i/(n+1))) as
    e**z ~ a_i + b_i*z with b_i = e**(t_i), a_i = e**(t_i)*(1 - t_i);
    the linearized equations then solve in closed form and the shape is
    the reciprocal of the fitted scale.
    """
    return _fit_one("tmml", sample)


SHAPE_METHODS = {
    "ml": ml_shape,
    "mml": mml_shape,
    "bcml": bcml_shape,
    "me": moment_shape,
    "lm": lmoment_shape,
    "tmml": tmml_shape,
    "ls": ls_shape,
    "wls": wls_shape,
    "g1": gini_shape,
    "pe": pe_shape,
}


def profile_scale(sample: SortedSample, beta: float) -> float:
    """Likelihood-maximizing scale for a fixed shape: (mean x^beta)^(1/beta).

    Computed on data rescaled by the sample maximum so x^beta cannot
    overflow for large shapes.
    """
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError("shape must be positive and finite")
    x = _values(sample)
    if x[0] <= 0.0:
        raise DomainError("method requires strictly positive data")
    top = x[-1]
    scaled = float(np.power(x / top, beta).mean())
    return top * scaled ** (1.0 / beta)


def fit_shape(sample: SortedSample, method: str) -> EstimateResult:
    """Fit the shape by the named method; see SHAPE_METHODS for identifiers."""
    try:
        fn = SHAPE_METHODS[method]
    except KeyError:
        raise DomainError(
            f"unknown shape method {method!r}; valid: {', '.join(sorted(SHAPE_METHODS))}"
        ) from None
    return fn(sample)
