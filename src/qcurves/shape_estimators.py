"""Shape estimators for the two-parameter Weibull model.

All estimators are scale invariant and return only the shape; when a scale
is needed downstream it is recovered as (mean(x**b))**(1/b) for the fitted
shape b.  The residuals of the ml, mml, bcml and me shape equations fall as
the shape grows, and one root finder solves them on the fixed shape bracket
[1e-3, 1e3]: Newton steps in log-shape from b = 1, kept inside each row's
sign bracket (lo, hi) by bisection as the MD minimizer keeps its own on F',
so results are deterministic.

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

from .empirical_qf import (SortedSample, _as_sorted_sample, _interpolate, interp_plan,
                          plotting_positions)
from .errors import DegenerateSample, DomainError, NoBracket, NonConvergence, _check_choice
from .weibull import _NORMAL_MIN, _check_positive

__all__ = [
    "EstimateResult",
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
_LOG_LO = math.log(BRACKET_LO)
_LOG_HI = math.log(BRACKET_HI)

# Multiplicative bias correction for the ML shape at sample size n.
BCML_FACTOR = 1.3795

_LOG2 = math.log(2.0)
# Quantile orders of the percentile estimator and the numerator they give.
_PE_ORDERS = np.array([0.31, 0.63])
_PE_NUM = math.log(-math.log1p(-0.63)) - math.log(-math.log1p(-0.31))

# ``_lgamma_digamma_1p`` works on s + i for i = 1, ..., 16, one column each;
# the last column is y = s + 16, where four terms of each Stirling series are
# within about 1e-14.  Its log-gamma sums the columns' log1p(s/i) weighted -1,
# and 16 - 1/2 for y; its digamma subtracts their 1/(s+i), the one of y
# halved, which is the series' -1/(2y).
_SHIFT_ORDERS = np.arange(1.0, 17.0)
_SHIFT_LOG_WEIGHTS = np.array([-1.0] * 15 + [15.5])
_SHIFT_INVERSE_WEIGHTS = np.array([1.0] * 15 + [0.5])
# Stirling coefficients of 1/y**(2k), k = 0, ..., 3, one column per series:
# log-gamma adds 1/y times their sum and digamma subtracts 1/y**2 times it.
_STIRLING = np.array([[1 / 12, 1 / 12], [-1 / 360, -1 / 120], [1 / 1260, 1 / 252],
                      [-1 / 1680, -1 / 240]])
_LGAMMA_TAIL_16 = sum(c / 16.0 ** (2 * k + 1) for k, c in enumerate(_STIRLING[:, 0].tolist()))
# Row multipliers of 1/b giving the me residual's arguments 2/b and 1/b.
_TWO_ONE = np.array([[2.0], [1.0]])

# Step (and bracket width) in b at which the root finder settles a root, and
# its pass cap.
_XTOL = 1e-12
_MAXITER = 200
_EPS = np.finfo(float).eps
# A log-shape step below this that fails to halve marks the rounding floor.
_STALL_STEP = 1e-6


@dataclass(frozen=True)
class EstimateResult:
    """Fitted shape with solver diagnostics.

    ``start`` is None except for an MD fit, where it is the minimizer's
    start: the pe estimate (else the lm one) after two Newton passes on a
    subgrid (``md_estimation._refine_starts``).  The fit's ``residual``
    never exceeds the MD objective there."""

    method: str
    beta_hat: float
    iterations: int = 0
    residual: float = 0.0
    start: float | None = None


def _bracketed_root(f, rows, strict, ends=None):
    """Vectorized safeguarded Newton root finder in log-shape, for residuals
    that fall as the shape grows, on the bracket [BRACKET_LO, BRACKET_HI].

    ``f`` maps a 1-d array of ``rows`` shapes b to their residuals and the
    residuals' derivatives with respect to log b.  A row is bracketed when
    its residual is positive at BRACKET_LO and negative at BRACKET_HI; an
    end where it is exactly zero is the root, and any other row raises
    NoBracket (strict) or comes back NaN.  Each bracketed row starts at
    b = 1, the log-midpoint of the bracket, inside a sign bracket (lo, hi)
    in log b that starts as the whole bracket.  After each pass hi moves to
    the point where the residual is negative and lo to it otherwise; the
    pass then takes the Newton step when it lands inside (lo, hi) and moves
    to the midpoint of (lo, hi) otherwise, as the MD minimizer
    (``md_estimation._minimize_log``) does on F'.  A row settles at its
    evaluated point once the next step or (lo, hi) is below the tolerance
    in b, or once a step below ``_STALL_STEP`` no longer halves, which means
    the residual has reached its rounding floor.  Returns (roots, passes,
    |f(roots)|).  Runs inside a kernel's errstate.  ``ends``, when the
    caller knows them, are the residuals at BRACKET_LO and BRACKET_HI, which
    then are not evaluated.
    """
    if ends is None:
        ends = [f(np.full(rows, b))[0] for b in (BRACKET_LO, BRACKET_HI)]
    f_lo, f_hi = ends
    root = np.full(rows, np.nan)
    root[f_lo == 0.0] = BRACKET_LO
    root[f_hi == 0.0] = BRACKET_HI
    active = np.isnan(root)
    residual = np.where(active, np.nan, 0.0)
    # a NaN end value (a residual undefined for these data) is no sign change
    no_bracket = active & ~((f_lo > 0.0) & (f_hi < 0.0))
    if strict and no_bracket.any():
        raise NoBracket(f"no sign change on [{BRACKET_LO:g}, {BRACKET_HI:g}]")
    active &= ~no_bracket
    lo, hi = _LOG_LO, _LOG_HI
    t = np.zeros(rows)
    last_step = np.full(rows, np.inf)
    iterations = 0
    for it in range(_MAXITER):
        if not active.any():
            break
        iterations = it + 1
        b = np.exp(t)
        fx, dfx = f(b)
        delta = fx / dfx
        step = np.abs(delta)
        negative = fx < 0.0
        hi = np.where(negative, t, hi)
        lo = np.where(negative, lo, t)
        settled = active & ((fx == 0.0) | (b * np.fmin(step, hi - lo) < _XTOL + 4.0 * _EPS * b)
                            | ((step < _STALL_STEP) & (step > 0.5 * last_step)))
        np.copyto(root, b, where=settled)
        np.copyto(residual, np.abs(fx), where=settled)
        active &= ~settled
        # every row, settled ones too, moves inside its (lo, hi), so its next
        # point stays on the bracket and needs no freeze
        newton = t - delta
        t = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        last_step = step
    if strict and active.any():
        raise NonConvergence(f"root finder hit the {_MAXITER}-iteration cap")
    # unconverged rows stay NaN
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


def _fit_one(method: str, sample: SortedSample) -> EstimateResult:
    x_rows = _as_sorted_sample(sample).values[None, :]
    beta, iterations, residual = _ROW_KERNELS[method](x_rows, True)
    return EstimateResult(method, float(beta[0]), iterations, float(residual[0]))


@_row_kernel("mml", True)
@_row_kernel("ml", False)
def _profile_rows(x_rows, strict, modified):
    """Roots of shift/b + mean(log y) - sum(y^b log y)/sum(y^b) = 0, where the
    shift is 1 for ml and (n-1)/n for mml.

    The equation is scale invariant, and on y = x / max(x) the weights y^b
    stay in (0, 1] for any shape, so they cannot overflow.  On a row that
    spans more than the float range, whose smallest ratio is below the
    smallest normal float and so has lost digits or underflowed to 0, log y
    is log x - log max, as in ``weibull._log_terms``; its fit is then the
    one of the same data rescaled."""
    bad = _screen(x_rows, strict, 2, positive=True, spread=True)
    n = x_rows.shape[1]
    shift = (n - 1.0) / n if modified else 1.0
    y = x_rows / x_rows[:, -1:]
    ly = np.log(y)
    wide = y[:, 0] < _NORMAL_MIN
    if wide.any():
        ly[wide] = np.log(x_rows[wide]) - np.log(x_rows[wide, -1:])
    mean_ly = ly.mean(axis=1)

    def g(beta):
        # the residual and its log-shape derivative -shift/b - b Var_w(log y)
        w = np.exp(beta[:, None] * ly)
        total = w.sum(axis=1)
        w *= ly
        m1 = w.sum(axis=1) / total
        w *= ly
        var = w.sum(axis=1) / total - m1 * m1
        return shift / beta + mean_ly - m1, -shift / beta - beta * var

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


def _lgamma_digamma_1p(s):
    """ln gamma(1+s) and digamma(1+s) of an array s >= 0, to about 1e-13
    relative (absolute near s = 1, where ln gamma(1+s) is 0).

    With y = s + 16, ln gamma(1+s) is [ln gamma(y) - ln gamma(16)] -
    sum_{i<16} log1p(s/i) and digamma(1+s) is digamma(y) - sum_{i<16} 1/(s+i).
    The bracket is the difference of the two Stirling expansions,
    15.5 log1p(s/16) + s (log y - 1) + (tail(y) - tail(16)), so nothing
    cancels as s -> 0.
    """
    column = s[..., None]
    shifted = column + _SHIFT_ORDERS
    inverse = 1.0 / shifted
    r = inverse[..., -1]
    r2 = r * r
    log_y = np.log(shifted[..., -1])
    tails = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        tails = tails * r2[..., None] + c
    lgamma = ((np.log1p(column / _SHIFT_ORDERS) * _SHIFT_LOG_WEIGHTS).sum(axis=-1)
              + s * log_y - s + (r * tails[..., 0] - _LGAMMA_TAIL_16))
    digamma = log_y - r2 * tails[..., 1] - (inverse * _SHIFT_INVERSE_WEIGHTS).sum(axis=-1)
    return lgamma, digamma


def _moment_terms(beta):
    """lgamma(1+2/b) - 2 lgamma(1+1/b), the log of one plus the squared CV of
    shape b, and its log-shape derivative -(2/b)(psi(1+2/b) - psi(1+1/b))."""
    t = 1.0 / beta
    (lg2, lg1), (psi2, psi1) = _lgamma_digamma_1p(_TWO_ONE * t)
    return lg2 - 2.0 * lg1, -2.0 * t * (psi2 - psi1)


# the log CV term at BRACKET_LO and BRACKET_HI, the same for every sample
_MOMENT_ENDS = _moment_terms(np.array([BRACKET_LO, BRACKET_HI]))[0]


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
        log_cv, slope = _moment_terms(beta)
        return log_cv - target, slope

    beta, iterations, residual = _bracketed_root(h, len(x_rows), strict,
                                                 ends=_MOMENT_ENDS[:, None] - target)
    return np.where(bad, np.nan, beta), iterations, residual


def moment_shape(sample: SortedSample) -> EstimateResult:
    """Moment estimator: invert the coefficient of variation.

    For shape b the squared CV is gamma(1+2/b)/gamma(1+1/b)**2 - 1, a
    strictly decreasing function of b; the sample CV uses 1/n moments.  The
    log-gamma and digamma terms come from an in-package Stirling series,
    within 1e-11 relative of their exact difference on the whole bracket.
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


@functools.lru_cache(maxsize=64)
def _pe_plan(n):
    """``interp_plan`` of the pe orders at the hf positions of ``n`` values,
    in read-only arrays."""
    plan = interp_plan(plotting_positions(n, "hf"), _PE_ORDERS)
    for arr in plan:
        arr.flags.writeable = False
    return plan


@_row_kernel("pe")
def _pe_rows(x_rows, strict):
    bad = _screen(x_rows, strict, 2)
    q1, q2 = _interpolate(x_rows, _pe_plan(x_rows.shape[1])).T
    bad |= _reject(strict, q1 == q2, DomainError,
                   "sample quantiles at orders 0.31 and 0.63 coincide")
    bad |= _reject(strict, q1 <= 0.0, DomainError, "quantile at order 0.31 must be positive")
    log_gap = np.log(q2) - np.log(q1)
    bad |= _reject(strict, ~(log_gap > 0.0), DomainError,
                   "sample quantiles at orders 0.31 and 0.63 have equal logarithms")
    return _closed_form(bad, _PE_NUM / log_gap)


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


def _profile_scale_rows(x_rows, beta, strict):
    """Profile scales of sorted rows, one shape per row; NaN for a row whose
    shape is not positive and finite or whose data are not strictly positive,
    or with ``strict`` the DomainError, shape checked first.  The powers are
    (x / max)^b, and exp(b (log x - log max)) on a row that spans more than
    the float range, as in ``_profile_rows``."""
    bad = _reject(strict, ~((beta > 0.0) & np.isfinite(beta)), DomainError,
                  "shape must be positive and finite")
    bad |= _reject(strict, x_rows[:, 0] <= 0.0, DomainError,
                   "profile scale requires strictly positive data")
    top = x_rows[:, -1]
    with np.errstate(all="ignore"):
        y = x_rows / top[:, None]
        terms = np.power(y, beta[:, None])
        wide = y[:, 0] < _NORMAL_MIN
        if wide.any():
            log_y = np.log(x_rows[wide]) - np.log(top[wide, None])
            terms[wide] = np.exp(beta[wide, None] * log_y)
        scaled = terms.mean(axis=1)
        return np.where(bad, np.nan, top * np.power(scaled, 1.0 / beta))


def profile_scale(sample: SortedSample, beta: float) -> float:
    """Likelihood-maximizing scale for a fixed shape: (mean x^beta)^(1/beta).

    Computed on data rescaled by the sample maximum so x^beta cannot
    overflow for large shapes, and from logs where the data span more than
    the float range.  DomainError unless ``beta`` is a finite
    positive real number, not a bool, and the data are strictly positive.
    """
    x_rows = _as_sorted_sample(sample).values[None, :]
    return float(_profile_scale_rows(x_rows, np.array([_check_positive(beta)]), True)[0])


def fit_shape(sample: SortedSample, method: str) -> EstimateResult:
    """Fit the shape by the named method; see SHAPE_METHODS for identifiers.
    DomainError naming them unless ``method`` is one, as a string."""
    return SHAPE_METHODS[_check_choice(method, sorted(SHAPE_METHODS), "shape method")](sample)
