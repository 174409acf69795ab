"""Shape estimators for the two-parameter Weibull model.

All estimators are scale invariant and return only the shape; when a scale
is needed downstream it is recovered as (mean(x**b))**(1/b) for the fitted
shape b.  Likelihood-type equations are solved with a bracketed
secant/bisection (Illinois) root finder on a fixed shape bracket so results
are deterministic.

Method identifiers: ml, mml, bcml, me, lm, tmml, ls, wls, g1, pe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .empirical_qf import SortedSample, plotting_position_qf, plotting_positions
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
# Numerator of the percentile estimator for the order pair (0.31, 0.63).
_PE_NUM = math.log(-math.log1p(-0.63)) - math.log(-math.log1p(-0.31))


@dataclass(frozen=True)
class EstimateResult:
    """Fitted shape with solver diagnostics."""

    method: str
    beta_hat: float
    iterations: int = 0
    residual: float = 0.0
    start: float | None = None


def _bracketed_root(f, lo, hi, xtol=1e-12, maxiter=200, strict=True):
    """Vectorized Illinois root finder on per-element brackets [lo, hi].

    ``f`` maps a 1-d array of candidates to an array of residuals.  Elements
    whose bracket shows no sign change raise NoBracket (strict) or come back
    NaN.  Returns (roots, iterations).
    """
    a = np.atleast_1d(np.array(lo, dtype=float)).copy()
    b = np.atleast_1d(np.array(hi, dtype=float)).copy()
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
        a, b = a.copy(), b.copy()
    fa = np.atleast_1d(np.asarray(f(a), dtype=float)).copy()
    fb = np.atleast_1d(np.asarray(f(b), dtype=float)).copy()
    root = np.full(a.shape, np.nan)
    root[fa == 0.0] = a[fa == 0.0]
    root[fb == 0.0] = b[fb == 0.0]
    active = np.isnan(root)
    # a NaN end value (a residual undefined for these data) is no sign change
    no_bracket = active & ~(np.sign(fa) * np.sign(fb) < 0.0)
    if np.any(no_bracket):
        if strict:
            raise NoBracket(
                f"no sign change on [{float(a.flat[0]):g}, {float(b.flat[0]):g}]")
        active &= ~no_bracket
    side = np.zeros(a.shape, dtype=np.int8)  # -1: lower end moved last, +1: upper
    iterations = 0
    for it in range(maxiter):
        if not np.any(active):
            break
        iterations = it + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        inside = np.isfinite(x) & (x > np.minimum(a, b)) & (x < np.maximum(a, b))
        x = np.where(inside, x, 0.5 * (a + b))
        x = np.where(active, x, a)
        fx = np.atleast_1d(np.asarray(f(x), dtype=float))
        exact = active & (fx == 0.0)
        root[exact] = x[exact]
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
        root[tight] = x[tight]
        active &= ~tight
    if np.any(active):
        if strict:
            raise NonConvergence(f"root finder hit the {maxiter}-iteration cap")
        # leave unconverged entries NaN
    return root, iterations


def _values(sample: SortedSample) -> np.ndarray:
    if not isinstance(sample, SortedSample):
        sample = SortedSample.from_data(sample)
    return sample.values


def _require_spread(x: np.ndarray):
    if x[0] == x[-1]:
        raise DegenerateSample("all sample values are equal")


def _require_positive(x: np.ndarray):
    if x[0] <= 0.0:
        raise DomainError("method requires strictly positive data")


def _require_n(x: np.ndarray, n_min: int):
    if x.size < n_min:
        raise DomainError(f"method requires at least {n_min} observations")


def _profile_terms(x: np.ndarray):
    # Work with y = x / max(x); the profile equation is invariant and
    # y**beta stays in (0, 1] for any shape, avoiding overflow.
    ly = np.log(x / x[-1])
    return ly, float(ly.mean())


def _solve_profile(ly: np.ndarray, mean_ly: float, shift: float):
    """Root of shift/beta + mean(log y) - sum(y^b log y)/sum(y^b) = 0."""

    def g(beta):
        w = np.exp(np.multiply.outer(beta, ly))
        with np.errstate(invalid="ignore"):
            ratio = (w * ly).sum(axis=-1) / w.sum(axis=-1)
        return shift / beta + mean_ly - ratio

    root, iters = _bracketed_root(g, BRACKET_LO, BRACKET_HI, xtol=1e-12, maxiter=200)
    beta = float(root[0])
    residual = abs(float(np.atleast_1d(g(np.array([beta])))[0]))
    return beta, iters, residual


def ml_shape(sample: SortedSample) -> EstimateResult:
    """Maximum likelihood shape via the profile equation.

    Solves 1/b + mean(log x) = sum(x**b * log x) / sum(x**b); the left-hand
    side minus the right is strictly decreasing in b, so the bracketed
    solve is reliable whenever a sign change exists on the bracket.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_positive(x)
    _require_spread(x)
    ly, mean_ly = _profile_terms(x)
    beta, iters, residual = _solve_profile(ly, mean_ly, 1.0)
    return EstimateResult("ml", beta, iterations=iters, residual=residual)


def mml_shape(sample: SortedSample) -> EstimateResult:
    """Modified (unbiased estimating equation) maximum likelihood shape.

    The profile score of the shape has exact expectation 1/b at the true
    parameter; subtracting it yields the unbiased estimating equation

        (n-1)/(n*b) + mean(log x) = sum(x**b * log x) / sum(x**b).
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_positive(x)
    _require_spread(x)
    ly, mean_ly = _profile_terms(x)
    n = x.size
    beta, iters, residual = _solve_profile(ly, mean_ly, (n - 1.0) / n)
    return EstimateResult("mml", beta, iterations=iters, residual=residual)


def bcml_shape(sample: SortedSample) -> EstimateResult:
    """Bias-corrected ML shape: the ML estimate times (1 - 1.3795/n)."""
    x = _values(sample)
    _require_n(x, 3)
    ml = ml_shape(sample)
    beta = ml.beta_hat * (1.0 - BCML_FACTOR / x.size)
    return EstimateResult("bcml", beta, iterations=ml.iterations, residual=ml.residual)


def moment_shape(sample: SortedSample) -> EstimateResult:
    """Moment estimator: invert the coefficient of variation.

    For shape b the squared CV is gamma(1+2/b)/gamma(1+1/b)**2 - 1, a
    strictly decreasing function of b; the sample CV uses 1/n moments.
    Tolerates zeros.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_spread(x)
    # the CV is scale invariant; on y = x / max(x) its moments neither
    # overflow nor underflow anywhere in the float range
    y = x / x[-1]
    m1 = float(y.mean())
    if m1 <= 0.0:
        raise DegenerateSample("sample mean is zero")
    cv2 = float(((y - m1) ** 2).mean()) / m1**2
    target = float(np.log1p(cv2))

    def h(beta):
        return gammaln(1.0 + 2.0 / beta) - 2.0 * gammaln(1.0 + 1.0 / beta) - target

    root, iters = _bracketed_root(h, BRACKET_LO, BRACKET_HI, xtol=1e-12, maxiter=200)
    beta = float(root[0])
    residual = abs(float(np.atleast_1d(h(np.array([beta])))[0]))
    return EstimateResult("me", beta, iterations=iters, residual=residual)


def _sample_l_ratio(x: np.ndarray) -> float:
    """Unbiased sample L-moment ratio l2/l1."""
    n = x.size
    b1 = float((np.arange(n, dtype=float) * x).sum()) / (n * (n - 1.0))
    l1 = float(x.mean())
    l2 = 2.0 * b1 - l1
    return l2 / l1


def lmoment_shape(sample: SortedSample) -> EstimateResult:
    """L-moment estimator: invert tau = l2/l1 = 1 - 2**(-1/b).

    Uses the unbiased sample l2, so tau equals the sample Gini index with
    the n*(n-1) mean-difference denominator.  Tolerates zeros.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_spread(x)
    tau = _sample_l_ratio(x)
    if not 0.0 < tau < 1.0:
        raise DomainError(f"L-moment ratio {tau:.6g} outside the invertible range (0, 1)")
    beta = float(_LOG2 / -np.log1p(-tau))
    return EstimateResult("lm", beta)


def gini_shape(sample: SortedSample) -> EstimateResult:
    """Gini-based estimator: invert the model Gini index 1 - 2**(-1/b).

    Uses the n**2-denominator sample Gini (mean absolute difference over
    2*n**2*mean), which is (n-1)/n times the L-moment ratio, so this
    estimator differs from ``lm`` in finite samples.  Tolerates zeros.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_spread(x)
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    gini = float(((2.0 * i - n - 1.0) * x).sum()) / (n * float(x.sum()))
    if not 0.0 < gini < 1.0:
        raise DomainError(f"sample Gini {gini:.6g} outside the invertible range (0, 1)")
    beta = float(_LOG2 / -np.log1p(-gini))
    return EstimateResult("g1", beta)


def pe_shape(sample: SortedSample) -> EstimateResult:
    """Percentile estimator from the 0.31 and 0.63 sample quantiles.

    With Q(p) = sigma*(-log(1-p))**(1/b), two quantile orders give
    b = [log(-log(1-p2)) - log(-log(1-p1))] / [log q(p2) - log q(p1)];
    the 0.31/0.63 pair follows Seki & Yokoyama (1993).  Quantiles come
    from the interpolated quantile function.
    """
    x = _values(sample)
    _require_n(x, 2)
    qf = plotting_position_qf(SortedSample(x), "hf")
    q1 = qf(0.31)
    q2 = qf(0.63)
    if q1 == q2:
        raise DomainError("sample quantiles at orders 0.31 and 0.63 coincide")
    if q1 <= 0.0:
        raise DomainError("quantile at order 0.31 must be positive")
    beta = float(_PE_NUM / (np.log(q2) - np.log(q1)))
    return EstimateResult("pe", beta)


def _plot_regression(x: np.ndarray, weights) -> float:
    """Slope of log(-log(1-p_k)) on log x_(k) at the hf positions."""
    p = plotting_positions(x.size, "hf")
    yv = np.log(-np.log1p(-p))
    u = np.log(x)
    w = np.ones_like(u) if weights is None else weights
    sw = w.sum()
    ub = (w * u).sum() / sw
    yb = (w * yv).sum() / sw
    du = u - ub
    denom = float((w * du * du).sum())
    if denom == 0.0:
        raise DegenerateSample("log data carry no variation")
    return float((w * du * (yv - yb)).sum()) / denom


def ls_shape(sample: SortedSample) -> EstimateResult:
    """Least-squares shape: slope of the probability plot.

    Regresses log(-log(1-p_k)) on log x_(k) with the hf plotting
    positions; the slope estimates the shape directly.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_positive(x)
    _require_spread(x)
    return EstimateResult("ls", _plot_regression(x, None))


def wls_shape(sample: SortedSample) -> EstimateResult:
    """Weighted least-squares shape with Bergman (1986) weights.

    Same regression as ``ls`` but weighted by ((1-p_k)*log(1-p_k))**2,
    the inverse of the leading variance factor of the plot ordinate.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_positive(x)
    _require_spread(x)
    p = plotting_positions(x.size, "hf")
    w = ((1.0 - p) * np.log1p(-p)) ** 2
    return EstimateResult("wls", _plot_regression(x, w))


def tmml_shape(sample: SortedSample) -> EstimateResult:
    """Modified ML shape via Tiku-style linearization on the log scale.

    log x follows a location-scale smallest-extreme-value model with scale
    1/b.  The intractable e**z terms of the likelihood equations are
    linearized around t_i = log(-log(1 - i/(n+1))) as
    e**z ~ a_i + b_i*z with b_i = e**(t_i), a_i = e**(t_i)*(1 - t_i);
    the linearized equations then solve in closed form and the shape is
    the reciprocal of the fitted scale.
    """
    x = _values(sample)
    _require_n(x, 2)
    _require_positive(x)
    _require_spread(x)
    n = x.size
    y = np.log(x)
    q = np.arange(1, n + 1, dtype=float) / (n + 1.0)
    bi = -np.log1p(-q)
    ti = np.log(bi)
    ai = bi * (1.0 - ti)
    m = float(bi.sum())
    kappa = float((bi * y).sum()) / m
    excess = (n - float(ai.sum())) / m
    w = y - kappa
    lin = float(((ai - 1.0) * w).sum())
    quad = float((bi * w * w).sum())
    lead = n - excess * float((ai - 1.0).sum()) - excess * excess * m
    if lead <= 0.0:
        raise NonConvergence("linearized likelihood lost positive curvature")
    delta = (lin + float(np.sqrt(lin * lin + 4.0 * lead * quad))) / (2.0 * lead)
    if delta <= 0.0:
        raise DomainError("linearized scale estimate is not positive")
    return EstimateResult("tmml", 1.0 / delta)


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
    _require_positive(x)
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
