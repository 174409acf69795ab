"""Two-parameter Weibull model and its closed-form concentration curves.

The distribution has density

    f(x) = (beta/sigma) * (x/sigma)**(beta-1) * exp(-(x/sigma)**beta),  x >= 0,

quantile function Q(p) = sigma * (-log(1-p))**(1/beta), and Gini index
1 - 2**(-1/beta).  Both concentration curves of this model are scale free:
they depend on the shape ``beta`` only, through the ratio

    r(p) = log(1 - p/2) / log((1-p)/2)        (qZ curve)
    r(p) = log(1 - p/2) / log(p/2)            (qD curve)

with curve value 1 - r(p)**(1/beta) inside (0, 1).
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .curves import CurveKind, _curve_eval, _elementwise, _on_unit_interval
from .errors import DomainError, _check_count

__all__ = [
    "WeibullParams",
    "pdf",
    "cdf",
    "quantile",
    "quantile_density",
    "sample",
    "weibull_qf",
    "qz_closed",
    "qd_closed",
    "closed_curve",
    "gini_weibull",
    "eta_weibull",
]


_NORMAL_MIN = np.finfo(float).tiny  # the smallest normal float


def _check_positive(value: float, name: str = "shape") -> float:
    """The parameter ``value`` as a float; DomainError unless it is a finite
    positive real number (NumPy scalars included), not a bool.  Any real is
    decided: an int beyond the float range is not finite here, and the error
    shows a long value abridged.  A float32 comes back as the float it holds,
    so no arithmetic on the parameter falls back to float32."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and value > 0.0)
    except OverflowError:  # math.isfinite of an int beyond the float range
        ok = False
    if not ok:
        raise DomainError(f"{name} must be finite and positive, got {reprlib.repr(value)}")
    return float(value)


@dataclass(frozen=True)
class WeibullParams:
    """Shape/scale parameter pair, validated on construction."""

    beta: float
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_positive(self.beta))
        object.__setattr__(self, "sigma", _check_positive(self.sigma, "scale"))


def pdf(params: WeibullParams, x):
    """Density of the Weibull distribution; zero for negative arguments and
    at +inf.  DomainError for NaN."""

    def density(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        # beta z**beta exp(-z**beta) / x, with z**beta and the division by x
        # taken in logs, so that no factor over- or underflows where the
        # density does not; an overflow rounds the density to inf near 0
        # (beta < 1), and where z**beta overflows the density rounds to zero
        with np.errstate(over="ignore"):
            log_x = np.log(x[pos])
            log_zb = params.beta * (log_x - math.log(params.sigma))
            zb = np.exp(log_zb)
            keep = zb < np.inf
            pos[pos] = keep
            out[pos] = params.beta * np.exp(log_zb[keep] - log_x[keep] - zb[keep])
        if params.beta < 1.0:
            out[x == 0.0] = np.inf
        elif params.beta == 1.0:
            out[x == 0.0] = 1.0 / params.sigma
        return out

    return _elementwise(x, density, np.isnan, "density argument must not be NaN")


def cdf(params: WeibullParams, x):
    """Distribution function F(x) = 1 - exp(-(x/sigma)**beta).  DomainError
    for NaN."""

    def dist(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        with np.errstate(over="ignore"):  # an overflow to inf gives F = 1
            out[pos] = -np.expm1(-((x[pos] / params.sigma) ** params.beta))
        return out

    return _elementwise(x, dist, np.isnan, "distribution function argument must not be NaN")


def quantile(params: WeibullParams, p):
    """Quantile function Q(p) = sigma * (-log(1-p))**(1/beta).

    ``p`` may be a scalar or array in [0, 1]; Q(1) is +inf.
    """

    def q(p):
        # -log1p(-p) keeps precision for small p and gives +inf at p=1; a
        # quantile beyond the float range is +inf
        with np.errstate(divide="ignore", over="ignore"):
            return params.sigma * (-np.log1p(-p)) ** (1.0 / params.beta)

    return _on_unit_interval(p, q, "quantile order")


def quantile_density(params: WeibullParams, p):
    """Derivative Q'(p) = (sigma/beta) * (-log(1-p))**(1/beta-1) / (1-p).

    Defined for p in (0, 1).  The power is divided by beta before sigma
    multiplies it, so at a subnormal shape, where 1/beta overflows, the
    density is 0 where -log(1-p) < 1 and +inf where it is above 1.
    """

    def density(p):
        u = -np.log1p(-p)
        with np.errstate(over="ignore"):  # a density beyond the float range is +inf
            return params.sigma * (u ** (1.0 / params.beta - 1.0) / params.beta) / (1.0 - p)

    return _elementwise(p, density, lambda p: (p <= 0.0) | (p >= 1.0) | np.isnan(p),
                        "quantile density needs p in the open interval (0, 1)")


def sample(params: WeibullParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates by inverse transform of uniforms from ``rng``."""
    return _from_uniforms(rng.random(_check_count(n, 1, "sample size")), params)


def _from_uniforms(u: np.ndarray, params: WeibullParams) -> np.ndarray:
    """The inverse transform sigma * (-log(1 - u))**(1/beta) of uniforms ``u``
    in [0, 1), computed in place in ``u`` and returned.

    -log(1 - u) lies in [0, 36.74] for a 53-bit uniform, so a draw can only
    go wrong by overflowing to +inf (at sigma = 1, possible once beta is
    below about 0.0051); DomainError naming the parameters if one does.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    with np.errstate(over="ignore"):
        u **= 1.0 / params.beta
        u *= params.sigma
    if u.max(initial=0.0) == np.inf:
        raise DomainError(f"Weibull draws overflow at shape {params.beta!r} "
                          f"and scale {params.sigma!r}")
    return u


def weibull_qf(params: WeibullParams):
    """Return the quantile function as a plain callable p -> Q(p)."""

    def qf(p):
        return quantile(params, p)

    return qf


def _log_terms(u: np.ndarray, one_minus_v: np.ndarray, out: tuple | None = None):
    """log(1 - u), log(1 - v) and log r, at a curve's orders u and 1 - v
    (from ``CurveKind.orders``); r is the ratio of the two logs, which are
    -Lu and -Lv.  Given ``out``, three arrays, they are computed there in
    place.

    Where r is subnormal (curve arguments below about 3e-308 for qZ and
    3e-305 for qD) it has lost digits, so log r is log(Lu) - log(Lv) there.
    DomainError where r underflows to zero: at the curve argument 5e-324,
    where u rounds to 0, and (qD) below about 4e-321.  There the curve at a
    large shape is far from its limit 1 at 0, so no value is returned.
    """
    lu, lv, lr = (None, None, None) if out is None else out
    lu = np.log1p(np.negative(u, out=lu), out=lu)
    if lu.max(initial=-1.0) < 0.0:  # first: for qD, 1 - v is u, and log(0) warns
        lv = np.log(one_minus_v, out=lv)
        lr = np.divide(lu, lv, out=lr)
        smallest = lr.min(initial=1.0)
        if smallest > 0.0:
            sub = lr < _NORMAL_MIN if smallest < _NORMAL_MIN else None
            np.log(lr, out=lr)
            if sub is not None:
                lr[sub] = np.log(-lu[sub]) - np.log(-lv[sub])
            return lu, lv, lr
    raise DomainError("curve argument too close to 0: the curve's log ratio underflows")


def _log_ratio(p: np.ndarray, kind: CurveKind) -> np.ndarray:
    """log of r(p) for interior p; r is the curve's bracketed log ratio."""
    u, _, one_minus_v = kind.orders(p)
    return _log_terms(u, one_minus_v)[2]


def qz_closed(beta: float, p):
    """Closed-form qZ curve of the Weibull model.

    qZ(p) = 1 - [log(1-p/2) / log((1-p)/2)]**(1/beta) for p in (0, 1),
    with qZ(0) = qZ(1) = 1 by convention.  Scale free.
    """
    return closed_curve(beta, p, CurveKind.QZ)


def qd_closed(beta: float, p):
    """Closed-form qD curve of the Weibull model.

    qD(p) = 1 - [log(1-p/2) / log(p/2)]**(1/beta) for p in (0, 1), with
    qD(0) = 1 and qD(1) = 0 by convention.  Scale free.
    """
    return closed_curve(beta, p, CurveKind.QD)


def closed_curve(beta: float, p, kind):
    """The closed-form curve of ``kind``: :func:`qz_closed` or :func:`qd_closed`."""
    kind = CurveKind(kind)
    beta = _check_positive(beta)
    # below a shape of 1e-160 the curve is 1, as exp(lr/beta) in _eta_terms is 0
    return _curve_eval(p, lambda p: -np.expm1(_log_ratio(p, kind) / max(beta, 1e-160)),
                       kind.ends)


def gini_weibull(beta: float) -> float:
    """Gini index of the Weibull model, 1 - 2**(-1/beta); scale free."""
    return -math.expm1(-math.log(2.0) / _check_positive(beta))


def eta_weibull(beta: float, p, kind="qz"):
    """Sensitivity of the closed-form curve to the shape parameter.

    Returns d/d(beta) of the curve value, r**(1/beta) * log(r) / beta**2
    with r the curve's bracketed log ratio.  Negative on (0, 1) for both
    curves (larger shape means a lower curve) and zero at the endpoints.
    """
    kind = CurveKind(kind)
    beta = _check_positive(beta)
    return _curve_eval(p, lambda p: _eta_terms(_log_ratio(p, kind), beta)[1], (0.0, 0.0))


def _eta_terms(lr: np.ndarray, beta: float, out: np.ndarray | None = None):
    """exp(lr/beta), which is 1 minus the curve, and eta = exp(lr/beta) *
    lr / beta**2 at log ratios ``lr`` of interior points, finite and without
    a warning for every positive shape.  Given ``out``, exp(lr/beta) is
    computed in ``out`` and eta in ``lr``, in place.

    |lr| lies between about 4e-16 and 745 inside (0, 1), so below a shape
    of 1e-160, where lr/beta may overflow and beta**2 underflow to zero,
    exp(lr/beta) is zero: exp(lr/1e-160) gives the same zeros, and eta is
    zero.  From 1e154 on, where beta**2 nears overflow, |eta| is below
    1e-305 and taken as zero.
    """
    e = np.exp(np.divide(lr, max(beta, 1e-160), out=out), out=out)
    eta = np.multiply(e, lr, out=None if out is None else lr)
    if 1e-160 <= beta < 1e154:
        eta /= beta**2
    else:
        eta.fill(0.0)
    return e, eta
