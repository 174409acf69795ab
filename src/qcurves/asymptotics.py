"""Large-sample variance of the minimum-distance shape estimator.

For the fitted model, sqrt(n) times the estimation error of the
minimum-distance shape converges to a centered normal.  Its variance is
assembled from two ingredients on the curve scale:

* the covariance kernel R(s, t) of the limiting Gaussian process of the
  empirical curve, which for curve value G(t) = a(t)B(u_t) - b(t)B(v_t)
  (B a Brownian bridge, u_t/v_t the two quantile orders entering the
  curve at t) expands into four bridge-covariance terms, and
* the curve's sensitivity eta(t) to the shape parameter.

The variance equals A / C**2 with A the double integral of
eta(s)*eta(t)*R(s,t) over the unit square and C the integral of eta**2:
the L2 projection of the limiting process onto the one-dimensional range
of the local parametrization divides by C once for the projection and
once for the parametrization scale.  The choice is validated against
direct simulation in the test suite.

Per point everything follows from Lu = -log(1 - u) and Lv = -log(1 - v),
with 1 - v formed directly ((1 - t)/2 for qZ, t/2 for qD) and
lr = log(Lu/Lv) the curve's log ratio:

    1 - curve(t) = exp(lr/beta),     eta(t) = exp(lr/beta) * lr / beta**2,
    a(t) = exp(lr/beta) / (beta (1 - u) Lu),
    b(t) = exp(lr/beta) / (beta (1 - v) Lv),

since Q'(p)/Q(p) = 1 / (beta (1 - p) (-log(1 - p))): one log1p, two logs
and one exp a point.  On the triangle s < t every min() in R(s, t)
resolves (u_s <= u_t <= 1/2 <= v), so R(s, t) is a sum of products
f_k(s) g_k(t) and each inner integral over s is a weighted row sum.  Every
inner summand eta a u, eta b (1 - v) and eta b v shares the factor
q = eta * exp(lr/beta) / beta, which leaves u / ((1 - u) Lu), 1 / Lv and
v / ((1 - v) Lv) a point.  The factor 1/beta is applied once to the finished
sums, and the logs log(1 - u) = -Lu and log(1 - v) = -Lv enter with no
negation.  The inner points s = t_i t_j are symmetric in i and j, so each is
evaluated once, on the upper trapezoid of a tile of rows, and enters both
its row's sum and, mirrored, its column's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import GRID, CurveKind, QuadratureSpec, _real_array, gauss_legendre_grid
from .errors import DomainError, NonConvergence
from .weibull import _check_positive, _eta_terms, _log_terms

__all__ = ["KernelContext", "kernel_ab", "kernel_R", "md_asymptotic_variance",
           "AsymptoticVariance"]

# a tile of _double_integral holds _TILE_VALUES // N rows of the N-node grid
# (at least one, at most N), so the tiles depend on N alone.  Each of its
# seven buffers holds one tile, 256 KB, and is reused for every tile.
_TILE_VALUES = 2**15

# Gauss-Legendre nodes a panel of the graded grid of _double_integral.
_NODES = 4

# Largest relative change of A under panel doubling that md_asymptotic_variance
# accepts.
_DOUBLING_RTOL = 1e-6

# Largest relative difference md_asymptotic_variance accepts between C on
# the package grid and C on the graded grid of _ETA_SQUARED_PANELS panels.
# sigma2 carries twice C's error, so C's part of it stays below 1e-3.  The
# package grid's C is off by about 1e-6 at shape 1 and 2e-4 at large shapes,
# and at qD shapes below about 0.00124 it misses eta's boundary layer at
# t = 1: by 6.8e-4 at 0.0012, 2.9e-3 at 0.001 and 30% at 1e-4.
_ETA_SQUARED_RTOL = 5e-4

# Panels of the graded grid that checks C.  There C lies within 3e-7 of C
# on 4,096 panels of 8 nodes at qD shapes from 3e-5 and 6e-8 at large
# shapes, and costs about 0.3 ms a call.
_ETA_SQUARED_PANELS = 1024

# Most nodes of the coarser grid of the last doubling md_asymptotic_variance
# makes.  Its cost grows with the square of the node count: the finer grid
# then holds 16,384 nodes and that integral takes about 1.5 s on one core of
# a 2-vCPU AMD EPYC VM, 2.2 s on a 2-vCPU Intel Xeon VM.
MAX_VARIANCE_NODES = 8192


@dataclass(frozen=True)
class KernelContext:
    """Shape and curve kind (a member or its name) of the model whose kernel
    is evaluated.  The shape must be a normal float: below that, a(t) and
    b(t) would be 0/0."""

    beta: float
    kind: CurveKind

    def __post_init__(self):
        object.__setattr__(self, "kind", CurveKind(self.kind))
        object.__setattr__(self, "beta", _check_positive(self.beta))
        if self.beta < np.finfo(float).tiny:
            raise DomainError(f"shape must be a normal float, got {self.beta!r}")


def _check_interior(t: np.ndarray):
    if np.any((t <= 0.0) | (t >= 1.0) | ~np.isfinite(t)):
        raise DomainError("kernel arguments must lie strictly inside (0, 1)")


def _point_terms(ctx: KernelContext, t: np.ndarray):
    """eta(t), a(t), b(t), u_t and 1 - v_t at interior curve arguments t."""
    u, _, one_minus_v = ctx.kind.orders(t)
    lu, lv, lr = _log_terms(u, one_minus_v)  # -Lu, -Lv
    e, eta = _eta_terms(lr, ctx.beta)  # e = 1 - curve(t)
    # where a denominator underflows to 0 (subnormal t or a tiny shape), e
    # is 0 too, and the true a or b lies below the subnormal range
    a, b = (np.divide(e, den, out=np.zeros_like(e), where=den > 0.0)
            for den in (-ctx.beta * (1.0 - u) * lu, -ctx.beta * one_minus_v * lv))
    return eta, a, b, u, one_minus_v


def kernel_ab(ctx: KernelContext, t):
    """Coefficients a(t), b(t) of the limiting process at curve argument t.

    a(t) = [1 - curve(t)] * Q'(u_t)/Q(u_t) and likewise b(t) at v_t, with
    (u_t, v_t) the two quantile orders of the curve.  Scale free.
    """
    t = np.atleast_1d(_real_array(t))
    _check_interior(t)
    _, a, b, _, _ = _point_terms(ctx, t)
    return a, b


def kernel_R(ctx: KernelContext, s, t):
    """Covariance R(s, t) of the limiting Gaussian process of the curve.

    Expansion of Cov(G(s), G(t)) for G(t) = a(t)B(u_t) - b(t)B(v_t) with
    Cov(B(x), B(y)) = min(x, y) - x*y; broadcasts over s and t, and
    DomainError where they do not broadcast.
    """
    s, t = _real_array(s), _real_array(t)
    try:
        np.broadcast_shapes(s.shape, t.shape)
    except ValueError:
        raise DomainError(f"s and t of shapes {s.shape} and {t.shape} do not broadcast") from None
    (a_s, b_s), (a_t, b_t) = kernel_ab(ctx, s), kernel_ab(ctx, t)
    (u_s, v_s, _), (u_t, v_t, _) = (ctx.kind.orders(np.atleast_1d(x)) for x in (s, t))

    def cov(x, y):
        return np.minimum(x, y) - x * y

    return (a_s * a_t * cov(u_s, u_t) - a_s * b_t * cov(u_s, v_t)
            - b_s * a_t * cov(v_s, u_t) + b_s * b_t * cov(v_s, v_t))


def _graded_grid(panels: int):
    """Gauss-Legendre grid pushed through t = (1 - cos(pi u)) / 2.

    The map clusters nodes at both endpoints and its derivative vanishes
    there, which restores fast panel convergence for integrands with
    endpoint power/log behavior.
    """
    up, uw = gauss_legendre_grid(QuadratureSpec(panels, _NODES))
    t = 0.5 * (1.0 - np.cos(np.pi * up))
    w = uw * 0.5 * np.pi * np.sin(np.pi * up)
    return t, w


def _double_integral(ctx: KernelContext, panels: int) -> float:
    """2 * integral of eta(s) eta(t) R(s, t) over the triangle s < t.

    Splitting the square along the diagonal keeps the min() kink out of
    every panel: the inner integral over s runs on [0, t], on an
    endpoint-graded grid in both directions (s = t * inner node).  With
    w = 1 - v, R(s, t) on s < t is

        a_s u_s [a_t (1 - u_t) - b_t w_t] - b_s w_s a_t u_t
        + b_s b_t (v_s w_t for qZ, w_s v_t for qD),

    so each outer node needs the inner sums of eta a u, eta b w and (qZ)
    eta b v.  With q = eta * e / beta (e = 1 - curve) they are the
    weighted sums of q u / ((1 - u) Lu), q / Lv and (q / Lv) v / w.

    The points s_ij = t_i t_j are symmetric in i and j, so each is
    evaluated once: a tile of rows [t0, t1) takes the factors at the
    columns j >= t0 only, adds their row sums (weights tw_j) to rows t0 to
    t1 - 1 and the column sums of its part j >= t1 (weights tw_i) to rows
    j >= t1, the mirrored half.  That is no gather, scatter or transpose,
    and about half the points of the full N x N grid.  The tile height,
    ``_TILE_VALUES`` // N rows, depends on the node count N alone.  The
    factors of a tile are computed in place in seven buffers of one tile
    each, allocated once a call.  log(1 - u) and log(w), which are -Lu and
    -Lv, enter as they are, and the factor -1/beta is applied to the
    finished sums.
    """
    tp, tw = _graded_grid(panels)
    n, k = tp.size, 3 if ctx.kind is CurveKind.QZ else 2
    sums = np.zeros((k, n))
    height = min(n, max(1, _TILE_VALUES // n))
    buffers = np.empty((7, height * n))
    for t0 in range(0, n, height):
        t1 = min(t0 + height, n)
        tile = buffers[:, :(t1 - t0) * (n - t0)].reshape(7, t1 - t0, n - t0)
        u, w, lu, q, lw, x, v = tile
        u, v, w = ctx.kind.orders(np.multiply.outer(tp[t0:t1], tp[t0:], out=u), out=(u, v, w))
        lu, lw, q = _log_terms(u, w, out=(lu, lw, q))  # -Lu, -Lv, lr
        e, q = _eta_terms(q, ctx.beta, out=x)
        q *= e
        np.divide(q, lw, out=x)  # -q / Lv
        if k == 3:  # (q / Lv) v / w
            np.multiply(np.divide(v, w, out=v), x, out=v)
        # -u / ((1 - u) Lu)
        np.divide(u, np.multiply(np.subtract(1.0, u, out=lw), lu, out=lw), out=lw)
        lw *= q
        p = tile[4:4 + k]
        sums[:, t0:t1] += np.einsum("kij,j->ki", p, tw[t0:])
        sums[:, t1:] += np.einsum("i,kij->kj", tw[t0:t1], p[:, :, t1 - t0:])
    sums /= -ctx.beta
    eta_t, a_t, b_t, u_t, w_t = _point_terms(ctx, tp)
    row = sums[0] * (a_t * (1.0 - u_t) - b_t * w_t)
    if k == 3:
        row += sums[2] * b_t * w_t - sums[1] * a_t * u_t
    else:
        row -= sums[1] * (a_t * u_t - b_t * (1.0 - w_t))
    return 2.0 * float((tp * tw * eta_t * row).sum())


def _eta_squared_integral(ctx: KernelContext, points, weights) -> float:
    """C, the integral of eta**2, by the rule of ``points`` and ``weights``."""
    eta = _point_terms(ctx, points)[0]
    return float((weights * eta * eta).sum())


@dataclass(frozen=True)
class AsymptoticVariance:
    """Variance of the limiting normal, with its two ingredients."""

    beta: float
    kind: CurveKind
    sigma2: float
    double_integral: float  # A = double integral of eta eta R
    eta_squared_integral: float  # C = integral of eta**2
    rel_change: float  # relative change of A under panel doubling


def md_asymptotic_variance(beta: float, kind=CurveKind.QZ) -> AsymptoticVariance:
    """Asymptotic variance A/C**2 of the minimum-distance shape estimator.

    ``A`` is computed by triangle-split tensor Gauss-Legendre quadrature at
    64 panels and at doubled panel counts, each finer value the next coarse
    one, until A changes by at most ``_DOUBLING_RTOL`` relative; the finer
    value of that last doubling is used.  NonConvergence is raised when the
    coarse grid of the next doubling would hold more than
    ``MAX_VARIANCE_NODES`` nodes.  A zero or non-finite integral ends the
    doubling, and is a DomainError.

    ``C`` is computed on the package grid ``GRID``.  Before any A is
    computed, NonConvergence is raised where it differs from C on the graded
    grid of ``_ETA_SQUARED_PANELS`` panels by more than ``_ETA_SQUARED_RTOL``
    relative.
    """
    ctx = KernelContext(beta, kind)
    c_val = _eta_squared_integral(ctx, *gauss_legendre_grid(GRID))
    graded = _eta_squared_integral(ctx, *_graded_grid(_ETA_SQUARED_PANELS))
    # a subnormal C keeps too few digits to check; its square underflows,
    # which is a DomainError below
    if graded >= np.finfo(float).tiny and abs(c_val - graded) > _ETA_SQUARED_RTOL * graded:
        raise NonConvergence(f"integral of eta**2 differs by {abs(c_val - graded) / graded:.3e} "
                             f"between the package grid and {_ETA_SQUARED_PANELS} graded panels")
    panels = 64
    fine = _double_integral(ctx, panels)
    while True:
        coarse, panels = fine, 2 * panels
        fine = _double_integral(ctx, panels)
        rel = abs(fine - coarse) / max(abs(fine), np.finfo(float).tiny)
        if rel <= _DOUBLING_RTOL or not (fine != 0.0 and math.isfinite(fine)):
            break
        if panels * _NODES > MAX_VARIANCE_NODES:
            raise NonConvergence(f"double quadrature changed by {rel:.3e} under panel "
                                 f"doubling to {panels} panels")
    c_sq = c_val * c_val
    if not (fine > 0.0 and c_sq > 0.0 and math.isfinite(fine / c_sq)):
        raise DomainError(f"asymptotic variance at shape {beta!r} under- or overflows")
    return AsymptoticVariance(beta=ctx.beta, kind=ctx.kind, sigma2=fine / c_sq,
                              double_integral=fine, eta_squared_integral=c_val,
                              rel_change=rel)
