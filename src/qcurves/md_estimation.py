"""Minimum-distance fitting of the Weibull shape to a concentration curve.

The estimator minimizes the squared L2 distance between a data-based
reference curve (step empirical or interpolated ``hf``) and the model's
closed-form curve, over the shape.  The search runs on log-shape, where the
objective is smooth: a safeguarded Newton iteration from a starting
estimate, with analytic first and second derivatives, finishes most fits in
a few passes.  A fit that Newton cannot finish safely falls back to a
golden-section search inside a multiplicative bracket around the start,
expanding the bracket when the minimum lands on an edge.  The scalar fit
and the batched study rows share the default start (``_start_rows``) and
one minimizer, which evaluates rows in cache-sized blocks on the fixed
quadrature grid, so fits are deterministic and a batched fit of one sample
equals its scalar fit bitwise.

Method identifiers: ``mde`` (step reference), ``mdhf`` (interpolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CurveKind, QuadratureSpec, curve_value, gauss_legendre_grid
from .empirical_qf import SortedSample, empirical_qf, plotting_position_qf
from .errors import BracketFailure, DomainError, QcurvesError, StartFailure
from .shape_estimators import EstimateResult, SHAPE_METHODS, _ROW_KERNELS, lmoment_shape
from .weibull import _log_ratio

__all__ = ["MdConfig", "md_objective", "md_fit", "MD_REFERENCES"]

MD_REFERENCES = {"empirical": "mde", "hf": "mdhf"}

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI


@dataclass(frozen=True)
class MdConfig:
    """Configuration for a minimum-distance fit."""

    curve: CurveKind = CurveKind.QZ
    reference: str = "empirical"
    start_method: str | None = None  # None: pe, falling back to lm
    bracket_factor: float = 5.0
    tol: float = 1e-8  # absolute tolerance on log-shape
    max_expansions: int = 3
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.reference not in MD_REFERENCES:
            raise DomainError(f"reference must be one of {sorted(MD_REFERENCES)}")
        if not self.bracket_factor > 1.0:
            raise DomainError("bracket factor must exceed 1")
        if not 0.0 < self.tol < 1.0:
            raise DomainError("tolerance must lie in (0, 1)")
        if self.max_expansions < 0:
            raise DomainError("max_expansions must be nonnegative")
        if self.start_method is not None and self.start_method not in SHAPE_METHODS:
            raise DomainError(f"unknown start method {self.start_method!r}")

    @property
    def method(self) -> str:
        return MD_REFERENCES[self.reference]


def _reference_values(sample: SortedSample, config: MdConfig) -> np.ndarray:
    points, _ = gauss_legendre_grid(config.quadrature)
    if config.reference == "empirical":
        qf = empirical_qf(sample)
    else:
        qf = plotting_position_qf(sample, "hf")
    return curve_value(qf, config.curve, points)


# Rows per evaluation block.  At the default 2048 nodes a block temporary is
# 32 x 2048 x 8 B = 512 KB, so the four a Newton pass needs stay in a 2 MB
# per-core L2 cache, where a whole 500-row chunk (8 MB) would not; 32 rows
# ran faster than 64 or more and no slower than 16.  Every row is reduced on
# its own along the contiguous node axis, so no result depends on the block
# size or on which rows share a block.
_BLOCK_ROWS = 32

# Newton passes after which a row still moving goes to the golden search.
_NEWTON_PASSES = 20


def _row_blocks(rows: int):
    for b0 in range(0, rows, _BLOCK_ROWS):
        yield b0, min(b0 + _BLOCK_ROWS, rows)


def _objective_closure(ref: np.ndarray, lr: np.ndarray, weights: np.ndarray):
    """Batched objective: rows of ``ref`` against model curves 1-exp(lr/b).

    Rows are evaluated block by block in one reused temporary, with the
    same arithmetic as the objective term of ``_newton_terms``.
    """

    def f(log_beta: np.ndarray) -> np.ndarray:
        beta = np.exp(log_beta)
        out = np.empty(beta.shape)
        buf = np.empty((min(_BLOCK_ROWS, beta.size), lr.size))
        for b0, b1 in _row_blocks(beta.size):
            diff = buf[: b1 - b0]
            np.divide(lr, beta[b0:b1, None], out=diff)
            np.expm1(diff, out=diff)
            diff += ref[b0:b1]  # ref - model, the model being -expm1(lr/b)
            diff *= diff
            diff *= weights
            diff.sum(axis=-1, out=out[b0:b1])
        return out

    return f


def _newton_terms(ref: np.ndarray, rows: np.ndarray, lr: np.ndarray,
                  weights: np.ndarray, log_beta: np.ndarray):
    """Objective F and its log-shape derivatives F', F'' for the rows ``ref[rows]``.

    With u = lr/b, e = exp(u), the model m = 1 - e and the residual
    r = ref - m: m' = u*e, m'' = -u*(1 + u)*e, F = sum w*r^2,
    F' = -2 sum w*r*m' and F'' = 2 sum w*(m'^2 - r*m'').  All three come from
    one expm1 per node, and F equals ``_objective_closure`` bitwise.
    """
    beta = np.exp(log_beta)
    f, g, h = np.empty((3, rows.size))
    u_buf, r_buf, mp_buf, t_buf = np.empty((4, min(_BLOCK_ROWS, rows.size), lr.size))
    for b0, b1 in _row_blocks(rows.size):
        k = b1 - b0
        u, r, mp, t = u_buf[:k], r_buf[:k], mp_buf[:k], t_buf[:k]
        np.divide(lr, beta[b0:b1, None], out=u)
        np.expm1(u, out=r)
        np.add(r, 1.0, out=mp)
        mp *= u  # m'
        np.take(ref, rows[b0:b1], axis=0, out=t)
        r += t  # ref - m
        np.multiply(r, r, out=t)
        t *= weights
        t.sum(axis=-1, out=f[b0:b1])
        np.multiply(r, mp, out=t)
        t *= weights
        t.sum(axis=-1, out=g[b0:b1])
        u += 1.0
        u *= mp
        u *= r  # -r*m''
        np.multiply(mp, mp, out=t)
        t += u
        t *= weights
        t.sum(axis=-1, out=h[b0:b1])
    return f, -2.0 * g, 2.0 * h


def md_objective(sample: SortedSample, beta: float, config: MdConfig = MdConfig()) -> float:
    """Squared L2 distance between the reference and model curves at ``beta``."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise DomainError(f"shape must be finite and positive, got {beta}")
    if not isinstance(sample, SortedSample):
        sample = SortedSample.from_data(sample)
    points, weights = gauss_legendre_grid(config.quadrature)
    ref = _reference_values(sample, config)[None, :]
    lr = _log_ratio(points, config.curve.value)
    return float(_objective_closure(ref, lr, weights)(np.array([math.log(beta)]))[0])


def _golden(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Vectorized golden-section minimize on per-element intervals.

    Returns (xmin, fmin, evaluations).  The iteration count is fixed by the
    widest interval, so trajectories are element-independent.
    """
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    width = float(np.max(b - a))
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    evals = 2
    if width > tol:
        n_iter = int(math.ceil(math.log(tol / width) / math.log(_INVPHI)))
    else:
        n_iter = 0
    for _ in range(n_iter):
        left = fc < fd
        a1 = np.where(left, a, c)
        b1 = np.where(left, d, b)
        c1 = np.where(left, a1 + _INVPHI2 * (b1 - a1), d)
        d1 = np.where(left, c, a1 + _INVPHI * (b1 - a1))
        x_eval = np.where(left, c1, d1)
        fx = f(x_eval)
        evals += 1
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        a, b, c, d = a1, b1, c1, d1
    take_c = fc <= fd
    xmin = np.where(take_c, c, d)
    fmin = np.where(take_c, fc, fd)
    return xmin, fmin, evals


def _minimize_log(ref: np.ndarray, lr: np.ndarray, weights: np.ndarray,
                  log_start: np.ndarray, config: MdConfig, strict: bool):
    """Minimize the objective of every row of ``ref`` over log-shape.

    Each row starts with Newton's method from its ``log_start``.  The row
    leaves Newton converged once a step is shorter than ``config.tol``.  It
    leaves for the golden search instead when its curvature is not
    positive, its objective rises from one pass to the next, its next
    iterate leaves the first bracket ``log_start -+ log(bracket_factor)``,
    or it is still moving after ``_NEWTON_PASSES`` passes.  The golden
    search starts on that first bracket and, while its minimum sits on the
    bracket edge, re-centres and doubles the bracket up to
    ``config.max_expansions`` times.  Rows drop out as they converge, so
    every row's result depends on that row alone.  No row ends worse than
    its start: where the start's objective is not above the minimum found,
    the start is returned.

    Returns (log_xmin, fmin, pending, evaluations).  ``pending`` marks rows
    still pinned to a bracket edge, whose log_xmin and fmin are NaN; with
    ``strict`` such a row raises BracketFailure instead.  ``evaluations``
    counts Newton passes plus golden objective evaluations.
    """
    log_factor = math.log(config.bracket_factor)
    lo = log_start - log_factor
    hi = log_start + log_factor
    xmin = np.full_like(log_start, np.nan)
    fmin = np.full_like(log_start, np.nan)
    f_start = np.full_like(log_start, np.nan)
    pending = np.zeros(log_start.shape, dtype=bool)  # rows for the golden search
    rows = np.arange(log_start.size)
    x = log_start
    f_prev = np.full_like(log_start, np.inf)
    evals = 0
    for _ in range(_NEWTON_PASSES):
        if rows.size == 0:
            break
        f, g, h = _newton_terms(ref, rows, lr, weights, x)
        if evals == 0:
            f_start[:] = f
        evals += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -g / h
        ok = (h > 0.0) & (f <= f_prev)
        done = ok & (np.abs(step) < config.tol)
        xmin[rows[done]] = x[done]
        fmin[rows[done]] = f[done]
        x_next = x + step
        go = ok & ~done & (x_next > lo[rows]) & (x_next < hi[rows])
        pending[rows[~done & ~go]] = True
        rows, x, f_prev = rows[go], x_next[go], f[go]
    pending[rows] = True

    edge_tol = max(10.0 * config.tol, 1e-6)
    for _ in range(config.max_expansions + 1):
        idx = np.nonzero(pending)[0]
        if idx.size == 0:
            break
        obj = _objective_closure(ref[idx], lr, weights)
        sub_x, sub_f, ev = _golden(obj, lo[idx], hi[idx], config.tol)
        evals += ev
        pinned = np.minimum(sub_x - lo[idx], hi[idx] - sub_x) < edge_tol
        xmin[idx] = sub_x
        fmin[idx] = sub_f
        done = idx[~pinned]
        pending[done] = False
        still = idx[pinned]
        if still.size:
            half = hi[still] - lo[still]  # doubles the bracket, slid toward the edge
            lo[still] = xmin[still] - half
            hi[still] = xmin[still] + half
    if np.any(pending):
        if strict:
            raise BracketFailure(
                "minimum still pinned to the bracket edge after "
                f"{config.max_expansions} expansions")
        xmin[pending] = np.nan
        fmin[pending] = np.nan
    start_wins = f_start <= fmin
    xmin[start_wins] = log_start[start_wins]
    fmin[start_wins] = f_start[start_wins]
    return xmin, fmin, pending, evals


def _start_rows(x_rows: np.ndarray) -> np.ndarray:
    """Default start of each row: the pe estimate, else the lm estimate.

    A row where neither gives a finite positive shape is NaN.
    """
    pe = _ROW_KERNELS["pe"](x_rows, False)[0]
    start = np.where(np.isfinite(pe), pe, _ROW_KERNELS["lm"](x_rows, False)[0])
    return np.where(np.isfinite(start) & (start > 0.0), start, np.nan)


def _start_beta(sample: SortedSample, config: MdConfig) -> float:
    if config.start_method is not None:
        try:
            return SHAPE_METHODS[config.start_method](sample).beta_hat
        except QcurvesError as exc:
            raise StartFailure(f"start method {config.start_method!r} failed: {exc}") from exc
    start = float(_start_rows(sample.values[None, :])[0])
    if math.isnan(start):
        try:
            lmoment_shape(sample)  # raises with the reason lm failed
        except QcurvesError as exc:
            raise StartFailure(f"default starts pe and lm both failed: {exc}") from exc
        raise StartFailure("default starts pe and lm both failed")
    return start


def md_fit(sample: SortedSample, config: MdConfig = MdConfig()) -> EstimateResult:
    """Minimum-distance shape estimate for the configured curve/reference.

    The achieved objective never exceeds the objective at the starting
    shape; diagnostics carry the start and the achieved objective as the
    residual.
    """
    if not isinstance(sample, SortedSample):
        sample = SortedSample.from_data(sample)
    beta0 = _start_beta(sample, config)
    points, weights = gauss_legendre_grid(config.quadrature)
    ref = _reference_values(sample, config)[None, :]
    lr = _log_ratio(points, config.curve.value)
    xmin, fmin, _, evals = _minimize_log(ref, lr, weights, np.log([beta0]), config,
                                         strict=True)
    return EstimateResult(config.method, float(np.exp(xmin[0])), iterations=evals,
                          residual=float(fmin[0]), start=beta0)
