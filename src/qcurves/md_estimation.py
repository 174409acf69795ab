"""Minimum-distance fitting of the Weibull shape to a concentration curve.

The estimator minimizes the squared L2 distance between a data-based
reference curve (step empirical or interpolated ``hf``) and the model's
closed-form curve, over the shape.  The search runs on log-shape, where the
objective is smooth: Newton's method from a start, with analytic first and
second derivatives, inside a multiplicative bracket around a seed estimate
(pe, falling back to lm; see ``_minimize_log``).  The start is that seed
moved by two Newton passes of the same distance on a subgrid of one node
per panel (``_refine_starts``), which cost about a quarter of one full
pass together and save the minimizer more than one pass a row; a row keeps
its seed where a pass finds no positive curvature or leaves the seed's
bracket.  The bracket stays centred on the seed, so refining the start
never moves the bracket off a minimum the seed's bracket holds.  A row
finishes once its Newton step is below the tolerance, or one pass sooner
once its last two full steps predict a next step far below it; there F is
evaluated once more, so the reported objective is F at the returned
shape.  Each row keeps the part of its bracket where F' changes sign;
where the curvature is not positive or the Newton iterate leaves that
part, the row moves to its midpoint, as the shape estimators' root finder
does.  Only a row still moving after a cap of Newton passes, in practice
one whose minimum lies outside the bracket, falls back to a golden-section
search, which expands the bracket while the minimum lands on an edge.  The
seed, the refinement's subgrid and passes, the bracket factor, the
tolerance, the pass cap and the expansion count are fixed,
and the L2 distance is integrated on the package's one grid
(``curves.GRID``, 256 panels of 8 nodes): a configuration names only the
curve and the reference.  A fit's ``iterations`` count the minimizer's
Newton passes, the passes with an early finish and the golden objective
evaluations, not the refinement's passes.

Log-shape is the minimizer's own coordinate.  The objective
(``_objective_closure``, ``md_objective``) and the Newton terms take shapes,
and the minimizer evaluates each row's start shape itself and returns the
shape at which the row's reported F was evaluated.  So a fit's residual is
``md_objective`` at its shape, and never above ``md_objective`` at its
start, bit for bit.

There is one implementation, the row function ``_md_rows``: sorted samples,
one per row, go through the seed (``_start_rows``), the reference rows, the
refinement and one minimizer, which evaluates rows in cache-sized blocks of
``_BLOCK_ROWS`` rows on the fixed quadrature grid.  ``_ref_rows`` is the one
producer of reference rows, for MD fits and for the study's plug-in ``hf``
row alike: it gathers and divides a block of rows at a time, from the one
cached plan per sample size, reference and curve (``_cell_plan``), and
nothing caches its output.  The step reference takes a quotient once per
distinct pair of order statistics (at most about n of them, against 2048
nodes) and expands the quotients to the grid.  F is formed in one place,
``_newton_terms``, as a sum of weighted squares: a Newton pass takes F', F''
beside it as fused row dots, and the objective (``_objective_closure``,
``md_objective``) takes F alone by the same steps, so F at a shape is the
same number on every path.  A row
``_md_rows`` cannot fit is NaN, or with ``strict`` raises the typed error.
``md_fit`` is its one-row strict call and the Monte Carlo study calls it on
chunks of replicates, so fits are deterministic and a batched fit of one
sample equals its scalar fit by construction.

Method identifiers: ``mde`` (step reference), ``mdhf`` (interpolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import GRID, CurveKind, gauss_legendre_grid
from .empirical_qf import (SortedSample, _as_sorted_sample, _interpolate, interp_plan,
                          plotting_positions, step_indices)
from .errors import BracketFailure, DegenerateQuantile, QcurvesError, StartFailure, _check_choice
from .shape_estimators import EstimateResult, _ROW_KERNELS
from .weibull import _check_positive, _log_ratio

__all__ = ["MdConfig", "md_objective", "md_fit", "MD_REFERENCES"]

MD_REFERENCES = {"empirical": "mde", "hf": "mdhf"}
_MD_METHODS = {method: reference for reference, method in MD_REFERENCES.items()}

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI

# The minimizer's fixed settings (see _minimize_log): the first bracket's
# factor about the seed, the tolerance on log-shape and the bracket
# expansions allowed.
_BRACKET_FACTOR = 5.0
_TOL = 1e-8
_MAX_EXPANSIONS = 3

# The start's refinement (see _refine_starts): the node of each GRID panel
# on its subgrid (one of the two central ones), the Newton passes there and
# the subgrid's weights, the panels' total weights.
_COARSE_NODE = 3
_COARSE_PASSES = 2
_PANEL_WEIGHTS = gauss_legendre_grid(GRID)[1].reshape(-1, GRID.nodes).sum(axis=1)
_PANEL_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class MdConfig:
    """What a minimum-distance fit matches: the ``curve`` (a kind or its
    name) and the ``reference`` quantile function (``empirical`` step or
    ``hf``), a key of ``MD_REFERENCES``; any other reference, a non-string
    included, is a DomainError naming them.  The minimizer's start, bracket
    and tolerance and the quadrature grid are fixed (see the module
    docstring)."""

    curve: CurveKind = CurveKind.QZ
    reference: str = "empirical"

    def __post_init__(self):
        object.__setattr__(self, "curve", CurveKind(self.curve))
        _check_choice(self.reference, MD_REFERENCES, "reference")

    @property
    def method(self) -> str:
        return MD_REFERENCES[self.reference]


# A plan holds about 100 KB at the grid's 2048 nodes.  A study needs up to
# six per sample size and ``md_fit`` one per configuration and sample size,
# so the cache is bounded.
@lru_cache(maxsize=64)
def _cell_plan(n: int, reference: str, kind: CurveKind):
    """Gather plan of one reference curve for sorted rows of ``n`` values.

    ``reference`` is ``empirical`` (step quantile function) or a
    plotting-position scheme (``hf``, ``wg``) for the interpolated one.
    Returns (num, den, lr, weights, expand).  For the step function, num and
    den are the gathers ``(idx,)`` of the distinct (numerator, denominator)
    pairs of order statistics at the curve's orders u and v
    (``CurveKind.orders``) of the ``GRID`` points, at most about n pairs
    (n/2 on the default grid) against 2048 points, and ``expand`` is the
    pair of each point.  For an interpolant they are ``interp_plan``'s
    ``(j0, j1, frac)`` at the points and ``expand`` is None.  Then come the
    model's log-ratio row (the curve at shape b is 1 - exp(lr/b)) and the
    quadrature weights.  All arrays are read-only.
    """
    points, weights = gauss_legendre_grid(GRID)
    orders = kind.orders(points)[:2]
    expand = None
    if reference == "empirical":
        num, den = (step_indices(n, q) for q in orders)
        keys, expand = np.unique(num * n + den, return_inverse=True)
        expand.flags.writeable = False
        gathers = [(idx,) for idx in np.divmod(keys, n)]
    else:
        gathers = [interp_plan(plotting_positions(n, reference), q) for q in orders]
    lr = _log_ratio(points, kind)
    for arr in (lr, *gathers[0], *gathers[1]):
        arr.flags.writeable = False
    return (*gathers, lr, weights, expand)


# Rows per block.  At the grid's 2048 nodes a block temporary is
# 32 x 2048 x 8 B = 512 KB, so the four a Newton pass needs stay in a 2 MB
# per-core L2 cache, where a whole 500-row chunk (8 MB) would not; 32 rows
# ran faster than 64 or more and no slower than 16.  Every row is reduced on
# its own along the contiguous node axis, so no result depends on the block
# size or on which rows share a block.
_BLOCK_ROWS = 32

# Newton passes after which a row still moving goes to the golden search,
# and the factor on _TOL below which a predicted next step ends a row early.
_NEWTON_PASSES = 20
_EARLY_FACTOR = 0.01


def _row_blocks(rows: int):
    for b0 in range(0, rows, _BLOCK_ROWS):
        yield b0, min(b0 + _BLOCK_ROWS, rows)


def _block_buffers(count: int, rows: int, nodes: int) -> np.ndarray:
    """``count`` reusable temporaries for the blocks of ``rows`` rows of ``nodes`` values."""
    return np.empty((count, min(_BLOCK_ROWS, rows), nodes))


def _gather(x_rows: np.ndarray, plan: tuple, out=None) -> np.ndarray:
    """Quantiles of every row at a plan's orders, in ``out`` (one new
    C-ordered array by default).

    ``np.take`` returns C order where ``x[:, idx]`` leaves a transposed
    buffer, whose row sums would group differently from those of a one-row
    call.
    """
    if len(plan) == 1:
        # the plan's indices are in range, and "clip" lets take write into
        # out without the buffered copy that its default mode makes
        return np.take(x_rows, plan[0], axis=1, out=out, mode="clip")
    return _interpolate(x_rows, plan, out)


def _ref_rows(x_rows: np.ndarray, reference: str, kind: CurveKind,
              strict: bool) -> np.ndarray:
    """Reference curve 1 - q(num)/q(den) of every sorted row on the grid.

    The rows are gathered and divided into one new array block by block, so
    that a block's temporaries (``_BLOCK_ROWS`` rows) stay in cache.  The
    step (``empirical``) reference divides once per distinct index pair of
    its plan (``_cell_plan``) and expands the block's ratios to the grid
    with one ``take``; each value is the same quotient of the same two
    order statistics, so it equals the grid-wide division bitwise.  A row
    whose denominator quantile is zero somewhere raises DegenerateQuantile
    with ``strict``; otherwise it is NaN in every column, without a
    warning.  A one-row call is the reference of ``md_fit`` and
    equals ``curve_value`` of the matching quantile function bitwise.
    """
    num, den, lr, _, expand = _cell_plan(x_rows.shape[1], reference, kind)
    out = np.empty((x_rows.shape[0], lr.size))
    for b0, b1 in _row_blocks(len(out)):
        den_rows = _gather(x_rows[b0:b1], den)
        zero = den_rows.min(axis=1) == 0.0
        if strict and zero.any():
            raise DegenerateQuantile("denominator quantile is zero")
        block = _gather(x_rows[b0:b1], num, out[b0:b1] if expand is None else None)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(block, den_rows, out=block)
        np.subtract(1.0, block, out=block)
        if expand is not None:
            block = np.take(block, expand, axis=1, out=out[b0:b1], mode="clip")
        block[zero] = np.nan
    return out


def _newton_terms(ref: np.ndarray, rows: np.ndarray, lr: np.ndarray,
                  weights: np.ndarray, beta: np.ndarray, derivatives: bool = True):
    """Objective F and its log-shape derivatives F', F'' for the rows
    ``ref[rows]`` at the shapes ``beta``; F alone without ``derivatives``.

    With u = lr/b, e = exp(u), the model m = 1 - e and the residual
    r = ref - m: m' = u*e, m'' = -u*(1 + u)*e, F = sum w*r^2,
    F' = -2 sum w*r*m' and F'' = 2 sum w*(m'^2 - r*m'')
    = 2 sum m'*(w*m' + w*r*(1 + u)).  All three come from one expm1 per
    node.  This is the one place where F is formed, by the same steps with
    or without the derivatives, so F at a shape is the same number on every
    path.  F' and F'' are fused row dots (``np.einsum``, no BLAS), each row
    reduced on its own, so no value depends on the block.
    """
    f, g, h = np.empty((3, rows.size))
    u_buf, r_buf, mp_buf, t_buf = _block_buffers(4, rows.size, lr.size)
    every = rows.size == len(ref)  # rows is then arange, so no gather is needed
    for b0, b1 in _row_blocks(rows.size):
        k = b1 - b0
        u, r, mp, t = u_buf[:k], r_buf[:k], mp_buf[:k], t_buf[:k]
        np.divide(lr, beta[b0:b1, None], out=u)
        np.expm1(u, out=r)
        if derivatives:
            np.add(r, 1.0, out=mp)
            mp *= u  # m'
        if every:
            r += ref[b0:b1]  # ref - m
        else:
            np.take(ref, rows[b0:b1], axis=0, out=t)
            r += t
        np.multiply(r, weights, out=t)  # w*r
        r *= t
        r.sum(axis=-1, out=f[b0:b1])
        if not derivatives:
            continue
        np.einsum("ij,ij->i", t, mp, out=g[b0:b1])
        u += 1.0
        u *= t  # w*r*(1 + u)
        np.multiply(mp, weights, out=r)
        r += u
        np.einsum("ij,ij->i", mp, r, out=h[b0:b1])
    return (f, -2.0 * g, 2.0 * h) if derivatives else f


def _objective_closure(ref: np.ndarray, lr: np.ndarray, weights: np.ndarray):
    """Batched objective f(beta): F of the rows of ``ref`` against model
    curves 1-exp(lr/b) at the shapes ``beta``, one per row, from
    ``_newton_terms`` without the derivatives."""
    rows = np.arange(len(ref))
    return lambda beta: _newton_terms(ref, rows, lr, weights, beta, derivatives=False)


def _first_bracket(seeds: np.ndarray):
    """(lo, hi), the first bracket of every row on log-shape:
    log(seed) -+ log(_BRACKET_FACTOR), new arrays."""
    x = np.log(seeds)
    return x - math.log(_BRACKET_FACTOR), x + math.log(_BRACKET_FACTOR)


def _refine_starts(ref: np.ndarray, lr: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The minimizer's start of every row of ``ref``: its seed shape moved
    by ``_COARSE_PASSES`` Newton passes on log-shape, on the subgrid of node
    ``_COARSE_NODE`` of each ``GRID`` panel with the panels' total weights
    (``_PANEL_WEIGHTS``).  The plan's log-ratio row ``lr`` (256 values) and
    the reference's values at the subgrid's nodes are copied contiguous
    once, so that neither pass reads a whole row.

    A row keeps its seed wherever a pass gives F'' <= 0, a step that is not
    finite or a point outside its ``_first_bracket``.  Each row's start
    depends on that row alone.
    """
    lr = lr[_COARSE_NODE::GRID.nodes].copy()
    coarse = np.ascontiguousarray(ref[:, _COARSE_NODE::GRID.nodes])
    x = np.log(seeds)
    lo, hi = _first_bracket(seeds)
    rows, beta = np.arange(seeds.size), seeds
    for _ in range(_COARSE_PASSES):
        _, g, h = _newton_terms(coarse, rows, lr, _PANEL_WEIGHTS, beta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = x - g / h
            keep = (h > 0.0) & (x > lo[rows]) & (x < hi[rows])
        rows, x = rows[keep], x[keep]
        beta = np.exp(x)
    starts = seeds.copy()
    starts[rows] = beta
    return starts


def md_objective(sample: SortedSample, beta: float, config: MdConfig = MdConfig()) -> float:
    """Squared L2 distance between the reference and model curves at ``beta``."""
    _check_positive(beta)
    x_rows = _as_sorted_sample(sample).values[None, :]
    _, _, lr, weights, _ = _cell_plan(x_rows.shape[1], config.reference, config.curve)
    ref = _ref_rows(x_rows, config.reference, config.curve, strict=True)
    return float(_objective_closure(ref, lr, weights)(np.array([beta], dtype=float))[0])


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
                  start: np.ndarray, seed: np.ndarray, strict: bool):
    """Minimize the objective of every row of ``ref`` over the shape.

    The search runs on log-shape x, but shapes are its inputs and outputs:
    the first pass evaluates each row at its ``start`` itself, every later
    evaluation at exp(x), and each row returns the shape at which its
    reported F was evaluated.  Each row runs Newton's method from its start,
    each pass evaluating F, F' and F'' (derivatives in x) at the row's
    point, inside a sign bracket (a, b) of F': the part of the row's first
    bracket, ``_first_bracket`` of its ``seed``, that still holds the
    minimum.  The sign bracket starts as the first bracket, which must hold
    the start (``_refine_starts`` keeps it there), and after each pass its
    end a moves to the point where F' < 0 and its end b where F' > 0.  A
    pass then does one of these:

    - finish with the point, once the Newton step is shorter than ``_TOL``;
    - finish early with the point plus the Newton step, once that step and
      the full step before it predict a next step below ``_EARLY_FACTOR``
      times ``_TOL`` (|s_k|^3 / |s_k-1|^2 for a quadratically converging
      row).  F is evaluated there once, and the point is kept if F rose;
    - take the full Newton step, when F'' > 0 and the step lands inside
      (a, b);
    - otherwise move to the midpoint of (a, b).

    The shape estimators' root finder (``_bracketed_root``) keeps a sign
    bracket (lo, hi) of its falling residuals by the same convention: the
    end on the point's side of the root moves to the point, and a Newton
    step that would leave the bracket becomes its midpoint.  Both settle on
    a step in log-shape, a step relative to the shape.  A row whose
    minimum lies outside its first bracket bisects toward that edge.  A row
    still moving after ``_NEWTON_PASSES`` passes goes to the golden search
    on log-shape.  That search starts on the first bracket and, while its
    minimum sits on the bracket edge, re-centres and doubles the bracket up
    to ``_MAX_EXPANSIONS`` times.  Rows drop out as they finish, so every
    row's result depends on that row alone.  No row ends worse than its
    start: where the start's objective is not above the minimum found, the
    start is returned.

    Returns (shapes, fmin, pending, evaluations).  ``pending`` marks rows
    still pinned to a bracket edge, whose shape and fmin are NaN; with
    ``strict`` such a row raises BracketFailure instead.  ``evaluations``
    counts Newton passes, the passes with an early finish (one F-only
    evaluation each) and golden objective evaluations.
    """
    lo, hi = _first_bracket(seed)
    shapes = np.full_like(start, np.nan)
    fmin = np.full_like(start, np.nan)
    f_start = np.full_like(start, np.nan)
    pending = np.zeros(start.shape, dtype=bool)  # rows for the golden search
    rows = np.arange(start.size)
    x, beta = np.log(start), start
    # per active row: the sign bracket (a, b) of F' and the full Newton step
    # that led to x (NaN for a bisection)
    a, b = lo, hi
    s_prev = np.full_like(start, np.nan)
    early_tol = _EARLY_FACTOR * _TOL
    evals = 0
    for _ in range(_NEWTON_PASSES):
        if rows.size == 0:
            break
        f, g, h = _newton_terms(ref, rows, lr, weights, beta)
        if evals == 0:
            f_start[:] = f
        evals += 1
        a = np.where(g < 0.0, x, a)
        b = np.where(g > 0.0, x, b)
        newton = h > 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -g / h
            done = newton & (np.abs(step) < _TOL)
            x_full = x + step
            full = newton & ~done & (x_full > a) & (x_full < b)
            early = full & (np.abs(step) ** 3 < early_tol * s_prev ** 2)
        shapes[rows[done]] = beta[done]
        fmin[rows[done]] = f[done]
        if early.any():
            idx, b_end, f_at = rows[early], np.exp(x_full[early]), f[early]
            f_end = _objective_closure(ref[idx], lr, weights)(b_end)
            evals += 1
            better = f_end <= f_at
            shapes[idx] = np.where(better, b_end, beta[early])
            fmin[idx] = np.where(better, f_end, f_at)
        go = ~(done | early)
        x = np.where(full, x_full, 0.5 * (a + b))
        s_prev = np.where(full, step, np.nan)
        rows, x, a, b, s_prev = rows[go], x[go], a[go], b[go], s_prev[go]
        beta = np.exp(x)
    pending[rows] = True

    edge_tol = max(10.0 * _TOL, 1e-6)
    for _ in range(_MAX_EXPANSIONS + 1):
        idx = np.nonzero(pending)[0]
        if idx.size == 0:
            break
        obj = _objective_closure(ref[idx], lr, weights)
        sub_x, sub_f, ev = _golden(lambda xs: obj(np.exp(xs)), lo[idx], hi[idx], _TOL)
        evals += ev
        pinned = np.minimum(sub_x - lo[idx], hi[idx] - sub_x) < edge_tol
        shapes[idx] = np.exp(sub_x)
        fmin[idx] = sub_f
        pending[idx[~pinned]] = False
        still = idx[pinned]
        if still.size:
            half = hi[still] - lo[still]  # doubles the bracket, slid toward the edge
            lo[still] = sub_x[pinned] - half
            hi[still] = sub_x[pinned] + half
    if np.any(pending):
        if strict:
            raise BracketFailure(
                "minimum still pinned to the bracket edge after "
                f"{_MAX_EXPANSIONS} expansions")
        shapes[pending] = np.nan
        fmin[pending] = np.nan
    start_wins = f_start <= fmin
    shapes[start_wins] = start[start_wins]
    fmin[start_wins] = f_start[start_wins]
    return shapes, fmin, pending, evals


def _start_rows(x_rows: np.ndarray, strict: bool) -> np.ndarray:
    """Seed shape of each row: the pe estimate, else the lm estimate.

    A row where neither gives a finite positive shape is NaN; with
    ``strict`` it raises StartFailure with the reason lm failed on the first
    such row.
    """
    start = _ROW_KERNELS["pe"](x_rows, False)[0]
    redo = ~np.isfinite(start)
    if redo.any():  # lm runs on these rows only; each row's estimate is its own
        start[redo] = _ROW_KERNELS["lm"](x_rows[redo], False)[0]
    bad = ~(np.isfinite(start) & (start > 0.0))
    if strict and bad.any():
        # lm runs strictly on the first failed row alone: on several rows a
        # strict kernel reports the first check that any row fails, which
        # need not be the first failed row's reason
        k = int(np.argmax(bad))
        try:
            _ROW_KERNELS["lm"](x_rows[k:k + 1], True)  # raises with the reason lm failed
        except QcurvesError as exc:
            raise StartFailure(f"default starts pe and lm both failed: {exc}") from exc
        raise StartFailure("default starts pe and lm both failed")
    return np.where(bad, np.nan, start)


def _md_rows(x_rows: np.ndarray, config: MdConfig, strict: bool):
    """MD fits of sorted rows, one sample per row, under ``config``.

    Returns (shapes, evaluations, objectives, starts): per-row shapes,
    achieved objectives and the minimizer's starting shapes, and the
    minimizer's evaluation count for the whole call.  The rows' reference
    curves are built here by ``_ref_rows``; ``_refine_starts`` moves each
    row's seed from ``_start_rows`` on the reference's subgrid, and the
    minimizer's passes then read the whole reference from that start,
    inside the seed's bracket.  A row without a seed or a reference, or
    whose minimum stays pinned to the bracket edge, has a NaN shape and
    objective; with ``strict`` it raises the typed error instead, the seed
    checked before the reference and the reference before the minimizer.  A
    row without a reference keeps its seed as start.  A one-row call is ``md_fit``.
    """
    seeds = _start_rows(x_rows, strict)
    ref = _ref_rows(x_rows, config.reference, config.curve, strict)
    _, _, lr, weights, _ = _cell_plan(x_rows.shape[1], config.reference, config.curve)
    shapes = np.full(seeds.shape, np.nan)
    objectives = np.full(seeds.shape, np.nan)
    starts = seeds.copy()
    ok = ~np.isnan(seeds) & ~np.isnan(ref[:, 0])
    evals = 0
    if np.any(ok):
        ref_ok = ref if ok.all() else ref[ok]
        starts[ok] = _refine_starts(ref_ok, lr, seeds[ok])
        shapes[ok], objectives[ok], _, evals = _minimize_log(
            ref_ok, lr, weights, starts[ok], seeds[ok], strict)
    return shapes, evals, objectives, starts


def md_fit(sample: SortedSample, config: MdConfig = MdConfig()) -> EstimateResult:
    """Minimum-distance shape estimate for the configured curve/reference.

    Diagnostics carry the minimizer's start (the pe estimate, else the lm
    one, after the refinement's Newton passes) and the achieved objective
    as the residual, which never exceeds the objective at that start.
    """
    shapes, evals, objectives, starts = _md_rows(
        _as_sorted_sample(sample).values[None, :], config, True)
    return EstimateResult(config.method, float(shapes[0]), iterations=evals,
                          residual=float(objectives[0]), start=float(starts[0]))
