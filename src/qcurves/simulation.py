"""Monte Carlo study of curve estimators and shape estimators.

The engine draws Weibull samples, fits every requested estimator, and
aggregates integrated squared error of the fitted concentration curves and
squared/signed error of the fitted curve indices into a report.

Replications are seeded individually: replication r of the cell (beta
index i, size index j) draws its uniforms from
``Generator(PCG64(SeedSequence((master_seed, i, j, r))))``, so r runs below
2**32.  ``_streams.seeded_uniforms`` draws a chunk's streams into one
matrix, equal to NumPy's bit for bit: it hashes the chunk's seeds at once
and sets each replicate's state on one reused generator, so no generator is
built per replicate.  The Weibull inverse transform is applied to the chunk
in place.  Work is split into fixed chunks
whose boundaries do not depend on the worker count, and per-replication
results are reduced in replication order, so a report is bit-for-bit
identical for any ``workers`` setting.

The study computes no estimate of its own.  ``_shape_rows`` is its one
estimator dispatch, for the study and ``replicate_estimates`` alike: shape
estimates come from the row kernels of ``shape_estimators`` and MD
estimates from ``md_estimation._md_rows``, whose one-row calls are the
scalar fits (``fit_shape``, ``md_fit``), so a batched fit of one sample
equals the scalar fit of that sample.  The ``hf`` plug-in curves are
reference rows too, from the same gather plans, and every model curve is
1 - exp(lr/b), the true one from ``_curve_rows``.

The stage after the fits (error rows, ISE and index errors) runs in blocks
of ``md_estimation._BLOCK_ROWS`` rows.  A block's error rows e = curve -
true curve are built in a reused buffer, or for the ``hf`` row from
``_ref_rows`` on the block's rows, and reduced while they are in cache, so
the tail holds no chunk-sized curve matrix (500 rows x 2048 nodes is 8 MB;
a block is 512 KB).  Every row goes through the same two sums, sum w*e for
its index error and sum w*e^2 for its ISE.  A fitted row's error is formed
without cancellation as -t*expm1(d*lr), where t = exp(lr/beta) and
d = (beta - b)/b/beta, and as -exp(lr/b) at the nodes where t is below the
normal range (see ``_simulate_chunk``).  Each row is reduced on its own
along the node axis, so no result depends on the block size.
``mde``/``mdhf`` build their own reference rows inside ``_md_rows``; no
reference rows are kept from one estimator to the next.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from io import StringIO

import csv

import numpy as np

from ._streams import STREAMS, seeded_uniforms
from ._version import __version__
from .curves import GRID, CurveKind
from .errors import DomainError, _check_choice, _check_count
from .md_estimation import (MdConfig, _MD_METHODS, _block_buffers, _cell_plan, _md_rows,
                            _ref_rows, _row_blocks)
from .shape_estimators import _ROW_KERNELS
from .weibull import _NORMAL_MIN, WeibullParams, _check_positive, _from_uniforms

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "run_simulation",
    "replicate_estimates",
    "render_tables",
    "ESTIMATOR_ORDER",
    "METRICS",
]

# Row order used when rendering tables.
ESTIMATOR_ORDER = (
    "hf", "mde", "mdhf", "ml", "mml", "bcml",
    "me", "lm", "tmml", "ls", "wls", "g1", "pe",
)

METRICS = ("MISE_qZ", "MISE_qD", "MSE_qZI", "MSE_qDI", "BIAS_qZI", "BIAS_qDI")

# Replications per work unit.  Chunk boundaries are a function of the
# replication count only, never of the worker count.
_CHUNK = 500


def _entries(config, name: str, check) -> tuple:
    """The field ``name`` of ``config`` as a tuple of ``check`` of each entry;
    DomainError naming the field unless it is a collection other than a
    string that holds at least one value and repeats none.  ``check`` raises
    its own DomainError for a bad entry, before the repeat test."""
    value = getattr(config, name)
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise DomainError(f"{name} must be a tuple or list, got {value!r}")
    entries = tuple(check(v) for v in value)
    if not entries:
        raise DomainError(f"{name} must hold at least one value")
    # a repeated value would run a second cell or fit that the report's
    # lookups and tables cannot tell from the first
    if len(set(entries)) < len(entries):
        raise DomainError(f"{name} must not repeat a value, got {entries!r}")
    return entries


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, estimator set, and seeding for one simulation run."""

    betas: tuple = (0.5, 1.0, 2.0, 3.0)
    sizes: tuple = (30, 100)
    replications: int = 10000
    estimators: tuple = ("hf", "mde", "mdhf", "ml", "mml", "bcml")
    master_seed: int = 20260822
    workers: int = 1

    def __post_init__(self):
        for name, check in (("betas", lambda b: _check_positive(b, "betas shape")),
                            ("sizes", lambda n: _check_count(n, 2, "sample size")),
                            ("estimators", lambda e: _check_choice(e, ESTIMATOR_ORDER,
                                                                   "estimator"))):
            object.__setattr__(self, name, _entries(self, name, check))
        # replication r draws from stream r of its cell
        for name, minimum, maximum in (("replications", 1, STREAMS), ("workers", 1, None),
                                       ("master_seed", 0, None)):
            object.__setattr__(self, name,
                               _check_count(getattr(self, name), minimum, name, maximum))


def _shape_rows(est: str, x_rows: np.ndarray, cache: dict, kind: CurveKind) -> np.ndarray:
    """Batched shape estimates of one estimator; NaN marks a failed fit.

    ``mde``/``mdhf`` fit the ``kind`` curve through the MD row function;
    every other estimator ignores ``kind`` and runs its row kernel.
    ``cache`` keeps the kernel outputs of one chunk, so bcml scales the
    chunk's ml roots instead of solving again.
    """
    if est in _MD_METHODS:
        config = MdConfig(curve=kind, reference=_MD_METHODS[est])
        return _md_rows(x_rows, config, False)[0]
    if est == "bcml" and "ml" not in cache:
        cache["ml"] = _ROW_KERNELS["ml"](x_rows, False)
    if est not in cache:
        ml = (cache["ml"],) if est == "bcml" else ()
        cache[est] = _ROW_KERNELS[est](x_rows, False, *ml)
    return cache[est][0]


def _draw_rows(config: SimulationConfig, ib: int, jn: int, r0: int, r1: int):
    """The sorted samples of replications r0 to r1 - 1 of cell (ib, jn)."""
    u = seeded_uniforms((config.master_seed, ib, jn), range(r0, r1), config.sizes[jn])
    x_rows = _from_uniforms(u, WeibullParams(config.betas[ib], 1.0))
    x_rows.sort(axis=1)
    return x_rows


def _curve_rows(beta: float, lr: np.ndarray) -> np.ndarray:
    """Model curve 1 - exp(lr/b) at the shape ``beta``, a new row."""
    return -np.expm1(lr / beta)


def _simulate_chunk(config: SimulationConfig, ib: int, jn: int, r0: int, r1: int):
    """Per-replication error quantities for one chunk of one grid cell.

    Returns {estimator: array of shape (r1 - r0, 4)} with columns
    (ise_qz, ise_qd, err_qzi, err_qdi); failed fits are NaN rows.

    After each fit, the error rows e = curve - true curve are built block by
    block in two reused buffers (see the module docstring), and every row is
    reduced by the same pair of sums: its index error sum w*e and its ISE
    sum w*e^2.  A fitted row's error is -t*expm1(d*lr), with t = exp(lr/beta)
    once per cell and d = (beta - b)/b/beta once per row; beta - b is exact
    where b is near beta, so nothing cancels there.  At nodes where t is
    below the normal range (beta below about 0.014 on qZ and 0.018 on qD),
    t*expm1(d*lr) could be 0*inf, and the error there is -exp(lr/b), exact
    to the smallest normal float.  The ``hf`` row has no fit: its errors are
    the ``wg`` and ``hf`` reference rows of each block, built there, minus
    the true curve.
    """
    beta = config.betas[ib]
    n = config.sizes[jn]
    cells = []  # (kind, lr, weights, true curve, -t, nodes where t is not normal)
    for kind in (CurveKind.QZ, CurveKind.QD):
        # every plan of a curve carries the same lr and weights
        _, _, lr, w, _ = _cell_plan(n, "empirical", kind)
        t = np.exp(lr / beta)
        cells.append((kind, lr, w, _curve_rows(beta, lr), -t, np.flatnonzero(t < _NORMAL_MIN)))

    x_rows = _draw_rows(config, ib, jn, r0, r1)
    rows = x_rows.shape[0]
    model, scratch = _block_buffers(2, rows, GRID.panels * GRID.nodes)
    cache: dict = {}
    out = {}
    for est in config.estimators:
        errors = np.empty((rows, 4))
        for col, (kind, lr, w, truth, neg_t, low) in enumerate(cells):
            if est != "hf":
                shapes = _shape_rows(est, x_rows, cache, kind)[:, None]
                d = (beta - shapes) / shapes / beta
            for b0, b1 in _row_blocks(rows):
                k = b1 - b0
                if est == "hf":
                    # nonparametric plug-in row: curve error from the k/(n+1)
                    # interpolation, index error from the (k-1/3)/(n+1/3)
                    # one; the two benchmark conventions this row reproduces
                    # differ
                    e = _ref_rows(x_rows[b0:b1], "wg", kind, strict=False)
                    e_index = _ref_rows(x_rows[b0:b1], "hf", kind, strict=False)
                    e -= truth
                    e_index -= truth
                else:
                    # inf*0 where t is not normal; those nodes are set below
                    with np.errstate(over="ignore", invalid="ignore"):
                        e = e_index = np.multiply(d[b0:b1], lr, out=model[:k])
                        np.expm1(e, out=e)
                        e *= neg_t
                    if low.size:
                        e[:, low] = -np.exp(lr[low] / shapes[b0:b1])
                np.multiply(e_index, w, out=scratch[:k]).sum(axis=1, out=errors[b0:b1, col + 2])
                e *= e
                e *= w
                e.sum(axis=1, out=errors[b0:b1, col])
        out[est] = errors
    return out


def _chunk_bounds(replications: int):
    return [(r0, min(r0 + _CHUNK, replications)) for r0 in range(0, replications, _CHUNK)]


def _aggregate(column: np.ndarray):
    """Mean, standard error, and failure count over finite entries."""
    finite = np.isfinite(column)
    values = column[finite]
    failures = int(column.size - values.size)
    if values.size == 0:
        return math.nan, math.nan, failures
    mean = float(values.mean())
    if values.size == 1:
        return mean, math.nan, failures
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean, se, failures


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated simulation results plus the settings that produced them."""

    betas: tuple
    sizes: tuple
    replications: int
    estimators: tuple
    master_seed: int
    quadrature_panels: int
    quadrature_nodes: int
    version: str
    records: tuple

    @cached_property
    def _index(self) -> dict:
        # built on first lookup and kept in the instance dict, outside the
        # dataclass fields, so equality and serialization never see it;
        # reversed so that a repeated key finds its first record
        return {(rec["estimator"], rec["metric"], rec["n"], rec["beta"]): rec
                for rec in reversed(self.records)}

    def _find(self, estimator: str, metric: str, n: int, beta: float) -> dict:
        try:
            return self._index[(estimator, metric, n, beta)]
        except KeyError:
            raise KeyError(
                f"no record for ({estimator}, {metric}, n={n}, beta={beta})") from None

    def value(self, estimator: str, metric: str, n: int, beta: float) -> float:
        return self._find(estimator, metric, n, beta)["value"]

    def se(self, estimator: str, metric: str, n: int, beta: float) -> float:
        return self._find(estimator, metric, n, beta)["se"]

    def failures(self, estimator: str, metric: str, n: int, beta: float) -> int:
        return self._find(estimator, metric, n, beta)["failures"]

    def to_json(self) -> str:
        payload = {
            "package": "qcurves",
            "version": self.version,
            "betas": list(self.betas),
            "sizes": list(self.sizes),
            "replications": self.replications,
            "estimators": list(self.estimators),
            "master_seed": self.master_seed,
            "quadrature": {"panels": self.quadrature_panels,
                           "nodes": self.quadrature_nodes},
            "records": list(self.records),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimulationReport":
        """The report of ``to_json``'s text; DomainError for text that is not
        JSON or lacks one of its fields."""
        try:
            payload = json.loads(text)
            return cls(
                betas=tuple(payload["betas"]),
                sizes=tuple(payload["sizes"]),
                replications=payload["replications"],
                estimators=tuple(payload["estimators"]),
                master_seed=payload["master_seed"],
                quadrature_panels=payload["quadrature"]["panels"],
                quadrature_nodes=payload["quadrature"]["nodes"],
                version=payload["version"],
                records=tuple(payload["records"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"not a simulation report: {exc!r}") from None

    def to_csv(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(["estimator", "metric", "n", "beta",
                         "value", "se", "failures", "replications"])
        for rec in self.records:
            writer.writerow([
                rec["estimator"], rec["metric"], rec["n"], f"{rec['beta']:.17g}",
                f"{rec['value']:.17g}", f"{rec['se']:.17g}",
                rec["failures"], self.replications,
            ])
        return buf.getvalue()


def run_simulation(config: SimulationConfig = SimulationConfig()) -> SimulationReport:
    """Run the full study and return the aggregated report.

    The report depends only on the configuration (including master_seed),
    never on the worker count or chunk scheduling.  With ``workers`` above
    1 the chunks run in a pool of at most one process per chunk; a study
    of one chunk runs in this process.
    """
    bounds = _chunk_bounds(config.replications)
    tasks = [(ib, jn, r0, r1)
             for ib in range(len(config.betas))
             for jn in range(len(config.sizes))
             for r0, r1 in bounds]
    results = {}
    # a process pool forks all its workers at its first submit
    workers = min(config.workers, len(tasks))
    if workers == 1:
        for task in tasks:
            results[task] = _simulate_chunk(config, *task)
    else:
        # imported here: it loads multiprocessing, which a one-worker run and
        # ``import qcurves`` do without
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {task: pool.submit(_simulate_chunk, config, *task)
                       for task in tasks}
        results = {task: fut.result() for task, fut in futures.items()}

    records = []
    for ib, beta in enumerate(config.betas):
        for jn, n in enumerate(config.sizes):
            for est in config.estimators:
                parts = [results[(ib, jn, r0, r1)][est] for r0, r1 in bounds]
                arr = np.concatenate(parts, axis=0)
                columns = {
                    "MISE_qZ": arr[:, 0],
                    "MISE_qD": arr[:, 1],
                    "MSE_qZI": arr[:, 2] ** 2,
                    "MSE_qDI": arr[:, 3] ** 2,
                    "BIAS_qZI": arr[:, 2],
                    "BIAS_qDI": arr[:, 3],
                }
                for metric in METRICS:
                    value, se, failures = _aggregate(columns[metric])
                    records.append({
                        "estimator": est,
                        "metric": metric,
                        "n": n,
                        "beta": beta,
                        "value": value,
                        "se": se,
                        "failures": failures,
                        "flagged": failures > 0.01 * config.replications,
                    })
    return SimulationReport(
        betas=config.betas,
        sizes=config.sizes,
        replications=config.replications,
        estimators=config.estimators,
        master_seed=config.master_seed,
        quadrature_panels=GRID.panels,
        quadrature_nodes=GRID.nodes,
        version=__version__,
        records=tuple(records),
    )


def replicate_estimates(estimator: str, beta: float, n: int, replications: int,
                        master_seed: int = 20260822,
                        curve: CurveKind = CurveKind.QZ) -> np.ndarray:
    """Per-replication shape estimates under the same seeding as the study.

    Returns an array of length ``replications`` with NaN for failed fits.
    Valid for every shape estimator and for ``mde``/``mdhf`` (fitting the
    given ``curve``, a kind or its name); the plug-in ``hf`` curve has no
    shape estimate.
    """
    curve = CurveKind(curve)
    if estimator == "hf":
        raise DomainError("the hf curve estimator does not produce a shape estimate")
    config = SimulationConfig(
        betas=(beta,), sizes=(n,), replications=replications,
        estimators=(estimator,), master_seed=master_seed)
    chunks = []
    for r0, r1 in _chunk_bounds(replications):
        chunks.append(_shape_rows(estimator, _draw_rows(config, 0, 0, r0, r1), {}, curve))
    return np.concatenate(chunks)


def _column_label(n: int, beta: float) -> str:
    return f"n={n}, b={beta:g}"


def render_tables(report: SimulationReport, scale: float = 1000.0) -> str:
    """Render the report as one markdown pipe table per metric, with values
    times ``scale``.  Cells from estimator/cell pairs with more than 1%
    failed replications are marked ``*``; ``SimulationReport.to_csv`` is the
    report's CSV form.  DomainError unless ``scale`` is finite and positive.
    """
    scale = _check_positive(scale, "scale")
    order = [e for e in ESTIMATOR_ORDER if e in report.estimators]
    cells = [(n, beta) for n in report.sizes for beta in report.betas]
    lines = []
    any_flag = False
    for metric in METRICS:
        lines.append(f"### {metric} (x {scale:g})")
        lines.append("")
        header = ["estimator"] + [_column_label(n, beta) for n, beta in cells]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for est in order:
            row = [est]
            for n, beta in cells:
                rec = report._find(est, metric, n, beta)
                mark = "*" if rec["flagged"] else ""
                row.append(f"{rec['value'] * scale:.3f}{mark}")
                any_flag = any_flag or rec["flagged"]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    if any_flag:
        lines.append("\\* more than 1% of replications failed in this cell")
        lines.append("")
    return "\n".join(lines)
