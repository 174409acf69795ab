"""Monte Carlo study of curve estimators and shape estimators.

The engine draws Weibull samples, fits every requested estimator, and
aggregates integrated squared error of the fitted concentration curves and
squared/signed error of the fitted curve indices into a report.

Replications are seeded individually: the stream for replication r of the
cell (beta index i, size index j) is derived from the entropy tuple
(master_seed, i, j, r).  Work is split into fixed chunks whose boundaries do
not depend on the worker count, and per-replication results are reduced in
replication order, so a report is bit-for-bit identical for any ``workers``
setting.

The study computes no estimate of its own.  Shape estimates come from the
row kernels of ``shape_estimators``, whose one-row calls are the scalar
fits, and MD estimates from the default start and the minimizer that
``md_fit`` uses, so a batched fit of one sample equals the scalar fit of
that sample.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from io import StringIO

import csv

import numpy as np

from ._version import __version__
from .curves import CurveKind, QuadratureSpec, gauss_legendre_grid
from .empirical_qf import interp_plan, plotting_positions, step_indices
from .errors import DomainError
from .md_estimation import MdConfig, MD_REFERENCES, _minimize_log, _start_rows
from .shape_estimators import SHAPE_METHODS, _ROW_KERNELS
from .weibull import WeibullParams, _log_ratio, sample as weibull_sample

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

_MD_KINDS = {name: ref for ref, name in MD_REFERENCES.items()}  # mde/mdhf -> reference


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, estimator set, and seeding for one simulation run."""

    betas: tuple = (0.5, 1.0, 2.0, 3.0)
    sizes: tuple = (30, 100)
    replications: int = 10000
    estimators: tuple = ("hf", "mde", "mdhf", "ml", "mml", "bcml")
    master_seed: int = 20260822
    workers: int = 1
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.betas or any(not (b > 0.0) for b in self.betas):
            raise DomainError("shape values must be positive")
        if not self.sizes or any(n < 2 for n in self.sizes):
            raise DomainError("sample sizes must be at least 2")
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if self.workers < 1:
            raise DomainError("worker count must be at least 1")
        if not self.estimators:
            raise DomainError("need at least one estimator")
        for est in self.estimators:
            if est not in ESTIMATOR_ORDER:
                raise DomainError(
                    f"unknown estimator {est!r}; valid: {', '.join(ESTIMATOR_ORDER)}")


@dataclass(frozen=True)
class _CellPlan:
    """Precomputed gather plans for one (sample size, quadrature) pair."""

    weights: np.ndarray
    lr: dict
    emp: dict
    hf: dict
    wg: dict


@lru_cache(maxsize=None)
def _cell_plan(n: int, panels: int, nodes: int) -> _CellPlan:
    points, weights = gauss_legendre_grid(QuadratureSpec(panels, nodes))
    pos_hf = plotting_positions(n, "hf")
    pos_wg = plotting_positions(n, "wg")
    lr, emp, hf, wg = {}, {}, {}, {}
    for kind in CurveKind:
        num_q = 0.5 * points
        den_q = 0.5 * (1.0 + points) if kind is CurveKind.QZ else 1.0 - 0.5 * points
        lr[kind] = _log_ratio(points, kind.value)
        emp[kind] = (step_indices(n, num_q), step_indices(n, den_q))
        hf[kind] = (interp_plan(pos_hf, num_q), interp_plan(pos_hf, den_q))
        wg[kind] = (interp_plan(pos_wg, num_q), interp_plan(pos_wg, den_q))
    return _CellPlan(weights, lr, emp, hf, wg)


def _ref_rows(x_rows: np.ndarray, reference: str, kind: CurveKind, plan: _CellPlan):
    if reference == "empirical":
        ni, di = plan.emp[kind]
        num, den = x_rows[:, ni], x_rows[:, di]
    else:
        plans = plan.hf if reference == "hf" else plan.wg
        num, den = ((1.0 - frac) * x_rows[:, j0] + frac * x_rows[:, j1]
                    for j0, j1, frac in plans[kind])
    # column gathers leave a transposed buffer; summing such rows groups
    # differently than the contiguous scalar path, so normalize the layout
    return np.ascontiguousarray(1.0 - num / den)


def _md_rows(x_rows: np.ndarray, reference: str, kind: CurveKind,
             plan: _CellPlan, quadrature: QuadratureSpec) -> np.ndarray:
    config = MdConfig(curve=kind, reference=reference, quadrature=quadrature)
    ref = _ref_rows(x_rows, reference, kind, plan)
    start = _start_rows(x_rows)
    out = np.full(x_rows.shape[0], np.nan)
    ok = ~np.isnan(start)
    if not np.any(ok):
        return out
    log_beta, _, _, _ = _minimize_log(ref[ok], plan.lr[kind], plan.weights,
                                      np.log(start[ok]), config, strict=False)
    out[ok] = np.exp(log_beta)
    return out


def _shape_rows(est: str, x_rows: np.ndarray, cache: dict) -> np.ndarray:
    """Batched shape estimates for one method; NaN marks a failed fit.

    ``cache`` keeps the kernel outputs of one chunk, so bcml scales the
    chunk's ml roots instead of solving again.
    """
    if est == "bcml" and "ml" not in cache:
        cache["ml"] = _ROW_KERNELS["ml"](x_rows, False)
    if est not in cache:
        ml = (cache["ml"],) if est == "bcml" else ()
        cache[est] = _ROW_KERNELS[est](x_rows, False, *ml)
    return cache[est][0]


def _draw_rows(config: SimulationConfig, ib: int, jn: int, r0: int, r1: int):
    params = WeibullParams(config.betas[ib], 1.0)
    n = config.sizes[jn]
    x_rows = np.empty((r1 - r0, n))
    for k, r in enumerate(range(r0, r1)):
        seq = np.random.SeedSequence((config.master_seed, ib, jn, r))
        rng = np.random.Generator(np.random.PCG64(seq))
        x_rows[k] = weibull_sample(params, n, rng)
    x_rows.sort(axis=1)
    return x_rows


def _curve_rows(beta_rows: np.ndarray, lr: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return -np.expm1(lr[None, :] / beta_rows[:, None])


def _simulate_chunk(config: SimulationConfig, ib: int, jn: int, r0: int, r1: int):
    """Per-replication error quantities for one chunk of one grid cell.

    Returns {estimator: array of shape (r1 - r0, 4)} with columns
    (ise_qz, ise_qd, err_qzi, err_qdi); failed fits are NaN rows.
    """
    beta = config.betas[ib]
    n = config.sizes[jn]
    plan = _cell_plan(n, config.quadrature.panels, config.quadrature.nodes)
    w = plan.weights
    lr_qz = plan.lr[CurveKind.QZ]
    lr_qd = plan.lr[CurveKind.QD]
    true_z = -np.expm1(lr_qz / beta)
    true_d = -np.expm1(lr_qd / beta)
    true_zi = float((w * true_z).sum())
    true_di = float((w * true_d).sum())

    x_rows = _draw_rows(config, ib, jn, r0, r1)
    cache: dict = {}
    out = {}
    for est in config.estimators:
        # each branch gives the qZ/qD curve rows for the ISE and for the index error
        if est == "hf":
            # nonparametric plug-in row: curve error from the k/(n+1)
            # interpolation, index error from the (k-1/3)/(n+1/3) one;
            # the two benchmark conventions this row reproduces differ
            cz = _ref_rows(x_rows, "wg", CurveKind.QZ, plan)
            cd = _ref_rows(x_rows, "wg", CurveKind.QD, plan)
            iz = _ref_rows(x_rows, "hf", CurveKind.QZ, plan)
            id_ = _ref_rows(x_rows, "hf", CurveKind.QD, plan)
        else:
            if est in _MD_KINDS:
                reference = _MD_KINDS[est]
                bz = _md_rows(x_rows, reference, CurveKind.QZ, plan, config.quadrature)
                bd = _md_rows(x_rows, reference, CurveKind.QD, plan, config.quadrature)
            else:
                bz = bd = _shape_rows(est, x_rows, cache)
            cz = iz = _curve_rows(bz, lr_qz)
            cd = id_ = _curve_rows(bd, lr_qd)
        ise = []
        for curves, truth in ((cz, true_z), (cd, true_d)):
            sq = curves - truth  # squared and weighted in place: one large temporary
            sq *= sq
            sq *= w
            ise.append(sq.sum(axis=1))
        err_zi = (iz * w).sum(axis=1) - true_zi
        err_di = (id_ * w).sum(axis=1) - true_di
        out[est] = np.column_stack([*ise, err_zi, err_di])
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
    never on the worker count or chunk scheduling.
    """
    bounds = _chunk_bounds(config.replications)
    tasks = [(ib, jn, r0, r1)
             for ib in range(len(config.betas))
             for jn in range(len(config.sizes))
             for r0, r1 in bounds]
    results = {}
    if config.workers == 1:
        for task in tasks:
            results[task] = _simulate_chunk(config, *task)
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
        quadrature_panels=config.quadrature.panels,
        quadrature_nodes=config.quadrature.nodes,
        version=__version__,
        records=tuple(records),
    )


def replicate_estimates(estimator: str, beta: float, n: int, replications: int,
                        master_seed: int = 20260822,
                        quadrature: QuadratureSpec = QuadratureSpec(),
                        curve: CurveKind = CurveKind.QZ) -> np.ndarray:
    """Per-replication shape estimates under the same seeding as the study.

    Returns an array of length ``replications`` with NaN for failed fits.
    Valid for every shape estimator and for ``mde``/``mdhf`` (fitting the
    given ``curve``); the plug-in ``hf`` curve has no shape estimate.
    """
    if estimator == "hf":
        raise DomainError("the hf curve estimator does not produce a shape estimate")
    if estimator not in SHAPE_METHODS and estimator not in _MD_KINDS:
        raise DomainError(f"unknown estimator {estimator!r}")
    config = SimulationConfig(
        betas=(beta,), sizes=(n,), replications=replications,
        estimators=(estimator,), master_seed=master_seed, quadrature=quadrature)
    chunks = []
    for r0, r1 in _chunk_bounds(replications):
        x_rows = _draw_rows(config, 0, 0, r0, r1)
        if estimator in _MD_KINDS:
            plan = _cell_plan(n, quadrature.panels, quadrature.nodes)
            chunks.append(_md_rows(x_rows, _MD_KINDS[estimator], curve,
                                   plan, quadrature))
        else:
            chunks.append(_shape_rows(estimator, x_rows, {}))
    return np.concatenate(chunks)


def _column_label(n: int, beta: float) -> str:
    return f"n={n}, b={beta:g}"


def render_tables(report: SimulationReport, scale: float = 1000.0,
                  fmt: str = "markdown") -> str:
    """Render the report as per-metric tables with values times ``scale``.

    ``markdown`` gives one pipe table per metric; ``csv`` gives one long
    RFC-4180 table.  Cells from estimator/cell pairs with more than 1%
    failed replications are marked (``*`` in markdown, flagged column in
    csv).
    """
    if fmt not in ("markdown", "csv"):
        raise DomainError("format must be 'markdown' or 'csv'")
    order = [e for e in ESTIMATOR_ORDER if e in report.estimators]
    cells = [(n, beta) for n in report.sizes for beta in report.betas]
    if fmt == "csv":
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "estimator", "n", "beta", "value", "se", "flagged"])
        for metric in METRICS:
            for est in order:
                for n, beta in cells:
                    rec = report._find(est, metric, n, beta)
                    writer.writerow([
                        metric, est, n, f"{beta:g}",
                        f"{rec['value'] * scale:.3f}", f"{rec['se'] * scale:.3f}",
                        int(rec["flagged"]),
                    ])
        return buf.getvalue()

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
