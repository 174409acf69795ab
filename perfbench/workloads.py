"""The benchmark's workloads: seeded, closed-loop units of qcurves work.

A workload is a sequence of units, and a unit is a short list of steps that
run back to back.  Each step is a (key, callable) pair; the key names the kind
of step (a study cell, the scalar fits, one ``gof`` call), and steps with the
same key do the same amount of work.  The harness times each step and runs its
host-speed probe between steps.  Unit ``i`` of a run with seed ``s`` draws its
seeds from ``(s, i, step)``, so a seed fixes every input, and each unit is a
new draw rather than a repeat of the previous one.  The package only sees the
generated inputs and the seeds the user-facing API takes.

Every package function is reached through its module at call time, so the
tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gates

# ``study-md``: the paper's default estimators on the published grid.  A unit
# is one (beta, n) cell at 500 replicates, one full chunk as in the headline
# study, so the MD objective works on 500-row matrices (8 MB at 2048 nodes,
# beyond a 2 MB L2).  Successive units rotate through the 8 cells; a pass is
# one unit per cell.
STUDY_MD = {
    "estimators": ("hf", "mde", "mdhf", "ml", "mml", "bcml"),
    "betas": (0.5, 1.0, 2.0, 3.0),
    "sizes": (30, 100),
    "replications": 500,
    "rotate": True,
}
# ``study-closed``: every non-MD estimator; a unit is every cell, one step
# each.  500 replicates make each cell one full 500-row chunk, so the n=1000
# row matrices (4 MB) and their temporaries exceed a 2 MB per-core L2.
STUDY_CLOSED = {
    "estimators": ("hf", "ml", "mml", "bcml", "me", "lm", "tmml", "ls", "wls", "g1", "pe"),
    "betas": (0.5, 1.0, 2.0, 3.0),
    "sizes": (30, 100, 1000),
    "replications": 500,
    "rotate": False,
}
STUDIES = {"study-md": STUDY_MD, "study-closed": STUDY_CLOSED}

# ``data-fits``: seeded Weibull samples on this (n, beta) grid plus the two
# bundled guinea-pig groups; every sample gets all shape methods and all four
# MD fits, one call each.  ``data-gof``: ``qcurves gof`` on each group and
# ``qcurves asymvar`` on a beta grid, through the CLI.
DATA_SIZES = (10, 30, 100, 300, 1000)
DATA_BETAS = (0.5, 1.0, 2.0, 3.0)
GROUPS = ("control", "treated")
GOF_REPS = 999
GOF_METHOD = "ml"
ASYMVAR_BETAS = (0.5, 1.0, 2.0, 3.0)
MD_CONFIGS = (("empirical", "qz"), ("empirical", "qd"), ("hf", "qz"), ("hf", "qd"))

WORKLOADS = ("study-md", "study-closed", "data-fits", "data-gof")

# Cells and replicates re-fitted through the scalar API after a study run.
CHECK_CELLS = ((0, 0), (-1, -1))  # (beta index, size index)
CHECK_REPLICATES = 3


def mod(name: str):
    """A qcurves submodule (the package namespace shadows some module names)."""
    return importlib.import_module(f"qcurves.{name}")


def unit_seed(seed: int, unit: int, step: int = 0) -> int:
    return int(np.random.SeedSequence((seed, unit, step)).generate_state(1)[0])


@dataclass
class UnitResult:
    """What one unit produced, for metrics and for the correctness gates."""

    steps: list = field(default_factory=list)  # (key, fits, wall s, s at reference speed)
    fits: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # every output text, traced vs untraced
    reports: list = field(default_factory=list)  # study units: one SimulationReport a step
    fit_ms: list = field(default_factory=list)
    gof_s: list = field(default_factory=list)
    asymvar_ms: list = field(default_factory=list)
    md_fits: list = field(default_factory=list)  # (label, sample, config, result)
    gof: list = field(default_factory=list)  # (label, group, printed fields)
    sigma2: dict = field(default_factory=dict)


# -- set-up -------------------------------------------------------------------


def warm_up(workload: str):
    """The first call a user makes: fills the quadrature grid and cell plans."""
    if workload in STUDIES:
        spec = STUDIES[workload]
        sim = mod("simulation")
        sim.run_simulation(sim.SimulationConfig(
            betas=spec["betas"], sizes=spec["sizes"], replications=2,
            estimators=spec["estimators"], master_seed=0, workers=1))
    elif workload == "data-fits":
        md = mod("md_estimation")
        groups = mod("datasets").load_guinea_pigs()
        md.md_fit(mod("empirical_qf").SortedSample.from_data(groups["control"]), md.MdConfig())
    else:
        _cli(["asymvar", "--beta", "1.0", "--kind", "qz"])


def units_per_pass(workload: str) -> int:
    """Units that together run every kind of step of ``workload`` once."""
    spec = STUDIES.get(workload)
    if spec is not None and spec["rotate"]:
        return len(spec["betas"]) * len(spec["sizes"])
    return 1


# -- study units ----------------------------------------------------------------


def study_step(workload: str, beta: float, n: int, master_seed: int, out: UnitResult):
    """The study pipeline on one cell: run, then JSON, tables and CSV."""
    sim = mod("simulation")
    spec = STUDIES[workload]
    config = sim.SimulationConfig(
        betas=(beta,), sizes=(n,), replications=spec["replications"],
        estimators=spec["estimators"], master_seed=master_seed, workers=1)
    report = sim.run_simulation(config)
    out.outputs.append(report.to_json() + sim.render_tables(report) + report.to_csv())
    out.reports.append(report)
    out.fits += config.replications * len(config.estimators)
    out.failed += sum(rec["failures"] for rec in report.records if rec["metric"] == "MISE_qZ")


def study_steps(workload: str, seed: int, index: int) -> tuple:
    spec = STUDIES[workload]
    cells = list(enumerate((beta, n) for beta in spec["betas"] for n in spec["sizes"]))
    if spec["rotate"]:
        cells = [cells[index % len(cells)]]
    out = UnitResult()
    steps = [(f"beta={beta} n={n}",
              functools.partial(study_step, workload, beta, n, unit_seed(seed, index, k), out))
             for k, (beta, n) in cells]
    return out, steps


def redraw(master_seed: int, beta: float, n: int, r: int):
    """Replicate ``r`` of a one-cell study, drawn under the study's seeding."""
    weibull = mod("weibull")
    seq = np.random.SeedSequence((master_seed, 0, 0, r))
    rng = np.random.Generator(np.random.PCG64(seq))
    values = weibull.sample(weibull.WeibullParams(beta, 1.0), n, rng)
    return mod("empirical_qf").SortedSample.from_data(values)


def batch_scalar_pairs(workload: str, master_seed: int) -> list:
    """Re-fit a few study replicates through the scalar API.

    ``replicate_estimates`` runs the study's batched code on the replicates
    of one cell; each replicate is redrawn under the study's seeding and
    fitted with ``fit_shape`` or ``md_fit``.
    """
    sim, md, se = mod("simulation"), mod("md_estimation"), mod("shape_estimators")
    errors, curves = mod("errors"), mod("curves")
    spec = STUDIES[workload]
    pairs = []
    for ib, jn in CHECK_CELLS:
        beta, n = spec["betas"][ib], spec["sizes"][jn]
        for est in spec["estimators"]:
            if est == "hf":
                continue
            kinds = (curves.CurveKind.QZ, curves.CurveKind.QD) if est in ("mde", "mdhf") else (None,)
            for kind in kinds:
                kwargs = {} if kind is None else {"curve": kind}
                batched = sim.replicate_estimates(est, beta, n, CHECK_REPLICATES,
                                                  master_seed=master_seed, **kwargs)
                for r in range(CHECK_REPLICATES):
                    sample = redraw(master_seed, beta, n, r)
                    try:
                        if kind is None:
                            scalar = se.fit_shape(sample, est).beta_hat
                        else:
                            reference = "empirical" if est == "mde" else "hf"
                            scalar = md.md_fit(sample, md.MdConfig(curve=kind, reference=reference)).beta_hat
                    except errors.QcurvesError:
                        scalar = None
                    label = f"{est}{'' if kind is None else '/' + kind.value} n={n} beta={beta} r={r}"
                    pairs.append((label, float(batched[r]), scalar))
    return pairs


# -- data units -------------------------------------------------------------------


def guinea_pig_path() -> str:
    from importlib.resources import files
    return str(files("qcurves").joinpath("data/guinea_pigs.csv"))


def _cli(argv) -> tuple:
    """Run ``qcurves`` in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mod("cli").main(argv)
    return code, buf.getvalue()


def _parse_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                fields[key] = float(value)
            except ValueError:
                fields[key] = value
    return fields


def data_samples(seed: int, n: int) -> list:
    """(label, values): seeded Weibull samples of size ``n``, one per beta."""
    weibull = mod("weibull")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n))))
    return [(f"n={n} beta={beta}", weibull.sample(weibull.WeibullParams(beta, 1.0), n, rng))
            for beta in DATA_BETAS]


def group_samples() -> list:
    groups = mod("datasets").load_guinea_pigs()
    return [(g, groups[g]) for g in GROUPS]


def data_fits(samples, out: UnitResult):
    """Every shape method and MD configuration on every sample, one call each."""
    se, md, curves, errors = (mod("shape_estimators"), mod("md_estimation"),
                              mod("curves"), mod("errors"))
    sorted_sample = mod("empirical_qf").SortedSample
    lines = []
    for label, values in samples:
        sample = sorted_sample.from_data(values)
        for method in se.SHAPE_METHODS:
            t0 = perf_counter()
            try:
                beta = se.fit_shape(sample, method).beta_hat
            except errors.QcurvesError as exc:
                beta = f"error {type(exc).__name__}"
                out.failed += 1
            out.fit_ms.append((perf_counter() - t0) * 1e3)
            lines.append(f"{label} {method} {beta!r}")
        for reference, kind in MD_CONFIGS:
            config = md.MdConfig(curve=curves.CurveKind(kind), reference=reference)
            t0 = perf_counter()
            try:
                result = md.md_fit(sample, config)
            except errors.QcurvesError as exc:
                result = None
                out.failed += 1
                lines.append(f"{label} md {reference} {kind} error {type(exc).__name__}")
            out.fit_ms.append((perf_counter() - t0) * 1e3)
            if result is not None:
                out.md_fits.append((f"{label} md {reference} {kind}", sample, config, result))
                lines.append(f"{label} md {reference} {kind} {result.beta_hat!r} "
                             f"{result.residual!r}")
        out.fits += len(se.SHAPE_METHODS) + len(MD_CONFIGS)
    out.outputs.append("\n".join(lines))


def data_gof(seed: int, group: str, out: UnitResult):
    """``qcurves gof`` on one guinea-pig group: one fit plus GOF_REPS refits."""
    t0 = perf_counter()
    code, text = _cli(["gof", "--data", guinea_pig_path(), "--column", group,
                       "--reps", str(GOF_REPS), "--seed", str(seed), "--method", GOF_METHOD])
    out.gof_s.append(perf_counter() - t0)
    out.fits += GOF_REPS + 1
    if code != 0:
        out.failed += GOF_REPS + 1
    else:
        out.gof.append((f"gof {group} seed={seed}", group, _parse_fields(text)))
    out.outputs.append(text)


def data_asymvar(out: UnitResult):
    """``qcurves asymvar`` for every beta and curve kind."""
    for kind in ("qz", "qd"):
        for beta in ASYMVAR_BETAS:
            t0 = perf_counter()
            code, text = _cli(["asymvar", "--beta", repr(beta), "--kind", kind])
            out.asymvar_ms.append((perf_counter() - t0) * 1e3)
            if code == 0:
                out.sigma2[(kind, beta)] = _parse_fields(text)["sigma2"]
            out.outputs.append(text)


def data_fits_steps(seed: int, index: int) -> tuple:
    """One step: the two groups and the Weibull samples of every size."""
    s = unit_seed(seed, index)
    out = UnitResult()
    samples = group_samples() + [x for n in DATA_SIZES for x in data_samples(s, n)]
    return out, [("fits", functools.partial(data_fits, samples, out))]


def data_gof_steps(seed: int, index: int) -> tuple:
    s = unit_seed(seed, index)
    out = UnitResult()
    steps = [(f"gof {group}", functools.partial(data_gof, s, group, out)) for group in GROUPS]
    steps.append(("asymvar", functools.partial(data_asymvar, out)))
    return out, steps


def data_fits_problems(results) -> list:
    """Correctness gates over the ``data-fits`` units of one run."""
    md = mod("md_estimation")
    return gates.check_md_descent([
        (label, result.residual, md.md_objective(sample, result.start, config))
        for res in results for label, sample, config, result in res.md_fits])


def data_gof_problems(results) -> list:
    """Correctness gates over the ``data-gof`` units of one run."""
    se, gof, weibull = mod("shape_estimators"), mod("gof"), mod("weibull")
    sorted_sample = mod("empirical_qf").SortedSample
    groups = mod("datasets").load_guinea_pigs()
    problems, gof_checks = [], []
    for res in results:
        problems += gates.check_sigma2(res.sigma2)
        for label, group, fields in res.gof:
            sample = sorted_sample.from_data(groups[group])
            beta = se.fit_shape(sample, GOF_METHOD).beta_hat
            params = weibull.WeibullParams(beta, se.profile_scale(sample, beta))
            gof_checks.append((label, fields, gof.ad_statistic(sample, params), beta))
    return problems + gates.check_gof(gof_checks)


def study_problems(workload: str, results, seed: int) -> list:
    """Correctness gates over the study units of one run."""
    problems = gates.check_tables(gates.pool_records([rep for r in results for rep in r.reports]))
    problems += gates.check_batch_scalar(batch_scalar_pairs(workload, unit_seed(seed, 0)))
    return problems


def unit(workload: str, seed: int, index: int) -> tuple:
    """Unit ``index`` of a run: its (empty) result and its (key, step) pairs."""
    if workload in STUDIES:
        return study_steps(workload, seed, index)
    if workload == "data-fits":
        return data_fits_steps(seed, index)
    return data_gof_steps(seed, index)


def problems(workload: str, results, seed: int) -> list:
    if workload in STUDIES:
        return study_problems(workload, results, seed)
    if workload == "data-fits":
        return data_fits_problems(results)
    return data_gof_problems(results)
