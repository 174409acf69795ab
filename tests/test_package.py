"""Package-wide contracts: the exported names, the modules an import loads
and the typed count checks."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcurves
from qcurves import errors
from qcurves import (
    DomainError,
    KernelContext,
    MdConfig,
    QuadratureSpec,
    SimulationConfig,
    SimulationReport,
    SortedSample,
    WeibullParams,
    ad_test,
    cdf,
    closed_curve,
    curve_grid,
    curve_value,
    empirical_qf,
    eta_weibull,
    fit_shape,
    gini_weibull,
    kernel_R,
    kernel_ab,
    md_asymptotic_variance,
    md_fit,
    md_objective,
    pdf,
    plotting_position_qf,
    plotting_positions,
    profile_scale,
    quantile,
    quantile_density,
    render_tables,
    replicate_estimates,
    run_simulation,
    sample,
)

EXPORTS = {
    "__version__", "AsymptoticVariance", "KernelContext", "kernel_R", "kernel_ab",
    "md_asymptotic_variance", "CurveKind", "CurveSamples", "QuadratureSpec", "curve_grid",
    "curve_index", "curve_value", "gauss_legendre_grid", "load_guinea_pigs", "EmpiricalQF",
    "PlottingPositionQF", "SortedSample", "empirical_qf", "plotting_position_qf",
    "plotting_positions", "BracketFailure", "DegenerateQuantile", "DegenerateSample",
    "DomainError", "NoBracket", "NonConvergence", "QcurvesError", "StartFailure", "GofResult",
    "ad_statistic", "ad_test", "MD_REFERENCES", "MdConfig", "md_fit", "md_objective",
    "BCML_FACTOR", "EstimateResult", "SHAPE_METHODS", "bcml_shape", "fit_shape", "gini_shape",
    "lmoment_shape", "ls_shape", "ml_shape", "mml_shape", "moment_shape", "pe_shape",
    "profile_scale", "tmml_shape", "wls_shape", "ESTIMATOR_ORDER", "METRICS",
    "SimulationConfig", "SimulationReport", "render_tables", "replicate_estimates",
    "run_simulation", "WeibullParams", "cdf", "closed_curve", "eta_weibull", "gini_weibull",
    "pdf", "qd_closed", "quantile", "quantile_density", "qz_closed", "sample", "weibull_qf",
}


def test_package_exports_the_modules_public_names():
    assert len(qcurves.__all__) == len(EXPORTS)
    assert set(qcurves.__all__) == EXPORTS
    assert all(hasattr(qcurves, name) for name in EXPORTS)
    assert callable(qcurves.empirical_qf)  # the function, not its module
    assert set(errors.__all__) == {name for name, value in vars(errors).items()
                                   if isinstance(value, type) and issubclass(value, Exception)}


def test_import_loads_neither_scipy_nor_a_process_pool():
    # each CLI call is a fresh process, so whatever the import loads it pays
    # every time; a process pool is loaded only for workers > 1
    code = ("import sys, qcurves, qcurves.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
    src = os.pathsep.join([str(Path(qcurves.__file__).parents[1]),
                           os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


_X = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

# (call taking the count, its minimum)
COUNT_CALLS = {
    "curve_grid": (lambda v: curve_grid(empirical_qf(SortedSample(_X)), "qz", v), 1),
    "replications": (lambda v: SimulationConfig(replications=v), 1),
    "sizes": (lambda v: SimulationConfig(sizes=(v,)), 2),
    "workers": (lambda v: SimulationConfig(workers=v), 1),
    "master_seed": (lambda v: SimulationConfig(master_seed=v), 0),
    "replicate_estimates": (lambda v: replicate_estimates("ml", 1.0, 20, v), 1),
    "bootstrap_reps": (lambda v: ad_test(_X, bootstrap_reps=v), 1),
    "gof_seed": (lambda v: ad_test(_X, bootstrap_reps=1, seed=v), 0),
    "sample": (lambda v: sample(WeibullParams(1.0), v, np.random.default_rng(0)), 1),
    "plotting_positions": (plotting_positions, 1),
    "panels": (lambda v: QuadratureSpec(v, 4), 1),
    "nodes": (lambda v: QuadratureSpec(4, v), 1),
}


@pytest.mark.parametrize("call,minimum", list(COUNT_CALLS.values()), ids=list(COUNT_CALLS))
def test_counts_and_seeds_must_be_integers_at_their_minimum(call, minimum):
    # a float, a bool or a value below the minimum is a DomainError, never
    # an untyped TypeError from numpy or a silent truncation
    for bad in (minimum - 1, minimum + 0.5, float(minimum), True, "2"):
        with pytest.raises(DomainError):
            call(bad)
    call(minimum)
    call(np.int64(minimum))


_PARAMS = WeibullParams(1.0)
_SAMPLE = SortedSample(_X)
_KERNEL = KernelContext(1.0, "qz")


@functools.cache
def _report():
    return run_simulation(SimulationConfig(betas=(1.0,), sizes=(10,), replications=5,
                                           estimators=("ml",)))


# (entry point taking one value, a valid value of it); non-real values, bools
# and ints beyond the float range are a DomainError at each, never a
# TypeError, ValueError or OverflowError
VALUE_CALLS = {
    "WeibullParams": (WeibullParams, 2.0),
    "WeibullParams.sigma": (lambda v: WeibullParams(1.0, v), 2.0),
    "gini_weibull": (gini_weibull, 2.0),
    "eta_weibull": (lambda v: eta_weibull(v, 0.5), 2.0),
    "profile_scale": (lambda v: profile_scale(_SAMPLE, v), 2.0),
    "KernelContext": (lambda v: KernelContext(v, "qz"), 2.0),
    "SimulationConfig.betas": (lambda v: SimulationConfig(betas=(v,)), 2.0),
    "replicate_estimates": (lambda v: replicate_estimates("ml", v, 20, 5).tolist(), 2.0),
    "render_tables": (lambda v: render_tables(_report(), v), 2.0),
    "md_objective": (lambda v: md_objective(_SAMPLE, v), 2.0),
    "md_asymptotic_variance": (md_asymptotic_variance, 2.0),
    "closed_curve": (lambda v: closed_curve(v, 0.5, "qz"), 2.0),
    "closed_curve.p": (lambda v: closed_curve(2.0, v, "qz"), 0.5),
    "cdf": (lambda v: cdf(_PARAMS, v), 0.5),
    "pdf": (lambda v: pdf(_PARAMS, v), 0.5),
    "quantile": (lambda v: quantile(_PARAMS, v), 0.5),
    "quantile_density": (lambda v: quantile_density(_PARAMS, v), 0.5),
    "curve_value": (lambda v: curve_value(empirical_qf(_SAMPLE), "qz", v), 0.5),
    "kernel_ab": (lambda v: kernel_ab(_KERNEL, v)[0][0], 0.5),
    "kernel_R": (lambda v: kernel_R(_KERNEL, v, 0.5)[0], 0.3),
}


@pytest.mark.parametrize("call,valid", list(VALUE_CALLS.values()), ids=list(VALUE_CALLS))
def test_non_real_values_are_domain_errors(call, valid):
    for bad in ("x", str(valid), True, np.bool_(False), None, 1j, [valid, "x"],
                10**400, -10**400):
        with pytest.raises(DomainError):
            call(bad)
    # NumPy scalars are real numbers, and a float32 is taken as the float it
    # holds, not computed with in float32
    assert call(np.float64(valid)) == call(valid)
    for value in (valid, 0.3):
        assert call(np.float32(value)) == call(float(np.float32(value)))


# bad inputs that NumPy or the json module would reject with an untyped
# ValueError or KeyError
ENTRY_ERRORS = {
    "kernel_R.shapes": lambda: kernel_R(_KERNEL, [0.1, 0.2], [0.3, 0.4, 0.5]),
    "from_json.fields": lambda: SimulationReport.from_json("{}"),
    "from_json.text": lambda: SimulationReport.from_json("not json"),
    "SimulationConfig.estimators": lambda: SimulationConfig(estimators=(np.array(["ml", "hf"]),)),
    # an int beyond the float range in a sample
    "SortedSample": lambda: SortedSample([1.0, 10**400]),
    "fit_shape": lambda: fit_shape([1.0, 2.0, 10**400], "ml"),
    "md_fit": lambda: md_fit([1.0, 2.0, 10**400]),
    # a named choice that is not a string, though it holds a valid name
    "fit_shape.method": lambda: fit_shape(_X, ["ml"]),
    "ad_test.method": lambda: ad_test(_X, method=["ml"]),
    "MdConfig.reference": lambda: MdConfig(reference=["hf"]),
    "MdConfig.reference.array": lambda: MdConfig(reference=np.array(["hf"])),
    "plotting_positions.scheme": lambda: plotting_positions(5, np.array(["hf", "wg"])),
    "plotting_positions.scheme.array": lambda: plotting_positions(5, np.array(["hf"])),
    "plotting_position_qf.scheme": lambda: plotting_position_qf(_SAMPLE, np.array(["hf"])),
}


@pytest.mark.parametrize("call", list(ENTRY_ERRORS.values()), ids=list(ENTRY_ERRORS))
def test_bad_inputs_at_entry_points_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# (entry point taking a named choice, the names it accepts in the order its
# message lists them)
CHOICE_CALLS = {
    "fit_shape": (lambda v: fit_shape(_X, v), sorted(qcurves.SHAPE_METHODS)),
    "MdConfig": (lambda v: MdConfig(reference=v), ["empirical", "hf"]),
    "plotting_positions": (lambda v: plotting_positions(5, v), ["hf", "wg"]),
    "SimulationConfig.estimators": (lambda v: SimulationConfig(estimators=(v,)),
                                    list(qcurves.ESTIMATOR_ORDER)),
}


@pytest.mark.parametrize("call,names", list(CHOICE_CALLS.values()), ids=list(CHOICE_CALLS))
def test_unknown_named_choices_are_domain_errors_naming_the_valid_ones(call, names):
    for bad in ("x", names[0].upper(), None, 1, [names[0]], np.array([names[0]])):
        with pytest.raises(DomainError, match=f"; valid: {', '.join(names)}$"):
            call(bad)
    for name in names:
        call(name)
