"""Minimum-distance shape fitting against empirical reference curves."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcurves.md_estimation as md_estimation
from qcurves import (
    BracketFailure,
    CurveKind,
    DomainError,
    MdConfig,
    SortedSample,
    WeibullParams,
    md_fit,
    md_objective,
)
from qcurves.simulation import _cell_plan, _md_rows
from qcurves.weibull import sample as weibull_sample
from tests.conftest import weib_sorted


def test_config_validation():
    with pytest.raises(DomainError):
        MdConfig(reference="step")
    with pytest.raises(DomainError):
        MdConfig(bracket_factor=1.0)
    with pytest.raises(DomainError):
        MdConfig(tol=0.0)
    with pytest.raises(DomainError):
        MdConfig(max_expansions=-1)
    with pytest.raises(DomainError):
        MdConfig(start_method="mde")
    assert MdConfig(reference="empirical").method == "mde"
    assert MdConfig(reference="hf").method == "mdhf"


def test_md_objective_positive_and_smooth():
    s = weib_sorted(2.0, 60, seed=1)
    config = MdConfig()
    betas = np.linspace(0.5, 6.0, 30)
    vals = np.array([md_objective(s, b, config) for b in betas])
    assert np.all(vals >= 0)
    # single interior minimum for a clean sample
    k = int(np.argmin(vals))
    assert 0 < k < len(betas) - 1


def test_md_fit_descent_and_methods():
    s = weib_sorted(2.0, 80, seed=2)
    for reference, method in (("empirical", "mde"), ("hf", "mdhf")):
        for curve in (CurveKind.QZ, CurveKind.QD):
            config = MdConfig(curve=curve, reference=reference)
            fit = md_fit(s, config)
            assert fit.method == method
            assert fit.beta_hat > 0
            assert fit.start is not None
            # achieved objective never exceeds the starting objective
            assert fit.residual <= md_objective(s, fit.start, config) + 1e-15
            assert abs(fit.residual - md_objective(s, fit.beta_hat, config)) < 1e-15


def test_md_fit_deterministic():
    s = weib_sorted(1.0, 50, seed=3)
    config = MdConfig(reference="hf")
    a = md_fit(s, config)
    b = md_fit(s, config)
    assert a.beta_hat == b.beta_hat
    assert a.residual == b.residual
    assert a.iterations == b.iterations


def test_md_fit_matches_brute_force_argmin():
    config = MdConfig()
    for seed in (4, 5, 6):
        s = weib_sorted(2.0, 40, seed=seed)
        fit = md_fit(s, config)
        grid = np.exp(np.linspace(np.log(fit.beta_hat) - 0.02, np.log(fit.beta_hat) + 0.02, 4001))
        vals = np.array([md_objective(s, b, config) for b in grid])
        assert fit.residual <= vals.min() + 1e-13


def test_md_fit_consistent():
    s = weib_sorted(2.0, 10000, seed=7)
    for reference in ("empirical", "hf"):
        fit = md_fit(s, MdConfig(reference=reference))
        assert abs(fit.beta_hat - 2.0) < 0.1


def test_md_scale_invariance_dyadic_exact():
    # power-of-two rescaling shifts only float exponents, so the quantile
    # ratios, the ratio-based lm start, and hence the whole optimization
    # trajectory are bitwise unchanged; the default pe start takes log
    # differences and is only invariant to optimizer tolerance
    s = weib_sorted(1.5, 60, seed=8)
    config = MdConfig(reference="hf", start_method="lm")
    base = md_fit(s, config).beta_hat
    for c in (0.25, 4.0, 1024.0):
        scaled = SortedSample.from_data(s.values * c)
        assert md_fit(scaled, config).beta_hat == base
    loose = MdConfig(reference="hf")
    base_pe = md_fit(s, loose).beta_hat
    for c in (0.25, 1024.0):
        scaled = SortedSample.from_data(s.values * c)
        assert abs(md_fit(scaled, loose).beta_hat - base_pe) < 1e-7


def test_md_scale_invariance_generic():
    s = weib_sorted(1.5, 60, seed=9)
    config = MdConfig()
    base = md_fit(s, config).beta_hat
    for c in (0.37, 5.1):
        scaled = SortedSample.from_data(s.values * c)
        assert abs(md_fit(scaled, config).beta_hat - base) < 1e-6


def test_md_fit_explicit_start_method():
    s = weib_sorted(2.0, 60, seed=10)
    fit = md_fit(s, MdConfig(start_method="ml"))
    from qcurves import fit_shape
    assert fit.start == fit_shape(s, "ml").beta_hat


def test_md_fit_recovers_from_far_start():
    # the edge-triggered bracket expansion reaches a minimum far from the start
    s = weib_sorted(2.0, 200, seed=11)
    near = md_fit(s, MdConfig())
    far = md_fit(s, MdConfig(start_method="ml", bracket_factor=1.05, max_expansions=8))
    assert abs(far.beta_hat - near.beta_hat) < 0.05


def test_md_objective_validates_beta():
    s = weib_sorted(2.0, 20, seed=12)
    with pytest.raises(DomainError):
        md_objective(s, 0.0)
    with pytest.raises(DomainError):
        md_objective(s, float("nan"))


def test_typical_fit_takes_few_newton_passes():
    for seed in range(20, 30):
        s = weib_sorted(2.0, 60, seed=seed)
        for reference in ("empirical", "hf"):
            assert md_fit(s, MdConfig(reference=reference)).iterations <= 12


def test_far_start_converges_through_golden_fallback():
    # the ls start is 0.15 away in log-shape, so the first Newton step leaves
    # the 1.05 bracket and the golden search with expansions takes over
    s = weib_sorted(2.0, 200, seed=13)
    near = md_fit(s, MdConfig())
    golden_calls = []
    golden = md_estimation._golden

    def counted(*args):
        golden_calls.append(args)
        return golden(*args)

    with mock.patch.object(md_estimation, "_golden", counted):
        far = md_fit(s, MdConfig(start_method="ls", bracket_factor=1.05, max_expansions=8))
    assert len(golden_calls) > 1  # the first bracket and at least one expansion
    assert abs(math.log(far.beta_hat / near.beta_hat)) < 1e-7
    assert far.residual == md_objective(s, far.beta_hat, MdConfig())


def test_bracket_failure_when_expansions_run_out():
    s = weib_sorted(2.0, 200, seed=13)
    with pytest.raises(BracketFailure):
        md_fit(s, MdConfig(start_method="ls", bracket_factor=1.05, max_expansions=1))


def test_fit_does_not_depend_on_block_size():
    s = weib_sorted(1.5, 80, seed=14)
    x_rows = np.vstack([weib_sorted(1.5, 80, seed=k).values for k in range(14, 24)])
    config = MdConfig(reference="hf")
    base = md_fit(s, config)
    with mock.patch.object(md_estimation, "_BLOCK_ROWS", 3):
        blocked = md_fit(s, config)
        plan = _cell_plan(80, config.quadrature.panels, config.quadrature.nodes)
        rows3 = _md_rows(x_rows, "hf", CurveKind.QZ, plan, config.quadrature)
    assert (blocked.beta_hat, blocked.residual) == (base.beta_hat, base.residual)
    rows = _md_rows(x_rows, "hf", CurveKind.QZ, plan, config.quadrature)
    assert np.array_equal(rows3, rows)
    assert rows[0] == base.beta_hat


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.5, 3.0), n=st.integers(10, 200), seed=st.integers(0, 2**32 - 1),
       reference=st.sampled_from(("empirical", "hf")),
       curve=st.sampled_from((CurveKind.QZ, CurveKind.QD)))
def test_newton_residual_not_above_golden_only(beta, n, seed, reference, curve):
    rng = np.random.default_rng(seed)
    s = SortedSample.from_data(weibull_sample(WeibullParams(beta, 1.0), n, rng))
    config = MdConfig(curve=curve, reference=reference)
    newton = md_fit(s, config)
    # no Newton pass: every row goes to the golden search, as before Newton;
    # that path also kept the start when the search did not beat it
    with mock.patch.object(md_estimation, "_NEWTON_PASSES", 0):
        golden = md_fit(s, config)
    golden_residual = min(golden.residual, md_objective(s, golden.start, config))
    assert newton.residual <= golden_residual + 1e-15
