"""Shape estimators: ML family, moment-type, regression-type, percentile."""

import numpy as np
import pytest

from qcurves import (
    BCML_FACTOR,
    DegenerateSample,
    DomainError,
    NoBracket,
    SHAPE_METHODS,
    SortedSample,
    fit_shape,
    profile_scale,
)
from qcurves.shape_estimators import _ROW_KERNELS
from qcurves.simulation import replicate_estimates
from tests.conftest import weib_sorted

ALL_METHODS = tuple(SHAPE_METHODS)


def profile_equation(x, beta, shift=1.0):
    y = x / x.max()
    ly = np.log(y)
    w = y ** beta
    return shift / beta + ly.mean() - (w * ly).sum() / w.sum()


def test_ml_solves_profile_equation():
    s = weib_sorted(2.0, 200, seed=1)
    fit = fit_shape(s, "ml")
    assert abs(profile_equation(s.values, fit.beta_hat)) < 1e-10
    assert fit.method == "ml"
    assert fit.residual < 1e-10


def test_ml_two_point_sample_vs_grid_scan():
    s = SortedSample.from_data([1.0, np.e])
    fit = fit_shape(s, "ml")
    # independent oracle: sign change located by a fine grid scan
    grid = np.linspace(1e-3, 1e3, 2000001)
    y = s.values / s.values.max()
    ly = np.log(y)
    w = y[:, None] ** grid
    vals = 1.0 / grid + ly.mean() - (w * ly[:, None]).sum(0) / w.sum(0)
    k = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert grid[k] <= fit.beta_hat <= grid[k + 1]
    assert abs(profile_equation(s.values, fit.beta_hat)) < 1e-10


def test_mml_solves_shifted_equation():
    s = weib_sorted(1.0, 50, seed=2)
    fit = fit_shape(s, "mml")
    n = s.n
    assert abs(profile_equation(s.values, fit.beta_hat, shift=(n - 1.0) / n)) < 1e-10
    assert fit.beta_hat < fit_shape(s, "ml").beta_hat


def test_mml_less_biased_than_ml():
    # Monte Carlo bias comparison at beta=1, n=30
    ml = replicate_estimates("ml", beta=1.0, n=30, replications=2000)
    mml = replicate_estimates("mml", beta=1.0, n=30, replications=2000)
    assert abs(np.nanmean(mml) - 1.0) < abs(np.nanmean(ml) - 1.0)


def test_bcml_is_exact_multiple_of_ml():
    s = weib_sorted(2.0, 30, seed=3)
    ml = fit_shape(s, "ml").beta_hat
    bcml = fit_shape(s, "bcml").beta_hat
    assert bcml == ml * (1.0 - BCML_FACTOR / 30)


def test_bcml_constant_five_significant_digits():
    from scipy.special import zeta
    exact = 18.0 * (np.pi ** 2 - 2.0 * zeta(3.0)) / np.pi ** 4
    assert float(f"{exact:.5g}") == BCML_FACTOR


def test_bcml_needs_three_observations():
    with pytest.raises(DomainError):
        fit_shape(SortedSample.from_data([1.0, 2.0]), "bcml")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_estimators_consistent_at_large_n(method):
    s = weib_sorted(2.0, 10000, seed=42)
    fit = fit_shape(s, method)
    assert abs(fit.beta_hat - 2.0) < 0.1


@pytest.mark.parametrize("method", ALL_METHODS)
def test_scale_invariance(method):
    s = weib_sorted(1.5, 80, seed=9)
    base = fit_shape(s, method).beta_hat
    for c in (0.001, 3.7, 1024.0):
        scaled = SortedSample.from_data(s.values * c)
        assert abs(fit_shape(scaled, method).beta_hat - base) < 1e-10


def test_moment_shape_scale_invariant_across_float_range():
    s = weib_sorted(1.5, 80, seed=9)
    base = fit_shape(s, "me").beta_hat
    scales = 10.0 ** np.arange(-300, 301, 25)
    x_rows = np.vstack([s.values * c for c in scales])
    batch = _ROW_KERNELS["me"](x_rows, False)[0]
    for k, c in enumerate(scales):
        scaled = fit_shape(SortedSample.from_data(x_rows[k]), "me").beta_hat
        assert abs(scaled - base) < 1e-12 * base, c
        assert batch[k] == scaled, c


@pytest.mark.parametrize("method", ALL_METHODS)
def test_degenerate_sample_raises(method):
    with pytest.raises((DegenerateSample, DomainError)):
        fit_shape(SortedSample.from_data([2.5, 2.5, 2.5, 2.5]), method)


POSITIVE_ONLY = ("ml", "mml", "bcml", "ls", "wls", "tmml")
FAILURE_CASES = (
    [("bcml", [1.0, 2.0], DomainError)]
    + [(m, [0.0, 1.0, 2.0, 3.0, 4.0], DomainError) for m in POSITIVE_ONLY]
    + [(m, [2.5] * 4, DomainError if m == "pe" else DegenerateSample) for m in ALL_METHODS]
    + [("pe", [1.0] * 10 + [9.0], DomainError),
       ("lm", [0.0, 4.0], DomainError),  # tau = 1
       ("ml", [1e-300, 1.0, 2.0, 1e300], NoBracket)]
)


@pytest.mark.parametrize("method, data, error", FAILURE_CASES)
def test_failure_raises_its_exact_class(method, data, error):
    with pytest.raises(error) as info:
        fit_shape(SortedSample.from_data(data), method)
    assert type(info.value) is error


def test_gini_inversion_half_gives_one():
    # n=2 sample {0, c}: n**2-denominator Gini is exactly 0.5
    fit = fit_shape(SortedSample.from_data([0.0, 4.0]), "g1")
    assert abs(fit.beta_hat - 1.0) < 1e-12


def test_gini_vs_lmoment_finite_sample_factor():
    # the two invert the same curve but with (n-1)/n-related Gini versions
    s = weib_sorted(2.0, 25, seed=12)
    g1 = fit_shape(s, "g1").beta_hat
    lm = fit_shape(s, "lm").beta_hat
    assert g1 != lm
    big = weib_sorted(2.0, 20000, seed=13)
    assert abs(fit_shape(big, "g1").beta_hat - fit_shape(big, "lm").beta_hat) < 1e-3


def test_pe_degenerate_quantiles_raise():
    # all mass at one value between orders .31 and .63
    data = [1.0] * 10 + [9.0]
    with pytest.raises(DomainError):
        fit_shape(SortedSample.from_data(data), "pe")


def test_zero_tolerant_methods_accept_a_zero():
    data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    for method in ("me", "lm", "g1", "pe"):
        fit = fit_shape(SortedSample.from_data(data), method)
        assert fit.beta_hat > 0


def test_positivity_required_methods_reject_a_zero():
    data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    for method in ("ml", "mml", "bcml", "ls", "wls", "tmml"):
        with pytest.raises(DomainError):
            fit_shape(SortedSample.from_data(data), method)


def test_ls_wls_recover_shape_on_exact_quantiles():
    # data placed exactly at the model quantiles of the plotting positions
    from qcurves import WeibullParams, plotting_positions
    from qcurves.weibull import quantile
    n = 200
    pos = plotting_positions(n, "hf")
    data = quantile(WeibullParams(2.5, 1.3), pos)
    s = SortedSample.from_data(data)
    assert abs(fit_shape(s, "ls").beta_hat - 2.5) < 1e-10
    assert abs(fit_shape(s, "wls").beta_hat - 2.5) < 1e-10


def test_fit_shape_unknown_method():
    with pytest.raises(DomainError):
        fit_shape(SortedSample.from_data([1.0, 2.0]), "nope")


def test_profile_scale_recovers_scale():
    from qcurves import WeibullParams
    from qcurves.weibull import sample as weibull_sample
    rng = np.random.default_rng(31)
    s = SortedSample.from_data(weibull_sample(WeibullParams(2.0, 3.0), 200000, rng))
    assert abs(profile_scale(s, 2.0) - 3.0) < 0.02


def test_profile_scale_closed_form():
    s = SortedSample.from_data([1.0, 2.0, 4.0])
    beta = 2.0
    expected = (np.mean(s.values ** beta)) ** (1.0 / beta)
    assert abs(profile_scale(s, beta) - expected) < 1e-12
    with pytest.raises(DomainError):
        profile_scale(s, -1.0)


def test_estimate_result_fields():
    s = weib_sorted(2.0, 40, seed=5)
    fit = fit_shape(s, "me")
    assert fit.method == "me"
    assert fit.beta_hat > 0
    assert np.isfinite(fit.residual)
