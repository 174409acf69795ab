"""Anderson-Darling statistic and parametric-bootstrap test."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qcurves import (
    DomainError,
    QcurvesError,
    SortedSample,
    WeibullParams,
    ad_statistic,
    ad_test,
    fit_shape,
    load_guinea_pigs,
    profile_scale,
)
from qcurves.gof import _BLOCK_VALUES
from qcurves.shape_estimators import _profile_scale_rows
from qcurves.weibull import cdf as weibull_cdf, sample as weibull_sample

from tests.conftest import weib_sorted


def test_ad_statistic_on_a_sample_spanning_the_float_range_matches_mpmath():
    # bound stated before the first run: within 1e-12 relative of 40 digits.
    # At the fit (shape about 2.2e-3, scale about 7.5e105), 1e-300 / scale
    # underflows to 0, yet its fitted probability is about 0.12
    mpmath = pytest.importorskip("mpmath")
    x = [1e-300, 1.0, 2.0, 1e300]
    beta = fit_shape(x, "ml").beta_hat
    sigma = profile_scale(x, beta)
    n = len(x)
    with mpmath.workdps(40):
        z = [1 - mpmath.exp(-(mpmath.mpf(v) / mpmath.mpf(sigma)) ** mpmath.mpf(beta))
             for v in x]
        terms = sum((2 * i + 1) * (mpmath.log(z[i]) + mpmath.log(1 - z[n - 1 - i]))
                    for i in range(n))
        expected = float(-n - terms / n)
    assert 0.1 < float(z[0]) < 0.15
    got = ad_statistic(x, WeibullParams(beta, sigma))
    assert abs(got - expected) <= 1e-12 * expected, (got, expected)


def ad_by_integration(sample, params):
    """Independent route: n * integral of (Fn - F)^2 / (F (1 - F)) dF.

    With the empirical cdf constant between order statistics, integrate each
    piece with adaptive quadrature and sum.
    """
    z = weibull_cdf(params, sample.values)
    n = sample.n
    breaks = np.concatenate([[0.0], z, [1.0]])
    total = 0.0
    for i in range(n + 1):
        fn = i / n
        val, _ = integrate.quad(
            lambda u, fn=fn: (fn - u) ** 2 / (u * (1.0 - u)),
            breaks[i], breaks[i + 1], epsabs=1e-13, epsrel=1e-12)
        total += val
    return n * total


@pytest.mark.parametrize("beta,sigma,n,seed", [(1.0, 1.0, 3, 0), (2.0, 3.0, 12, 1), (0.7, 0.5, 40, 2)])
def test_ad_statistic_matches_integral_form(beta, sigma, n, seed):
    sample = weib_sorted(beta, n, seed, scale=sigma)
    params = WeibullParams(beta, sigma)
    direct = ad_statistic(sample, params)
    assert direct == pytest.approx(ad_by_integration(sample, params), abs=1e-9)


def test_ad_statistic_tiny_hand_case():
    # n=1, z = F(x): A2 = -1 - (ln z + ln(1 - z))
    params = WeibullParams(1.0, 1.0)
    x = 0.4
    z = 1.0 - np.exp(-0.4)
    expected = -1.0 - (np.log(z) + np.log1p(-z))
    assert ad_statistic(SortedSample(np.array([x])), params) == pytest.approx(expected, rel=1e-15)


def test_ad_statistic_rejects_degenerate_probabilities():
    with pytest.raises(DomainError):
        ad_statistic(SortedSample(np.array([0.0, 1.0, 2.0])), WeibullParams(2.0, 1.0))


def test_ad_statistic_grows_with_misfit():
    sample = weib_sorted(2.0, 50, 3)
    good = ad_statistic(sample, WeibullParams(2.0, 1.0))
    bad = ad_statistic(sample, WeibullParams(0.5, 1.0))
    assert bad > good > 0.0


def test_ad_test_reproducible_and_consistent_fields():
    sample = weib_sorted(1.5, 40, 4)
    r1 = ad_test(sample, bootstrap_reps=59, seed=11)
    r2 = ad_test(sample, bootstrap_reps=59, seed=11)
    assert r1 == r2
    assert r1.bootstrap_reps == 59
    assert r1.method == "ml"
    assert 0.0 <= r1.p_value <= 1.0
    # p is a count over bootstrap_reps
    assert r1.p_value * 59 == pytest.approx(round(r1.p_value * 59), abs=1e-12)
    assert r1.beta_hat == fit_shape(sample, "ml").beta_hat
    assert r1.sigma_hat == profile_scale(sample, r1.beta_hat)
    assert r1.statistic == ad_statistic(sample, WeibullParams(r1.beta_hat, r1.sigma_hat))


def test_ad_test_accepts_weibull_data():
    sample = weib_sorted(2.0, 80, 5, scale=3.0)
    result = ad_test(sample, bootstrap_reps=199, seed=1)
    assert result.p_value > 0.1


def test_ad_test_rejects_far_alternative():
    rng = np.random.default_rng(17)
    data = np.exp(rng.normal(0.0, 2.0, size=80))  # heavy-tailed lognormal
    result = ad_test(SortedSample.from_data(data), bootstrap_reps=199, seed=1)
    assert result.p_value < 0.01


def test_ad_test_method_dispatch():
    sample = weib_sorted(2.0, 40, 6)
    result = ad_test(sample, bootstrap_reps=29, seed=2, method="mml")
    assert result.method == "mml"
    assert result.beta_hat == fit_shape(sample, "mml").beta_hat


def test_ad_test_and_statistic_accept_raw_data():
    data = load_guinea_pigs()["treated"]
    sample = SortedSample.from_data(data)
    expected = ad_test(sample, bootstrap_reps=49, seed=4)
    for raw in (list(data), data[::-1].copy()):
        assert ad_test(raw, bootstrap_reps=49, seed=4) == expected
        params = WeibullParams(1.8, 100.0)
        assert ad_statistic(raw, params) == ad_statistic(sample, params)
    with pytest.raises(DomainError):
        ad_test([1.0, -2.0, 3.0], bootstrap_reps=9)


def test_ad_test_validates_reps():
    sample = weib_sorted(2.0, 20, 7)
    with pytest.raises(DomainError):
        ad_test(sample, bootstrap_reps=0)


def test_ad_test_str_mentions_pieces():
    sample = weib_sorted(2.0, 30, 8)
    result = ad_test(sample, bootstrap_reps=19, seed=3)
    text = str(result)
    assert "A2" in text and "p =" in text


def test_guinea_pig_groups():
    # The bootstrap refits both parameters on every resample, so its null is
    # far tighter than fixed-parameter critical values: the control group is
    # rejected outright, the treated group sits at the boundary.
    from qcurves import load_guinea_pigs
    groups = load_guinea_pigs()
    control = ad_test(SortedSample.from_data(groups["control"]),
                      bootstrap_reps=299, seed=20260822, method="mml")
    treated = ad_test(SortedSample.from_data(groups["treated"]),
                      bootstrap_reps=299, seed=20260822, method="mml")
    assert control.statistic == pytest.approx(1.5048609152598686, rel=1e-12)
    assert treated.statistic == pytest.approx(0.7261295656380042, rel=1e-12)
    assert control.p_value < 0.01
    assert 0.01 < treated.p_value < 0.20


def reference_ad_test(sample, bootstrap_reps, seed, method):
    """The bootstrap as a loop of scalar refits, one resample at a time at the
    fitted shape and unit scale, with a refit that raises counted as failed;
    the batched ``ad_test`` must agree with it bitwise."""
    beta = fit_shape(sample, method).beta_hat
    fitted = WeibullParams(beta, profile_scale(sample, beta))
    observed = ad_statistic(sample, fitted)
    exceed = failed = 0
    for b in range(bootstrap_reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        draw = SortedSample.from_data(weibull_sample(WeibullParams(beta, 1.0), sample.n, rng))
        try:
            refit_beta = fit_shape(draw, method).beta_hat
            refit = WeibullParams(refit_beta, profile_scale(draw, refit_beta))
            statistic = ad_statistic(draw, refit)
        except QcurvesError:
            failed += 1
            continue
        if statistic > observed:
            exceed += 1
    return (observed, exceed / (bootstrap_reps - failed), fitted.beta, fitted.sigma, failed)


def assert_matches_reference(sample, bootstrap_reps, seed, method):
    result = ad_test(sample, bootstrap_reps, seed, method)
    got = (result.statistic, result.p_value, result.beta_hat, result.sigma_hat,
           result.failed_refits)
    assert got == reference_ad_test(sample, bootstrap_reps, seed, method)
    return result


BATCH_METHODS = ("ml", "mml", "lm", "pe")


@pytest.mark.parametrize("group", ["control", "treated"])
@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batched_bootstrap_matches_scalar_loop_on_guinea_pigs(method, group):
    sample = SortedSample.from_data(load_guinea_pigs()[group])
    block = _BLOCK_VALUES // sample.n
    reps = block + 89  # a full block and a partial one
    assert reps % block != 0
    result = assert_matches_reference(sample, reps, 20260822, method)
    assert result.failed_refits == 0


@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batched_bootstrap_matches_scalar_loop_with_one_replicate(method):
    assert_matches_reference(weib_sorted(1.3, 25, 12), 1, 4, method)


@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batched_bootstrap_matches_scalar_loop_across_blocks(method):
    n = 5000
    assert _BLOCK_VALUES // n < 7  # 20 replicates span at least three blocks
    assert_matches_reference(weib_sorted(0.8, n, 13, scale=40.0), 20, 6, method)


def test_ad_test_does_not_overflow_at_the_top_of_the_float_range():
    # the resamples are drawn at unit scale, so a sample whose fitted scale
    # is about 5e307 gets the p-value of the unscaled one
    control = np.asarray(load_guinea_pigs()["control"], dtype=float)
    base = ad_test(control, 999, seed=1)
    scaled = ad_test(control / control.max() * 1e308, 999, seed=1)
    assert scaled.sigma_hat > 1e307
    assert scaled.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert (scaled.p_value, scaled.failed_refits) == (base.p_value, base.failed_refits)
    assert base.p_value == 1 / 999


def tiny_shape_sample(beta):
    """A sample whose resamples can underflow to 0, which ml cannot refit."""
    return SortedSample.from_data(
        weibull_sample(WeibullParams(beta, 1.0), 20, np.random.default_rng(3)))


def test_failed_refits_are_counted_not_raised():
    # fitted shape about 0.012
    result = assert_matches_reference(tiny_shape_sample(0.01), 99, 1, "ml")
    assert result.failed_refits > 0
    assert 0.0 <= result.p_value <= 1.0
    assert "failed refits" in str(result)


def test_all_refits_failing_raises():
    with pytest.raises(DomainError, match="no bootstrap refit succeeded"):
        ad_test(tiny_shape_sample(0.005), bootstrap_reps=1, seed=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       exponent=st.integers(-300, 300), log_beta=st.floats(-6.9, 6.9))
def test_row_profile_scale_equals_scalar_bitwise(seed, n, exponent, log_beta):
    rng = np.random.default_rng(seed)
    x_rows = np.sort(rng.weibull(1.5, (5, n)) + 0.01, axis=1) * 10.0 ** exponent
    beta = np.exp(log_beta + rng.normal(0.0, 0.5, 5))
    rows = _profile_scale_rows(x_rows, beta, False)
    for row, b, got in zip(x_rows, beta, rows):
        assert got == profile_scale(SortedSample.from_data(row), float(b))
