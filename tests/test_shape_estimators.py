"""Shape estimators: ML family, moment-type, regression-type, percentile."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from qcurves import (
    BCML_FACTOR,
    DegenerateSample,
    DomainError,
    NoBracket,
    QcurvesError,
    SHAPE_METHODS,
    SortedSample,
    ad_test,
    fit_shape,
    profile_scale,
)
from qcurves.shape_estimators import _ROW_KERNELS, _bracketed_root, _lgamma_digamma_1p
from qcurves.simulation import SimulationConfig, _draw_rows, replicate_estimates
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
    # me and the likelihood family work on x / max(x), so their shapes hold
    # from 1e-300 to 1e300, and a batch of the scaled rows equals their scalar fits
    s = weib_sorted(1.5, 80, seed=9)
    scales = 10.0 ** np.arange(-300, 301, 25)
    x_rows = np.vstack([s.values * c for c in scales])
    for method in ("me", "ml", "mml", "bcml"):
        base = fit_shape(s, method).beta_hat
        batch = _ROW_KERNELS[method](x_rows, False)[0]
        for k, c in enumerate(scales):
            scaled = fit_shape(SortedSample.from_data(x_rows[k]), method).beta_hat
            assert abs(scaled - base) < 1e-12 * base, (method, c)
            assert batch[k] == scaled, (method, c)


# a sample spanning 350 decades: its ratios to the maximum underflow to 0
WIDE_SAMPLE = np.array([1e-200, 1e-120, 1e-60, 1.0, 1e40, 1e90, 1e150])


def _mp_profile_root(x, shift):
    """Root of the profile equation on ``x`` by 40-digit bisection on the
    bracket, from the logs of the same floats."""
    with mpmath.workdps(40):
        logs = [mpmath.log(mpmath.mpf(v)) for v in x]
        mean = sum(logs) / len(logs)

        def residual(b):
            w = [mpmath.exp(b * v) for v in logs]
            return shift / b + mean - sum(a * v for a, v in zip(w, logs)) / sum(w)

        lo, hi = mpmath.mpf(1e-3), mpmath.mpf(1e3)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if residual(mid) > 0 else (lo, mid)
        return lo


def test_ml_family_and_profile_scale_across_the_float_range():
    # within 1e-10 relative of 40-digit mpmath values; at a shape of about
    # 0.004 the profile scale raises the mean of x^b to about 225, which
    # magnifies rounding in the mean 225 times, to about 1e-13
    n = len(WIDE_SAMPLE)
    ml = _mp_profile_root(WIDE_SAMPLE, 1)
    expected = {"ml": ml, "mml": _mp_profile_root(WIDE_SAMPLE, mpmath.mpf(n - 1) / n),
                "bcml": ml * (1 - mpmath.mpf(BCML_FACTOR) / n)}
    for method, root in expected.items():
        for data in (WIDE_SAMPLE, WIDE_SAMPLE * 1e-100):
            got = fit_shape(data, method).beta_hat
            assert abs(got - float(root)) <= 1e-10 * float(root), (method, got)
    beta = fit_shape(WIDE_SAMPLE, "ml").beta_hat
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        scale = float((sum(mpmath.mpf(v) ** b for v in WIDE_SAMPLE) / n) ** (1 / b))
    assert abs(profile_scale(WIDE_SAMPLE, beta) - scale) <= 1e-10 * scale
    fitted = ad_test(WIDE_SAMPLE, bootstrap_reps=9, seed=1)
    assert (fitted.beta_hat, fitted.sigma_hat) == (beta, profile_scale(WIDE_SAMPLE, beta))


def test_ml_root_near_the_bracket_floor_is_found_to_a_relative_tolerance():
    # bound stated before the first run: within 1e-13 relative of the
    # 40-digit root.  The root, about 2.2e-3, lies near BRACKET_LO, where a
    # tolerance in b rather than in log b would leave about 1e-9 relative
    x = np.array([1e-300, 1.0, 2.0, 1e300])
    for method, shift in (("ml", 1), ("mml", mpmath.mpf(3) / 4)):
        root = float(_mp_profile_root(x, shift))
        got = fit_shape(x, method).beta_hat
        assert abs(got - root) <= 1e-13 * root, (method, got, root)


def test_ml_fails_on_a_wide_study_chunk_only_where_a_row_holds_a_zero():
    # at shape 0.006 most rows of 30 span more than the float range, and
    # most of those hold no zero
    config = SimulationConfig(betas=(0.006,), sizes=(30,), replications=40,
                              estimators=("ml",), master_seed=1)
    x_rows = _draw_rows(config, 0, 0, 0, 40)
    wide = x_rows[:, 0] / x_rows[:, -1] < np.finfo(float).tiny
    assert (wide & (x_rows[:, 0] > 0.0)).sum() >= 20
    batch = replicate_estimates("ml", 0.006, 30, 40, master_seed=1)
    assert np.array_equal(np.isnan(batch), x_rows[:, 0] == 0.0)
    for row, beta in zip(x_rows, batch):
        if row[0] > 0.0:
            assert fit_shape(row, "ml").beta_hat == beta


# nonnegative values with many zeros and ties, on a 0.01 grid: distinct
# values differ by at least 1e-4 relative, so no scale rounds two together
_grid_values = st.one_of(st.integers(0, 5).map(float),
                         st.integers(1, 10**4).map(lambda k: k / 100))


@st.composite
def _sorted_rows(draw, rows=3):
    n = draw(st.integers(2, 40))
    row = st.lists(_grid_values, min_size=n, max_size=n).map(sorted)
    return np.array([draw(row) for _ in range(rows)])


@settings(max_examples=40, deadline=None)
@given(base=_sorted_rows(), e=st.floats(-300, 300))
@example(base=np.array([[0.0, 3.0], [3.0, 3.0], [1.0, 2.0]]), e=-300.0)
@example(base=np.array([[0.0, 3.0], [3.0, 3.0], [1.0, 2.0]]), e=300.0)
def test_every_method_scale_invariant_on_ties_zeros_and_any_scale(base, e):
    # every value stays a normal float from 1e-302 to 1e302
    x_rows = base * 10.0 ** e
    for method in ALL_METHODS:
        batch = _ROW_KERNELS[method](x_rows, False)[0]
        unscaled = _ROW_KERNELS[method](base, False)[0]
        assert np.array_equal(np.isnan(batch), np.isnan(unscaled)), method
        for k, row in enumerate(x_rows):
            try:
                scalar = fit_shape(SortedSample(row), method).beta_hat
            except QcurvesError:
                assert np.isnan(batch[k]), method
                continue
            assert batch[k] == scalar, method
            # rounding the scaled values moves pe, the worst, by up to 7e-13
            assert abs(scalar - unscaled[k]) <= 1e-10 * unscaled[k], method


def scalar_residual(method, x):
    """The shape equation of ``method`` on the sample ``x``, written out
    independently of the row kernels."""
    y = x / x.max()
    if method == "me":
        target = np.log1p(y.var() / y.mean() ** 2)

        def residual(b):
            # lgamma(1 + 2t) - 2 lgamma(1 + t) at t = 1/b, to 40 digits: a
            # double-precision log-gamma is off by up to 1.5e-10 relative
            # near b = 1e3, more than the kernel it checks
            with mpmath.workdps(40):
                t = 1 / mpmath.mpf(b)
                return float(mpmath.loggamma(1 + 2 * t) - 2 * mpmath.loggamma(1 + t) - target)

        return residual
    shift = 1.0 if method == "ml" else (len(x) - 1.0) / len(x)
    return lambda b: profile_equation(x, b, shift)


@pytest.mark.parametrize("method", ("ml", "mml", "me"))
def test_roots_match_brentq(method):
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 10, 30, 100, 1000):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for _ in range(5):
                x = np.sort(rng.weibull(beta, n))
                f = scalar_residual(method, x)
                if np.sign(f(1e-3)) == np.sign(f(1e3)):
                    continue
                expected = brentq(f, 1e-3, 1e3, xtol=1e-15, rtol=1e-15, maxiter=500)
                got = fit_shape(SortedSample.from_data(x), method).beta_hat
                assert abs(got - expected) < 1e-10 * expected, (n, beta, x)


def test_me_gamma_terms_match_mpmath():
    # the moment equation's D(t) = lgamma(1+2t) - 2 lgamma(1+t) and its
    # derivative's psi(1+2t) - psi(1+t), over the shapes b = 1/t of the bracket
    t = np.logspace(-3.0, 3.0, 2001)
    (lg2, lg1), (psi2, psi1) = _lgamma_digamma_1p(np.stack((2.0 * t, t)))
    with mpmath.workdps(40):
        mp_t = [mpmath.mpf(v) for v in t]
        d_ref = [float(mpmath.loggamma(1 + 2 * v) - 2 * mpmath.loggamma(1 + v)) for v in mp_t]
        psi_ref = [float(mpmath.digamma(1 + 2 * v) - mpmath.digamma(1 + v)) for v in mp_t]
    np.testing.assert_allclose(lg2 - 2.0 * lg1, d_ref, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(psi2 - psi1, psi_ref, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("method", ("ml", "me"))
def test_no_bracket_exactly_when_the_ends_share_a_sign(method):
    # two-point samples {1, r}: the shape passes 1e3 as r nears 1
    ratios = np.concatenate([1.0 + 10.0 ** np.linspace(-8.0, 0.0, 61),
                             10.0 ** np.linspace(0.5, 300.0, 60)])
    raised = []
    for r in ratios:
        x = np.array([1.0, r])
        f = scalar_residual(method, x)
        same_sign = np.sign(f(1e-3)) == np.sign(f(1e3))
        try:
            fit_shape(SortedSample.from_data(x), method)
        except NoBracket:
            raised.append(r)
            assert same_sign, r
        else:
            assert not same_sign, r
    assert 0 < len(raised) < len(ratios)  # the sweep reaches both sides


@pytest.mark.parametrize("c", [-8.0, math.log(1e-3), -3.0, 0.0, 0.5, 6.9, math.log(1e3), 7.0])
def test_bracketed_root_on_a_linear_residual(c):
    # f(b) = c - log b has its root at e**c; an end whose residual is exactly
    # zero is the root, and a root off [1e-3, 1e3] is NoBracket
    def f(b):
        return c - np.log(b), np.full(b.shape, -1.0)

    # the root finder takes falling residuals only: a rising one is NoBracket
    # unless an end is its exact root
    def rising(b):
        return np.log(b) - c, np.full(b.shape, 1.0)

    ends = {math.log(1e-3): 1e-3, math.log(1e3): 1e3}
    if c in ends:
        assert _bracketed_root(rising, 1, True)[0][0] == ends[c]
    else:
        with pytest.raises(NoBracket):
            _bracketed_root(rising, 1, True)
        assert np.isnan(_bracketed_root(rising, 1, False)[0][0])
    if not math.log(1e-3) <= c <= math.log(1e3):
        with pytest.raises(NoBracket):
            _bracketed_root(f, 1, True)
        assert np.isnan(_bracketed_root(f, 1, False)[0][0])
        return
    root, passes, residual = _bracketed_root(f, 1, True)
    assert abs(root[0] - math.exp(c)) < 1e-12 * math.exp(c)
    assert residual[0] == abs(f(root)[0][0])
    assert passes <= 3


@st.composite
def _hard_rows(draw, rows=3):
    """Sorted rows of 2 to 1,000 values on a 0.01 grid, as few as one distinct
    value (ties) and any share of zeros, scaled by 10**e for e in [-300, 300]."""
    n = draw(st.integers(2, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(1, draw(st.integers(1, 10**4)) + 1, (rows, n)) / 100
    x[rng.random((rows, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    return np.sort(x, axis=1) * 10.0 ** draw(st.floats(-300, 300))


@pytest.mark.parametrize("method", ("ml", "mml", "me"))
@settings(max_examples=40, deadline=None)
@given(x_rows=_hard_rows())
@example(x_rows=np.array([[0.0, 3.0], [3.0, 3.0], [1.0, 2.0]]) * 1e-300)
@example(x_rows=np.array([[0.0, 3.0], [3.0, 3.0], [1.0, 2.0]]) * 1e300)
def test_kernels_pass_the_root_finder_a_falling_residual(method, x_rows):
    # _bracketed_root brackets only residuals that fall from 1e-3 to 1e3;
    # every residual a kernel hands it does, or is NaN at an end
    residuals = []

    def spy(f, rows, strict, ends=None):
        residuals.append(f)
        return _bracketed_root(f, rows, strict, ends)

    with mock.patch("qcurves.shape_estimators._bracketed_root", spy):
        _ROW_KERNELS[method](x_rows, False)
    (f,) = residuals
    with np.errstate(all="ignore"):
        f_lo, f_hi = (f(np.full(len(x_rows), b))[0] for b in (1e-3, 1e3))
    assert np.all((f_lo >= f_hi) | np.isnan(f_lo) | np.isnan(f_hi)), (f_lo, f_hi)


def test_root_passes_stay_few():
    # deterministic work count: a likelihood or moment fit on n >= 10 takes at
    # most 12 Newton passes, where the bracketed secant took 25-30
    rng = np.random.default_rng(23)
    for n in (10, 30, 100, 1000):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for _ in range(10):
                s = SortedSample.from_data(rng.weibull(beta, n))
                for method in ("ml", "me"):
                    assert fit_shape(s, method).iterations <= 12, (method, n, beta)


def test_root_finder_settles_rows_at_their_rounding_floor():
    # at shape 200 the me residual is near its rounding floor as the rows
    # settle; the tolerance in log-shape is met there, and the chunk takes
    # 16 passes
    config = SimulationConfig(betas=(200.0,), sizes=(30,), replications=500)
    beta, passes, _ = _ROW_KERNELS["me"](_draw_rows(config, 0, 0, 0, 500), False)
    assert np.isfinite(beta).all()
    assert passes <= 23


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
       # the ml root, about 2/1e-7, lies far above the bracket
       ("ml", [1.0, 1.0 + 1e-7], NoBracket),
       # distinct pe quantiles whose logarithms are equal
       ("pe", [1e300] * 5 + [np.nextafter(1e300, np.inf)] * 5, DomainError)]
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


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, 10.0, 100.0, 1000.0])
@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
def test_lmoment_matches_the_exact_gini_ratio(beta, n):
    # lm inverts sum((2i - n - 1) x) / ((n - 1) sum x), g1's sum over n - 1,
    # and lies within 1e-14 relative of the shape of that ratio in 50-digit
    # mpmath up to shape 100.  At shape 1000 the sum cancels to about 1/800
    # of the sum of its terms' sizes, kappa, and the bound is kappa * eps
    sample = weib_sorted(beta, n, seed=n)
    with mpmath.workdps(50):
        terms = [(2 * i - n - 1) * mpmath.mpf(float(v))
                 for i, v in enumerate(sample.values, start=1)]
        tau = sum(terms) / ((n - 1) * sum(mpmath.mpf(float(v)) for v in sample.values))
        want = float(mpmath.log(2) / -mpmath.log1p(-tau))
        kappa = float(sum(abs(t) for t in terms) / sum(terms))
    bound = 1e-14 if beta <= 100.0 else kappa * np.finfo(float).eps
    assert fit_shape(sample, "lm").beta_hat == pytest.approx(want, rel=bound, abs=0)


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
