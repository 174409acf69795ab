"""Weibull model: distribution functions, closed-form curves, gini, eta."""

import numpy as np
import pytest
from scipy import stats

from qcurves import (
    CurveKind,
    DomainError,
    WeibullParams,
    closed_curve,
    eta_weibull,
    gini_weibull,
    qd_closed,
    qz_closed,
    weibull_qf,
)
from qcurves.weibull import _eta_terms, _log_terms, cdf, pdf, quantile, quantile_density, sample

# frozen from a 50-digit mpmath evaluation of the closed forms
GOLDEN_CURVES = [
    ("qz", 2.0, 0.5, 0.54445774110471166),
    ("qd", 3.0, 0.5, 0.40795809505812349),
    ("qz", 1.0, 0.25, 0.86385867650816671),
    ("qd", 1.0, 0.25, 0.93578497401920137),
    ("qz", 0.5, 0.75, 0.94891316572187979),
]
GOLDEN_ETA = [
    ("qz", 1.0, 0.5, -0.32633020305241818),
    ("qz", 2.0, 0.3, -0.18350519358768518),
    ("qd", 2.0, 0.3, -0.17980524896440003),
]


def test_params_validation():
    WeibullParams(1.0, 2.0)
    with pytest.raises(DomainError):
        WeibullParams(0.0, 1.0)
    with pytest.raises(DomainError):
        WeibullParams(1.0, -3.0)


def test_cdf_quantile_round_trip():
    params = WeibullParams(1.7, 2.3)
    p = np.linspace(0.001, 0.999, 57)
    assert np.allclose(cdf(params, quantile(params, p)), p, rtol=0, atol=1e-14)
    x = np.array([0.01, 0.5, 1.0, 2.0, 10.0])
    assert np.allclose(quantile(params, cdf(params, x)), x, rtol=1e-12)


def test_cdf_matches_scipy():
    params = WeibullParams(2.5, 0.8)
    x = np.linspace(0.01, 3.0, 40)
    ref = stats.weibull_min.cdf(x, 2.5, scale=0.8)
    assert np.allclose(cdf(params, x), ref, rtol=0, atol=1e-14)
    assert np.allclose(pdf(params, x), stats.weibull_min.pdf(x, 2.5, scale=0.8),
                       rtol=1e-12)


# (function, x, expected, params); the last four pdf values are those of a
# 50-digit mpmath evaluation, where x/sigma or a factor of the density over-
# or underflows although the density does not
EDGE_VALUES = [
    (pdf, np.nan, None), (pdf, -np.inf, 0.0), (pdf, 0.0, 0.0), (pdf, np.inf, 0.0),
    (pdf, 1e300, 0.0),
    (cdf, np.nan, None), (cdf, -np.inf, 0.0), (cdf, 0.0, 0.0), (cdf, np.inf, 1.0),
    (cdf, 1e300, 1.0),
]
EXTREME_PDF_VALUES = [
    (pdf, 1e-100, 0.0, WeibullParams(3.0, 1e-200)), (pdf, 1e-300, 0.0, WeibullParams(2.0, 1e200)),
    (pdf, 1.0, 0.0, WeibullParams(0.5, 1e-300)), (pdf, 1e-300, 0.5, WeibullParams(0.5, 1e300)),
]


@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("fn,x,expected,params", [
    *(pytest.param(fn, x, expected, WeibullParams(2.0), id=f"{fn.__name__}-{x}-{expected}")
      for fn, x, expected in EDGE_VALUES),
    *(pytest.param(fn, x, expected, params,
                   id=f"{fn.__name__}-{x}-{expected}-beta{params.beta}-sigma{params.sigma}")
      for fn, x, expected, params in EXTREME_PDF_VALUES),
])
def test_pdf_and_cdf_edge_values(fn, x, expected, params, as_array):
    # the suite turns numpy's RuntimeWarnings into errors, so an inf/inf or
    # an overflow inside the density fails here too
    arg = np.array([0.5, x]) if as_array else x
    if expected is None:
        with pytest.raises(DomainError, match="must not be NaN"):
            fn(params, arg)
        return
    got = fn(params, arg)
    if as_array:
        assert np.array_equal(got, [fn(params, 0.5), expected])
    else:
        assert type(got) is float and got == expected


@pytest.mark.parametrize("beta,sigma,x", [(0.5, 1e300, 1e-30), (0.001, 1e-300, 1e300)])
def test_cdf_where_the_scaled_argument_leaves_the_float_range(beta, sigma, x):
    # x/sigma under- or overflows, (x/sigma)**beta does not: about 1e-165 and
    # 0.98133.  The power's exponent beta (log x - log sigma), at most 380
    # here, carries an absolute error of a few eps times itself: 1e-13 relative
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(-mpmath.expm1(-(mpmath.mpf(x) / mpmath.mpf(sigma)) ** mpmath.mpf(beta)))
    params = WeibullParams(beta, sigma)
    assert cdf(params, x) == pytest.approx(want, rel=1e-13, abs=0)
    # inside the normal range the power is (x/sigma)**beta as it stands
    inside = np.array([0.3, 1.0, 2.5]) * sigma
    assert np.array_equal(cdf(params, inside), -np.expm1(-((inside / sigma) ** beta)))


def test_pdf_rounds_to_inf_near_zero_below_shape_one():
    assert pdf(WeibullParams(0.01), 5e-324) == np.inf


def test_pdf_integrates_to_cdf():
    # away from the x=0 singularity of the beta<1 density
    params = WeibullParams(0.7, 1.0)
    grid = np.linspace(0.5, 4.0, 200001)
    integral = np.trapezoid(pdf(params, grid), grid)
    assert abs(integral - (cdf(params, 4.0) - cdf(params, 0.5))) < 1e-9


def test_quantile_density_is_quantile_derivative():
    params = WeibullParams(1.3, 2.0)
    p = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (quantile(params, p + h) - quantile(params, p - h)) / (2 * h)
    assert np.allclose(quantile_density(params, p), fd, rtol=1e-6)


def test_quantile_endpoints():
    params = WeibullParams(2.0, 1.0)
    assert quantile(params, 0.0) == 0.0
    assert quantile(params, 1.0) == np.inf
    with pytest.raises(DomainError):
        quantile(params, -0.01)
    with pytest.raises(DomainError):
        quantile(params, 1.01)


def test_sample_distribution_ks():
    params = WeibullParams(2.0, 3.0)
    x = sample(params, 100000, np.random.default_rng(11))
    ks = stats.kstest(x, lambda v: cdf(params, v))
    assert ks.statistic < 0.01
    assert ks.pvalue > 0.001


def test_sample_raises_where_draws_overflow():
    # at shape 0.001 a draw overflows to +inf once its uniform exceeds about 0.87
    with pytest.raises(DomainError, match="draws overflow at shape 0.001"):
        sample(WeibullParams(1e-3), 50, np.random.default_rng(0))


def test_quantile_forms_overflow_to_inf_without_a_warning():
    params = WeibullParams(1e-3)
    assert quantile(params, 0.999) == np.inf
    assert quantile_density(params, 0.9) == np.inf
    assert quantile(WeibullParams(1.0, 1e308), 0.999) == np.inf
    # at a subnormal shape 1/beta overflows: the density is 0 where
    # -log(1-p) < 1 (p < 1 - 1/e) and +inf above it, with no "invalid value"
    for beta in (1e-310, 5e-324):
        assert quantile_density(WeibullParams(beta), 0.5) == 0.0
        assert quantile_density(WeibullParams(beta), 0.9) == np.inf
        assert np.array_equal(quantile_density(WeibullParams(beta), np.array([0.1, 0.7, 0.99])),
                              [0.0, np.inf, np.inf])


# (shape, scale, p): (-log(1-p))**(1/beta) or its quantile-density power
# leaves the float range although sigma brings the result back
WIDE_QUANTILES = [(0.05, 1e300, 1e-20), (0.05, 1e300, 1e-16), (0.002, 1e-300, 0.99)]


def _mp_quantile_and_density(beta, sigma, p):
    """Q(p) and Q'(p) from 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        beta, sigma, p = (mpmath.mpf(v) for v in (beta, sigma, p))
        u = -mpmath.log1p(-p)
        return (float(sigma * u ** (1 / beta)),
                float(sigma / beta * u ** (1 / beta - 1) / (1 - p)))


@pytest.mark.parametrize("beta,sigma,p", WIDE_QUANTILES)
def test_quantile_and_density_where_the_power_leaves_the_float_range(beta, sigma, p):
    # the power is exp(log L / beta + log sigma) there: its exponent, at most
    # about 1,400, carries an absolute error of a few eps times itself
    want_q, want_qd = _mp_quantile_and_density(beta, sigma, p)
    params = WeibullParams(beta, sigma)
    assert quantile(params, p) == pytest.approx(want_q, rel=1e-12, abs=0)
    assert quantile_density(params, p) == pytest.approx(want_qd, rel=1e-12, abs=0)
    # the array form gives the same values, and a normal-range order keeps the
    # direct formulas
    assert np.array_equal(quantile(params, np.array([p, 0.5])),
                          [quantile(params, p), sigma * (-np.log1p(-0.5)) ** (1.0 / beta)])


def test_sample_is_the_quantile_of_its_uniforms_past_the_power_overflow():
    # at shape 0.002 and scale 1e-300, L**500 overflows once a uniform exceeds
    # about 0.984, the draw only beyond about 1 - 7e-8
    params = WeibullParams(0.002, 1e-300)
    u = np.random.default_rng(3).random(1000)
    assert u.max() > 0.984
    x = sample(params, 1000, np.random.default_rng(3))
    assert np.isfinite(x).all()
    assert np.array_equal(x, quantile(params, u))
    assert np.isfinite(sample(params, 100, np.random.default_rng(0))).all()


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 1.0, 2.0, 7.1, 100.0])
def test_unit_scale_draws_keep_the_direct_power(beta):
    # the study and the bootstrap draw at unit scale: bit for bit the
    # inverse transform as written
    u = np.random.default_rng(17).random(100_000)
    x = sample(WeibullParams(beta), u.size, np.random.default_rng(17))
    assert np.array_equal(x, (-np.log1p(-u)) ** (1.0 / beta))


def test_pdf_across_the_float_range():
    # every point whose true density is a normal float lies within 1e-12 of
    # 50-digit mpmath: the density's exponent is at most about 700, with an
    # absolute error of a few eps times itself
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    for beta in (0.5, 2.0, 7.0):
        for sigma in (1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e250):
            x = np.array([0.3, 0.7, 1.0, 1.6, 2.5]) * sigma
            got = pdf(WeibullParams(beta, sigma), x)
            for xi, gi in zip(x, got):
                with mpmath.workdps(50):
                    b, z = mpmath.mpf(beta), mpmath.mpf(xi) / mpmath.mpf(sigma)
                    want = b / mpmath.mpf(sigma) * z ** (b - 1) * mpmath.exp(-z**b)
                if want >= np.finfo(float).tiny:
                    assert gi == pytest.approx(float(want), rel=1e-12, abs=0), (beta, sigma, xi)
                    checked += 1
    assert checked > 90


def test_sample_reproducible():
    params = WeibullParams(1.0, 1.0)
    a = sample(params, 100, np.random.default_rng(5))
    b = sample(params, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind,beta,p,value", GOLDEN_CURVES)
def test_closed_curve_goldens(kind, beta, p, value):
    got = closed_curve(beta, p, kind)
    assert abs(got - value) < 5e-16


def test_closed_curves_scale_free():
    # the closed curves depend on the shape only
    p = np.linspace(0.01, 0.99, 25)
    for beta in (0.5, 1.0, 2.0, 3.0):
        base_z = qz_closed(beta, p)
        base_d = qd_closed(beta, p)
        assert np.all((base_z > 0) & (base_z < 1))
        assert np.all((base_d > 0) & (base_d < 1))


def test_closed_curve_endpoints_exact():
    for beta in (0.5, 1.0, 2.0, 3.0):
        assert qz_closed(beta, 0.0) == 1.0
        assert qz_closed(beta, 1.0) == 1.0
        assert qd_closed(beta, 0.0) == 1.0
        assert qd_closed(beta, 1.0) == 0.0


def test_closed_curve_midpoint_identity_bitwise():
    for beta in (0.5, 1.0, 1.7, 2.0, 3.0):
        assert qz_closed(beta, 0.5) == qd_closed(beta, 0.5)


def test_curves_decrease_in_beta():
    p = np.linspace(0.05, 0.95, 19)
    betas = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    for kind in ("qz", "qd"):
        vals = np.array([closed_curve(b, p, kind) for b in betas])
        assert np.all(np.diff(vals, axis=0) < 0)


@pytest.mark.parametrize("kind", ["qz", "qd"])
def test_closed_curve_and_eta_at_extreme_arguments(kind):
    # a RuntimeWarning would fail here under the suite's warning filter;
    # below a shape of 1e-160 both return their limits
    assert closed_curve(1e-310, 0.5, kind) == 1.0
    assert eta_weibull(1e-310, 0.5, kind) == 0.0
    # where the log ratio underflows both raise: at 5e-324, where u = p/2
    # rounds to 0, and for qD at 1e-323, where log(1 - u)/log(u) does
    small = [5e-324] if kind == "qz" else [5e-324, 1e-323]
    for p in small + [[0.5, small[-1]]]:
        for fn in (closed_curve, eta_weibull):
            with pytest.raises(DomainError, match="log ratio underflows"):
                fn(2.0, p, kind)
    assert closed_curve(2.0, 4e-321, kind) == 1.0
    assert -1e-158 < eta_weibull(2.0, 4e-321, kind) < 0.0


def _mp_curve_and_eta(beta, p, kind):
    """The curve and eta at the doubles ``beta`` and ``p``, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        beta, u = mpmath.mpf(beta), mpmath.mpf(p) / 2
        log_r = (mpmath.log(-mpmath.log1p(-u))
                 - mpmath.log(-mpmath.log((1 - 2 * u) / 2 if kind == "qz" else u)))
        return -mpmath.expm1(log_r / beta), mpmath.exp(log_r / beta) * log_r / beta**2


@pytest.mark.parametrize("fn,beta,p,kind", [
    # the log ratio is subnormal: 35% and 17% off before log r was formed
    # as log(Lu) - log(Lv) there
    (eta_weibull, 2.0, 4e-321, "qd"),
    (eta_weibull, 2.0, 1e-323, "qz"),
    (closed_curve, 1e300, 4e-321, "qd"),
    # r is about 7e-311, a subnormal that kept most digits: within 6e-15 before
    (eta_weibull, 2.0, 1e-310, "qz"),
])
def test_subnormal_log_ratio_keeps_full_precision(fn, beta, p, kind):
    curve, eta = _mp_curve_and_eta(beta, p, kind)
    want = float(eta if fn is eta_weibull else curve)
    assert fn(beta, p, kind) == pytest.approx(want, rel=2e-14, abs=0.0)


@pytest.mark.parametrize("kind", list(CurveKind))
def test_log_and_eta_terms_in_place_give_the_same_bytes(kind):
    u, _, one_minus_v = kind.orders(np.linspace(0.01, 0.99, 99))
    want = _log_terms(u, one_minus_v)
    got = _log_terms(u, one_minus_v, out=np.empty((3, u.size)))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for beta in (1e-170, 0.5, 2.0, 1e160):
        want = _eta_terms(got[2], beta)
        lr = got[2].copy()
        e, eta = _eta_terms(lr, beta, out=np.empty_like(lr))
        assert eta is lr and np.array_equal(e, want[0]) and np.array_equal(eta, want[1])


def test_gini_goldens():
    assert abs(gini_weibull(1.0) - 0.5) < 1e-15
    assert abs(gini_weibull(2.0) - (1.0 - 2.0 ** -0.5)) < 1e-15
    # strictly decreasing in beta
    betas = np.linspace(0.3, 6.0, 30)
    g = np.array([gini_weibull(b) for b in betas])
    assert np.all(np.diff(g) < 0)


@pytest.mark.parametrize("kind,beta,p,value", GOLDEN_ETA)
def test_eta_goldens(kind, beta, p, value):
    got = eta_weibull(beta, p, kind)
    assert abs(got - value) < 5e-16


def test_eta_matches_finite_difference():
    p = np.linspace(0.05, 0.95, 10)
    h = 1e-6
    for kind in ("qz", "qd"):
        for beta in (0.7, 1.0, 2.0, 3.5):
            fd = (closed_curve(beta + h, p, kind) - closed_curve(beta - h, p, kind)) / (2 * h)
            assert np.allclose(eta_weibull(beta, p, kind), fd, rtol=0, atol=1e-8)


def test_eta_is_negative_interior():
    p = np.linspace(0.01, 0.99, 99)
    for kind in ("qz", "qd"):
        for beta in (0.5, 1.0, 2.0, 3.0):
            assert np.all(eta_weibull(beta, p, kind) < 0)


def test_weibull_qf_matches_quantile():
    params = WeibullParams(1.8, 0.7)
    qf = weibull_qf(params)
    p = np.linspace(0.0, 0.999, 100)
    assert np.array_equal(qf(p), quantile(params, p))


def test_closed_curve_kind_accepts_enum_and_string():
    assert closed_curve(2.0, 0.3, CurveKind.QZ) == closed_curve(2.0, 0.3, "qz")
