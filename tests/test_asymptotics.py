"""Limit-variance machinery for the minimum-distance shape estimator."""

from unittest import mock

import numpy as np
import pytest

from qcurves import (
    CurveKind,
    DomainError,
    NonConvergence,
    QcurvesError,
    WeibullParams,
    closed_curve,
    eta_weibull,
    md_asymptotic_variance,
)
from qcurves import asymptotics
from qcurves.asymptotics import KernelContext, _double_integral, _graded_grid, kernel_R, kernel_ab
from qcurves.cli import main as cli_main
from qcurves.weibull import quantile, quantile_density, sample as weibull_sample

# frozen deterministic outputs of md_asymptotic_variance at default resolution
SIGMA2_GOLDENS = {
    ("qz", 0.5): 0.23204670393941298,
    ("qz", 1.0): 0.8432541760746206,
    ("qz", 2.0): 3.1760725677722137,
    ("qz", 3.0): 7.097038064138104,
    ("qd", 0.5): 0.8025225787829139,
    ("qd", 1.0): 1.6625937556478971,
    ("qd", 2.0): 4.153143181571489,
    ("qd", 3.0): 7.96717586891279,
}


def test_kernel_context_validation():
    with pytest.raises(DomainError):
        KernelContext(0.0, CurveKind.QZ)
    with pytest.raises(DomainError):
        KernelContext(1.0, "xx")
    assert KernelContext(2.0, "qd").kind is CurveKind.QD
    with pytest.raises(DomainError, match="normal float"):
        KernelContext(1e-310, "qz")  # a(t), b(t) would be 0/0


# from where eta underflows to where beta**2 overflows; 1e-2, 50 and 1e5
# give a finite variance, the last three after more than one panel doubling;
# at qD 1e-3 C on the package grid is 2.9e-3 off
EXTREME_SHAPES = (1e-300, 1e-20, 1e-3, 1e-2, 50.0, 1e5, 1e160, 1e300)

# sigma2 at each of EXTREME_SHAPES, or the error md_asymptotic_variance raises
EXTREME_OUTCOMES = {
    "qz": dict(zip(EXTREME_SHAPES, (DomainError, DomainError, DomainError,
                                    0.00013321001452347163, 2396.585653040136,
                                    10035457023.785425, DomainError, DomainError))),
    "qd": dict(zip(EXTREME_SHAPES, (DomainError, DomainError, NonConvergence,
                                    0.01795427153153546, 2142.427873901665,
                                    8929265793.375746, DomainError, DomainError))),
}


@pytest.mark.parametrize("kind", ["qz", "qd"])
@pytest.mark.parametrize("beta", EXTREME_SHAPES)
def test_variance_is_finite_or_a_typed_error_at_any_shape(beta, kind, capsys):
    # a RuntimeWarning would fail here under the suite's warning filter
    p = np.linspace(0.0, 1.0, 101)
    assert np.all(np.isfinite(eta_weibull(beta, p, kind)))
    s, t = np.meshgrid(p[1:-1], p[1:-1])
    assert np.all(np.isfinite(kernel_R(KernelContext(beta, kind), s, t)))
    expected = EXTREME_OUTCOMES[kind][beta]
    try:
        result = md_asymptotic_variance(beta, kind)
    except QcurvesError as exc:
        assert type(exc) is expected
        error = f"error: {exc}\n"
    else:
        error = None
        assert result.sigma2 == pytest.approx(expected, rel=1e-14, abs=0)
        values = (result.sigma2, result.double_integral, result.eta_squared_integral)
        assert np.all(np.isfinite(values)) and min(values) > 0.0
    code = cli_main(["asymvar", "--beta", repr(beta), "--kind", kind])
    out, err = capsys.readouterr()
    if error is None:
        assert code == 0 and err == ""
        assert f"sigma2 = {result.sigma2:.17g}\n" in out
    else:
        assert (code, out, err) == (3, "", error)


def test_kernel_ab_golden():
    # 50-digit evaluation of [1 - qz(t)] * q(t/2) / Q(t/2) at beta=1, t=0.5
    ctx = KernelContext(1.0, CurveKind.QZ)
    a, _ = kernel_ab(ctx, np.array([0.5]))
    assert abs(float(a[0]) - 0.9617966939259756) < 5e-15


def test_kernel_ab_matches_direct_formula():
    params_orders = [
        (CurveKind.QZ, lambda t: (t / 2.0, (1.0 + t) / 2.0)),
        (CurveKind.QD, lambda t: (t / 2.0, 1.0 - t / 2.0)),
    ]
    t = np.linspace(0.1, 0.9, 9)
    for beta in (0.7, 2.0):
        params = WeibullParams(beta, 1.0)
        for kind, orders in params_orders:
            ctx = KernelContext(beta, kind)
            a, b = kernel_ab(ctx, t)
            u, v = orders(t)
            scale = 1.0 - closed_curve(beta, t, kind)
            ref_a = scale * quantile_density(params, u) / quantile(params, u)
            ref_b = scale * quantile_density(params, v) / quantile(params, v)
            assert np.allclose(a, ref_a, rtol=1e-13)
            assert np.allclose(b, ref_b, rtol=1e-13)


def test_kernel_ab_below_the_normal_range():
    # e = 1 - curve and the denominator of a both round to 0 at t = 1e-323
    # (beta 0.5) and at t = 1e-17 (beta 2.3e-308); the true a lies below the
    # subnormal range there, so a is 0
    for beta, t in ((0.5, 1e-323), (2.3e-308, 1e-17)):
        ctx = KernelContext(beta, "qz")
        assert kernel_ab(ctx, t) == ([0.0], [0.0])
        assert kernel_R(ctx, t, 0.5) == [0.0]
    a, b = kernel_ab(KernelContext(2.0, "qz"), 1e-323)
    assert np.isfinite(a[0]) and a[0] > 1e161 and 0.0 < b[0] < 1e-161
    # u = t/2 rounds to 0 at 5e-324: no log ratio to work from
    with pytest.raises(DomainError, match="log ratio underflows"):
        kernel_ab(KernelContext(2.0, "qz"), 5e-324)


def test_kernel_ab_rejects_boundary():
    ctx = KernelContext(1.0, CurveKind.QZ)
    with pytest.raises(DomainError):
        kernel_ab(ctx, np.array([0.0]))
    with pytest.raises(DomainError):
        kernel_ab(ctx, np.array([1.0]))


def test_kernel_R_symmetric_and_cauchy_schwarz():
    t = np.linspace(0.1, 0.9, 17)
    for kind in (CurveKind.QZ, CurveKind.QD):
        ctx = KernelContext(2.0, kind)
        s_mat = np.repeat(t, t.size)
        t_mat = np.tile(t, t.size)
        r = kernel_R(ctx, s_mat, t_mat).reshape(t.size, t.size)
        assert np.allclose(r, r.T, rtol=0, atol=1e-14)
        diag = np.diag(r)
        assert np.all(diag > 0)
        bound = np.sqrt(np.outer(diag, diag))
        assert np.all(np.abs(r) <= bound + 1e-12)


def test_kernel_R_diag_matches_monte_carlo():
    # n * var of the step plug-in curve value at t converges to R(t, t)
    ctx = KernelContext(1.0, CurveKind.QZ)
    t = 0.5
    target = float(kernel_R(ctx, np.array([t]), np.array([t]))[0])
    rng = np.random.default_rng(7)
    n, reps = 4000, 2000
    params = WeibullParams(1.0, 1.0)
    vals = np.empty(reps)
    for r in range(reps):
        x = np.sort(weibull_sample(params, n, rng))
        num = x[int(np.ceil(n * (t / 2.0))) - 1]
        den = x[int(np.ceil(n * ((1.0 + t) / 2.0))) - 1]
        vals[r] = 1.0 - num / den
    ratio = n * np.var(vals) / target
    assert abs(ratio - 1.0) < 0.1


@pytest.mark.parametrize("kind,beta", sorted(SIGMA2_GOLDENS))
def test_variance_goldens(kind, beta):
    result = md_asymptotic_variance(beta, kind)
    golden = SIGMA2_GOLDENS[(kind, beta)]
    assert abs(result.sigma2 - golden) < 1e-14 * golden
    assert result.rel_change < 1e-6
    assert result.double_integral > 0
    assert result.eta_squared_integral > 0


def test_variance_increases_with_shape():
    for kind in ("qz", "qd"):
        vals = [md_asymptotic_variance(b, kind).sigma2 for b in (0.5, 1.0, 2.0, 3.0)]
        assert np.all(np.diff(vals) > 0)


def test_variance_accepts_enum_and_string():
    a = md_asymptotic_variance(1.0, "qd").sigma2
    b = md_asymptotic_variance(1.0, CurveKind.QD).sigma2
    assert a == b


@pytest.mark.parametrize("kind,beta", [("qz", 50.0), ("qz", 1e5), ("qd", 1e-3), ("qd", 1e5),
                                       ("qz", 2.0)])
def test_panel_doubling_is_within_its_change_of_a_finer_rule(kind, beta):
    # the first four need 256 or 512 panels; A lies within the change it
    # reports of the same integral with 8 nodes on each of 512 panels.  The
    # check of C, which refuses qD 1e-3, is off
    with mock.patch.object(asymptotics, "_ETA_SQUARED_RTOL", np.inf):
        result = md_asymptotic_variance(beta, kind)
    assert result.rel_change <= 1e-6
    with mock.patch.object(asymptotics, "_NODES", 8):
        ref = _double_integral(KernelContext(beta, kind), 512)
    assert abs(result.double_integral - ref) <= result.rel_change * result.double_integral


def _counted_integrals():
    """A wrapper of _double_integral, patched in, that records its calls."""
    return mock.patch.object(asymptotics, "_double_integral", wraps=_double_integral)


def test_panel_doubling_stops_at_the_node_cap():
    # every doubling misses a negative tolerance: with a cap of 1024 nodes
    # the call gives up after 64, 128, 256 and 512 panels of 4 nodes
    with (mock.patch.object(asymptotics, "_DOUBLING_RTOL", -1.0),
          mock.patch.object(asymptotics, "MAX_VARIANCE_NODES", 1024), _counted_integrals() as spy,
          pytest.raises(NonConvergence) as caught):
        md_asymptotic_variance(2.0, "qz")
    assert [c.args[1] for c in spy.call_args_list] == [64, 128, 256, 512]
    coarse, fine = (_double_integral(KernelContext(2.0, "qz"), p) for p in (256, 512))
    assert str(caught.value) == (f"double quadrature changed by {abs(fine - coarse) / fine:.3e} "
                                 f"under panel doubling to 512 panels")
    # at the package's cap the finest grid is 4096 panels, 16,384 nodes
    with (mock.patch.object(asymptotics, "_double_integral", side_effect=lambda ctx, p: p),
          pytest.raises(NonConvergence, match="to 4096 panels")):
        md_asymptotic_variance(2.0, "qz")
    # a tolerance of 1 accepts the first doubling, and its change is reported
    with mock.patch.object(asymptotics, "_DOUBLING_RTOL", 1.0), _counted_integrals() as spy:
        result = md_asymptotic_variance(50.0, "qz")
    assert spy.call_count == 2 and result.rel_change > 1e-6


@pytest.mark.parametrize("kind,beta", [("qz", 1e-3), ("qz", 1e160), ("qz", 1e80), ("qd", 1e80)])
def test_zero_or_non_finite_integral_ends_the_doubling(kind, beta):
    # at 1e80 C is subnormal, 4.3e-320 (qZ) and 6.2e-320 (qD), 0.8% and 0.1%
    # apart on the two grids: too few digits to check, and C**2 underflows
    with _counted_integrals() as spy, pytest.raises(DomainError, match="under- or overflows"):
        md_asymptotic_variance(beta, kind)
    assert spy.call_count == 2


def test_eta_squared_check_rejects_a_missed_boundary_layer():
    # C on the package grid is 5.1e-4 off C on 1,024 graded panels at qD
    # 0.00124, 2.9e-3 off at 0.001 and 4e-182 against 8.7e4 at 1e-6, and
    # refused before any integral of A; at 0.0015 it is 8.6e-5 off and accepted
    for beta, rel in ((1.24e-3, r"5\.1\d\de-04"), (1e-3, r"2\.9\d\de-03"),
                      (1e-6, r"1\.000e\+00")):
        with _counted_integrals() as spy, pytest.raises(
                NonConvergence, match=f"eta\\*\\*2 differs by {rel} between the package "
                                      f"grid and 1024 graded panels"):
            md_asymptotic_variance(beta, "qd")
        assert spy.call_count == 0
    assert md_asymptotic_variance(1.5e-3, "qd").rel_change <= 1e-6


def _tensor_double_integral(ctx, panels):
    """The same triangle-split rule on the full N x N tensor of s = t * node."""
    tp, tw = _graded_grid(panels)
    s_mat = np.multiply.outer(tp, tp)
    w_mat = np.multiply.outer(tp * tw, tw)
    eta_t = eta_weibull(ctx.beta, tp, ctx.kind)
    eta_s = eta_weibull(ctx.beta, s_mat, ctx.kind)
    r_mat = kernel_R(ctx, s_mat, tp[:, None])
    return 2.0 * float((w_mat * eta_s * r_mat * eta_t[:, None]).sum())


# 8, 64, 256 and 512 nodes: one tile, one, two and eight
@pytest.mark.parametrize("panels", [2, 16, 64, 128])
@pytest.mark.parametrize("kind", ["qz", "qd"])
@pytest.mark.parametrize("beta", [1e-2, 0.3, 1.0, 2.0, 7.5, 50.0])
def test_double_integral_matches_tensor_reference(beta, kind, panels):
    ctx = KernelContext(beta, CurveKind(kind))
    ref = _tensor_double_integral(ctx, panels)
    assert _double_integral(ctx, panels) == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("rows", [1, 5, 7, 32])
@pytest.mark.parametrize("kind", ["qz", "qd"])
def test_double_integral_tiles_match_tensor_reference(kind, rows):
    # 64 rows in tiles of 1, 5, 7 and 32 rows (the last tile shorter for 5
    # and 7): the mirrored column sums of each tile reach every later row once
    ctx = KernelContext(1.5, CurveKind(kind))
    n = _graded_grid(16)[0].size
    ref = _tensor_double_integral(ctx, 16)
    with mock.patch.object(asymptotics, "_TILE_VALUES", rows * n):
        assert _double_integral(ctx, 16) == pytest.approx(ref, rel=1e-13, abs=0)


def test_variance_on_fine_qd_grid():
    # v = 1 - s/2 rounds to 1 at the smallest s of the 2048-panel grid, first
    # of the doubled grids; 1 - v = s/2 does not
    t = _graded_grid(2048)[0]
    assert 1.0 - t[0] * t[0] / 2.0 == 1.0
    result = md_asymptotic_variance(1.0, "qd")
    fine = _double_integral(KernelContext(1.0, "qd"), 2048)
    assert abs(fine - result.double_integral) < 1e-13 * fine
