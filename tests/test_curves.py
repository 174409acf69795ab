"""Concentration curves and indices for arbitrary quantile functions."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qcurves import (
    CurveKind,
    CurveSamples,
    DomainError,
    QuadratureSpec,
    SortedSample,
    KernelContext,
    MdConfig,
    WeibullParams,
    closed_curve,
    curve_grid,
    curve_index,
    curve_value,
    empirical_qf,
    eta_weibull,
    gauss_legendre_grid,
    kernel_R,
    kernel_ab,
    load_guinea_pigs,
    md_asymptotic_variance,
    md_fit,
    plotting_position_qf,
    replicate_estimates,
    weibull_qf,
)
from qcurves.curves import MAX_NODES, _rule

# frozen values of curve_index on the default 256x8 grid (regression goldens;
# the exact integrals differ from these by ~4e-7 of quadrature error).  They
# equal, bit for bit, the correctly rounded reference of
# test_index_goldens_match_correctly_rounded_reference: the grid from
# mpmath's Gauss-Legendre nodes and weights rounded to nearest, log1p and pow
# rounded to nearest in the order curve_value applies them, and numpy's
# pairwise sum of the weighted values
INDEX_GOLDENS = {
    (0.5, "qz"): 0.9681413268913608,
    (0.5, "qd"): 0.8348320338249801,
    (1.0, "qz"): 0.8326025583084589,
    (1.0, "qd"): 0.7015737451596685,
    (2.0, "qz"): 0.6019351561923061,
    (2.0, "qd"): 0.5228620881179875,
    (3.0, "qz"): 0.4633791550948808,
    (3.0, "qd"): 0.4140495983258208,
}
# exact integrals, 50-digit evaluation
INDEX_EXACT = {
    (0.5, "qz"): 0.96814134333092627,
    (0.5, "qd"): 0.83483203382498013,
    (1.0, "qz"): 0.83260270914788938,
    (1.0, "qd"): 0.70157374515659359,
    (2.0, "qz"): 0.60193551297310455,
    (2.0, "qd"): 0.52286209656135102,
    (3.0, "qz"): 0.4633796969860602,
    (3.0, "qd"): 0.41404967697822634,
}


def test_gauss_legendre_grid_integrates_polynomials():
    points, weights = gauss_legendre_grid(QuadratureSpec(panels=4, nodes=5))
    # degree <= 2*5-1 polynomials are integrated exactly per panel
    for k in range(9):
        exact = 1.0 / (k + 1)
        assert abs((weights * points ** k).sum() - exact) < 1e-14
    assert abs(weights.sum() - 1.0) < 1e-14


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(panels=0, nodes=4)
    with pytest.raises(DomainError):
        QuadratureSpec(panels=4, nodes=0)
    QuadratureSpec(panels=4, nodes=MAX_NODES)
    with pytest.raises(DomainError):
        QuadratureSpec(panels=4, nodes=MAX_NODES + 1)


def test_grids_above_the_node_cap_are_rejected_before_allocating():
    # building a spec allocates nothing, so the cap itself is accepted here
    from qcurves.curves import MAX_GRID_NODES
    QuadratureSpec(panels=MAX_GRID_NODES // 16, nodes=16)
    for panels, nodes in ((MAX_GRID_NODES // 16 + 1, 16), (10**15, 4)):
        with pytest.raises(DomainError, match=f"at most {MAX_GRID_NODES} nodes"):
            QuadratureSpec(panels=panels, nodes=nodes)
    for grid_size in (MAX_GRID_NODES, 10**15):
        with pytest.raises(DomainError, match=f"at most {MAX_GRID_NODES - 1}"):
            curve_grid(_KIND_QF, "qz", grid_size)


@pytest.mark.parametrize("panels,nodes", [(2.5, 4), (4.0, 4), (4, 4.0), (4, 2.5), ("4", 4)])
def test_quadrature_spec_rejects_non_integer_counts(panels, nodes):
    with pytest.raises(DomainError):
        QuadratureSpec(panels=panels, nodes=nodes)
    with pytest.raises(DomainError):
        md_asymptotic_variance(1.0, "qz", panels=panels, nodes=nodes)
    assert QuadratureSpec(np.int64(4), np.int64(4)) == QuadratureSpec(4, 4)


def test_curve_kind_orders_and_ends():
    p = np.array([0.4])
    u, v, one_minus_v = CurveKind.QZ.orders(p)
    assert (u[0], v[0], one_minus_v[0]) == (0.2, 0.7, 0.3)
    u, v, one_minus_v = CurveKind.QD.orders(p)
    assert (u[0], v[0], one_minus_v[0]) == (0.2, 0.8, 0.2)
    assert CurveKind.QZ.ends == (1.0, 1.0) and CurveKind.QD.ends == (1.0, 0.0)
    # 1 - v keeps its precision where v rounds to 1
    tiny = np.array([1e-20])
    assert CurveKind.QD.orders(tiny)[1][0] == 1.0
    assert CurveKind.QD.orders(tiny)[2][0] == 5e-21
    # the in-place form gives the same bytes, with u written over p
    p = np.linspace(0.0, 1.0, 11)
    for kind in CurveKind:
        want = kind.orders(p)
        u = p.copy()
        got = kind.orders(u, out=(u, *np.empty((2, p.size))))
        assert got[0] is u and all(np.array_equal(g, w) for g, w in zip(got, want))


_KIND_P = np.linspace(0.0, 1.0, 21)
_KIND_T = np.linspace(0.05, 0.95, 7)
_KIND_QF = weibull_qf(WeibullParams(1.5, 2.0))
_KIND_DATA = load_guinea_pigs()["control"]

# every public entry point that takes a curve kind, called with that kind
KIND_ENTRY_POINTS = {
    "curve_value": lambda kind: curve_value(_KIND_QF, kind, _KIND_P),
    "curve_grid": lambda kind: curve_grid(_KIND_QF, kind, 20),
    "curve_index": lambda kind: curve_index(_KIND_QF, kind),
    "CurveSamples": lambda kind: CurveSamples(_KIND_P, _KIND_P, kind),
    "CurveSamples.from_csv": lambda kind: CurveSamples.from_csv("p,value\r\n0.5,0.25\r\n", kind),
    "closed_curve": lambda kind: closed_curve(1.5, _KIND_P, kind),
    "eta_weibull": lambda kind: eta_weibull(1.5, _KIND_P, kind),
    "md_fit": lambda kind: md_fit(_KIND_DATA, MdConfig(curve=kind)),
    "replicate_estimates": lambda kind: replicate_estimates("mde", 1.5, 20, 30, curve=kind),
    "kernel_ab": lambda kind: kernel_ab(KernelContext(1.5, kind), _KIND_T),
    "kernel_R": lambda kind: kernel_R(KernelContext(1.5, kind), _KIND_T[:, None], _KIND_T),
    "md_asymptotic_variance": lambda kind: md_asymptotic_variance(1.5, kind, panels=16),
}


def _bits(result):
    """A result as nested tuples with every float array as its bytes."""
    if dataclasses.is_dataclass(result):
        return type(result).__name__, _bits(dataclasses.astuple(result))
    if isinstance(result, tuple):
        return tuple(_bits(item) for item in result)
    if isinstance(result, (float, np.ndarray)):
        return np.asarray(result, dtype=float).tobytes()
    return result


@pytest.mark.parametrize("entry", sorted(KIND_ENTRY_POINTS))
def test_every_kind_entry_point_takes_names_and_members(entry):
    call = KIND_ENTRY_POINTS[entry]
    results = {}
    for kind in CurveKind:
        results[kind] = _bits(call(kind))
        assert _bits(call(kind.value)) == results[kind]
    assert results[CurveKind.QZ] != results[CurveKind.QD]
    for bad in ("xx", "QZ", "", None, 0, CurveKind):
        with pytest.raises(DomainError):
            call(bad)


def _nearest_double(mpmath, x) -> float:
    """x rounded once to the nearest double, through exact rationals."""
    x = mpmath.mpf(x)
    return float(int(mpmath.sign(x)) * x.man * Fraction(2) ** x.exp)


def _mpmath_rule(mpmath, n):
    """n-point Gauss-Legendre rule by Newton's method on P_n at 60 digits."""
    nodes, weights = [], []
    with mpmath.workdps(60):
        for i in range(n):
            x = -mpmath.cos(mpmath.pi * (i + 0.75) / (n + 0.5))
            for _ in range(100):
                p_n, p_m = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                step = p_n * (x * x - 1) / (n * (x * p_n - p_m))
                x -= step
                if abs(step) < mpmath.mpf(10) ** -55:
                    break
            w = 2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2
            nodes.append(_nearest_double(mpmath, x))
            weights.append(_nearest_double(mpmath, w))
    return np.array(nodes), np.array(weights)


def test_gauss_legendre_table_is_correctly_rounded():
    # every rule the grids accept, computed in decimal arithmetic, equals the
    # 60-digit mpmath rule rounded to nearest
    mpmath = pytest.importorskip("mpmath")
    for n in range(1, MAX_NODES + 1):
        x, w = _rule(n)
        ref_x, ref_w = _mpmath_rule(mpmath, n)
        assert np.array_equal(np.array(x), ref_x), n
        assert np.array_equal(np.array(w), ref_w), n
        for i in range(n):
            assert x[i] == -x[n - 1 - i]
            assert w[i] == w[n - 1 - i]


def _reference_index(mpmath, beta, kind):
    """curve_index of Weibull(beta, 1) with every elementary function correctly rounded."""
    panels, nodes = QuadratureSpec().panels, QuadratureSpec().nodes
    x, w = _mpmath_rule(mpmath, nodes)
    h = 1.0 / panels
    starts = np.arange(panels, dtype=float) * h
    points = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * w, (panels, nodes)).ravel().copy()
    exponent = 1.0 / beta

    def quantile(p):
        with mpmath.workprec(200):
            u = -_nearest_double(mpmath, mpmath.log1p(-mpmath.mpf(p)))
            return _nearest_double(mpmath, mpmath.power(u, mpmath.mpf(exponent)))

    values = np.empty_like(points)
    for i, p in enumerate(points):
        den_order = 0.5 * (1.0 + p) if kind == "qz" else 1.0 - 0.5 * p
        values[i] = 1.0 - quantile(0.5 * p) / quantile(den_order)
    return float((weights * values).sum())


def test_index_goldens_match_correctly_rounded_reference():
    mpmath = pytest.importorskip("mpmath")
    for (beta, kind), golden in INDEX_GOLDENS.items():
        assert _reference_index(mpmath, beta, kind) == golden, (beta, kind)


def test_generic_curve_matches_closed_form():
    p = np.linspace(0.0, 1.0, 201)
    for beta in (0.5, 1.0, 2.0, 3.0):
        for sigma in (0.1, 1.0, 10.0):
            qf = weibull_qf(WeibullParams(beta, sigma))
            for kind in ("qz", "qd"):
                got = curve_value(qf, kind, p)
                assert np.max(np.abs(got - closed_curve(beta, p, kind))) < 1e-12


def test_curve_value_endpoints_generic():
    qf = weibull_qf(WeibullParams(2.0, 1.0))
    assert curve_value(qf, "qz", 0.0) == 1.0
    assert curve_value(qf, "qz", 1.0) == 1.0
    assert curve_value(qf, "qd", 0.0) == 1.0
    assert curve_value(qf, "qd", 1.0) == 0.0


def test_curve_value_midpoint_identity_empirical():
    rng = np.random.default_rng(4)
    s = SortedSample.from_data(rng.gamma(3.0, 2.0, 37))
    for qf in (empirical_qf(s), plotting_position_qf(s, "hf"), plotting_position_qf(s, "wg")):
        assert curve_value(qf, "qz", 0.5) == curve_value(qf, "qd", 0.5)


def test_curve_value_rejects_bad_orders():
    qf = weibull_qf(WeibullParams(1.0, 1.0))
    with pytest.raises(DomainError):
        curve_value(qf, "qz", -0.1)
    with pytest.raises(DomainError):
        curve_value(qf, "qz", 1.1)


@pytest.mark.parametrize("beta,kind", sorted(INDEX_GOLDENS))
def test_curve_index_goldens(beta, kind):
    qf = weibull_qf(WeibullParams(beta, 1.0))
    got = curve_index(qf, kind)
    assert got == INDEX_GOLDENS[(beta, kind)]
    assert abs(got - INDEX_EXACT[(beta, kind)]) < 1e-6


def test_curve_index_scale_free():
    for sigma in (0.1, 1.0, 25.0):
        qf = weibull_qf(WeibullParams(1.7, sigma))
        assert abs(curve_index(qf, "qz") - curve_index(weibull_qf(WeibullParams(1.7, 1.0)), "qz")) < 1e-13


def _doubling_gap(qf, kind):
    """|index on the package grid - the same integral with its 256 panels doubled|."""
    points, weights = gauss_legendre_grid(QuadratureSpec(512, 8))
    fine = float((weights * curve_value(qf, kind, points)).sum())
    return abs(fine - curve_index(qf, kind))


def test_curve_index_refinement_check():
    # qd approaches its p=0 endpoint polynomially: panel doubling agrees to 1e-8
    assert _doubling_gap(weibull_qf(WeibullParams(1.0, 1.0)), "qd") < 1e-8


def test_curve_index_refinement_check_flags_log_singular_end():
    # qz approaches its p=1 endpoint only logarithmically, so panel doubling
    # still moves the index by more than 1e-8
    assert _doubling_gap(weibull_qf(WeibullParams(3.0, 1.0)), "qz") > 1e-8


def test_curve_index_empirical_converges():
    rng = np.random.default_rng(15)
    from qcurves.weibull import sample as weibull_sample
    s = SortedSample.from_data(weibull_sample(WeibullParams(2.0, 1.0), 100000, rng))
    got = curve_index(plotting_position_qf(s, "hf"), "qz")
    assert abs(got - INDEX_EXACT[(2.0, "qz")]) < 0.01


def test_curve_samples_csv_round_trip():
    qf = weibull_qf(WeibullParams(2.0, 1.0))
    samples = curve_grid(qf, "qd", grid_size=33)
    text = samples.to_csv()
    back = CurveSamples.from_csv(text, "qd")
    assert np.array_equal(back.p, samples.p)
    assert np.array_equal(back.values, samples.values)
    assert back.kind == samples.kind


@pytest.mark.parametrize("text,message", [
    ("p,value\n0.5,0.1,9\n", "row 2 must hold two numbers"),
    ("p,value\n0.5\n", "row 2 must hold two numbers"),
    ("p,value\n0,1\nx,1\n", "row 3 must hold two numbers"),
    ("p,value\n1.5,nan\n", "row 2 must hold p in \\[0, 1\\] and a finite value"),
    ("p,value\n0,1\n-0.5,0.5\n", "row 3 must hold p in"),
    ("p,value\n0.5,inf\n", "row 2 must hold p in"),
    ("p,value\nnan,0.5\n", "row 2 must hold p in"),
])
def test_curve_samples_from_csv_rejects_malformed_rows(text, message):
    with pytest.raises(DomainError, match=message):
        CurveSamples.from_csv(text, "qz")


def test_curve_grid_shape_and_range():
    qf = weibull_qf(WeibullParams(1.0, 1.0))
    samples = curve_grid(qf, CurveKind.QZ, grid_size=100)
    assert samples.p.shape == (101,)
    assert samples.p[0] == 0.0 and samples.p[-1] == 1.0
    assert np.all((samples.values >= 0.0) & (samples.values <= 1.0))
