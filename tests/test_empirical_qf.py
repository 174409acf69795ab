"""Empirical quantile functions: step form and interpolated plotting positions."""

import numpy as np
import pytest

from qcurves import (
    MD_REFERENCES,
    SHAPE_METHODS,
    DomainError,
    MdConfig,
    SortedSample,
    WeibullParams,
    empirical_qf,
    fit_shape,
    md_fit,
    plotting_position_qf,
    plotting_positions,
)
from qcurves.empirical_qf import interp_plan, step_indices
from qcurves.weibull import quantile, sample as weibull_sample


def test_sorted_sample_sorts_and_freezes():
    s = SortedSample.from_data([3.0, 1.0, 2.0])
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.n == 3
    with pytest.raises(ValueError):
        s.values[0] = 0.0


def test_sorted_sample_validation():
    for make in (SortedSample, SortedSample.from_data):
        for bad in ([], [1.0, np.nan], [np.nan, -1.0], [1.0, -0.5]):
            with pytest.raises(DomainError):
                make(np.array(bad))
        make([0.0, 1.0])  # zeros allowed at this layer


@pytest.mark.parametrize("bad", (["a", "b"], [[1.0, 2.0], [3.0]], [1 + 2j, 3.0],
                                 [True, False]))
def test_sorted_sample_rejects_non_real_data(bad):
    # strings, ragged lists, complex values and booleans are not samples
    for make in (SortedSample, SortedSample.from_data):
        with pytest.raises(DomainError, match="expected real numbers"):
            make(bad)


def test_constructor_sorts_and_fits_like_from_data():
    data = np.array([5.0, 1.0, 3.0, 2.5, 7.0])
    direct, checked = SortedSample(data), SortedSample.from_data(data)
    assert np.array_equal(direct.values, checked.values)
    assert not direct.values.flags.writeable
    assert data[0] == 5.0  # the caller's array is not sorted in place
    for method in SHAPE_METHODS:
        assert fit_shape(direct, method) == fit_shape(checked, method)
    for reference in MD_REFERENCES:
        config = MdConfig(reference=reference)
        assert md_fit(direct, config) == md_fit(checked, config)


def test_plotting_positions_formulas():
    n = 7
    k = np.arange(1, n + 1, dtype=float)
    assert np.array_equal(plotting_positions(n, "hf"), (k - 1.0 / 3.0) / (n + 1.0 / 3.0))
    assert np.array_equal(plotting_positions(n, "wg"), k / (n + 1.0))
    with pytest.raises(DomainError):
        plotting_positions(5, "weird")


def test_step_qf_definition():
    # Qn(p) = x_(k) exactly on ((k-1)/n, k/n]
    s = SortedSample.from_data([10.0, 20.0, 30.0, 40.0])
    qf = empirical_qf(s)
    assert qf(0.0) == 10.0
    assert qf(0.25) == 10.0
    assert qf(0.25 + 1e-12) == 20.0
    assert qf(0.5) == 20.0
    assert qf(0.75) == 30.0
    assert qf(1.0) == 40.0
    with pytest.raises(DomainError):
        qf(1.5)


def test_step_indices_match_brute_force():
    rng = np.random.default_rng(3)
    n = 13
    q = rng.uniform(0, 1, 200)
    idx = step_indices(n, q)
    # brute force over the defining inequality Fn(x_(k)) >= p
    brute = np.array([min(k for k in range(n) if (k + 1) / n >= p - 1e-15) for p in q])
    assert np.array_equal(idx, brute)


def test_interpolated_qf_node_exactness_bitwise():
    rng = np.random.default_rng(8)
    s = SortedSample.from_data(rng.gamma(2.0, 1.0, 17))
    for scheme in ("hf", "wg"):
        qf = plotting_position_qf(s, scheme)
        got = qf(qf.positions)
        assert np.array_equal(got, s.values)


def test_interpolated_qf_constant_beyond_ends():
    s = SortedSample.from_data([5.0, 6.0, 9.0])
    for scheme in ("hf", "wg"):
        qf = plotting_position_qf(s, scheme)
        pos = qf.positions
        assert qf(0.0) == 5.0
        assert qf(pos[0] / 2) == 5.0
        assert qf(1.0) == 9.0
        assert qf((1.0 + pos[-1]) / 2) == 9.0


def test_interpolated_qf_linear_between_nodes():
    s = SortedSample.from_data([1.0, 3.0, 7.0])
    qf = plotting_position_qf(s, "wg")
    pos = qf.positions  # 1/4, 2/4, 3/4
    mid = (pos[0] + pos[1]) / 2
    assert abs(qf(mid) - 2.0) < 1e-15
    assert abs(qf((pos[1] + pos[2]) / 2) - 5.0) < 1e-15


def test_interp_plan_single_node():
    j0, j1, frac = interp_plan(np.array([0.5]), np.array([0.2, 0.5, 0.9]))
    assert np.array_equal(j0, [0, 0, 0])
    assert np.array_equal(j1, [0, 0, 0])
    assert np.array_equal(frac, [0.0, 0.0, 0.0])


def test_monotone_nondecreasing():
    rng = np.random.default_rng(21)
    s = SortedSample.from_data(rng.exponential(1.0, 40))
    p = np.linspace(0, 1, 401)
    for qf in (empirical_qf(s), plotting_position_qf(s, "hf"), plotting_position_qf(s, "wg")):
        v = qf(p)
        assert np.all(np.diff(v) >= 0)


def test_empirical_converges_to_true_quantile():
    params = WeibullParams(2.0, 1.0)
    rng = np.random.default_rng(77)
    s = SortedSample.from_data(weibull_sample(params, 200000, rng))
    p = np.linspace(0.05, 0.95, 19)
    truth = quantile(params, p)
    for qf in (empirical_qf(s), plotting_position_qf(s, "hf")):
        assert np.max(np.abs(qf(p) - truth)) < 0.02


def test_step_vs_interpolated_gap_shrinks_like_one_over_n():
    # sup |Qn - Qn_interp| on a fixed interior grid, uniform parent: the
    # two differ by at most one order-statistic spacing, so the median sup
    # scales like 1/n on bounded support.
    rng = np.random.default_rng(99)
    grid = np.linspace(0.02, 0.98, 481)
    med = {}
    for n in (50, 100, 200, 400):
        sups = []
        for _ in range(60):
            u = np.sort(rng.uniform(0, 1, n))
            s = SortedSample(u)
            sups.append(np.max(np.abs(empirical_qf(s)(grid) - plotting_position_qf(s, "hf")(grid))))
        med[n] = np.median(sups)
    assert med[400] < med[50]
    scaled = [med[n] * n for n in (50, 100, 200, 400)]
    assert max(scaled) / min(scaled) < 3.0
