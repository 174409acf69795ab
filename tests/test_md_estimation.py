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
    DegenerateQuantile,
    DomainError,
    MdConfig,
    QcurvesError,
    SortedSample,
    StartFailure,
    WeibullParams,
    curve_value,
    empirical_qf,
    fit_shape,
    gauss_legendre_grid,
    md_fit,
    md_objective,
    plotting_position_qf,
)
from qcurves.curves import GRID
from qcurves.md_estimation import _md_rows, _ref_rows
from qcurves.simulation import SimulationConfig, _draw_rows
from qcurves.weibull import sample as weibull_sample
from tests.conftest import md_narrow_bracket, md_start_from, weib_sorted

MD_CASES = [(reference, kind) for reference in ("empirical", "hf") for kind in CurveKind]


def test_config_validation():
    with pytest.raises(DomainError):
        MdConfig(reference="step")
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
            assert fit.residual <= md_objective(s, fit.start, config)
            assert fit.residual == md_objective(s, fit.beta_hat, config)


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
    config = MdConfig(reference="hf")
    with md_start_from("lm"):
        base = md_fit(s, config).beta_hat
        for c in (0.25, 4.0, 1024.0):
            scaled = SortedSample.from_data(s.values * c)
            assert md_fit(scaled, config).beta_hat == base
    base_pe = md_fit(s, config).beta_hat
    for c in (0.25, 1024.0):
        scaled = SortedSample.from_data(s.values * c)
        assert abs(md_fit(scaled, config).beta_hat - base_pe) < 1e-7


def test_md_scale_invariance_generic():
    s = weib_sorted(1.5, 60, seed=9)
    config = MdConfig()
    base = md_fit(s, config).beta_hat
    for c in (0.37, 5.1):
        scaled = SortedSample.from_data(s.values * c)
        assert abs(md_fit(scaled, config).beta_hat - base) < 1e-6


def _refined(sample, seed, config=MdConfig()):
    """The refinement of ``seed`` on the reference of ``sample``."""
    ref = _ref_rows(sample.values[None, :], config.reference, config.curve, strict=True)
    lr = md_estimation._cell_plan(sample.n, config.reference, config.curve)[2]
    return md_estimation._refine_starts(ref, lr, np.array([seed]))[0]


def test_md_fit_start_is_pe_else_lm():
    s = weib_sorted(2.0, 60, seed=10)
    seed = fit_shape(s, "pe").beta_hat
    assert md_estimation._start_rows(s.values[None, :], True)[0] == seed
    start = md_fit(s).start
    assert start == _refined(s, seed) and start != seed
    tied = SortedSample.from_data([1, 2, 2, 2, 2, 2, 2, 2, 2, 3.0])
    with pytest.raises(DomainError, match="coincide"):
        fit_shape(tied, "pe")
    seed = fit_shape(tied, "lm").beta_hat
    assert md_estimation._start_rows(tied.values[None, :], True)[0] == seed
    assert md_fit(tied).start == _refined(tied, seed)


def test_md_fit_recovers_from_far_start():
    # the edge-triggered bracket expansion reaches a minimum far from the start
    s = weib_sorted(2.0, 200, seed=11)
    near = md_fit(s, MdConfig())
    with md_start_from("ml"), md_narrow_bracket(8):
        far = md_fit(s, MdConfig())
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
    # the ls start is 0.15 away in log-shape, beyond the 1.05 bracket
    # (+-0.049): F' < 0 across the bracket, so the Newton iterate leaves
    # the sign bracket and the row bisects toward its edge until the pass
    # cap, and the golden search with expansions takes over
    s = weib_sorted(2.0, 200, seed=13)
    near = md_fit(s, MdConfig())
    golden_calls, counted = _recorded_golden()
    with counted, md_start_from("ls"), md_narrow_bracket(8):
        far = md_fit(s, MdConfig())
    assert len(golden_calls) > 1  # the first bracket and at least one expansion
    assert abs(math.log(far.beta_hat / near.beta_hat)) < 1e-7
    assert far.residual == md_objective(s, far.beta_hat, MdConfig())


def _recorded_golden():
    """Patch ``_golden`` to record the arguments of each call."""
    calls, golden = [], md_estimation._golden

    def counted(*args):
        calls.append(args)
        return golden(*args)

    return calls, mock.patch.object(md_estimation, "_golden", counted)


def _traced_fit(sample, config):
    """md_fit, with (F, F', F'') of every Newton pass of the minimizer (on
    the full grid, not the start's refinement) and the golden calls."""
    passes, terms = [], md_estimation._newton_terms
    golden_calls, counted = _recorded_golden()

    def traced_terms(ref, rows, lr, weights, beta, derivatives=True):
        out = terms(ref, rows, lr, weights, beta, derivatives)
        if derivatives and lr.size == GRID.panels * GRID.nodes:
            passes.append([float(v[0]) for v in out])
        return out

    with mock.patch.object(md_estimation, "_newton_terms", traced_terms), counted:
        fit = md_fit(sample, config)
    return fit, passes, golden_calls


def _golden_only(sample, config):
    """The objective the golden search alone reaches, or the start's if lower."""
    with mock.patch.object(md_estimation, "_NEWTON_PASSES", 0):
        fit = md_fit(sample, config)
    return min(fit.residual, md_objective(sample, fit.start, config))


def test_rise_on_the_first_step_finishes_without_golden():
    # the first full Newton step from the refined start overshoots and
    # raises F; F' > 0 there, so that point closes the sign bracket and the
    # row finishes on Newton inside it
    s = weib_sorted(0.5, 10, seed=3)
    config = MdConfig(curve="qz", reference="empirical")
    fit, passes, golden_calls = _traced_fit(s, config)
    assert passes[1][0] > passes[0][0]
    assert not golden_calls
    assert fit.residual == md_objective(s, fit.beta_hat, config)
    assert fit.residual <= _golden_only(s, config) + 1e-15


def test_nonpositive_curvature_at_start_moves_without_golden():
    # F'' <= 0 at the start: the row moves to the midpoint of the start and
    # the bracket edge on the descent side, and finishes on Newton
    s = weib_sorted(0.5, 10, seed=7)
    config = MdConfig(curve="qz", reference="empirical")
    fit, passes, golden_calls = _traced_fit(s, config)
    assert passes[0][2] <= 0.0
    assert not golden_calls
    assert fit.residual == md_objective(s, fit.beta_hat, config)
    assert fit.residual <= _golden_only(s, config) + 1e-15


def _chunk_minimum(x_rows, config):
    """(ref, lr, weights) of ``_md_rows`` for these rows, and its minimizer's output."""
    _, _, lr, weights, _ = md_estimation._cell_plan(x_rows.shape[1], config.reference,
                                                    config.curve)
    ref = _ref_rows(x_rows, config.reference, config.curve, strict=True)
    seeds = md_estimation._start_rows(x_rows, True)
    return (ref, lr, weights), md_estimation._minimize_log(ref, lr, weights, seeds, seeds,
                                                           True)


# the first 500-row chunk of the default study's cell beta = 0.5, n = 30
STUDY_CHUNK = _draw_rows(SimulationConfig(), 0, 0, 0, 500)


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_rows_with_a_sign_change_on_their_bracket_never_reach_golden(reference, kind):
    # F'(lo) < 0 < F'(hi) on the first bracket: the sign bracket of F' then
    # holds a minimum from the first pass on, and Newton steps inside it or
    # bisections finish the row before the pass cap.  Rows are fitted each
    # on its own, so these rows alone make the same calls they make in the
    # chunk; two qd rows of the step reference lack the sign change and
    # reach the golden search there.
    config = MdConfig(curve=kind, reference=reference)
    _, _, lr, w, _ = md_estimation._cell_plan(STUDY_CHUNK.shape[1], reference, kind)
    ref = _ref_rows(STUDY_CHUNK, reference, kind, strict=True)
    lo, hi = md_estimation._first_bracket(md_estimation._start_rows(STUDY_CHUNK, True))
    every = np.arange(len(ref))
    g_lo, g_hi = (md_estimation._newton_terms(ref, every, lr, w, np.exp(end))[1]
                  for end in (lo, hi))
    inside = (g_lo < 0.0) & (g_hi > 0.0)
    assert inside.sum() >= len(inside) - 2
    golden_calls, counted = _recorded_golden()
    with counted:
        shapes = _md_rows(STUDY_CHUNK[inside], config, False)[0]
    assert not golden_calls
    assert np.all((np.log(shapes) > lo[inside]) & (np.log(shapes) < hi[inside]))


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_newton_terms_match_plain_sums(reference, kind):
    # F' and F'' against plain elementwise products and .sum(), within
    # 1e-12 of the sum of the terms' error scales.  A term's scale is its
    # magnitude with |m'| widened to |m'| + |u|: e = expm1(u) + 1 is good to
    # eps absolute only, so m' = u*e to |u|*eps, which is most of e where
    # e is tiny.  2048 terms summed in any order stay within about 5e-13 of
    # that scale.  The objective closure's F, a pass without the
    # derivatives, equals a derivative pass's bitwise, and no value depends
    # on the block size.
    config = MdConfig(curve=kind, reference=reference)
    _, _, lr, w, _ = md_estimation._cell_plan(STUDY_CHUNK.shape[1], reference, kind)
    ref = _ref_rows(STUDY_CHUNK, reference, kind, strict=True)
    seeds = md_estimation._start_rows(STUDY_CHUNK, True)
    fitted = _md_rows(STUDY_CHUNK, config, False)[0]
    every = np.arange(len(ref))
    some = every[::7]
    closure = md_estimation._objective_closure
    for rows, beta in ((every, seeds), (every, fitted), (some, seeds[some] * 5.0),
                       (some, seeds[some] / 5.0)):
        f, g, h = md_estimation._newton_terms(ref, rows, lr, w, beta)
        assert np.array_equal(f, closure(ref[rows], lr, w)(beta))
        with mock.patch.object(md_estimation, "_BLOCK_ROWS", 3):
            assert all(np.array_equal(a, b) for a, b in zip(
                md_estimation._newton_terms(ref, rows, lr, w, beta), (f, g, h)))
        u = lr / beta[:, None]
        e = np.exp(u)
        r = ref[rows] - (1.0 - e)
        mp, mpp = u * e, -u * (1.0 + u) * e
        g_terms = -2.0 * w * r * mp
        h_terms = 2.0 * w * (mp * mp - r * mpp)
        mp_err = np.abs(mp) + np.abs(u)
        r_err = np.abs(ref[rows]) + 2.0
        scale_g = 2.0 * (w * r_err * mp_err).sum(axis=1)
        scale_h = 2.0 * (w * (mp_err * mp_err + r_err * np.abs(1.0 + u) * mp_err)).sum(axis=1)
        assert np.all(np.abs(g - g_terms.sum(axis=1)) <= 1e-12 * scale_g)
        assert np.all(np.abs(h - h_terms.sum(axis=1)) <= 1e-12 * scale_h)


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_early_finish_returns_the_objective_at_its_point(reference, kind):
    config = MdConfig(curve=kind, reference=reference)
    evaluated = []  # the shapes where F alone is evaluated
    closure = md_estimation._objective_closure

    def recorded(ref, lr, weights):
        f = closure(ref, lr, weights)

        def objective(beta):
            evaluated.extend(beta)
            return f(beta)

        return objective

    # (two qd rows of the step reference need a wider bracket, so their
    # golden search is recorded too)
    with mock.patch.object(md_estimation, "_objective_closure", recorded):
        (ref, lr, weights), (shapes, fmin, _, _) = _chunk_minimum(STUDY_CHUNK, config)
    finished_early = np.isin(shapes, evaluated)
    assert finished_early.sum() > len(shapes) // 2
    for k in range(len(shapes)):
        assert fmin[k] == closure(ref[k:k + 1], lr, weights)(shapes[k:k + 1])[0]
        assert fmin[k] == md_objective(SortedSample(STUDY_CHUNK[k]), shapes[k], config)


def _md_start_at(shape):
    """Patch the minimizer's start of every row to ``shape``."""
    return mock.patch.object(md_estimation, "_refine_starts",
                             lambda ref, lr, seeds: np.full(len(seeds), shape))


# (row of STUDY_CHUNK, curve, reference): the eight fits whose residual was
# 1-2 ulp off md_objective at the returned shape while the minimizer took
# its first pass at exp(log(start)) and md_objective went through
# exp(log(beta)), then every 25th row under each configuration
IDENTITY_FITS = [
    (249, "qz", "empirical"), (286, "qz", "empirical"), (320, "qz", "empirical"),
    (34, "qd", "empirical"), (198, "qz", "hf"), (489, "qz", "hf"),
    (209, "qd", "hf"), (286, "qd", "hf"),
] + [(k, kind, reference) for k in range(0, 500, 25) for reference, kind in MD_CASES]


def test_residual_is_md_objective_at_the_returned_shape_exactly():
    for k, kind, reference in IDENTITY_FITS:
        sample, config = SortedSample(STUDY_CHUNK[k]), MdConfig(kind, reference)
        fit = md_fit(sample, config)
        assert fit.residual == md_objective(sample, fit.beta_hat, config)
        assert fit.residual <= md_objective(sample, fit.start, config)
        with _md_start_at(fit.beta_hat):
            again = md_fit(sample, config)
        assert (again.beta_hat, again.residual) == (fit.beta_hat, fit.residual)
        assert again.start == fit.beta_hat


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_rows_lie_within_twice_tol_of_a_tight_tolerance_run(reference, kind):
    config = MdConfig(curve=kind, reference=reference)
    shapes = _md_rows(STUDY_CHUNK, config, False)[0]
    with mock.patch.object(md_estimation, "_TOL", 1e-12):
        tight = _md_rows(STUDY_CHUNK, config, False)[0]
    assert np.all(np.abs(np.log(shapes / tight)) <= 2 * md_estimation._TOL)


def test_batched_fits_equal_scalar_fits_on_every_path():
    # seed 3 overshoots on its first step and seed 7 bisects its sign
    # bracket at the start (see above); most rows finish early
    x_rows = np.vstack([weib_sorted(0.5, 10, seed=k).values for k in range(12)])
    for reference, kind in MD_CASES:
        config = MdConfig(curve=kind, reference=reference)
        shapes, _, objectives, starts = _md_rows(x_rows, config, False)
        for k, row in enumerate(x_rows):
            fit = md_fit(SortedSample(row), config)
            assert (shapes[k], objectives[k], starts[k]) == (
                fit.beta_hat, fit.residual, fit.start)


def _recorded_passes(coarse):
    """Patch ``_newton_terms`` to record (rows, shapes, F', F'') of each
    pass of the start's refinement (``coarse``), or else the row count of
    each full-grid Newton pass."""
    passes, terms = [], md_estimation._newton_terms

    def recorded(ref, rows, lr, weights, beta, derivatives=True):
        out = terms(ref, rows, lr, weights, beta, derivatives)
        if not derivatives:  # an objective evaluation, not a pass
            return out
        if not coarse and lr.size == GRID.panels * GRID.nodes:
            passes.append(rows.size)
        elif coarse and lr.size == GRID.panels:
            passes.append((rows.copy(), beta.copy(), out[1], out[2]))
        return out

    return passes, mock.patch.object(md_estimation, "_newton_terms", recorded)


def test_refinement_keeps_the_seed_where_a_pass_fails():
    # the rows of test_batched_fits_equal_scalar_fits_on_every_path: on qz,
    # some reach F'' <= 0 and others step out of the bracket on the subgrid
    x_rows = np.vstack([weib_sorted(0.5, 10, seed=k).values for k in range(12)])
    seeds = md_estimation._start_rows(x_rows, True)
    causes, log_factor = set(), math.log(md_estimation._BRACKET_FACTOR)
    for reference, kind in MD_CASES:
        config = MdConfig(curve=kind, reference=reference)
        passes, recorded = _recorded_passes(coarse=True)
        with recorded:
            shapes, _, objectives, starts = _md_rows(x_rows, config, False)
        kept = np.zeros(len(x_rows), dtype=bool)
        for rows, beta, g, h in passes:
            with np.errstate(divide="ignore", invalid="ignore"):
                x = np.log(beta) - g / h
            flat = ~(h > 0.0)
            out = ~flat & ~(np.abs(x - np.log(seeds[rows])) < log_factor)
            causes.update(cause for cause, rows_out in (("curvature", flat), ("bracket", out))
                          if rows_out.any())
            kept[rows[flat | out]] = True
        assert np.array_equal(starts[kept], seeds[kept])
        assert np.all(starts[~kept] != seeds[~kept])
        for k, row in enumerate(x_rows):
            fit = md_fit(SortedSample(row), config)
            assert (shapes[k], objectives[k], starts[k]) == (
                fit.beta_hat, fit.residual, fit.start)
    assert causes == {"curvature", "bracket"}


def test_bracket_is_centred_on_the_seed_not_the_refined_start():
    # replicate 1435 of the default study's cell beta 1, n 30, mde on qz:
    # the subgrid passes move the seed 2.90 to 10.10, away from the minimum
    # 1.19, which lies in the seed's bracket but not in the start's; with
    # the bracket on the seed the row finishes on Newton
    row = _draw_rows(SimulationConfig(), 1, 0, 1000, 1500)[435]
    sample, config = SortedSample(row), MdConfig(curve="qz", reference="empirical")
    seed = md_estimation._start_rows(row[None, :], True)[0]
    fit, _, golden_calls = _traced_fit(sample, config)
    factor = md_estimation._BRACKET_FACTOR
    assert fit.beta_hat < fit.start / factor and seed / factor < fit.beta_hat < seed
    assert not golden_calls
    assert fit.residual == md_objective(sample, fit.beta_hat, config)
    assert fit.residual <= _golden_only(sample, config) + 1e-15


def test_refined_start_needs_few_full_grid_passes():
    # the first 500-row chunk of every cell of the default study, 16,000 MD
    # rows in all: 55,727 full-grid row-passes from the pe/lm seed, 34,981
    # from the refined start
    config = SimulationConfig()
    chunks = [_draw_rows(config, ib, jn, 0, 500)
              for ib in range(len(config.betas)) for jn in range(len(config.sizes))]
    passes, recorded = _recorded_passes(coarse=False)
    with recorded:
        for x_rows in chunks:
            for reference, kind in MD_CASES:
                _md_rows(x_rows, MdConfig(curve=kind, reference=reference), False)
    assert sum(passes) <= 2.3 * len(chunks) * 500 * len(MD_CASES)


def test_lm_start_only_where_pe_fails():
    # rows 1 and 3 have coinciding pe quantiles; lm runs on them alone and
    # gives the same starts as on the whole matrix
    tied = [1, 2, 2, 2, 2, 2, 2, 2, 2, 3.0]
    x_rows = np.array([weib_sorted(2.0, 10, seed=1).values, tied,
                       weib_sorted(2.0, 10, seed=2).values, tied])
    lm_rows = []
    lm = md_estimation._ROW_KERNELS["lm"]

    def counted(x, strict):
        lm_rows.append(len(x))
        return lm(x, strict)

    with mock.patch.dict(md_estimation._ROW_KERNELS, lm=counted):
        starts = md_estimation._start_rows(x_rows, False)
    assert lm_rows == [2]
    pe = md_estimation._ROW_KERNELS["pe"](x_rows, False)[0]
    expected = np.where(np.isfinite(pe), pe, lm(x_rows, False)[0])
    assert np.array_equal(starts, expected)


# (sample, the reason lm gives after pe failed): equal values, and two zeros
# whose L-moment ratio is exactly 1
START_FAILURES = [
    ([1.0, 1.0], "all sample values are equal"),
    ([0.0, 0.0, 5.0], "L-moment ratio 1 outside the invertible range (0, 1)"),
]


@pytest.mark.parametrize("reference,kind", MD_CASES)
@pytest.mark.parametrize("data,reason", START_FAILURES)
def test_start_failure_names_why_lm_failed(data, reason, reference, kind):
    config = MdConfig(curve=kind, reference=reference)
    with pytest.raises(StartFailure) as info:
        md_fit(data, config)
    assert str(info.value) == f"default starts pe and lm both failed: {reason}"
    # the batched rows fail quietly on the same samples
    assert np.isnan(_md_rows(np.array([data]), config, False)[0]).all()


def test_bracket_failure_when_expansions_run_out():
    s = weib_sorted(2.0, 200, seed=13)
    with md_start_from("ls"), md_narrow_bracket(1), pytest.raises(
            BracketFailure, match="after 1 expansions"):
        md_fit(s, MdConfig())


def test_fit_does_not_depend_on_block_size():
    s = weib_sorted(1.5, 80, seed=14)
    x_rows = np.vstack([weib_sorted(1.5, 80, seed=k).values for k in range(14, 24)])
    config = MdConfig(reference="hf")
    base = md_fit(s, config)
    with mock.patch.object(md_estimation, "_BLOCK_ROWS", 3):
        blocked = md_fit(s, config)
        rows3 = _md_rows(x_rows, config, False)[0]
    assert (blocked.beta_hat, blocked.residual) == (base.beta_hat, base.residual)
    rows = _md_rows(x_rows, config, False)[0]
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


# more than half zeros: the denominator quantile is zero at some nodes
ZERO_DENOMINATOR_ROW = np.array([[0, 0, 0, 0, 0, 0, 1, 2, 3, 4.0]])


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_zero_denominator_row_is_quiet_nan_batched(reference, kind):
    # a RuntimeWarning leaking from the gather would fail under the suite's
    # warning filter; the row has a start, so only its reference keeps it
    # out of the minimizer
    config = MdConfig(curve=kind, reference=reference)
    with mock.patch.object(md_estimation, "_minimize_log", side_effect=AssertionError):
        rows = _md_rows(ZERO_DENOMINATOR_ROW, config, False)[0]
    assert np.isnan(rows).all()


@pytest.mark.parametrize("reference,kind", MD_CASES)
def test_zero_denominator_row_raises_in_md_fit(reference, kind):
    config = MdConfig(curve=kind, reference=reference)
    with pytest.raises(DegenerateQuantile, match="denominator quantile is zero"):
        md_fit(SortedSample(ZERO_DENOMINATOR_ROW[0]), config)


# nonnegative values with many zeros and ties; times 10**e in [1e-300, 1e300]
# every value stays a normal float
_values = st.one_of(st.just(0.0), st.integers(1, 5).map(float), st.floats(0.01, 1e3))


@st.composite
def _sorted_rows(draw, rows):
    n = draw(st.integers(2, 50))
    row = st.lists(_values, min_size=n, max_size=n).map(sorted)
    return np.array([draw(row) for _ in range(rows)])


# print_blob: a failure prints an exact @reproduce_failure line, since the
# example Hypothesis prints rounds the floats and may not fail again
@settings(max_examples=30, deadline=None, print_blob=True)
@given(base=_sorted_rows(3), e=st.floats(-300, 300))
def test_md_rows_match_md_fit_on_ties_zeros_and_any_scale(base, e):
    x_rows = base * 10.0 ** e
    for reference, kind in MD_CASES:
        config = MdConfig(curve=kind, reference=reference)
        batch = _md_rows(x_rows, config, False)[0]
        for k, row in enumerate(x_rows):
            try:
                fit = md_fit(SortedSample(row), config)
            except QcurvesError:
                assert np.isnan(batch[k])
                continue
            assert batch[k] == fit.beta_hat
            unscaled = md_fit(SortedSample(base[k]), config)
            assert abs(math.log(fit.beta_hat / unscaled.beta_hat)) <= 10 * md_estimation._TOL


@pytest.mark.xfail(strict=True, reason=(
    "golden-search precision floor: both fits end in _golden after 2 expansions at "
    "beta ~ 7.6e-5, where F ~ 9.2e-4 and F'' ~ 9.5e-6 place the minimum only to about "
    "sqrt(2 eps F / F'') ~ 2e-7 in log-shape by comparing values of F"))
def test_md_fit_scale_invariance_below_golden_floor():
    # a row found by test_md_rows_match_md_fit_on_ties_zeros_and_any_scale;
    # the scaled fits differ by 1.9e-7 in log-shape
    base = np.array([0.0, 0.0, 5.0, 94.9969411910629, 95.26256522239757, 95.96014453832503])
    config = MdConfig(curve="qd", reference="empirical")
    fit = md_fit(SortedSample(base * 10.0 ** 2.0), config)
    unscaled = md_fit(SortedSample(base), config)
    assert abs(math.log(fit.beta_hat / unscaled.beta_hat)) <= 10 * md_estimation._TOL


@settings(max_examples=200, deadline=None)
@given(x_row=_sorted_rows(1), e=st.floats(-300, 300),
       reference=st.sampled_from(("empirical", "hf", "wg")),
       kind=st.sampled_from(list(CurveKind)))
def test_reference_rows_lie_in_unit_interval(x_row, e, reference, kind):
    x_row = x_row * 10.0 ** e
    sample = SortedSample(x_row[0])
    qf = empirical_qf(sample) if reference == "empirical" else plotting_position_qf(
        sample, reference)
    points, _ = gauss_legendre_grid(GRID)
    try:
        expected = curve_value(qf, kind, points)
    except DegenerateQuantile:
        with pytest.raises(DegenerateQuantile):
            _ref_rows(x_row, reference, kind, strict=True)
        return
    ref = _ref_rows(x_row, reference, kind, strict=True)
    assert np.array_equal(ref[0], expected)
    # the step reference divides two order statistics; an interpolant
    # x0 + f * (x1 - x0) is exact on tied values, but where the orders fall
    # in different segments the rounded x1 - x0 is not shown to keep the
    # numerator at or below the denominator, so a few ulp below 0 are allowed
    low = 0.0 if reference == "empirical" else -4 * np.finfo(float).eps
    assert np.all((ref >= low) & (ref <= 1.0))


@pytest.mark.parametrize("value", (3.0, 1e-300, 1.7e308))
@pytest.mark.parametrize("n", (2, 7))
def test_interpolated_reference_vanishes_on_a_constant_row(value, n):
    # between tied values the interpolant is exactly their value, so the hf
    # and wg curves of a constant sample are exactly 0 at every node
    x_row = np.full((1, n), value)
    points, _ = gauss_legendre_grid(GRID)
    for reference in ("hf", "wg"):
        qf = plotting_position_qf(SortedSample(x_row[0]), reference)
        for kind in CurveKind:
            assert np.all(_ref_rows(x_row, reference, kind, strict=True) == 0.0)
            assert np.all(curve_value(qf, kind, points) == 0.0)


def _step_rows(n):
    """Seven sorted rows of ``n`` values: distinct, tied, with zeros below
    the denominator's orders, with the denominator quantile zero at some
    nodes (row 3), constant, and two more distinct ones."""
    rng = np.random.default_rng(n)
    x = rng.weibull(1.0, (7, n)) + 0.25
    x[1] = np.round(2.0 * x[1]) / 2.0 + 0.5
    x[2, : n // 3] = 0.0
    x[3, : n // 2 + 1] = 0.0
    x[4] = 3.0
    x.sort(axis=1)
    return x


@pytest.mark.parametrize("block_rows", (1, 3, 32))
@pytest.mark.parametrize("n", (1, 2, 3, 30, 100, 1000))
@pytest.mark.parametrize("kind", list(CurveKind))
def test_pair_compressed_step_reference_equals_the_two_gathers(n, kind, block_rows):
    from qcurves.empirical_qf import step_indices
    x_rows = _step_rows(n)
    u, v, _ = kind.orders(gauss_legendre_grid(GRID)[0])
    num, den = x_rows[:, step_indices(n, u)], x_rows[:, step_indices(n, v)]
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = 1.0 - num / den
    zero = (den == 0.0).any(axis=1)
    assert zero.tolist() == [False, False, False, True, False, False, False]
    expected[zero] = np.nan
    ok = ~zero
    with mock.patch.object(md_estimation, "_BLOCK_ROWS", block_rows):
        ref = _ref_rows(x_rows, "empirical", kind, strict=False)
        assert ref.tobytes() == expected.tobytes()
        strict = _ref_rows(x_rows[ok], "empirical", kind, strict=True)
        assert strict.tobytes() == expected[ok].tobytes()
        with pytest.raises(DegenerateQuantile, match="denominator quantile is zero"):
            _ref_rows(x_rows, "empirical", kind, strict=True)
