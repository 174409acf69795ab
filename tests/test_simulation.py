"""Monte Carlo study harness: determinism, batching, aggregation, reports."""

import concurrent.futures
import contextlib
import dataclasses
import inspect
import json
from unittest import mock

import numpy as np
import pytest

import qcurves.md_estimation as md_estimation
import qcurves.simulation as simulation
from qcurves import (
    CurveKind,
    DomainError,
    MdConfig,
    QcurvesError,
    QuadratureSpec,
    SimulationConfig,
    SimulationReport,
    SortedSample,
    WeibullParams,
    closed_curve,
    curve_index,
    fit_shape,
    gauss_legendre_grid,
    md_fit,
    render_tables,
    replicate_estimates,
    run_simulation,
)
from qcurves.simulation import (
    ESTIMATOR_ORDER,
    METRICS,
    _aggregate,
    _chunk_bounds,
    _draw_rows,
    _shape_rows,
    _simulate_chunk,
)
from qcurves.md_estimation import _md_rows
from qcurves.weibull import sample as weibull_sample
from tests.conftest import md_narrow_bracket, md_start_from, weib_sorted

SHAPE_ESTS = tuple(e for e in ESTIMATOR_ORDER if e not in ("hf", "mde", "mdhf"))


def small_config(**kw):
    base = dict(betas=(1.0, 2.0), sizes=(30,), replications=40,
                estimators=("hf", "ml", "mde"), master_seed=123)
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(estimators=("nope",))
    with pytest.raises(DomainError):
        small_config(replications=0)
    with pytest.raises(DomainError):
        small_config(betas=())
    for beta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="shape must be finite and positive"):
            small_config(betas=(1.0, beta))
    with pytest.raises(DomainError):
        small_config(sizes=(1,))
    with pytest.raises(DomainError):
        small_config(workers=0)
    # the wrong type of field is a DomainError naming it, never a ValueError,
    # a TypeError or a string split into one-letter estimators
    for field, value in (("betas", ("x",)), ("betas", 2.0), ("sizes", 30),
                         ("estimators", "ml")):
        with pytest.raises(DomainError, match=field):
            small_config(**{field: value})
    # a repeated beta or size would run a second cell, with its own seeds,
    # that the tables and report lookups cannot reach; a repeated estimator
    # would be fitted and recorded twice
    for field, value in (("betas", (1.0, 2.0, 1)), ("sizes", (30, 30)),
                         ("estimators", ("ml", "hf", "ml"))):
        with pytest.raises(DomainError, match=f"{field} must not repeat a value"):
            small_config(**{field: value})


def test_estimator_order_is_complete():
    from qcurves import SHAPE_METHODS
    assert set(ESTIMATOR_ORDER) == set(SHAPE_METHODS) | {"hf", "mde", "mdhf"}


def test_chunk_bounds():
    assert _chunk_bounds(1200) == [(0, 500), (500, 1000), (1000, 1200)]
    assert _chunk_bounds(40) == [(0, 40)]


def test_aggregate_handles_nan():
    mean, se, failures = _aggregate(np.array([1.0, np.nan, 3.0]))
    assert mean == 2.0
    assert failures == 1
    assert abs(se - np.std([1.0, 3.0], ddof=1) / np.sqrt(2)) < 1e-15
    mean, se, failures = _aggregate(np.array([np.nan, np.nan]))
    assert np.isnan(mean) and np.isnan(se) and failures == 2
    mean, se, failures = _aggregate(np.array([5.0]))
    assert mean == 5.0 and np.isnan(se) and failures == 0


def test_draw_rows_seeding_is_per_replication():
    config = small_config()
    rows = _draw_rows(config, 0, 0, 0, 10)
    # same replication indices drawn in a different chunking are identical
    head = _draw_rows(config, 0, 0, 0, 4)
    tail = _draw_rows(config, 0, 0, 4, 10)
    assert np.array_equal(rows, np.vstack([head, tail]))
    assert np.all(np.diff(rows, axis=1) >= 0)


@pytest.mark.parametrize("est", SHAPE_ESTS)
def test_batched_shape_estimates_match_scalar_bitwise(est):
    rng = np.random.default_rng(5)
    x_rows = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 8 * 30, rng).reshape(8, 30), axis=1)
    batch = _shape_rows(est, x_rows, {}, CurveKind.QZ)
    for k in range(8):
        scalar = fit_shape(SortedSample(x_rows[k]), est).beta_hat
        assert batch[k] == scalar


@pytest.mark.parametrize("reference", ("empirical", "hf"))
@pytest.mark.parametrize("kind", (CurveKind.QZ, CurveKind.QD))
def test_batched_md_estimates_match_scalar_bitwise(reference, kind):
    rng = np.random.default_rng(6)
    x_rows = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 8 * 30, rng).reshape(8, 30), axis=1)
    est = "mde" if reference == "empirical" else "mdhf"
    batch = _shape_rows(est, x_rows, {}, kind)
    config = MdConfig(curve=kind, reference=reference)
    for k in range(8):
        scalar = md_fit(SortedSample(x_rows[k]), config).beta_hat
        assert batch[k] == scalar


# the narrow bracket makes some of the rows below fail with BracketFailure
@pytest.mark.parametrize("patch", [
    md_start_from("ml"), md_start_from("ls"), md_start_from("pe"), md_narrow_bracket(1),
    mock.patch.object(md_estimation, "_TOL", 1e-3),
], ids=["start-ml", "start-ls", "start-pe", "bracket", "tol"])
def test_batched_md_settings_match_scalar_bitwise(patch):
    x_rows = np.vstack([weib_sorted(2.0, 10, seed=k).values for k in range(12)])
    config = MdConfig()
    failed = 0
    with patch:
        shapes, _, objectives, starts = _md_rows(x_rows, config, False)
        for k in range(12):
            try:
                fit = md_fit(SortedSample(x_rows[k]), config)
            except QcurvesError:
                failed += 1
                assert np.isnan(shapes[k]) and np.isnan(objectives[k])
                continue
            assert (shapes[k], objectives[k], starts[k]) == (fit.beta_hat, fit.residual, fit.start)
        narrow = md_estimation._MAX_EXPANSIONS == 1
    assert (0 < failed < 12) if narrow else failed == 0


# rows that every configuration below fits
_GOOD_ROWS = [weib_sorted(2.0, 10, seed=k).values for k in range(2, 6)]


@pytest.mark.parametrize("patches,bad_rows", [
    ((), [np.full(10, 1.7)]),  # neither pe nor lm gives a start
    # lm fails on both rows, for a different reason on each
    ((), [np.eye(10)[-1], np.full(10, 1.7)]),
    ((md_start_from("ls"),), [np.full(10, 1.7)]),
    ((), [np.array([0, 0, 0, 0, 0, 0, 1, 2, 3, 4.0])]),  # zero denominator
    ((md_start_from("ls"), md_narrow_bracket(1)), [weib_sorted(2.0, 10, seed=0).values]),
], ids=["start", "start-first-row", "start-ls", "reference", "bracket"])
def test_strict_md_rows_raise_as_md_fit_on_first_failing_row(patches, bad_rows):
    x_rows = np.vstack(_GOOD_ROWS + bad_rows)
    config = MdConfig()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        shapes = _md_rows(x_rows, config, False)[0]
        with pytest.raises(QcurvesError) as scalar:
            md_fit(SortedSample(x_rows[4]), config)
        with pytest.raises(QcurvesError) as batch:
            _md_rows(x_rows, config, True)
    assert np.isnan(shapes).tolist() == [False] * 4 + [True] * len(bad_rows)
    assert (type(batch.value), str(batch.value)) == (type(scalar.value), str(scalar.value))


def test_worker_count_bit_identity():
    config1 = small_config(replications=60, workers=1)
    config2 = small_config(replications=60, workers=2)
    r1 = run_simulation(config1)
    r2 = run_simulation(config2)
    assert r1.to_json() == r2.to_json()


class _InlineExecutor:
    """A stand-in for ProcessPoolExecutor that records ``max_workers`` and
    runs each task at submit, in this process."""

    pools = []

    def __init__(self, max_workers):
        self.pools.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("replications, workers, pools", [
    (40, 8, []),  # one chunk: the in-process path, no pool
    (40, 1, []),
    (520, 64, [2]),  # two chunks: no more workers than chunks
    (1200, 2, [2]),
])
def test_no_more_workers_than_chunks(replications, workers, pools):
    config = small_config(betas=(2.0,), estimators=("ml",), replications=replications)
    _InlineExecutor.pools = []
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor):
        report = run_simulation(dataclasses.replace(config, workers=workers))
    assert _InlineExecutor.pools == pools
    assert report.to_json() == run_simulation(config).to_json()


def test_partial_chunk_equals_contiguous():
    # 600 replications split 500 + 100; report depends only on the config
    config = small_config(betas=(2.0,), estimators=("ml",), replications=600)
    again = small_config(betas=(2.0,), estimators=("ml",), replications=600)
    assert run_simulation(config).to_json() == run_simulation(again).to_json()


def test_report_does_not_depend_on_block_size():
    # n=2 gives failed rows, and 37 rows end in a partial block at either size
    config = small_config(betas=(0.5, 2.0), sizes=(2, 30), replications=37,
                          estimators=("hf", "mde", "mdhf", "ml"), master_seed=41)
    base = run_simulation(config)
    assert any(rec["failures"] for rec in base.records)
    for block_rows in (3, 1000):
        with mock.patch.object(md_estimation, "_BLOCK_ROWS", block_rows):
            blocked = run_simulation(config)
        assert blocked.to_json() + blocked.to_csv() == base.to_json() + base.to_csv()


def test_chunk_hf_row_builds_reference_rows_by_block():
    config = small_config(betas=(1.5,), estimators=SimulationConfig().estimators,
                          replications=40, master_seed=11)
    fits = {}

    def md_rows_spy(x_rows, md_config, strict):
        out = _md_rows(x_rows, md_config, strict)
        fits[(md_config.reference, md_config.curve)] = out[0]
        return out

    with mock.patch.object(simulation, "_ref_rows",
                           side_effect=md_estimation._ref_rows) as hf_refs, \
            mock.patch.object(simulation, "_md_rows", md_rows_spy):
        _simulate_chunk(config, 0, 0, 0, 40)
    # wg and hf, for qZ and qD, on each of the blocks of 32 and 8 rows
    rows = [call.args[0].shape[0] for call in hf_refs.call_args_list]
    assert sorted(rows) == [8] * 4 + [32] * 4
    assert max(rows) <= md_estimation._BLOCK_ROWS
    x_rows = _draw_rows(config, 0, 0, 0, 40)
    for kind in (CurveKind.QZ, CurveKind.QD):
        shapes = fits[("hf", kind)]
        assert np.array_equal(shapes, replicate_estimates(
            "mdhf", 1.5, 30, 40, master_seed=11, curve=kind), equal_nan=True)
        md_config = MdConfig(curve=kind, reference="hf")
        for k in range(0, 40, 7):
            assert shapes[k] == md_fit(SortedSample(x_rows[k]), md_config).beta_hat


def test_report_cell_matches_public_recomputation():
    config = small_config(betas=(2.0,), estimators=("ml",), replications=40,
                          master_seed=777)
    report = run_simulation(config)
    points, w = gauss_legendre_grid(QuadratureSpec())
    true_z = closed_curve(2.0, points, "qz")
    true_zi = float((w * true_z).sum())
    ise, err = [], []
    for r in range(40):
        seq = np.random.SeedSequence((777, 0, 0, r))
        rng = np.random.Generator(np.random.PCG64(seq))
        x = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 30, rng))
        beta_hat = fit_shape(SortedSample(x), "ml").beta_hat
        curve = closed_curve(beta_hat, points, "qz")
        ise.append(((curve - true_z) ** 2 * w).sum())
        err.append((curve * w).sum() - true_zi)
    ise = np.array(ise)
    err = np.array(err)
    assert report.value("ml", "MISE_qZ", 30, 2.0) == ise.mean()
    assert report.value("ml", "MSE_qZI", 30, 2.0) == (err ** 2).mean()
    assert report.value("ml", "BIAS_qZI", 30, 2.0) == err.mean()
    assert report.failures("ml", "MISE_qZ", 30, 2.0) == 0


def test_hf_row_uses_wg_curves_and_hf_indices():
    # the benchmark row pairs k/(n+1) interpolation for curve error with
    # (k-1/3)/(n+1/3) interpolation for index error
    from qcurves import curve_index, curve_value, plotting_position_qf
    config = small_config(betas=(1.0,), estimators=("hf",), replications=15,
                          master_seed=19)
    report = run_simulation(config)
    points, w = gauss_legendre_grid(QuadratureSpec())
    true_z = closed_curve(1.0, points, "qz")
    true_zi = float((w * true_z).sum())
    wg_curves, hf_curves = [], []
    for r in range(15):
        seq = np.random.SeedSequence((19, 0, 0, r))
        rng = np.random.Generator(np.random.PCG64(seq))
        x = SortedSample.from_data(weibull_sample(WeibullParams(1.0, 1.0), 30, rng))
        wg_curves.append(curve_value(plotting_position_qf(x, "wg"), "qz", points))
        hf_curves.append(curve_value(plotting_position_qf(x, "hf"), "qz", points))
    # reductions in the study's batched shape so the comparison stays bitwise
    ise = ((np.vstack(wg_curves) - true_z) ** 2 * w).sum(axis=1)
    err = (np.vstack(hf_curves) * w).sum(axis=1) - true_zi
    assert report.value("hf", "MISE_qZ", 30, 1.0) == ise.mean()
    assert report.value("hf", "MSE_qZI", 30, 1.0) == (err ** 2).mean()
    assert report.value("hf", "BIAS_qZI", 30, 1.0) == err.mean()


def test_md_metrics_use_kind_matched_fits():
    # the qD metrics of an MD estimator come from the qD-referenced fit
    config = small_config(betas=(2.0,), estimators=("mde",), replications=20,
                          master_seed=31)
    report = run_simulation(config)
    points, w = gauss_legendre_grid(QuadratureSpec())
    true_d = closed_curve(2.0, points, "qd")
    vals = []
    for r in range(20):
        seq = np.random.SeedSequence((31, 0, 0, r))
        rng = np.random.Generator(np.random.PCG64(seq))
        x = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 30, rng))
        fit = md_fit(SortedSample(x), MdConfig(curve=CurveKind.QD))
        curve = closed_curve(fit.beta_hat, points, "qd")
        vals.append(((curve - true_d) ** 2 * w).sum())
    assert report.value("mde", "MISE_qD", 30, 2.0) == np.mean(vals)


def test_report_round_trip_and_accessors():
    report = run_simulation(small_config(replications=20))
    back = SimulationReport.from_json(report.to_json())
    assert back == report
    assert back.value("ml", "MISE_qZ", 30, 1.0) == report.value("ml", "MISE_qZ", 30, 1.0)
    with pytest.raises(KeyError):
        report.value("ml", "MISE_qZ", 999, 1.0)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + len(report.records)
    assert lines[0].startswith("estimator,metric,n,beta")


def test_report_lookup_by_cell():
    report = run_simulation(small_config(replications=20))
    for rec in report.records:
        cell = (rec["estimator"], rec["metric"], rec["n"], rec["beta"])
        assert report.value(*cell) is rec["value"]
        assert report.se(*cell) is rec["se"]
        assert report.failures(*cell) == rec["failures"]
    # the lookup index is not part of the report's value or its bytes
    back = SimulationReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()
    for accessor in (report.value, report.se, report.failures):
        for cell in (("ml", "MISE_qZ", 31, 1.0), ("ml", "MISE_qZ", 30, 1.5),
                     ("bcml", "MISE_qZ", 30, 1.0), ("ml", "mise_qz", 30, 1.0)):
            with pytest.raises(KeyError):
                accessor(*cell)


def test_batched_and_scalar_fail_on_the_same_rows():
    # rows the scalar estimators reject (a zero, no spread, all zeros) next
    # to rows at the ends of the float range that every estimator accepts
    rows = [weib_sorted(2.0, 30, seed=k).values.copy() for k in range(8)]
    rows[1][0] = 0.0
    rows[2][:3] = 0.0
    rows[3][:] = 1.7
    rows[4][:] = 0.0
    rows[5] *= 1e-300
    rows[6] *= 1e300
    rows[7] *= 1.7e308 / rows[7][-1]
    x_rows = np.vstack(rows)
    for est in SHAPE_ESTS:
        batch = _shape_rows(est, x_rows, {}, CurveKind.QZ)
        assert np.all(np.isfinite(batch[[0, 5, 6, 7]])), est
        for k in range(len(rows)):
            try:
                scalar = fit_shape(SortedSample(x_rows[k]), est).beta_hat
            except QcurvesError:
                scalar = None
            if scalar is None:
                assert np.isnan(batch[k]), (est, k, batch[k])
            else:
                assert batch[k] == scalar, (est, k)
    assert np.all(np.isnan(_shape_rows("ml", x_rows[1:5], {}, CurveKind.QZ)))


def test_report_json_has_no_environment_fields():
    report = run_simulation(small_config(replications=20, workers=2))
    text = report.to_json()
    assert "workers" not in text
    assert "time" not in text


def test_grid_and_table_format_are_constants():
    # the integration grid is fixed at 256 x 8 and the tables are markdown;
    # neither is a setting, and the report still records the grid
    assert [f.name for f in dataclasses.fields(MdConfig)] == ["curve", "reference"]
    assert "quadrature" not in {f.name for f in dataclasses.fields(SimulationConfig)}
    assert list(inspect.signature(curve_index).parameters) == ["qf", "kind"]
    assert list(inspect.signature(render_tables).parameters) == ["report", "scale"]
    assert "quadrature" not in inspect.signature(replicate_estimates).parameters
    payload = json.loads(run_simulation(small_config(replications=2)).to_json())
    assert payload["quadrature"] == {"panels": 256, "nodes": 8}


def test_replicate_estimates_contract():
    a = replicate_estimates("mml", beta=1.0, n=30, replications=25, master_seed=9)
    b = replicate_estimates("mml", beta=1.0, n=30, replications=25, master_seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (25,)
    assert np.all(np.isfinite(a))
    with pytest.raises(DomainError):
        replicate_estimates("hf", beta=1.0, n=30, replications=5)
    with pytest.raises(DomainError):
        replicate_estimates("nope", beta=1.0, n=30, replications=5)


def test_replicate_estimates_match_study_seeding():
    vals = replicate_estimates("ml", beta=2.0, n=30, replications=10, master_seed=777)
    seq = np.random.SeedSequence((777, 0, 0, 3))
    rng = np.random.Generator(np.random.PCG64(seq))
    x = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 30, rng))
    assert vals[3] == fit_shape(SortedSample(x), "ml").beta_hat


def test_render_tables_markdown():
    report = run_simulation(small_config(replications=20))
    md = render_tables(report, scale=1000.0)
    assert "MISE_qZ" in md and "| hf |" in md.replace("|hf", "| hf")


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_render_tables_rejects_a_scale_that_is_not_finite_and_positive(scale):
    report = run_simulation(small_config(replications=5))
    with pytest.raises(DomainError, match="scale must be finite and positive"):
        render_tables(report, scale=scale)


def test_render_tables_flags_high_failure_cells():
    report = run_simulation(small_config(replications=20))
    # rebuild the report with one record marked as heavily failing
    records = []
    for rec in report.records:
        rec = dict(rec)
        if rec["estimator"] == "ml" and rec["metric"] == "MISE_qZ" and rec["beta"] == 1.0:
            rec["failures"] = 5
            rec["flagged"] = True
        records.append(rec)
    flagged = SimulationReport(
        betas=report.betas, sizes=report.sizes, replications=report.replications,
        estimators=report.estimators, master_seed=report.master_seed,
        quadrature_panels=report.quadrature_panels,
        quadrature_nodes=report.quadrature_nodes, version=report.version,
        records=tuple(records))
    md = render_tables(flagged)
    assert "*" in md
