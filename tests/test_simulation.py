"""Monte Carlo study harness: determinism, batching, aggregation, reports."""

import numpy as np
import pytest

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
    _cell_plan,
    _chunk_bounds,
    _draw_rows,
    _md_rows,
    _shape_rows,
)
from qcurves.weibull import sample as weibull_sample
from tests.conftest import weib_sorted

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
    with pytest.raises(DomainError):
        small_config(sizes=(1,))
    with pytest.raises(DomainError):
        small_config(workers=0)


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
    batch = _shape_rows(est, x_rows, {})
    for k in range(8):
        scalar = fit_shape(SortedSample(x_rows[k]), est).beta_hat
        assert batch[k] == scalar


@pytest.mark.parametrize("reference", ("empirical", "hf"))
@pytest.mark.parametrize("kind", (CurveKind.QZ, CurveKind.QD))
def test_batched_md_estimates_match_scalar_bitwise(reference, kind):
    rng = np.random.default_rng(6)
    x_rows = np.sort(weibull_sample(WeibullParams(2.0, 1.0), 8 * 30, rng).reshape(8, 30), axis=1)
    quad = QuadratureSpec()
    plan = _cell_plan(30, quad.panels, quad.nodes)
    batch = _md_rows(x_rows, reference, kind, plan, quad)
    config = MdConfig(curve=kind, reference=reference, quadrature=quad)
    for k in range(8):
        scalar = md_fit(SortedSample(x_rows[k]), config).beta_hat
        assert batch[k] == scalar


def test_worker_count_bit_identity():
    config1 = small_config(replications=60, workers=1)
    config2 = small_config(replications=60, workers=2)
    r1 = run_simulation(config1)
    r2 = run_simulation(config2)
    assert r1.to_json() == r2.to_json()


def test_partial_chunk_equals_contiguous():
    # 600 replications split 500 + 100; report depends only on the config
    config = small_config(betas=(2.0,), estimators=("ml",), replications=600)
    again = small_config(betas=(2.0,), estimators=("ml",), replications=600)
    assert run_simulation(config).to_json() == run_simulation(again).to_json()


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
        batch = _shape_rows(est, x_rows, {})
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
    assert np.all(np.isnan(_shape_rows("ml", x_rows[1:5], {})))


def test_report_json_has_no_environment_fields():
    report = run_simulation(small_config(replications=20, workers=2))
    text = report.to_json()
    assert "workers" not in text
    assert "time" not in text


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


def test_render_tables_markdown_and_csv():
    report = run_simulation(small_config(replications=20))
    md = render_tables(report, scale=1000.0, fmt="markdown")
    assert "MISE_qZ" in md and "| hf |" in md.replace("|hf", "| hf")
    csv_text = render_tables(report, scale=1000.0, fmt="csv")
    assert csv_text.splitlines()[0] == "metric,estimator,n,beta,value,se,flagged"
    with pytest.raises(DomainError):
        render_tables(report, fmt="html")


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
    md = render_tables(flagged, fmt="markdown")
    assert "*" in md
