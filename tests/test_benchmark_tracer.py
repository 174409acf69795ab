"""The benchmark's tracer wraps package functions by name; a rename must fail here.

``perfbench/tracing.py`` rebinds about twenty private names of the package
and raises when one is missing, so a traced benchmark run would break without
any untraced check noticing.  This installs the tracer on a small study and
one MD fit and checks that the traced outputs equal the untraced ones.
"""

import importlib
from pathlib import Path

import qcurves
from tests.conftest import weib_sorted

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _outputs():
    # names are looked up at call time, as the benchmark does, so that the
    # tracer's rebinding applies
    config = qcurves.SimulationConfig(betas=(2.0,), sizes=(30,), replications=4,
                                      estimators=("hf", "mde", "mdhf", "ml", "bcml"),
                                      master_seed=3)
    report = qcurves.run_simulation(config)
    fit = qcurves.md_fit(weib_sorted(2.0, 30, seed=4),
                         qcurves.MdConfig(curve="qd", reference="hf"))
    return report.to_json() + qcurves.render_tables(report) + report.to_csv(), fit


def test_traced_run_matches_untraced_and_counts_work(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    untraced = _outputs()
    tracer.install()
    try:
        traced = _outputs()
    finally:
        tracer.uninstall()
    assert traced == untraced
    counts = {name: value for (_, name), value in tracer.counts.items()}
    assert counts["simulation.draw_rows.rows"] == 4
    assert counts["md_estimation.md_fit.calls"] == 1
    assert counts["md_estimation.minimize_log.calls"] > 0
    assert counts["md_estimation.minimize_log.evals"] > 0
    assert counts["simulation.ref_rows.calls"] > 0
    assert counts["shape_estimators.bracketed_root.calls"] > 0
    assert tracer.spans and all(span[4] is not None for span in tracer.spans)
    assert _outputs() == untraced  # uninstalled: the original functions are back
