"""Report values on NumPy's AVX-512 loops and with them switched off.

Report bytes are identical for one NumPy version and SIMD target only: NumPy
dispatches float64 ``exp``, ``log``, ``expm1``, ``log1p`` and ``power`` to
loops that can differ from the other targets' in the last bit.  This runs a
small all-estimator study and ``qcurves asymvar`` here and again in a child
process with the AVX-512 targets disabled (``NPY_DISABLE_CPU_FEATURES``
applies to that process only).  The same fits must fail, and the values must
agree within bounds: the MD minimizer stops once its log-shape step is below
``_TOL``, so a 1-ulp change can move an MD value by a fraction of ``_TOL``
(up to 3.6e-9 relative has been seen); every other value moves by rounding
only (up to 5.5e-14 relative has been seen).
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import qcurves
from qcurves import SimulationConfig, run_simulation
from qcurves.cli import main
from qcurves.md_estimation import _MD_METHODS, _TOL
from qcurves.simulation import ESTIMATOR_ORDER

_AVX512 = [t for t in __cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
_MD_RTOL = 10 * _TOL
_RTOL = 1e-12


def _outputs():
    # n=2 makes several estimators fail on some rows
    report = run_simulation(SimulationConfig(
        betas=(0.5, 2.0), sizes=(2, 30), replications=60, estimators=ESTIMATOR_ORDER,
        master_seed=7))
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["asymvar", "--beta", "2"]) == 0
    asymvar = dict(line.split(" = ") for line in text.getvalue().splitlines())
    return {"records": list(report.records), "asymvar": asymvar,
            "avx512": bool(__cpu_features__.get("X86_V4"))}


def _outputs_without_avx512():
    src = Path(qcurves.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), str(root),
                                                        os.environ.get("PYTHONPATH")])))
    code = ("import json; from tests.test_simd_targets import _outputs; "
            "print(json.dumps(_outputs()))")
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="no AVX-512 here: the default loops are already the other target's")
def test_reports_agree_without_avx512():
    here, there = _outputs(), _outputs_without_avx512()
    assert here["avx512"] and not there["avx512"]
    assert any(rec["failures"] for rec in here["records"])
    mse = {(rec["estimator"], rec["metric"][-3:], rec["n"], rec["beta"]): rec["value"]
           for rec in here["records"] if rec["metric"].startswith("MSE")}
    assert len(here["records"]) == len(there["records"])
    for a, b in zip(here["records"], there["records"]):
        key = (a["estimator"], a["metric"], a["n"], a["beta"])
        assert key == (b["estimator"], b["metric"], b["n"], b["beta"])
        assert a["failures"] == b["failures"], key
        rtol = _MD_RTOL if a["estimator"] in _MD_METHODS else _RTOL
        for field in ("value", "se"):
            x, y = a[field], b[field]
            assert math.isnan(x) == math.isnan(y), (key, field)
            if math.isnan(x):
                continue
            # a bias can be near 0; it moves by at most rtol times its root MSE
            scale = (math.sqrt(mse[(a["estimator"], a["metric"][-3:], a["n"], a["beta"])])
                     if a["metric"].startswith("BIAS") else abs(x))
            assert abs(x - y) <= rtol * scale, (key, field, x, y)
    asym_here, asym_there = here["asymvar"], there["asymvar"]
    assert asym_here.keys() == asym_there.keys()
    for name in ("sigma2", "double_integral", "eta_squared_integral"):
        assert float(asym_here[name]) == pytest.approx(float(asym_there[name]), rel=_RTOL)
    # a relative change of two quadratures: its absolute move is that of sigma2
    assert abs(float(asym_here["rel_change"]) - float(asym_there["rel_change"])) <= _RTOL
