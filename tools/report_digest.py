"""Print the sha256 digests of two fixed study reports and the asymptotic
variance at eight fixed points, with the NumPy version and SIMD target that
the bytes hold for.

Report bytes are identical for one NumPy version and SIMD target only (NumPy
dispatches float64 ``exp``, ``log``, ``expm1``, ``log1p`` and ``power`` to
loops that differ between targets in the last bit), so a digest quoted
without them says little.  The two recipes:

* ``all-300``: every estimator, betas 0.5/1/2/3, sizes 2/30/100, 300
  replicates, master seed 7;
* ``default-537``: the default ``SimulationConfig`` at 537 replicates.

For each recipe it prints the sha256 of ``to_json``, ``to_csv`` and
``render_tables``.  It then prints ``repr`` of the ``md_asymptotic_variance``
sigma^2 at shapes 0.5/1/2/3 on both curve kinds, the points whose values
``perfbench/gates.py`` holds as goldens.  The package is imported from the Python path, so one copy
of this script digests any checkout:

    PYTHONPATH=src python tools/report_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/report_digest.py
"""

import hashlib

import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

import qcurves
from qcurves import SimulationConfig, md_asymptotic_variance, render_tables, run_simulation
from qcurves.simulation import ESTIMATOR_ORDER

RECIPES = {
    "all-300": SimulationConfig(betas=(0.5, 1, 2, 3), sizes=(2, 30, 100), replications=300,
                                estimators=ESTIMATOR_ORDER, master_seed=7),
    "default-537": SimulationConfig(replications=537),
}
SIGMA2_POINTS = [(kind, beta) for kind in ("qz", "qd") for beta in (0.5, 1.0, 2.0, 3.0)]


def simd_target() -> str:
    """NumPy's baseline and the dispatch targets this host runs, e.g.
    ``X86_V2 + X86_V3/X86_V4/AVX512_ICL/AVX512_SPR``."""
    found = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"{'/'.join(__cpu_baseline__)} + {'/'.join(found) or 'none'}"


def main():
    print(f"qcurves {qcurves.__version__} from {qcurves.__file__}")
    print(f"numpy {np.__version__}, SIMD {simd_target()}")
    for name, config in RECIPES.items():
        report = run_simulation(config)
        for label, text in (("to_json", report.to_json()), ("to_csv", report.to_csv()),
                            ("render_tables", render_tables(report))):
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{name:<12} {label:<14} {digest}")
    for kind, beta in SIGMA2_POINTS:
        print(f"sigma2 {kind} {beta:<5} {md_asymptotic_variance(beta, kind).sigma2!r}")


if __name__ == "__main__":
    main()
