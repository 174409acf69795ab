"""Shared pytest wiring: acceptance summary block printed after the run."""

import re
from unittest import mock

import numpy as np
import pytest

import qcurves.md_estimation as md_estimation
from qcurves import SortedSample, WeibullParams
from qcurves.shape_estimators import _ROW_KERNELS
from qcurves.weibull import sample as weibull_sample

CRITERION_LABELS = {
    "01": "closed-form oracle equivalence (1e-12, 999-point grid)",
    "02": "endpoint and midpoint identities (exact)",
    "03": "bias-corrected ML factor and constant",
    "04": "error table, curve MISE (10k replications, 3 SE)",
    "05": "error table, index MSE (10k replications, 3 SE)",
    "06": "consistency suite at n=10^4 plus MD invariants",
    "07": "minimum-distance asymptotic variance and normality",
    "08": "real-data workflow (conditional on source dataset)",
    "09": "bit-identical reports across worker counts",
}


def weib_sorted(beta, n, seed, scale=1.0):
    """Sorted Weibull sample with a fixed seed, as a SortedSample."""
    rng = np.random.default_rng(seed)
    return SortedSample.from_data(weibull_sample(WeibullParams(beta, scale), n, rng))


def md_start_from(method):
    """Patch the MD start to the plain ``method`` estimate of each row."""
    return mock.patch.object(md_estimation, "_start_rows",
                             lambda x_rows, strict: _ROW_KERNELS[method](x_rows, strict)[0])


def md_narrow_bracket(expansions):
    """Patch the MD bracket factor to 1.05 and its expansion count to ``expansions``."""
    return mock.patch.multiple(md_estimation, _BRACKET_FACTOR=1.05, _MAX_EXPANSIONS=expansions)


@pytest.fixture
def weib():
    return weib_sorted


def pytest_terminal_summary(terminalreporter):
    stats = terminalreporter.stats
    outcomes = {}
    for key in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for report in stats.get(key, []):
            nodeid = getattr(report, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if not match or getattr(report, "when", "call") != "call":
                continue
            outcomes.setdefault(match.group(1), []).append(key)
    if not outcomes:
        return
    write = terminalreporter.write_line
    write("")
    write("ACCEPTANCE CRITERIA")
    for number in sorted(CRITERION_LABELS):
        label = CRITERION_LABELS[number]
        results = outcomes.get(number)
        if not results:
            write(f"  criterion {int(number)}: NOT RUN  {label}")
            continue
        if any(r in ("failed", "error", "xpassed") for r in results):
            status = "FAIL"
        elif all(r == "passed" for r in results):
            status = "PASS"
        else:
            n_pass = sum(r == "passed" for r in results)
            n_xfail = sum(r == "xfailed" for r in results)
            status = f"CONDITIONAL ({n_pass} passed, {n_xfail} expected failures)"
        write(f"  criterion {int(number)}: {status}  {label}")
