"""Correctness gates for the benchmark's workloads.

Every gate returns a list of human-readable problems; an empty list means the
outputs are correct.  A run whose gates report any problem prints them and
exits without a result line.
"""

from __future__ import annotations

import math

# Published Monte Carlo tables (values x 1000; beta order 0.5, 1, 2, 3), the
# same numbers the package's acceptance suite checks at 10,000 replicates.
TABLE_BETAS = (0.5, 1.0, 2.0, 3.0)
TABLE_REPLICATIONS = 10_000
TABLES = {
    "MISE_qZ": {
        ("hf", 30): (0.861, 4.399, 7.155, 6.705),
        ("mde", 30): (0.735, 2.851, 3.633, 2.946),
        ("mdhf", 30): (0.635, 2.596, 3.429, 2.822),
        ("ml", 30): (0.435, 2.152, 2.912, 2.274),
        ("bcml", 30): (0.321, 1.857, 2.745, 2.268),
        ("hf", 100): (0.215, 1.358, 2.204, 2.086),
        ("mde", 100): (0.147, 0.764, 1.031, 0.852),
        ("mdhf", 100): (0.140, 0.735, 1.005, 0.832),
        ("ml", 100): (0.093, 0.554, 0.811, 0.659),
        ("bcml", 100): (0.084, 0.519, 0.791, 0.660),
    },
    "MSE_qZI": {
        ("hf", 30): (0.540, 2.444, 3.362, 2.727),
        ("mde", 30): (0.631, 2.714, 3.613, 2.927),
        ("mdhf", 30): (0.544, 2.466, 3.408, 2.805),
        ("ml", 30): (0.371, 2.046, 2.896, 2.260),
        ("bcml", 30): (0.270, 1.753, 2.725, 2.257),
        ("hf", 100): (0.112, 0.675, 0.992, 0.818),
        ("mde", 100): (0.123, 0.722, 1.025, 0.847),
        ("mdhf", 100): (0.117, 0.694, 0.998, 0.827),
        ("ml", 100): (0.077, 0.523, 0.806, 0.656),
        ("bcml", 100): (0.070, 0.489, 0.786, 0.656),
    },
    "MSE_qDI": {
        ("hf", 30): (2.108, 2.687, 2.643, 2.113),
        ("mde", 30): (2.522, 2.981, 2.662, 2.060),
        ("mdhf", 30): (2.389, 2.856, 2.559, 1.996),
        ("ml", 30): (0.596, 1.319, 1.748, 1.478),
        ("bcml", 30): (0.509, 1.171, 1.628, 1.452),
        ("hf", 100): (0.617, 0.828, 0.798, 0.642),
        ("mde", 100): (0.741, 0.895, 0.780, 0.607),
        ("mdhf", 100): (0.728, 0.886, 0.767, 0.598),
        ("ml", 100): (0.150, 0.346, 0.481, 0.425),
        ("bcml", 100): (0.143, 0.326, 0.468, 0.423),
    },
}

# A pooled cell may sit this many standard errors of the difference away from
# its published value.  The published values carry their own 10k-replicate
# error, and the package's own acceptance suite allows 3 such errors, so 6
# keeps the false-alarm rate negligible over thousands of checked cells while
# a cell doubled at a few hundred replicates still trips it.
TABLE_SE_MULTIPLE = 6.0

# Asymptotic variances of the MD shape estimator, from the package's own
# golden tests, matched to 1e-10 relative.
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
SIGMA2_RTOL = 1e-10

# Batched (study) and scalar (user API) fits of one sample must agree to this
# relative tolerance, and must agree on which samples fail.
BATCH_SCALAR_RTOL = 1e-12


def pool_records(reports):
    """Pool per-cell means and standard errors over independent study runs.

    Returns {(estimator, metric, n, beta): (mean, se, replications)}.
    """
    cells = {}
    for report in reports:
        for rec in report.records:
            key = (rec["estimator"], rec["metric"], rec["n"], rec["beta"])
            cells.setdefault(key, []).append((rec["value"], rec["se"], report.replications))
    pooled = {}
    for key, parts in cells.items():
        k = len(parts)
        mean = sum(v for v, _, _ in parts) / k
        se = math.sqrt(sum(s * s for _, s, _ in parts)) / k
        pooled[key] = (mean, se, sum(r for _, _, r in parts))
    return pooled


def check_tables(pooled) -> list:
    """Every published cell present in ``pooled`` lies near its table value.

    The allowed gap is TABLE_SE_MULTIPLE standard errors of the difference
    between this run and the published run, plus half a unit of the table's
    last printed digit.
    """
    problems = []
    checked = 0
    for metric, table in TABLES.items():
        for (est, n), row in table.items():
            for beta, target in zip(TABLE_BETAS, row):
                cell = pooled.get((est, metric, n, beta))
                if cell is None:
                    continue
                value, se, reps = cell
                checked += 1
                if not (math.isfinite(value) and math.isfinite(se) and se > 0.0):
                    problems.append(f"{metric} {est} n={n} beta={beta}: "
                                    f"value {value!r} se {se!r} not finite")
                    continue
                se_diff = se * math.sqrt(1.0 + reps / TABLE_REPLICATIONS)
                gap = abs(value - target * 1e-3)
                if gap > TABLE_SE_MULTIPLE * se_diff + 0.5e-6:
                    problems.append(
                        f"{metric} {est} n={n} beta={beta}: got {value * 1e3:.4f} "
                        f"want {target:.3f} (allowed gap "
                        f"{(TABLE_SE_MULTIPLE * se_diff + 0.5e-6) * 1e3:.4f}, {reps} reps)")
    if checked == 0:
        problems.append("no study cell matched a published table cell")
    return problems


def check_batch_scalar(pairs) -> list:
    """Batched estimates equal scalar re-fits of the same redrawn samples.

    ``pairs`` holds (label, batched value, scalar value or None on a raised
    QcurvesError); a NaN batched value must pair with a raised error.
    """
    problems = []
    for label, batched, scalar in pairs:
        if scalar is None or not math.isfinite(batched):
            if not (scalar is None and not math.isfinite(batched)):
                problems.append(f"{label}: batched {batched!r} vs scalar {scalar!r} "
                                "disagree on failure")
        elif abs(batched - scalar) > BATCH_SCALAR_RTOL * abs(scalar):
            problems.append(f"{label}: batched {batched!r} != scalar {scalar!r}")
    if not pairs:
        problems.append("no batched/scalar pair was checked")
    return problems


def check_sigma2(values) -> list:
    """``values`` maps (kind, beta) to the sigma2 printed by ``qcurves asymvar``."""
    problems = []
    for key, golden in SIGMA2_GOLDENS.items():
        got = values.get(key)
        if got is None:
            problems.append(f"asymvar {key}: no value")
        elif not abs(got - golden) <= SIGMA2_RTOL * golden:
            problems.append(f"asymvar {key}: sigma2 {got!r} != golden {golden!r}")
    return problems


def check_md_descent(fits) -> list:
    """``fits`` holds (label, residual, objective at the start shape)."""
    problems = [f"{label}: residual {res!r} exceeds start objective {start!r}"
                for label, res, start in fits if not res <= start]
    if not fits:
        problems.append("no MD fit was checked")
    return problems


def check_gof(results) -> list:
    """``results`` holds (label, printed fields, recomputed statistic, beta_hat).

    The printed statistic and shape must equal a recomputation on the data,
    and the p-value must be a probability.
    """
    problems = []
    for label, fields, statistic, beta_hat in results:
        p = fields["p_value"]
        if not 0.0 <= p <= 1.0:
            problems.append(f"{label}: p-value {p!r} outside [0, 1]")
        if fields["statistic"] != statistic:
            problems.append(f"{label}: statistic {fields['statistic']!r} != "
                            f"recomputed {statistic!r}")
        if fields["beta_hat"] != beta_hat:
            problems.append(f"{label}: beta_hat {fields['beta_hat']!r} != "
                            f"refit {beta_hat!r}")
    if not results:
        problems.append("no gof result was checked")
    return problems

