"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, in about eight minutes on one core:

* BENCHMARK.json has its expected keys and names the metrics run.py emits;
* a one-second run of every workload, untraced and traced, exits 0 and emits
  every named metric with its unit;
* two traced runs with the same seed give identical work counters;
* the correctness gates trip on corrupted results: a study cell scaled x2, a
  gof p-value of 1.5, an MD residual above its start objective, a batched
  estimate off by 1e-9.

Exits 0 when every check passes and 1 otherwise.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3

failures = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
    if proc.returncode:
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_unit(workloads, workload: str):
    """Unit 0 of ``workload`` with seed SEED, run in this process."""
    result, steps = workloads.unit(workload, SEED, 0)
    for _, step in steps:
        step()
    return result


def check_result(result: dict, expected: dict, label: str):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result.get("correct") is True and result.get("attempted", 0) >= 1,
          f"{label}: correct with work attempted")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    check(got == expected, f"{label}: every metric with its unit")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "BENCHMARK.json has setup_s")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within 0.25")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import gates
    import tracing
    import workloads
    check(per_layer == {n: u for n, u, _ in tracing.LAYER_METRICS},
          "per_layer matches the tracer's metrics")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workloads match")

    for workload in workloads.WORKLOADS:
        check_result(run(workload, 0), end_to_end, f"{workload} untraced")
        traced = [run(workload, 1) for _ in range(2)]
        for result in traced:
            check_result(result, per_layer, f"{workload} traced")
        counters = [{name: m["value"] for name, m in r.get("metrics", {}).items()
                     if m["unit"] in ("count", "B")} for r in traced]
        check(counters[0] == counters[1] and bool(counters[0]),
              f"{workload}: counters repeat exactly for seed {SEED}")

    # A study cell scaled x2 trips the table gate: the published cell of unit 0
    # whose estimate is most precise, so the doubling is far outside its error.
    study = run_unit(workloads, "study-md")
    pooled = gates.pool_records(study.reports)
    check(not gates.check_tables(pooled), "study-md tables pass before corruption")
    keys = [(est, metric, n, beta) for metric, table in gates.TABLES.items()
            for (est, n) in table for beta in gates.TABLE_BETAS
            if (est, metric, n, beta) in pooled]
    worst = min(keys, key=lambda k: pooled[k][1] / pooled[k][0])
    corrupted = [dataclasses.replace(report, records=tuple(
        dict(rec, value=2.0 * rec["value"])
        if (rec["estimator"], rec["metric"], rec["n"], rec["beta"]) == worst else rec
        for rec in report.records)) for report in study.reports]
    check(bool(gates.check_tables(gates.pool_records(corrupted))),
          f"table gate trips on {worst} scaled x2")

    # A gof p-value of 1.5 trips the data-gof gate.
    unit = run_unit(workloads, "data-gof")
    check(not workloads.data_gof_problems([unit]), "data-gof gates pass before corruption")
    label, group, fields = unit.gof[0]
    unit.gof[0] = (label, group, dict(fields, p_value=1.5))
    check(bool(workloads.data_gof_problems([unit])), "data-gof gate trips on a p-value of 1.5")

    # An MD residual above the objective at its start trips the data-fits gate.
    unit = run_unit(workloads, "data-fits")
    check(not workloads.data_fits_problems([unit]), "data-fits gates pass before corruption")
    label, sample, config, result = unit.md_fits[0]
    start = workloads.mod("md_estimation").md_objective(
        sample, result.start, config)
    unit.md_fits[0] = (label, sample, config,
                       dataclasses.replace(result, residual=2.0 * start + 1.0))
    check(bool(workloads.data_fits_problems([unit])),
          "data-fits gate trips on a residual above its start objective")

    check(bool(gates.check_batch_scalar([("x", 1.0 + 1e-9, 1.0)])),
          "batch/scalar gate trips on a 1e-9 relative difference")
    check(bool(gates.check_batch_scalar([("x", float("nan"), 1.0)])),
          "batch/scalar gate trips when only the batched fit fails")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
