"""Run the benchmark over ten seeds, twice, and save medians and spreads.

    python3 perfbench/collect.py --out perfbench/baseline.json

Runs every workload of BENCHMARK.json untraced once per seed, for seeds
1-10, then runs the same set again, then one traced run per workload with
seed 1.  Writes the host facts, and for each workload and end-to-end metric
the ten values of each set, their median, quartiles and spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
them), how far the second median is worse than the first as a share of the
first, and the metric's bound; plus the traced run's per-layer values.
Exits 1 if any run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workload: str, seconds: int) -> dict:
    """One untraced run per seed; each metric's values and their summary."""
    values = {}
    for seed in SEEDS:
        t0 = time.time()
        result = run(workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed} ({time.time() - t0:.0f} s): "
              + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals), "values": vals}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    import numpy
    import scipy
    out = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__, "nproc": os.cpu_count(),
                 "cpu": platform.processor() or platform.machine(), "threads": 1},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {w: {} for w in workloads},
    }
    for key in ("end_to_end", "repeat"):
        for workload in workloads:
            out["workloads"][workload][key] = run_set(workload, seconds)
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        for workload in workloads:
            first = out["workloads"][workload]["end_to_end"][name]["median"]
            repeat = out["workloads"][workload]["repeat"][name]
            repeat["worse_by"] = sign * (repeat["median"] - first) / first
            repeat["bound"] = metric["bound"]
            spread = out["workloads"][workload]["end_to_end"][name]["spread"]
            print(f"{workload} {name}: median {first:.5g} spread {spread:.4f}, repeat median "
                  f"{repeat['median']:.5g} spread {repeat['spread']:.4f} worse by "
                  f"{repeat['worse_by']:+.4f} (bound {metric['bound']})", flush=True)
    for workload in workloads:
        traced = run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload]["per_layer"] = {k: v["value"]
                                                   for k, v in traced["metrics"].items()}
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
