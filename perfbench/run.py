"""Benchmark of the qcurves package: closed-loop workloads on one core.

    python3 perfbench/run.py --workload study-md --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload`` is ``study-md``, ``study-closed``, ``data-fits``,
``data-gof`` or ``all`` (each workload in a fresh process).  Each run checks
the program's outputs and prints human-readable lines, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run, whose spans are written to
``perfbench/out/``.  A run whose correctness gates fail prints the problems
to stderr and exits with code 1 without a result.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("study-md", "study-closed", "data-fits", "data-gof")
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("adj_fits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 5  # fresh interpreters timed per run; setup_s is their median
TRACED_SHARE = 2.0 / 3.0  # of --seconds spent traced; the rest untraced, for overhead
# Host-speed probe.  The host is a shared VM whose single-core speed drifts by
# up to 40% within minutes, which no run length averages out.  A fixed
# reference kernel is timed before the first step and after every step of
# every unit.  Scaling each step's wall time by REF_SECONDS over the mean of
# the probes around it gives its time at the reference speed, which tracks
# the program and not the host.  The kernel has three parts, one for each
# kind of work in the workloads: 500 x 2048 rows like the MD objective on one
# 500-row chunk (8 MB), a 4 MB matrix like an n=1000 chunk (both beyond a
# 2 MB L2), and small-array calls like the root solves of one scalar fit.
# The small-array calls take the most time, since they track the host best
# on the data workloads.
PROBE_ROWS = (500, 2048)
PROBE_MATRIX = (500, 1000)
PROBE_SAMPLE = 64
PROBE_SAMPLE_REPS = 3000
REF_SECONDS = 0.05  # about the probe's median time on the baseline host
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.warm_up(sys.argv[3]); print('ready', flush=True)")


def fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def measure_setup(workload: str) -> tuple:
    """Seconds from a fresh interpreter to ``import qcurves`` plus warm-up.

    Returns the wall times and the same times at the reference host speed.
    The child inherits the CPU pinning, so the probes run on its core.
    """
    # The clock stops when the child's "ready" line arrives: a blocking read
    # of the pipe, since waiting on the process with a timeout polls in
    # steps of up to 50 ms.
    inputs = probe_inputs()
    walls, adjusted = [], []
    before = probe(inputs)
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line != "ready\n":
                fail(f"set-up of {workload} failed in a fresh interpreter")
        after = probe(inputs)
        walls.append(wall)
        adjusted.append(wall * 2.0 * REF_SECONDS / (before + after))
        before = after
    return walls, adjusted


def probe(inputs) -> float:
    """Wall seconds of one run of the reference kernel."""
    rows, matrix, sample = inputs
    t0 = time.perf_counter()
    model = -np.expm1(rows * 0.3)
    ((model - rows) * (model - rows) * rows).sum(axis=1)
    (np.log(matrix) * matrix).sum(axis=1)
    for _ in range(PROBE_SAMPLE_REPS):
        x = np.sort(sample)
        float(np.log(x / x[-1]).mean())
    return time.perf_counter() - t0


def probe_inputs() -> tuple:
    rng = np.random.default_rng(0)
    return rng.random(PROBE_ROWS), rng.random(PROBE_MATRIX), rng.random(PROBE_SAMPLE)


def run_loop(workloads, workload: str, seed: int, seconds: float, tracer=None) -> list:
    """Units 0, 1, ... back to back until ``seconds`` have passed.

    At least one pass runs, so every kind of step is timed.  Each step is
    timed on its own, with the host-speed probe between steps.
    """
    inputs = probe_inputs()
    results = []
    min_units = workloads.units_per_pass(workload)
    end = time.perf_counter() + seconds
    before = probe(inputs)
    while len(results) < min_units or time.perf_counter() < end:
        if tracer is not None:
            tracer.unit = len(results)
        result, steps = workloads.unit(workload, seed, len(results))
        for key, step in steps:
            fits = result.fits
            t0 = time.perf_counter()
            step()
            wall = time.perf_counter() - t0
            after = probe(inputs)
            result.steps.append((key, result.fits - fits, wall,
                                 wall * 2.0 * REF_SECONDS / (before + after)))
            before = after
        results.append(result)
    return results


def adj_fits_per_s(results) -> tuple:
    """Fits per second of one pass at the reference host speed.

    Each kind of step counts with the median of its times, so a pass is
    weighted the same however many times each step ran.  Returns the rate
    and the number of timed steps.
    """
    times, fits = {}, {}
    for r in results:
        for key, n, _, adj in r.steps:
            times.setdefault(key, []).append(adj)
            fits[key] = n
    rate = sum(fits.values()) / sum(statistics.median(t) for t in times.values())
    return rate, sum(len(t) for t in times.values())


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def host_line() -> str:
    import scipy
    return (f"host: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"pinned to cpu {min(os.sched_getaffinity(0))}, BLAS/OpenMP threads 1, workers 1")


def untraced_run(workloads, args) -> tuple:
    setup_wall, setup = measure_setup(args.workload)
    workloads.warm_up(args.workload)
    results = run_loop(workloads, args.workload, args.seed, args.seconds)
    rate, timed = adj_fits_per_s(results)
    values = {
        "setup_s": statistics.median(setup),
        "adj_fits_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fits = sum(r.fits for r in results)
    wall = sum(step[2] for r in results for step in r.steps)
    print(f"setup_s = {values['setup_s']:.4f} s at the reference speed, "
          f"{statistics.median(setup_wall):.4f} s of wall time "
          f"(median of {len(setup)} fresh interpreters)")
    print(f"adj_fits_per_s = {rate:.2f} 1/s (per-kind medians of {timed} steps in "
          f"{len(results)} units; {fits} fits in {wall:.2f} s of wall time)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB (1 process)")
    times = {}
    for r in results:
        for key, _, _, adj in r.steps:
            times.setdefault(key, []).append(adj)
    print("median step s at the reference speed: "
          + ", ".join(f"{key} {statistics.median(t):.3f} (n={len(t)})" for key, t in times.items()))
    fit_ms = [x for r in results for x in r.fit_ms]
    gof_s = [x for r in results for x in r.gof_s]
    asym_ms = [x for r in results for x in r.asymvar_ms]
    if fit_ms:
        print(f"fit_ms.p50 = {statistics.median(fit_ms):.4f} ms, "
              f"fit_ms.p90 = {p90(fit_ms):.4f} ms (n={len(fit_ms)} fits)")
    if gof_s:
        print(f"gof_s.p50 = {statistics.median(gof_s):.4f} s (n={len(gof_s)})")
        print(f"asymvar_ms.p50 = {statistics.median(asym_ms):.4f} ms (n={len(asym_ms)})")
    return values, results, []


def traced_run(workloads, tracing, args) -> tuple:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.warm_up(args.workload)
        traced = run_loop(workloads, args.workload, args.seed,
                          TRACED_SHARE * args.seconds, tracer)
    finally:
        tracer.uninstall()
    untraced = run_loop(workloads, args.workload, args.seed,
                        (1.0 - TRACED_SHARE) * args.seconds)
    problems = []
    if traced[0].outputs != untraced[0].outputs:
        problems.append("outputs of unit 0 differ with tracing on and off")

    overhead = 1.0 - adj_fits_per_s(traced)[0] / adj_fits_per_s(untraced)[0]
    values = tracer.layer_values(len(traced), workloads.units_per_pass(args.workload), overhead)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"traced {len(traced)} units, untraced {len(untraced)}; "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for module, share in tracer.module_shares(set(range(len(traced)))).items():
        print(f"  {module:<18} {100.0 * share:6.2f}% of traced self time")
    # untraced units repeat the traced units' seeds; gate and count each once
    return values, traced, problems


def run_all(args) -> int:
    """Each workload in a fresh process; exit code is the worst of theirs."""
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qcurves" / "__init__.py").is_file():
        fail(f"no qcurves sources under {SRC}; run from a qcurves checkout", 2)
    # One core for the run and the interpreters it starts: the probe must
    # see the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import qcurves
    if Path(qcurves.__file__).resolve().parent != SRC / "qcurves":
        fail(f"imported qcurves from {qcurves.__file__}, not from {SRC}", 2)
    import tracing
    import workloads

    print(host_line())
    if args.trace:
        values, results, problems = traced_run(workloads, tracing, args)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values, results, problems = untraced_run(workloads, args)
        units = dict(END_TO_END)
    problems += workloads.problems(args.workload, results, args.seed)
    if problems:
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)
        fail(f"{len(problems)} correctness problem(s); no result reported")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.fits for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
