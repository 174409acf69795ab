"""Spans and work counters around qcurves layer functions.

The tracer wraps package functions from outside the package: each wrapped
name is rebound in every ``qcurves`` module that holds it, so calls made
through names imported elsewhere (``simulation`` imports ``_minimize_log``,
``gof`` imports ``fit_shape``, ...) are traced too.  ``uninstall`` restores
the original objects.

Spans (name, parent, unit, start, end) are kept in memory and written out at
the end.  A layer's self time is its span time minus the time of the spans
it directly contains; several functions may share one layer name.  Counters
are read from return values and arguments, never from timers, so they repeat
exactly for a given input.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Bytes read per objective row evaluation and quadrature node: the reference
# row, the log-ratio row and the weights, 8 bytes each.
_OBJECTIVE_BYTES_PER_NODE = 3 * 8

# Layers whose work happens while the benchmark sets up, so their numbers are
# taken from the set-up phase rather than from the measured units.
SETUP_LAYERS = ("simulation.cell_plan",)

# Per-layer metrics the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("md_estimation.minimize_log.self_s", "s", "lower"),
    ("md_estimation.minimize_log.calls", "count", "lower"),
    ("md_estimation.minimize_log.evals", "count", "lower"),
    ("md_estimation.minimize_log.pinned", "count", "lower"),
    ("md_estimation.golden.calls", "count", "lower"),
    ("md_estimation.objective.self_s", "s", "lower"),
    ("md_estimation.objective.row_evals", "count", "lower"),
    ("md_estimation.objective.bytes_computed", "B", "lower"),
    ("md_estimation.md_fit.self_s", "s", "lower"),
    ("md_estimation.md_fit.calls", "count", "lower"),
    ("simulation.md_rows.self_s", "s", "lower"),
    ("simulation.ref_rows.self_s", "s", "lower"),
    ("simulation.ref_rows.calls", "count", "lower"),
    ("simulation.metric.self_s", "s", "lower"),
    ("simulation.shape_rows.self_s", "s", "lower"),
    ("simulation.draw_rows.self_s", "s", "lower"),
    ("simulation.draw_rows.rows", "count", "lower"),
    ("simulation.report.self_s", "s", "lower"),
    ("simulation.cell_plan.self_s", "s", "lower"),
    ("simulation.cell_plan.misses", "count", "lower"),
    ("shape_estimators.bracketed_root.self_s", "s", "lower"),
    ("shape_estimators.bracketed_root.calls", "count", "lower"),
    ("shape_estimators.bracketed_root.iters", "count", "lower"),
    ("shape_estimators.bracketed_root.row_evals", "count", "lower"),
    ("shape_estimators.fit_shape.self_s", "s", "lower"),
    ("shape_estimators.fit_shape.calls", "count", "lower"),
    ("weibull.sample.self_s", "s", "lower"),
    ("weibull.sample.calls", "count", "lower"),
    ("empirical_qf.from_data.self_s", "s", "lower"),
    ("empirical_qf.from_data.calls", "count", "lower"),
    ("curves.curve_value.self_s", "s", "lower"),
    ("curves.curve_value.calls", "count", "lower"),
    ("gof.ad_test.self_s", "s", "lower"),
    ("gof.fit_both.self_s", "s", "lower"),
    ("gof.fit_both.calls", "count", "lower"),
    ("gof.ad_statistic.self_s", "s", "lower"),
    ("asymptotics.variance.self_s", "s", "lower"),
    ("asymptotics.double_integral.self_s", "s", "lower"),
    ("asymptotics.double_integral.calls", "count", "lower"),
    ("asymptotics.kernel_R.points", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.read_data.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.unit = "setup"  # tag of the request the current spans belong to
        self.spans = []  # [name, parent index, unit, start, end]
        self.self_time = defaultdict(float)  # (unit, layer) -> seconds
        self.counts = defaultdict(int)  # (unit, counter) -> count
        self._stack = []  # [span index, seconds covered by child spans]
        self._patches = []  # (owner, attribute, original object)

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1):
        self.counts[(self.unit, name)] += int(amount)

    def _enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, parent, self.unit, time.perf_counter(), None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        span[4] = time.perf_counter()
        duration = span[4] - span[3]
        self.self_time[(span[2], span[0])] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def spanned(self, layer: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, fn, after):
        """``fn`` with a counter update and no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every qcurves module name bound to ``original`` at ``replacement``."""
        found = False
        for name, module in list(sys.modules.items()):
            if name != "qcurves" and not name.startswith("qcurves."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))
                    found = True
        if not found:
            raise RuntimeError(f"no qcurves module binds {original!r}")

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced layer function of the loaded qcurves package."""
        mods = {name: importlib.import_module(f"qcurves.{name}") for name in (
            "simulation", "md_estimation", "shape_estimators", "weibull",
            "empirical_qf", "curves", "gof", "asymptotics", "cli")}
        sim, md, se = mods["simulation"], mods["md_estimation"], mods["shape_estimators"]

        def calls(prefix):
            return lambda args, out: self.count(f"{prefix}.calls")

        def span(module, attr, layer, after=None):
            original = getattr(mods[module], attr)
            self._rebind(original, self.spanned(layer, original, after))

        def counter(module, attr, after):
            original = getattr(mods[module], attr)
            self._rebind(original, self.counted(original, after))

        # simulation
        span("simulation", "_draw_rows", "simulation.draw_rows",
             lambda args, out: self.count("simulation.draw_rows.rows", out.shape[0]))
        span("simulation", "_ref_rows", "simulation.ref_rows", calls("simulation.ref_rows"))
        span("simulation", "_md_rows", "simulation.md_rows")
        span("simulation", "_shape_rows", "simulation.shape_rows")
        span("simulation", "_simulate_chunk", "simulation.metric")
        span("simulation", "_curve_rows", "simulation.metric")
        span("simulation", "run_simulation", "simulation.report")
        span("simulation", "_aggregate", "simulation.report")
        span("simulation", "render_tables", "simulation.report")
        report_cls = sim.SimulationReport
        for attr in ("to_json", "to_csv"):
            self._patch_attr(report_cls, attr, self.spanned(
                "simulation.report", report_cls.__dict__[attr]))
        plan = sim._cell_plan
        seen = {"misses": plan.cache_info().misses}

        def plan_misses(args, out):
            misses = plan.cache_info().misses
            self.count("simulation.cell_plan.misses", misses - seen["misses"])
            seen["misses"] = misses

        span("simulation", "_cell_plan", "simulation.cell_plan", plan_misses)

        # md_estimation
        def minimize_counts(args, out):
            self.count("md_estimation.minimize_log.calls")
            self.count("md_estimation.minimize_log.evals", out[3])
            self.count("md_estimation.minimize_log.pinned", int(np.count_nonzero(out[2])))

        span("md_estimation", "_minimize_log", "md_estimation.minimize_log", minimize_counts)
        counter("md_estimation", "_golden", calls("md_estimation.golden"))
        span("md_estimation", "md_fit", "md_estimation.md_fit", calls("md_estimation.md_fit"))
        closure = md._objective_closure

        @functools.wraps(closure)
        def traced_closure(ref, lr, weights):
            objective = self.spanned("md_estimation.objective", closure(ref, lr, weights))
            row_bytes = np.size(lr) * _OBJECTIVE_BYTES_PER_NODE

            def counted_objective(log_beta):
                rows = np.size(log_beta)
                self.count("md_estimation.objective.row_evals", rows)
                self.count("md_estimation.objective.bytes_computed", rows * row_bytes)
                return objective(log_beta)

            return counted_objective

        self._rebind(closure, traced_closure)

        # shape_estimators
        root = se._bracketed_root

        def root_counts(args, out):
            self.count("shape_estimators.bracketed_root.calls")
            self.count("shape_estimators.bracketed_root.iters", out[1])

        traced_root = self.spanned("shape_estimators.bracketed_root", root, root_counts)

        @functools.wraps(root)
        def counted_root(f, *args, **kwargs):
            def counted_f(x):
                self.count("shape_estimators.bracketed_root.row_evals", np.size(x))
                return f(x)

            return traced_root(counted_f, *args, **kwargs)

        self._rebind(root, counted_root)
        span("shape_estimators", "fit_shape", "shape_estimators.fit_shape",
             calls("shape_estimators.fit_shape"))

        # weibull, empirical_qf, curves
        span("weibull", "sample", "weibull.sample", calls("weibull.sample"))
        sorted_cls = mods["empirical_qf"].SortedSample
        self._patch_attr(sorted_cls, "from_data", classmethod(self.spanned(
            "empirical_qf.from_data", sorted_cls.__dict__["from_data"].__func__,
            calls("empirical_qf.from_data"))))
        span("curves", "curve_value", "curves.curve_value", calls("curves.curve_value"))

        # gof
        span("gof", "ad_test", "gof.ad_test")
        span("gof", "_fit_both", "gof.fit_both", calls("gof.fit_both"))
        span("gof", "ad_statistic", "gof.ad_statistic")

        # asymptotics
        span("asymptotics", "md_asymptotic_variance", "asymptotics.variance")
        span("asymptotics", "_double_integral", "asymptotics.double_integral",
             calls("asymptotics.double_integral"))
        counter("asymptotics", "kernel_R",
                lambda args, out: self.count("asymptotics.kernel_R.points", np.size(out)))

        # cli
        span("cli", "main", "cli.main")
        span("cli", "_read_data", "cli.read_data")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def layer_values(self, n_units: int, per_pass: int, overhead_frac: float) -> dict:
        """Per-layer metric values over the traced units ``0 .. n_units - 1``.

        The units are grouped into passes of ``per_pass`` units; a trailing
        partial pass is left out.  Self times are the median over passes of
        each pass's self time; counters are those of the first pass.  Layers
        in SETUP_LAYERS report the set-up phase instead.
        """
        passes = [range(i, i + per_pass) for i in range(0, n_units - per_pass + 1, per_pass)]
        values = {}
        for name, _, _ in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if name == "trace.overhead_frac":
                values[name] = overhead_frac
            elif layer in SETUP_LAYERS:
                values[name] = (self.self_time[("setup", layer)] if stat == "self_s"
                                else self.counts[("setup", name)])
            elif stat == "self_s":
                values[name] = statistics.median(
                    sum(self.self_time[(u, layer)] for u in units) for units in passes)
            else:
                values[name] = sum(self.counts[(u, name)] for u in passes[0])
        return values

    def module_shares(self, units) -> dict:
        """Share of all traced self time spent in each package module."""
        per_module = defaultdict(float)
        for (unit, layer), seconds in self.self_time.items():
            if unit in units:
                per_module[layer.partition(".")[0]] += seconds
        total = sum(per_module.values()) or 1.0
        return {m: s / total for m, s in sorted(per_module.items(), key=lambda kv: -kv[1])}

    def write(self, path):
        """Write spans as JSON lines: id, name, parent id, unit, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, unit, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, unit, start, end]) + "\n")
