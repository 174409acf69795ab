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
sigma^2, double integral A and A's relative change under panel doubling at
shapes 0.5/1/2/3 on both curve kinds, the points whose sigma^2
``perfbench/gates.py`` holds as goldens; a change to the quadrature kernel
shows in A before it shows in sigma^2.  Last it prints the bootstrap
``ad_test`` of each guinea-pig group (999 replicates, seed 1, ``ml``):
``repr`` of its statistic, p-value and failed refits, so a change to the
seeded streams shows in the bootstrap as well as in the studies.  The
package is imported from the Python path, so one copy of this script
digests any checkout:

    PYTHONPATH=src python tools/report_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/report_digest.py

``--dump FILE`` also writes each recipe's report records, the variance
values and the ``ad_test`` entries to FILE as JSON.  ``--compare OLD NEW``
runs nothing: it reads two such dumps and prints how many record values
(or standard errors), variance values and ``ad_test`` entries moved, each
moved variance value as old -> new, the largest absolute and relative
moves, and every record whose failure count, flag or NaN pattern differs or
that only one dump holds:

    PYTHONPATH=src python tools/report_digest.py --dump new.json
    PYTHONPATH=src python tools/report_digest.py --compare old.json new.json
"""

import argparse
import hashlib
import json
import math

import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

import qcurves
from qcurves import (SimulationConfig, ad_test, load_guinea_pigs, md_asymptotic_variance,
                     render_tables, run_simulation)
from qcurves.simulation import ESTIMATOR_ORDER

RECIPES = {
    "all-300": SimulationConfig(betas=(0.5, 1, 2, 3), sizes=(2, 30, 100), replications=300,
                                estimators=ESTIMATOR_ORDER, master_seed=7),
    "default-537": SimulationConfig(replications=537),
}
SIGMA2_POINTS = [(kind, beta) for kind in ("qz", "qd") for beta in (0.5, 1.0, 2.0, 3.0)]
VARIANCE_FIELDS = ("sigma2", "double_integral", "rel_change")
AD_TEST = {"bootstrap_reps": 999, "seed": 1, "method": "ml"}
AD_FIELDS = ("statistic", "p_value", "failed_refits")


def simd_target() -> str:
    """NumPy's baseline and the dispatch targets this host runs, e.g.
    ``X86_V2 + X86_V3/X86_V4/AVX512_ICL/AVX512_SPR``."""
    found = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"{'/'.join(__cpu_baseline__)} + {'/'.join(found) or 'none'}"


def digest(dump_path=None):
    """Print the digests, variance values and ``ad_test`` entries; with
    ``dump_path``, write the records and those values there."""
    print(f"qcurves {qcurves.__version__} from {qcurves.__file__}")
    print(f"numpy {np.__version__}, SIMD {simd_target()}")
    dump = {"numpy": np.__version__, "simd": simd_target(), "recipes": {}, "ad_test": {},
            **{field: {} for field in VARIANCE_FIELDS}}
    for name, config in RECIPES.items():
        report = run_simulation(config)
        for label, text in (("to_json", report.to_json()), ("to_csv", report.to_csv()),
                            ("render_tables", render_tables(report))):
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{name:<12} {label:<14} {digest}")
        dump["recipes"][name] = json.loads(report.to_json())["records"]
    for kind, beta in SIGMA2_POINTS:
        result = md_asymptotic_variance(beta, kind)
        for field in VARIANCE_FIELDS:
            value = getattr(result, field)
            print(f"{field} {kind} {beta:<5} {value!r}")
            dump[field][f"{kind} {beta}"] = value
    for group, data in load_guinea_pigs().items():
        result = ad_test(data, **AD_TEST)
        for field in AD_FIELDS:
            value = getattr(result, field)
            print(f"ad_test {group:<8} {field:<13} {value!r}")
            dump["ad_test"][f"{group} {field}"] = value
    if dump_path:
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=1)


def _record_key(record) -> str:
    return f"{record['estimator']} {record['metric']} n={record['n']} beta={record['beta']}"


def _moves(old: dict, new: dict):
    """(label, old value, new value) of every number that differs between
    two dumps: record values and standard errors, then the variance values
    and the ``ad_test`` entries; and the lines for records whose failures, flag or
    NaN pattern differ, and for records or points that only one dump holds."""
    moved, counts = [], []
    for recipe in {**old["recipes"], **new["recipes"]}:
        old_records, new_records = ({_record_key(r): r for r in dump["recipes"].get(recipe, [])}
                                    for dump in (old, new))
        for key in {**old_records, **new_records}:
            record, other = old_records.get(key), new_records.get(key)
            if record is None or other is None:
                side = "old" if record is None else "new"
                counts.append(f"{recipe} {key}: missing from the {side} dump")
                continue
            for field in ("failures", "flagged"):
                if record[field] != other[field]:
                    counts.append(f"{recipe} {key}: {field} {record[field]} -> {other[field]}")
            for field in ("value", "se"):
                a, b = record[field], other[field]
                if math.isnan(a) != math.isnan(b):
                    counts.append(f"{recipe} {key}: {field} {a} -> {b}")
                elif a != b and not math.isnan(a):
                    moved.append((f"{recipe} {key} {field}", a, b))
    for section in (*VARIANCE_FIELDS, "ad_test"):
        old_points, new_points = old.get(section, {}), new.get(section, {})
        for point in {**old_points, **new_points}:
            a, b = old_points.get(point), new_points.get(point)
            if a is None or b is None:
                side = "old" if a is None else "new"
                counts.append(f"{section} {point}: missing from the {side} dump")
            elif point.endswith("failed_refits") and b != a:
                counts.append(f"{section} {point}: {a} -> {b}")
            elif b != a:
                moved.append((f"{section} {point}", a, b))
    return moved, counts


def _relative(a, b) -> float:
    return abs(b - a) / abs(a) if a else math.inf


def compare(old_path, new_path):
    """Print what moved between two dumps."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    for side, dump in (("old", old), ("new", new)):
        print(f"{side}: numpy {dump['numpy']}, SIMD {dump['simd']}")
    moved, counts = _moves(old, new)
    total = sum(len(records) for records in old["recipes"].values())
    variance = ", ".join(f"{len(old.get(field, {}))} {field}" for field in VARIANCE_FIELDS)
    print(f"{len(moved)} values moved ({total} records with a value and an se each, "
          f"{variance} values and {len(old.get('ad_test', {}))} ad_test entries)")
    by_estimator = {}
    for label, _, _ in moved:
        # recipe and estimator, variance field and kind, or "ad_test" and group
        name = " ".join(label.split()[:2])
        by_estimator[name] = by_estimator.get(name, 0) + 1
    for name, count in sorted(by_estimator.items()):
        print(f"  {name}: {count}")
    for label, a, b in moved:
        if label.split()[0] in VARIANCE_FIELDS:
            print(f"{label}: {a!r} -> {b!r} (rel {_relative(a, b):.3g})")
    if moved:
        absolute = max(moved, key=lambda m: abs(m[2] - m[1]))
        relative = max(moved, key=lambda m: _relative(m[1], m[2]))
        for what, (label, a, b) in (("absolute", absolute), ("relative", relative)):
            print(f"largest {what} move: {label}: {a!r} -> {b!r} "
                  f"(abs {abs(b - a):.3g}, rel {_relative(a, b):.3g})")
    print(f"{len(counts)} records with a different failure count, flag or NaN pattern")
    for line in counts:
        print(f"  {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="FILE", help="also write the records as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of running the recipes")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        digest(args.dump)


if __name__ == "__main__":
    main()
