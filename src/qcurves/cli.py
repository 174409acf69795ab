"""Command-line interface.

Subcommands: fit, curve, index, simulate, asymvar, gof.  Numeric scalars are
printed with 17 significant digits; tabular output is RFC-4180 CSV.  Exit
codes: 0 success, 2 argument errors, 3 data or estimation failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .asymptotics import md_asymptotic_variance
from .curves import CurveKind, CurveSamples, _grid_index, _unit_grid, curve_value
from .datasets import _read_data
from .empirical_qf import SortedSample, empirical_qf, plotting_position_qf
from .errors import DomainError, QcurvesError
from .gof import ad_test
from .md_estimation import _MD_METHODS, MdConfig, md_fit
from .shape_estimators import SHAPE_METHODS, fit_shape
from .simulation import (
    ESTIMATOR_ORDER,
    SimulationConfig,
    render_tables,
    run_simulation,
)
from .weibull import _check_positive, closed_curve

_FIT_METHODS = tuple(SHAPE_METHODS) + tuple(_MD_METHODS)
_KINDS = [kind.value for kind in CurveKind]


def _emit(stream, pairs):
    for key, value in pairs:
        if isinstance(value, float):
            stream.write(f"{key} = {value:.17g}\n")
        else:
            stream.write(f"{key} = {value}\n")


def _data_qf(data: np.ndarray, qf_name: str):
    sample = SortedSample.from_data(data)
    if qf_name == "step":
        return empirical_qf(sample)
    return plotting_position_qf(sample, qf_name)


def _cmd_fit(args) -> int:
    data = _read_data(args.data, args.column)
    sample = SortedSample.from_data(data)
    if args.method in _MD_METHODS:
        config = MdConfig(curve=args.curve, reference=_MD_METHODS[args.method])
        result = md_fit(sample, config)
    else:
        result = fit_shape(sample, args.method)
    pairs = [("method", result.method), ("n", sample.n),
             ("beta_hat", result.beta_hat), ("iterations", result.iterations),
             ("residual", result.residual)]
    if result.start is not None:
        pairs.append(("start", result.start))
    _emit(sys.stdout, pairs)
    return 0


def _source_curve(args):
    """The curve of ``curve``/``index`` as a function of (kind, p): the
    closed form at ``--beta``, else the curve of the ``--data`` sample's
    quantile function."""
    if args.beta is not None:
        beta = _check_positive(args.beta)
        return lambda kind, p: closed_curve(beta, p, kind)
    if args.data is None:
        raise DomainError("provide either --beta or --data")
    qf = _data_qf(_read_data(args.data, args.column), args.qf)
    return lambda kind, p: curve_value(qf, kind, p)


def _cmd_curve(args) -> int:
    curve = _source_curve(args)
    p = _unit_grid(args.grid)
    sys.stdout.write(CurveSamples(p, curve(args.kind, p), args.kind).to_csv())
    return 0


def _cmd_index(args) -> int:
    curve = _source_curve(args)
    kinds = [CurveKind(args.kind)] if args.kind else list(CurveKind)
    _emit(sys.stdout, [(kind.value + "i", _grid_index(lambda p: curve(kind, p)))
                       for kind in kinds])
    return 0


def _parse_list(text: str, kind):
    try:
        return tuple(kind(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise DomainError(f"could not parse list {text!r}") from None


def _cmd_simulate(args) -> int:
    if args.format == "markdown":  # before the study runs
        _check_positive(args.scale, "scale")
    config = SimulationConfig(
        betas=_parse_list(args.betas, float),
        sizes=_parse_list(args.sizes, int),
        replications=args.reps,
        estimators=_parse_list(args.estimators, str),
        master_seed=args.seed,
        workers=args.workers,
    )
    report = run_simulation(config)
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = render_tables(report, scale=args.scale)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_asymvar(args) -> int:
    result = md_asymptotic_variance(args.beta, args.kind)
    _emit(sys.stdout, [
        ("beta", result.beta), ("kind", result.kind.value),
        ("sigma2", result.sigma2),
        ("double_integral", result.double_integral),
        ("eta_squared_integral", result.eta_squared_integral),
        ("rel_change", result.rel_change),
    ])
    return 0


def _cmd_gof(args) -> int:
    data = _read_data(args.data, args.column)
    sample = SortedSample.from_data(data)
    result = ad_test(sample, bootstrap_reps=args.reps, seed=args.seed,
                     method=args.method)
    _emit(sys.stdout, [
        ("method", result.method), ("n", sample.n),
        ("statistic", result.statistic), ("p_value", result.p_value),
        ("beta_hat", result.beta_hat), ("sigma_hat", result.sigma_hat),
        ("bootstrap_reps", result.bootstrap_reps),
        ("failed_refits", result.failed_refits), ("seed", result.seed),
    ])
    return 0


def _add_data_args(parser, required=True):
    parser.add_argument("--data", required=required, help="path to a numeric data file")
    parser.add_argument("--column", default=None,
                        help="column name when the file has a header")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurves",
        description="Quantile-based concentration curves and Weibull shape estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the Weibull shape to data")
    _add_data_args(p)
    p.add_argument("--method", default="ml", choices=sorted(_FIT_METHODS))
    p.add_argument("--curve", default="qz", choices=_KINDS,
                   help="curve matched by the minimum-distance methods")
    p.set_defaults(func=_cmd_fit)

    for name, helptext in (("curve", "tabulate a concentration curve"),
                           ("index", "compute concentration indices")):
        p = sub.add_parser(name, help=helptext)
        _add_data_args(p, required=False)
        p.add_argument("--beta", type=float, default=None,
                       help="evaluate the closed-form Weibull curve at this shape")
        p.add_argument("--qf", default="step", choices=["step", "hf", "wg"],
                       help="quantile function used for --data input")
        if name == "curve":
            p.add_argument("--kind", default="qz", choices=_KINDS)
            p.add_argument("--grid", type=int, default=200,
                           help="number of equal subdivisions of [0, 1]")
            p.set_defaults(func=_cmd_curve)
        else:
            p.add_argument("--kind", default=None, choices=_KINDS,
                           help="one index only (default: both)")
            p.set_defaults(func=_cmd_index)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--betas", default="0.5,1,2,3")
    p.add_argument("--sizes", default="30,100")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--estimators", default="hf,mde,mdhf,ml,mml,bcml",
                   help=f"subset of: {','.join(ESTIMATOR_ORDER)}")
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])
    p.add_argument("--scale", type=float, default=1000.0,
                   help="multiplier applied to table values (markdown format)")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("asymvar", help="asymptotic variance of the minimum-distance shape")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kind", default="qz", choices=_KINDS)
    p.set_defaults(func=_cmd_asymvar)

    p = sub.add_parser("gof", help="Anderson-Darling Weibull test with bootstrap p-value")
    _add_data_args(p)
    p.add_argument("--reps", type=int, default=999, help="bootstrap replicates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="ml", choices=sorted(SHAPE_METHODS))
    p.set_defaults(func=_cmd_gof)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QcurvesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
