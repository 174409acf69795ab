"""Command-line interface, exercised in process through main(argv)."""

import json
import warnings
from unittest import mock

import numpy as np
import pytest

from qcurves import (
    SimulationReport,
    SortedSample,
    closed_curve,
    fit_shape,
    plotting_position_qf,
    weibull_qf,
    WeibullParams,
)
from qcurves.curves import gauss_legendre_grid
from qcurves.cli import _FIT_METHODS, main
from qcurves.weibull import sample as weibull_sample

from tests.conftest import weib_sorted


@pytest.fixture
def data_file(tmp_path):
    def write(values, name="data.csv", text=None):
        path = tmp_path / name
        if text is None:
            text = "\n".join(format(v, ".17g") for v in values) + "\n"
        path.write_text(text)
        return str(path)
    return write


def parse_pairs(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_fit_matches_library(data_file, capsys):
    sample = weib_sorted(2.0, 50, 0)
    path = data_file(sample.values)
    assert main(["fit", "--data", path, "--method", "mml"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["method"] == "mml"
    assert pairs["n"] == "50"
    assert float(pairs["beta_hat"]) == fit_shape(sample, "mml").beta_hat


def test_fit_md_method(data_file, capsys):
    sample = weib_sorted(2.0, 40, 1)
    path = data_file(sample.values)
    assert main(["fit", "--data", path, "--method", "mde", "--curve", "qd"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["method"] == "mde"
    assert float(pairs["residual"]) >= 0.0


def test_fit_17_digit_round_trip(data_file, capsys):
    sample = weib_sorted(1.3, 30, 2)
    path = data_file(sample.values)
    main(["fit", "--data", path, "--method", "ml"])
    pairs = parse_pairs(capsys.readouterr().out)
    assert float(pairs["beta_hat"]) == fit_shape(sample, "ml").beta_hat


@pytest.mark.parametrize("method", _FIT_METHODS)
def test_fit_across_float_range_and_typed_failures(method, data_file, capsys):
    sample = weib_sorted(1.5, 80, 9)
    assert main(["fit", "--data", data_file(sample.values), "--method", method]) == 0
    base = float(parse_pairs(capsys.readouterr().out)["beta_hat"])
    for scale in (1e-300, 1e300):
        assert main(["fit", "--data", data_file(sample.values * scale),
                     "--method", method]) == 0
        beta = float(parse_pairs(capsys.readouterr().out)["beta_hat"])
        assert abs(beta - base) < 2e-8 * base, scale  # within the MD fits' tolerance
    # a sample no method can fit, and one spanning the whole float range:
    # a failure is a one-line error with exit code 3, never a traceback
    assert main(["fit", "--data", data_file([2.5] * 5), "--method", method]) == 3
    assert capsys.readouterr().err.startswith("error:")
    with np.errstate(all="ignore"):
        code = main(["fit", "--data", data_file([1e-300, 1.0, 2.0, 1e300]),
                     "--method", method])
    assert code in (0, 3)


@pytest.mark.parametrize("method", ("lm", "g1"))
def test_fit_near_float_max(method, data_file, capsys):
    data = np.array([1e308, 1.5e308, 1.7e308])
    assert main(["fit", "--data", data_file(data), "--method", method]) == 0
    beta = float(parse_pairs(capsys.readouterr().out)["beta_hat"])
    # a power-of-two rescaling is exact, so the fit must not move
    assert beta == fit_shape(SortedSample.from_data(data * 2.0**-1000), method).beta_hat


@pytest.mark.parametrize("method", _FIT_METHODS)
@pytest.mark.parametrize("values", ([1e-300, 1.0, 2.0, 1e300], [0.0, 1.0, 2.0, 3.0, 4.0]))
def test_fit_prints_no_numpy_warnings(method, values, data_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--data", data_file(values), "--method", method])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1


def test_curve_closed_form(capsys):
    assert main(["curve", "--beta", "2", "--kind", "qd", "--grid", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "p,value"
    assert len(lines) == 12
    p = np.array([float(line.split(",")[0]) for line in lines[1:]])
    vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(p, np.linspace(0.0, 1.0, 11))
    assert np.array_equal(vals, closed_curve(2.0, p, "qd"))
    from qcurves import curve_grid
    expect = curve_grid(weibull_qf(WeibullParams(2.0, 1.0)), "qd", 10).values
    assert np.allclose(vals, expect, rtol=0.0, atol=1e-12)


def test_curve_from_data_with_qf(data_file, capsys):
    sample = weib_sorted(2.0, 60, 3)
    path = data_file(sample.values)
    assert main(["curve", "--data", path, "--qf", "hf", "--grid", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    qf = plotting_position_qf(sample, "hf")
    from qcurves import curve_grid
    assert np.array_equal(vals, curve_grid(qf, "qz", 8).values)


def _closed_index(beta, kind):
    points, weights = gauss_legendre_grid()
    return float((weights * closed_curve(beta, points, kind)).sum())


def test_index_both_kinds_default(capsys):
    assert main(["index", "--beta", "2"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert float(pairs["qzi"]) == _closed_index(2.0, "qz")
    assert float(pairs["qdi"]) == _closed_index(2.0, "qd")


def test_index_at_a_huge_shape_matches_mpmath(capsys):
    # the quantile ratio q(u)/q(v) lies within about 1e-5 of 1 here, so a
    # curve of 1 minus that ratio loses five or more digits (qzi was off by
    # 5.6e-12 relative); the closed form keeps them
    mpmath = pytest.importorskip("mpmath")
    assert main(["index", "--beta", "1e6"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    points, weights = gauss_legendre_grid()
    with mpmath.workdps(40):
        for kind in ("qz", "qd"):
            total = 0
            for p, w in zip(points, weights):
                u = mpmath.mpf(p) / 2
                one_minus_v = (1 - mpmath.mpf(p)) / 2 if kind == "qz" else u
                ratio = mpmath.log1p(-u) / mpmath.log(one_minus_v)  # q(u)/q(v)
                total += mpmath.mpf(w) * (1 - ratio ** mpmath.mpf("1e-6"))
            assert float(pairs[kind + "i"]) == pytest.approx(float(total), rel=1e-15, abs=0)


def test_index_single_kind(data_file, capsys):
    sample = weib_sorted(1.5, 40, 4)
    path = data_file(sample.values)
    assert main(["index", "--data", path, "--kind", "qd"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert list(pairs) == ["qdi"]


def test_index_requires_a_source(capsys):
    assert main(["index"]) == 3
    assert "error:" in capsys.readouterr().err


def test_column_selection_and_header(data_file, capsys):
    text = "a,b\n1.0,10.0\n2.0,20.0\n3.0,\n"
    path = data_file(None, name="cols.csv", text=text)
    assert main(["fit", "--data", path, "--column", "a", "--method", "lm"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["n"] == "3"
    capsys.readouterr()
    assert main(["fit", "--data", path, "--column", "b", "--method", "lm"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["n"] == "2"
    # a leading empty cell is a missing value in its own column
    path = data_file(None, name="gap.csv", text="a,b\n1,2\n,3\n4,5\n")
    for column, expect in (("a", [1.0, 4.0]), ("b", [2.0, 3.0, 5.0])):
        capsys.readouterr()
        assert main(["fit", "--data", path, "--column", column, "--method", "lm"]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert pairs["n"] == str(len(expect))
        beta = fit_shape(SortedSample.from_data(expect), "lm").beta_hat
        assert float(pairs["beta_hat"]) == beta


@pytest.mark.parametrize("header,column", [("\ufeffx,y", "x"), ("größe,y", "größe"),
                                           ("\ufeffμ,y", "μ")],
                         ids=["byte-order-mark", "non-ascii", "both"])
def test_utf8_header_column_selection(header, column, tmp_path, capsys):
    path = tmp_path / "export.csv"
    path.write_bytes(f"{header}\n1.5,10\n2.5,20\n4.0,30\n".encode("utf-8"))
    assert main(["fit", "--data", str(path), "--column", column, "--method", "lm"]) == 0
    expect = fit_shape(SortedSample.from_data([1.5, 2.5, 4.0]), "lm").beta_hat
    assert float(parse_pairs(capsys.readouterr().out)["beta_hat"]) == expect


def test_multi_column_without_selection_fails(data_file, capsys):
    path = data_file(None, name="cols.csv", text="a,b\n1.0,10.0\n2.0,20.0\n")
    assert main(["fit", "--data", path]) == 3
    assert "--column" in capsys.readouterr().err


def test_missing_column_fails(data_file, capsys):
    path = data_file(None, name="cols.csv", text="a,b\n1.0,10.0\n")
    assert main(["fit", "--data", path, "--column", "zzz"]) == 3
    err = capsys.readouterr().err
    assert "zzz" in err


def test_missing_file_exit_3(capsys):
    assert main(["fit", "--data", "/nonexistent/file.csv"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "gof", "curve", "index"])
@pytest.mark.parametrize("content", [b"\xff\xfe\x00\x01\x80\n",
                                     b"1," + b"x" * 200_000 + b"\n"],
                         ids=["not-text", "csv-field-limit"])
def test_unreadable_data_file_exit_3(command, content, tmp_path, capsys):
    path = tmp_path / "bad.dat"
    path.write_bytes(content)
    assert main([command, "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert len(err.splitlines()) == 1


def test_non_numeric_data_exit_3(data_file, capsys):
    path = data_file(None, text="1.0\nbanana\n")
    assert main(["fit", "--data", path]) == 3


def test_unknown_method_exit_2(data_file, capsys):
    path = data_file([1.0, 2.0, 3.0])
    with pytest.raises(SystemExit) as info:
        main(["fit", "--data", path, "--method", "zzz"])
    assert info.value.code == 2


def test_unknown_estimator_exit_3(capsys):
    code = main(["simulate", "--betas", "1", "--sizes", "30", "--reps", "5",
                 "--estimators", "zzz"])
    assert code == 3
    assert "zzz" in capsys.readouterr().err


def test_simulate_repeated_betas_exit_3(capsys):
    code = main(["simulate", "--betas", "1,1", "--sizes", "30", "--reps", "5",
                 "--estimators", "ml"])
    assert code == 3
    assert "betas must not repeat a value" in capsys.readouterr().err


def test_simulate_overflowing_draws_exit_3(capsys):
    # at shape 0.001 a draw overflows to +inf once its uniform exceeds about 0.87
    code = main(["simulate", "--betas", "0.001", "--sizes", "30", "--reps", "20",
                 "--format", "csv"])
    assert code == 3
    assert capsys.readouterr() == ("", "error: Weibull draws overflow at shape 0.001 "
                                       "and scale 1.0\n")


@pytest.mark.parametrize("argv,lines", [
    (["index", "--beta", "0.001"], ["qzi = 0.99999999999999978", "qdi = 0.99965342651088185"]),
    (["index", "--beta", "1e-4"], ["qzi = 0.99999999999999978", "qdi = 0.99997890254097788"]),
    (["curve", "--beta", "1e-3", "--kind", "qd", "--grid", "4"],
     ["p,value", "0,1", "0.25,1", "0.5,1", "0.75,1", "1,0"]),
])
def test_tiny_shape_closed_forms_print_no_numpy_warnings(argv, lines, capsys):
    # the closed form, with no quantile: at these shapes the quantiles
    # overflow to +inf, and at 1e-4 a denominator quantile underflows to zero
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == lines and err == ""


def test_simulate_json_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["simulate", "--betas", "1,2", "--sizes", "30", "--reps", "20",
                 "--estimators", "ml,hf", "--seed", "5", "--format", "json",
                 "--output", str(out)])
    assert code == 0
    report = SimulationReport.from_json(out.read_text())
    assert report.betas == (1.0, 2.0)
    assert report.master_seed == 5
    assert capsys.readouterr().out == ""


def test_simulate_csv_stdout(capsys):
    code = main(["simulate", "--betas", "1", "--sizes", "30", "--reps", "10",
                 "--estimators", "ml", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "estimator,metric,n,beta,value,se,failures,replications"
    assert len(lines) > 1


def test_simulate_markdown_default(capsys):
    code = main(["simulate", "--betas", "1", "--sizes", "30", "--reps", "10",
                 "--estimators", "ml,mde"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MISE_qZ" in out and "|" in out


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_simulate_bad_scale_exit_3_before_the_study(scale, capsys):
    args = ["simulate", "--betas", "1", "--sizes", "30", "--reps", "5", "--estimators", "ml",
            f"--scale={scale}"]
    with mock.patch("qcurves.cli.run_simulation", side_effect=AssertionError):
        assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: scale must be finite and positive, "
                                       f"got {float(scale)!r}\n")
    # csv and json output do not use the scale
    assert main(args + ["--format", "csv"]) == 0


def test_asymvar(capsys):
    assert main(["asymvar", "--beta", "2", "--kind", "qz"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert float(pairs["sigma2"]) == pytest.approx(3.1760725677722137, rel=1e-10)
    assert pairs["kind"] == "qz"


def test_asymvar_picks_its_own_grid(capsys):
    # qZ 100 needs 256 panels; the grid is no option
    assert main(["asymvar", "--beta", "100"]) == 0
    assert float(parse_pairs(capsys.readouterr().out)["rel_change"]) <= 1e-6
    for option in ("--panels", "--nodes"):
        with pytest.raises(SystemExit) as info:
            main(["asymvar", "--beta", "2", option, "64"])
        assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["curve", "--beta", "1", "--grid", "1000000000000000"],
])
def test_huge_grids_exit_3_naming_the_limit(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at most" in err
    assert "Traceback" not in err


def test_gof(data_file, capsys):
    sample = weib_sorted(2.0, 40, 6)
    path = data_file(sample.values)
    code = main(["gof", "--data", path, "--reps", "49", "--seed", "3"])
    assert code == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["bootstrap_reps"] == "49"
    assert 0.0 <= float(pairs["p_value"]) <= 1.0
    from qcurves import ad_test
    expect = ad_test(sample, bootstrap_reps=49, seed=3, method="ml")
    assert float(pairs["statistic"]) == expect.statistic
    assert float(pairs["p_value"]) == expect.p_value
    assert pairs["failed_refits"] == "0"


def test_gof_counts_failed_refits(data_file, capsys):
    # fitted shape about 0.012: some resamples underflow to 0, which ml cannot refit
    x = weibull_sample(WeibullParams(0.01, 1.0), 20, np.random.default_rng(3))
    code = main(["gof", "--data", data_file(x), "--reps", "99", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    pairs = parse_pairs(out)
    assert int(pairs["failed_refits"]) > 0
    assert 0.0 <= float(pairs["p_value"]) <= 1.0


def test_gof_all_refits_failing_exit_3(data_file, capsys):
    x = weibull_sample(WeibullParams(0.005, 1.0), 20, np.random.default_rng(3))
    code = main(["gof", "--data", data_file(x), "--reps", "1", "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: no bootstrap refit succeeded") and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "gof"])
def test_negative_seed_exit_3(command, data_file, capsys):
    extra = ["--reps", "5"] if command == "simulate" else ["--data", data_file([1, 2, 3, 4.0])]
    assert main([command, *extra, "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err


def test_whitespace_separated_file(data_file, capsys):
    path = data_file(None, text="1.0 2.0 3.0\n4.0 5.0\n")
    assert main(["fit", "--data", path, "--method", "lm"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["n"] == "5"
