"""Command-line interface, exercised in process through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from qcurves import (
    SimulationReport,
    SortedSample,
    closed_curve,
    curve_index,
    fit_shape,
    plotting_position_qf,
    weibull_qf,
    WeibullParams,
)
from qcurves._gauss_legendre import MAX_NODES
from qcurves.cli import _FIT_METHODS, main

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
    from qcurves import curve_grid
    expect = curve_grid(weibull_qf(WeibullParams(2.0, 1.0)), "qd", 10).values
    assert np.array_equal(vals, expect)
    assert np.allclose(vals, closed_curve(2.0, p, "qd"), atol=1e-12)


def test_curve_from_data_with_qf(data_file, capsys):
    sample = weib_sorted(2.0, 60, 3)
    path = data_file(sample.values)
    assert main(["curve", "--data", path, "--qf", "hf", "--grid", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    qf = plotting_position_qf(sample, "hf")
    from qcurves import curve_grid
    assert np.array_equal(vals, curve_grid(qf, "qz", 8).values)


def test_index_both_kinds_default(capsys):
    assert main(["index", "--beta", "2"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    qf = weibull_qf(WeibullParams(2.0, 1.0))
    assert float(pairs["qzi"]) == curve_index(qf, "qz")
    assert float(pairs["qdi"]) == curve_index(qf, "qd")


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


def test_asymvar(capsys):
    assert main(["asymvar", "--beta", "2", "--kind", "qz"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert float(pairs["sigma2"]) == pytest.approx(3.1760725677722137, rel=1e-10)
    assert pairs["kind"] == "qz"


def test_asymvar_nodes_above_table_exit_3(capsys):
    assert main(["asymvar", "--beta", "2", "--nodes", str(MAX_NODES + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
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


def test_whitespace_separated_file(data_file, capsys):
    path = data_file(None, text="1.0 2.0 3.0\n4.0 5.0\n")
    assert main(["fit", "--data", path, "--method", "lm"]) == 0
    pairs = parse_pairs(capsys.readouterr().out)
    assert pairs["n"] == "5"
