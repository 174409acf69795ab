"""The two scripts under ``tools/`` that measure a change: the source-line
count and the comparison of two report dumps.  Neither runs a study here."""

import importlib
import math
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))
    return importlib.import_module


def test_source_lines_count_code_only(tool):
    text = '''"""Module docstring
over two lines."""

# a comment line
import math


def f(x):
    """Function docstring."""
    y = (x +
         1)  # a statement over two lines
    return math.sqrt(y)
'''
    # import, def, the two lines of the assignment and return
    assert tool("sloc").source_lines(text) == 5


def _record(estimator, value, se=0.1, failures=0, flagged=False):
    return {"estimator": estimator, "metric": "MISE_qZ", "n": 30, "beta": 1.0,
            "value": value, "se": se, "failures": failures, "flagged": flagged}


def _dump(records, sigma2):
    return {"numpy": "x", "simd": "x", "recipes": {"r": records}, "sigma2": sigma2,
            "double_integral": {}, "rel_change": {}, "ad_test": {"g failed_refits": 0}}


def test_moves_lists_moved_values_and_changed_or_one_sided_records(tool):
    old = _dump([_record("a", 1.0), _record("b", 2.0), _record("c", math.nan)],
                {"qz 1.0": 0.5})
    new = _dump([_record("a", 1.5), _record("b", 2.0, failures=3), _record("c", 3.0),
                 _record("d", 4.0)], {"qz 1.0": 0.5, "qz 2.0": 0.7})
    moved, counts = tool("report_digest")._moves(old, new)
    key = "MISE_qZ n=30 beta=1.0"
    assert moved == [(f"r a {key} value", 1.0, 1.5)]
    assert counts == [f"r b {key}: failures 0 -> 3", f"r c {key}: value nan -> 3.0",
                      f"r d {key}: missing from the old dump",
                      "sigma2 qz 2.0: missing from the old dump"]
    moved, counts = tool("report_digest")._moves(new, old)
    assert f"r d {key}: missing from the new dump" in counts
    assert "sigma2 qz 2.0: missing from the new dump" in counts
