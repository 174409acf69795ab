"""Bundled example data and the reader of numeric text columns.

The guinea pig survival data come from a tuberculosis study (Bjerkedal,
1960): survival times in days for a control group of 64 animals and for 60
animals injected with virulent tubercle bacilli, in the paired listing used
by Doksum (1974).
"""

from __future__ import annotations

import csv
from importlib.resources import as_file, files

import numpy as np

from .errors import DomainError

__all__ = ["load_guinea_pigs"]


def _read_data(path: str, column: str | None) -> np.ndarray:
    """Numeric column(s) from a text file; comma or whitespace separated."""
    try:
        # utf-8-sig also reads the byte-order mark of spreadsheet exports
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"cannot read {path} as text: {exc}") from None
    rows = []
    for row in raw:
        # an empty cell keeps its place as a missing value; trailing ones go
        cells = [token for cell in row for token in cell.split() or [""]]
        while cells and not cells[-1]:
            cells.pop()
        if cells:
            rows.append(cells)
    if not rows:
        raise DomainError(f"no data found in {path}")
    try:
        [float(c) for c in rows[0] if c]
        has_header = False
    except ValueError:
        has_header = True
    if column is not None:
        if not has_header:
            raise DomainError("--column requires a file with a header row")
        try:
            idx = rows[0].index(column)
        except ValueError:
            raise DomainError(
                f"column {column!r} not found; file has {', '.join(rows[0])}") from None
        values = [row[idx] for row in rows[1:] if idx < len(row) and row[idx].strip()]
    else:
        body = rows[1:] if has_header else rows
        if has_header and len(rows[0]) > 1:
            raise DomainError(
                f"file has columns {', '.join(rows[0])}; pick one with --column")
        values = [cell for row in body for cell in row if cell.strip()]
    try:
        return np.array([float(v) for v in values])
    except ValueError as exc:
        raise DomainError(f"non-numeric value in {path}: {exc}") from None


def load_guinea_pigs() -> dict:
    """Survival times in days: {'control': 64 values, 'treated': 60 values}."""
    with as_file(files("qcurves").joinpath("data/guinea_pigs.csv")) as path:
        return {name: _read_data(str(path), name) for name in ("control", "treated")}
