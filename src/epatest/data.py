"""CSV ingestion for forecast-evaluation datasets.

Survey-style forecast files mix numeric columns with missing-value markers
("#N/A", "NA", or empty cells) and a textual date column such as
"2007:Q2". Only those three markers mean missing: any other numeric cell
must parse as a finite number, so text such as "nan", "inf" or "1e400" is
an error naming its row and column. The loader pulls two forecast columns
and a realization column out of such a file, optionally restricts to a
date window (the YYYY:QQ format sorts correctly as plain strings), and
resolves missing data by one of two explicit policies before any
statistic is computed:

* ``drop``: keep only rows where both forecasts and the realization are
  all present (listwise deletion);
* ``zero``: keep every row and later treat any forecast error touching a
  missing value as exactly zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .series import loss_differential

__all__ = [
    "MISSING_MARKERS",
    "NA_POLICIES",
    "CsvParseError",
    "ForecastDataset",
    "load_csv",
    "forecast_errors",
    "loss_series",
]

MISSING_MARKERS = frozenset({"", "NA", "#N/A"})
NA_POLICIES = ("drop", "zero")


class CsvParseError(ValueError):
    """A cell could not be interpreted; carries 1-based file coordinates."""

    def __init__(self, row: int, column: str, message: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


@dataclass(frozen=True)
class ForecastDataset:
    """Aligned forecast and realization columns after policy resolution.

    Under the ``drop`` policy no NaN survives in any numeric column; under
    ``zero`` NaNs persist here and are turned into zero forecast errors by
    :func:`forecast_errors`.
    """

    f1: np.ndarray
    f2: np.ndarray
    realization: np.ndarray
    dates: tuple[str, ...] | None
    forecast_cols: tuple[str, str]
    realization_col: str
    na_policy: str

    @property
    def n_rows(self) -> int:
        return self.realization.size


def _parse_cell(raw: str, row: int, column: str) -> float:
    text = raw.strip()
    if text in MISSING_MARKERS:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(row, column, f"cannot parse {raw!r} as a number") from None
    if not math.isfinite(value):
        raise CsvParseError(
            row, column,
            f"{raw!r} is not a finite number (missing values are '', 'NA' or '#N/A')",
        )
    return value


def _check_columns(forecast_cols, realization_col, names=("forecast_cols", "realization_col")):
    """:func:`load_csv`'s column-name checks, naming the arguments by ``names``."""
    cols = () if isinstance(forecast_cols, str) else tuple(forecast_cols)
    if len(cols) != 2:
        raise ValueError(f"{names[0]} needs exactly two column names, got {forecast_cols!r}")
    if cols[0] == cols[1]:
        raise ValueError(f"{names[0]} names the column {cols[0]!r} twice")
    if realization_col in cols:
        raise ValueError(f"{names[1]} {realization_col!r} is also a forecast column")
    return cols


def load_csv(
    path,
    forecast_cols: tuple[str, str],
    realization_col: str,
    na_policy: str = "drop",
    date_col: str | None = None,
    date_range: tuple[str | None, str | None] | None = None,
) -> ForecastDataset:
    """Load two forecast columns and a realization column from a CSV file.

    Parameters
    ----------
    path : path-like
        CSV file with a header row, in UTF-8 (a leading byte-order mark is
        skipped).
    forecast_cols : (str, str)
        Column names of forecast 1 and forecast 2, in the order that
        defines the loss differential L(e1) - L(e2).
    realization_col : str
        Column name of the realized values.
    na_policy : str
        ``"drop"`` or ``"zero"``; see the module docstring.
    date_col : str, optional
        Textual date column used for filtering and carried through.
    date_range : (str or None, str or None), optional
        Inclusive lower/upper bounds compared lexicographically against the
        date column (requires ``date_col``). Either bound may be None.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    CsvParseError
        For a malformed row or a numeric cell that is neither a finite
        number nor a missing marker, naming the 1-based row and the column.
    ValueError
        For a ``forecast_cols`` that is not two different names or that
        holds ``realization_col`` (before the file is opened), a file that is
        not UTF-8 (naming its first bad line), a missing or repeated requested
        column, an unknown policy, or a date range without a date column.
    """
    if na_policy not in NA_POLICIES:
        raise ValueError(f"unknown na_policy {na_policy!r}; expected one of {NA_POLICIES}")
    if date_range is not None and date_col is None:
        raise ValueError("date_range requires date_col")
    f1_col, f2_col = _check_columns(forecast_cols, realization_col)
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the first column name.
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: not UTF-8 text (line {line})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: file is empty") from None
    columns = (f1_col, f2_col, realization_col) + (() if date_col is None else (date_col,))
    for name in columns:
        if name not in header:
            raise ValueError(f"{path}: column {name!r} not found; available: {', '.join(header)}")
        if header.count(name) > 1:
            raise ValueError(f"{path}: column {name!r} appears more than once in the header")
    i1, i2, ir, *i_date = map(header.index, columns)  # i_date: [] without a date column
    values: list[float] = []  # f1, f2, realization of each kept row in turn
    dates: list[str | None] = []
    lo, hi = date_range if date_range is not None else (None, None)
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvParseError(
                row_num, header[min(len(row), len(header) - 1)],
                f"expected {len(header)} fields, got {len(row)}",
            )
        date = row[i_date[0]].strip() if date_col is not None else None
        if (lo is not None and date < lo) or (hi is not None and date > hi):
            continue
        v1 = _parse_cell(row[i1], row_num, f1_col)
        v2 = _parse_cell(row[i2], row_num, f2_col)
        vr = _parse_cell(row[ir], row_num, realization_col)
        if na_policy == "drop" and (math.isnan(v1) or math.isnan(v2) or math.isnan(vr)):
            continue
        values += (v1, v2, vr)
        dates.append(date)
    f1, f2, realization = np.array(values, dtype=float).reshape(-1, 3).T.copy()
    return ForecastDataset(f1, f2, realization, tuple(dates) if date_col is not None else None,
                           (f1_col, f2_col), realization_col, na_policy)


def forecast_errors(ds: ForecastDataset) -> tuple[np.ndarray, np.ndarray]:
    """Forecast errors (realization minus forecast) under the dataset's policy.

    With the ``zero`` policy an error involving any missing value is set to
    exactly 0.0, which keeps the row in the sample while contributing no
    loss for that forecast.
    """
    errors = ds.realization - np.array((ds.f1, ds.f2))
    if ds.na_policy == "zero":
        errors[np.isnan(errors)] = 0.0
    return errors[0], errors[1]


def loss_series(ds: ForecastDataset, loss: str = "squared") -> np.ndarray:
    """Loss differential L(e1) - L(e2) of the dataset's two forecasts."""
    e1, e2 = forecast_errors(ds)
    return loss_differential(e1, e2, loss)
