import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epatest.data import (
    MISSING_MARKERS,
    NA_POLICIES,
    CsvParseError,
    ForecastDataset,
    forecast_errors,
    load_csv,
    loss_series,
)
from reference import naive_load_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """date,f1,f2,y
2000:01,1.0,2.0,1.5
2000:02,2.0,1.0,1.5
2000:03,0.0,1.0,2.0
2000:04,3.0,2.0,2.5
"""

WITH_MISSING = """date,f1,f2,y
2000:01,1.0,2.0,1.5
2000:02,NA,1.0,1.5
2000:03,0.0,#N/A,2.0
2000:04,3.0,2.0,
2001:01,1.0,1.0,1.0
"""


class TestLoadCsv:
    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="file is empty$"):
            load_csv(path, ("f1", "f2"), "y")

    def test_blank_row_is_skipped(self, tmp_path):
        lines = BASIC.splitlines(keepends=True)
        ds = load_csv(write(tmp_path, "".join(lines[:3] + ["\n"] + lines[3:])), ("f1", "f2"), "y")
        plain = load_csv(write(tmp_path, BASIC, "plain.csv"), ("f1", "f2"), "y")
        assert ds.n_rows == 4
        np.testing.assert_array_equal(ds.f1, plain.f1)
        np.testing.assert_array_equal(ds.realization, plain.realization)

    def test_basic_columns(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y")
        assert ds.n_rows == 4
        np.testing.assert_allclose(ds.f1, [1.0, 2.0, 0.0, 3.0])
        np.testing.assert_allclose(ds.f2, [2.0, 1.0, 1.0, 2.0])
        np.testing.assert_allclose(ds.realization, [1.5, 1.5, 2.0, 2.5])
        assert ds.dates is None
        assert ds.forecast_cols == ("f1", "f2")
        assert ds.realization_col == "y"

    def test_drop_policy_is_listwise(self, tmp_path):
        ds = load_csv(write(tmp_path, WITH_MISSING), ("f1", "f2"), "y", na_policy="drop")
        assert ds.n_rows == 2
        np.testing.assert_allclose(ds.f1, [1.0, 1.0])
        assert not np.isnan(ds.f1).any()

    def test_zero_policy_keeps_rows(self, tmp_path):
        ds = load_csv(write(tmp_path, WITH_MISSING), ("f1", "f2"), "y", na_policy="zero")
        assert ds.n_rows == 5
        assert np.isnan(ds.f1[1])
        assert np.isnan(ds.f2[2])
        assert np.isnan(ds.realization[3])

    def test_all_markers_recognized(self, tmp_path):
        assert MISSING_MARKERS == {"", "NA", "#N/A"}
        text = "f1,f2,y\nNA,1.0,1.0\n#N/A,1.0,1.0\n,1.0,1.0\n2.0,1.0,1.0\n"
        ds = load_csv(write(tmp_path, text), ("f1", "f2"), "y", na_policy="zero")
        assert np.isnan(ds.f1[:3]).all()
        assert ds.f1[3] == 2.0

    def test_unparseable_cell_coordinates(self, tmp_path):
        text = "f1,f2,y\n1.0,2.0,1.5\n1.0,oops,1.5\n"
        with pytest.raises(CsvParseError) as exc:
            load_csv(write(tmp_path, text), ("f1", "f2"), "y")
        assert exc.value.row == 3
        assert exc.value.column == "f2"
        assert "row 3" in str(exc.value) and "'f2'" in str(exc.value)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("policy", NA_POLICIES)
    def test_non_finite_cell_is_an_error(self, tmp_path, text, policy):
        csv_text = f"f1,f2,y\n1.0,2.0,1.5\n1.0,{text},1.5\n"
        with pytest.raises(CsvParseError) as exc:
            load_csv(write(tmp_path, csv_text), ("f1", "f2"), "y", na_policy=policy)
        assert (exc.value.row, exc.value.column) == (3, "f2")
        assert f"{text!r} is not a finite number" in str(exc.value)

    def test_cells_are_parsed_in_column_order(self, tmp_path):
        # forecast 1, forecast 2, then the realization, whatever the file order
        text = "y,f2,f1\noops,inf,bad\n"
        with pytest.raises(CsvParseError) as exc:
            load_csv(write(tmp_path, text), ("f1", "f2"), "y")
        assert exc.value.column == "f1"
        with pytest.raises(CsvParseError) as exc:
            load_csv(write(tmp_path, "y,f2,f1\noops,inf,1\n"), ("f1", "f2"), "y")
        assert exc.value.column == "f2"

    def test_ragged_row(self, tmp_path):
        text = "f1,f2,y\n1.0,2.0,1.5\n1.0,2.0\n"
        with pytest.raises(CsvParseError) as exc:
            load_csv(write(tmp_path, text), ("f1", "f2"), "y")
        assert exc.value.row == 3

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # A UTF-8 spreadsheet export starts with a byte-order mark, which used
        # to stay on the first column name ("column 'date' not found").
        plain = write(tmp_path, BASIC)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want = load_csv(plain, ("f1", "f2"), "y", date_col="date")
        got = load_csv(marked, ("f1", "f2"), "y", date_col="date")
        assert got.dates == want.dates
        for name in ("f1", "f2", "realization"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="column 'z' not found"):
            load_csv(write(tmp_path, BASIC), ("f1", "z"), "y")

    @pytest.mark.parametrize("header, name",
                             [("d,y,f,f,g", "f"), ("d,f,g,y,y", "y"), ("d,f,g,y,d", "d")])
    def test_repeated_requested_column(self, tmp_path, header, name):
        # Refused from the header alone, before the malformed row below is read.
        path = write(tmp_path, f"{header}\nnot a number\n")
        with pytest.raises(ValueError, match=f"column '{name}' appears more than once"):
            load_csv(path, ("f", "g"), "y", date_col="d")

    def test_same_forecast_column_twice_is_refused_before_opening(self, tmp_path):
        # The path does not exist, so only a check made before opening it can run.
        with pytest.raises(ValueError, match="^forecast_cols names the column 'f1' twice$"):
            load_csv(tmp_path / "nope.csv", ("f1", "f1"), "y")

    @pytest.mark.parametrize("cols", [("y", "f2"), ("f1", "y")])
    def test_realization_among_the_forecasts_is_refused_before_opening(self, tmp_path, cols):
        with pytest.raises(ValueError, match="^realization_col 'y' is also a forecast column$"):
            load_csv(tmp_path / "nope.csv", cols, "y")

    @pytest.mark.parametrize("cols", ["f1", "AB", ("f1",), ("f1", "f2", "y"), ()])
    def test_forecast_cols_not_two_names_is_refused_before_opening(self, tmp_path, cols):
        # A bare string used to be read as its characters: "AB" as columns A and B.
        with pytest.raises(ValueError) as exc:
            load_csv(tmp_path / "nope.csv", cols, "y")
        assert str(exc.value) == f"forecast_cols needs exactly two column names, got {cols!r}"

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_file_is_named(self, tmp_path, mark):
        # A Latin-1 date cell on line 4: the error names the file and the line,
        # not a position inside a decoding chunk.
        path = tmp_path / "latin.csv"
        path.write_bytes(mark + BASIC.replace("2000:03", "2000:03 \xe9t\xe9").encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            load_csv(path, ("f1", "f2"), "y", date_col="date")
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{path}: not UTF-8 text (line 4)"

    def test_repeated_column_not_requested_is_allowed(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,f1,x,f2,y\n9,1.0,8,2.0,1.5\n"), ("f1", "f2"), "y")
        np.testing.assert_array_equal(ds.f2, [2.0])

    def test_unknown_policy(self, tmp_path):
        with pytest.raises(ValueError, match="na_policy"):
            load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y", na_policy="impute")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ("f1", "f2"), "y")

    def test_date_filter_inclusive(self, tmp_path):
        ds = load_csv(
            write(tmp_path, BASIC), ("f1", "f2"), "y",
            date_col="date", date_range=("2000:02", "2000:04"),
        )
        assert ds.dates == ("2000:02", "2000:03", "2000:04")

    def test_date_filter_open_bounds(self, tmp_path):
        path = write(tmp_path, BASIC)
        lo = load_csv(path, ("f1", "f2"), "y", date_col="date", date_range=("2000:03", None))
        hi = load_csv(path, ("f1", "f2"), "y", date_col="date", date_range=(None, "2000:02"))
        assert lo.dates == ("2000:03", "2000:04")
        assert hi.dates == ("2000:01", "2000:02")

    def test_date_filter_is_lexicographic_on_padded_quarters(self, tmp_path):
        # zero-padded YYYY:QQ strings order the same as calendar time
        text = "date,f1,f2,y\n1999:04,1,1,1\n2000:01,1,1,1\n2000:04,1,1,1\n2001:01,1,1,1\n"
        ds = load_csv(
            write(tmp_path, text), ("f1", "f2"), "y",
            date_col="date", date_range=("2000:01", "2000:04"),
        )
        assert ds.dates == ("2000:01", "2000:04")

    def test_empty_named_date_column(self, tmp_path):
        # pandas' to_csv writes its index column under an empty name.
        path = write(tmp_path, BASIC.replace("date,", ",", 1))
        ds = load_csv(path, ("f1", "f2"), "y", date_col="", date_range=("2000:02", None))
        assert ds.dates == ("2000:02", "2000:03", "2000:04")
        np.testing.assert_array_equal(ds.f1, [2.0, 0.0, 3.0])
        assert load_csv(path, ("f1", "f2"), "y", date_col="").dates[0] == "2000:01"

    def test_empty_date_column_name_not_in_header(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y", date_col="")
        assert str(exc.value).endswith("column '' not found; available: date, f1, f2, y")

    def test_date_range_requires_date_col(self, tmp_path):
        with pytest.raises(ValueError, match="requires date_col"):
            load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y", date_range=("a", "b"))

    def test_filter_then_drop_equals_drop_then_filter(self, tmp_path):
        path = write(tmp_path, WITH_MISSING)
        both = load_csv(
            path, ("f1", "f2"), "y", na_policy="drop",
            date_col="date", date_range=("2000:01", "2000:04"),
        )
        # the only complete rows in-window is the first one
        assert both.dates == ("2000:01",)

    def test_policies_registry(self):
        assert NA_POLICIES == ("drop", "zero")


QUARTERS = [f"{year}:{quarter:02d}" for year in (1999, 2000) for quarter in range(1, 5)]
NUMBER_CELL = st.tuples(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.sampled_from(sorted(MISSING_MARKERS))),
    st.booleans(),
).map(lambda cell: f" {cell[0]} " if cell[1] else cell[0])


@st.composite
def valid_files(draw):
    """A valid file's text and the load_csv arguments that read it."""
    date_col = draw(st.sampled_from([None, "", "date"]))
    names = ["f1", "f2", "y"] + draw(st.sampled_from([[], ["extra"]]))
    names = draw(st.permutations(names + ([] if date_col is None else [date_col])))
    cells = [st.sampled_from(QUARTERS) if name == date_col
             else st.sampled_from(["", "x", "1"]) if name == "extra" else NUMBER_CELL
             for name in names]
    rows = draw(st.lists(st.one_of(st.none(), st.tuples(*cells)), max_size=12))
    text = "".join(",".join(row) + "\n" if row else "\n" for row in [names, *rows])
    bounds = st.sampled_from([None, *QUARTERS])
    date_range = None if date_col is None else (draw(bounds), draw(bounds))
    kwargs = dict(na_policy=draw(st.sampled_from(NA_POLICIES)), date_col=date_col,
                  date_range=date_range)
    return text, kwargs


@settings(max_examples=150)
@given(drawn=valid_files())
def test_load_csv_matches_the_naive_loader(tmp_path_factory, drawn):
    text, kwargs = drawn
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text)
    got = load_csv(path, ("f1", "f2"), "y", **kwargs)
    *want, want_dates = naive_load_csv(path, ("f1", "f2"), "y", **kwargs)
    for column, expected in zip((got.f1, got.f2, got.realization), want):
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()
    assert got.dates == want_dates


class TestForecastErrors:
    def test_plain_errors(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y")
        e1, e2 = forecast_errors(ds)
        np.testing.assert_allclose(e1, [0.5, -0.5, 2.0, -0.5])
        np.testing.assert_allclose(e2, [-0.5, 0.5, 1.0, 0.5])

    def test_zero_policy_zeroes_errors_not_values(self, tmp_path):
        ds = load_csv(write(tmp_path, WITH_MISSING), ("f1", "f2"), "y", na_policy="zero")
        e1, e2 = forecast_errors(ds)
        assert e1[1] == 0.0  # f1 missing
        assert e2[2] == 0.0  # f2 missing
        assert e1[3] == 0.0 and e2[3] == 0.0  # realization missing hits both
        assert not np.isnan(e1).any() and not np.isnan(e2).any()

    def test_manual_dataset(self):
        ds = ForecastDataset(
            f1=np.array([1.0, np.nan]),
            f2=np.array([0.0, 0.0]),
            realization=np.array([2.0, 2.0]),
            dates=None,
            forecast_cols=("a", "b"),
            realization_col="y",
            na_policy="zero",
        )
        e1, e2 = forecast_errors(ds)
        np.testing.assert_allclose(e1, [1.0, 0.0])
        np.testing.assert_allclose(e2, [2.0, 2.0])


class TestLossSeries:
    def test_squared(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y")
        d = loss_series(ds)
        e1, e2 = forecast_errors(ds)
        np.testing.assert_allclose(d, e1**2 - e2**2)

    def test_absolute(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), ("f1", "f2"), "y")
        d = loss_series(ds, "absolute")
        e1, e2 = forecast_errors(ds)
        np.testing.assert_allclose(d, np.abs(e1) - np.abs(e2))


class TestRealDataset:
    """Checks against the external survey-forecast file when present."""

    def test_initial_release_window_drops_to_90_rows(self, rgdp_path):
        ds = load_csv(
            rgdp_path, ("SPFfor_Step1", "NCfor_Step1"), "Realiz1",
            na_policy="drop", date_col="X1", date_range=("1985:01", "2007:04"),
        )
        assert ds.n_rows == 90

    def test_zero_fill_window_keeps_120_rows(self, rgdp_path):
        ds = load_csv(
            rgdp_path, ("NCfor_Step1", "SPFfor_Step1"), "Realiz1",
            na_policy="zero", date_col="X1", date_range=("1987:01", "2016:04"),
        )
        assert ds.n_rows == 120
