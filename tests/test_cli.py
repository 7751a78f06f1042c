import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import scipy
import pytest

import epatest
from epatest import cli, mc, tradeoff
from epatest.cli import build_parser, main
from epatest.dmtests import METHODS, DegenerateVarianceError, dm_test_r
from epatest.lrv import bandwidth


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Synthetic quarterly forecast file with a known loss differential."""
    rng = np.random.default_rng(100)
    n = 48
    y = rng.standard_normal(n)
    f1 = y + rng.standard_normal(n) * 1.2  # worse forecast
    f2 = y + rng.standard_normal(n) * 0.8
    path = tmp_path_factory.mktemp("data") / "forecasts.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["X1", "A", "B", "Y"])
        for i in range(n):
            w.writerow([f"{1990 + i // 4}:{i % 4 + 1:02d}", f1[i], f2[i], y[i]])
    return path


GOLDEN = Path(__file__).parent / "cli_golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--forecast-cols", "A,B", "--realization-col", "Y"]


def _abY_csv(path, a, b, y):
    """A forecast file with forecast columns A, B and realization Y, written as CI writes one."""
    np.savetxt(path, np.c_[a, b, y], delimiter=",", header="A,B,Y", comments="")
    return path


def _ci_csv(path):
    """The 60-row forecast file of the CI workflow's `Package install` step."""
    y, e = np.random.default_rng(0).standard_normal((2, 60))
    return _abY_csv(path, y + e, y - 0.5 * e, y)


def _near_constant_csv(path):
    """60 rows whose loss differential barely moves, so every statistic runs to 8-9 digits."""
    a = 1.0 + 1e-7 * np.random.default_rng(1).standard_normal(60)
    return _abY_csv(path, a, np.zeros(60), np.zeros(60))


def _no_fit(*args, **kwargs):
    raise AssertionError("fitted the model for arguments that should be refused first")


def environment() -> dict:
    """The environment record every manifest should carry on this interpreter."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "lapack": "{name} {version}".format(
            **scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]),
    }


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self, data_csv, monkeypatch):
        args = build_parser().parse_args(["test", "--data", str(data_csv)] + BASE)
        assert args.method == "all" and args.h == 1 and args.cl == 0.05 and args.q is None
        args = build_parser().parse_args(
            ["tradeoff", "--data", str(data_csv)] + BASE + ["--out", "x"]
        )
        assert args.n_sim == 5000 and args.alt_grid_size == 20 and args.seed == 0
        args = build_parser().parse_args(["mc", "--out", "x"])
        assert args.n_reps == 5000 and args.p_set == "25,75,125,175,1000"
        assert args.jobs == mc._default_jobs()
        monkeypatch.setenv("COLUMNS", "80")  # the help wraps between names, not inside one
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert ", ".join(mc.DEFAULT_METHODS) in " ".join(sub.choices["mc"].format_help().split())

    def test_bandwidth_flags_are_the_registry_params(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = [a.dest for a in sub.choices["test"]._actions]
        flags = dests[dests.index("cl") + 1:dests.index("out")]
        assert flags == list(dict.fromkeys(m.param for m in METHODS.values() if m.param))
        assert flags == ["M", "B", "m", "q"]
        args = parser.parse_args(["test", "--data", "x"] + BASE)
        assert [getattr(args, flag) for flag in flags] == [None] * 4

    def test_bad_choice_exits_2(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["test", "--data", str(data_csv)] + BASE + ["--loss", "cubic"]
            )
        assert exc.value.code == 2


class TestSharedParser:
    """``main`` parses with one parser per process, which keeps nothing between calls."""

    def test_main_builds_the_parser_once(self, data_csv, monkeypatch, capsys):
        built = []

        def spy():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            for argv in (["test", "--data", str(data_csv)] + BASE,
                         ["test", "--data", str(data_csv)] + BASE + ["--method", "dm_r"],
                         ["mc"]):
                try:
                    main(argv)
                except SystemExit:
                    pass
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @staticmethod
    def _call(argv, out_dir, capsys):
        """Exit status, standard output, error stream and every file ``argv`` writes."""
        try:
            code = main([*argv, "--out", str(out_dir)])
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                 if out_dir.exists() else None)
        return code, captured.out, captured.err.replace(str(out_dir), "OUT"), files

    SEQUENCES = {
        "no-svg, then svg": [
            ["tradeoff", "--data", "DATA"] + BASE + ["--grid", "2,4", "--n-sim", "120",
                                                     "--no-svg"],
            ["tradeoff", "--data", "DATA"] + BASE + ["--grid", "2,4", "--n-sim", "120"],
        ],
        "explicit M, then the default": [
            ["test", "--data", "DATA"] + BASE + ["--M", "3"],
            ["test", "--data", "DATA"] + BASE,
        ],
        "argument error, then a valid call": [
            ["test", "--data", "DATA"] + BASE + ["--loss", "cubic"],
            ["test", "--data", "DATA"] + BASE,
        ],
    }

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_calls_in_sequence_equal_calls_on_a_fresh_parser(self, name, data_csv, tmp_path,
                                                             capsys):
        sequence = [[str(data_csv) if a == "DATA" else a for a in argv]
                    for argv in self.SEQUENCES[name]]
        shared = [self._call(argv, tmp_path / f"shared{i}", capsys)
                  for i, argv in enumerate(sequence)]
        fresh = []
        for i, argv in enumerate(sequence):
            cli._parser.cache_clear()
            fresh.append(self._call(argv, tmp_path / f"fresh{i}", capsys))
        assert shared == fresh
        first, last = shared
        assert last[0] == 0
        if name == "no-svg, then svg":
            assert "tradeoff.svg" not in first[3] and "tradeoff.svg" in last[3]
        elif name == "explicit M, then the default":
            runs = [json.loads(run[3]["test_results.json"]) for run in shared]
            assert [run["parameters"]["M"] for run in runs] == [3, None]
            nw = [next(r for r in run["results"] if r["method"] == "dm_nw") for run in runs]
            assert [r["bandwidth"] for r in nw] == [3, bandwidth("nw1994", 48)]
        else:
            assert first[0] == "SystemExit(2)" and first[3] is None


class TestTestCommand:
    def test_all_methods_table(self, data_csv, capsys):
        code, out, err = run(["test", "--data", str(data_csv)] + BASE, capsys)
        assert code == 0
        for name in ("dm_r", "dm_m", "dm_nw", "dm_nw_l", "dm_fb", "dm_ewc", "dm_wpe", "dm_im"):
            assert name in out
        assert "n = 48" in out

    def test_single_method_statistic_matches_library(self, data_csv, capsys):
        code, out, _ = run(
            ["test", "--data", str(data_csv)] + BASE + ["--method", "dm_r", "--h", "2"],
            capsys,
        )
        assert code == 0
        ds_rows = [ln for ln in out.splitlines() if ln.startswith("dm_r")]
        assert len(ds_rows) == 1
        from epatest.data import load_csv, loss_series

        d = loss_series(load_csv(data_csv, ("A", "B"), "Y"))
        expected = dm_test_r(d, h=2).stat
        assert f"{expected:10.4f}".strip() in ds_rows[0]

    def test_json_output_fields(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, _, err = run(
            ["test", "--data", str(data_csv)] + BASE + ["--out", str(out_dir)], capsys
        )
        assert code == 0
        payload = json.loads((out_dir / "test_results.json").read_text())
        assert payload["command"] == "test"
        assert payload["n_obs"] == 48
        assert len(payload["results"]) == 8
        for rec in payload["results"]:
            assert set(rec) == {
                "method", "stat", "pval", "rej", "cl", "critical_value", "bandwidth", "df",
            }
        fb = next(r for r in payload["results"] if r["method"] == "dm_fb")
        assert fb["pval"] is None

    def test_block_label_equals_dm_im_with_its_q(self, data_csv, tmp_path, capsys):
        records = []
        for i, argv in enumerate((["--method", "dm_im_q3"], ["--method", "dm_im", "--q", "3"])):
            out_dir = tmp_path / f"out{i}"
            code, _, err = run(["test", "--data", str(data_csv)] + BASE + argv
                               + ["--out", str(out_dir)], capsys)
            assert code == 0, err
            (record,) = json.loads((out_dir / "test_results.json").read_text())["results"]
            records.append(record)
        labelled, flagged = records
        assert (labelled.pop("method"), flagged.pop("method")) == ("dm_im_q3", "dm_im")
        assert labelled == flagged and labelled["bandwidth"] == 3 and labelled["df"] == 2

    def test_manifest_records_the_q_given(self, data_csv, tmp_path, capsys):
        # the label sets its own q, so an unset --q is recorded as null
        for i, (argv, q) in enumerate(((["--method", "dm_im_q3"], None),
                                       (["--method", "dm_im", "--q", "3"], 3))):
            out_dir = tmp_path / f"out{i}"
            code, _, err = run(["test", "--data", str(data_csv)] + BASE + argv
                               + ["--out", str(out_dir)], capsys)
            assert code == 0, err
            payload = json.loads((out_dir / "test_results.json").read_text())
            assert payload["parameters"]["q"] == q
            assert [r["bandwidth"] for r in payload["results"]] == [3]

    def test_battery_records_no_q_and_the_pinned_results(self, data_csv, tmp_path, capsys):
        code, argv = TestPinnedOutput.RUNS["test"]
        argv = [str(data_csv) if a == "DATA" else a for a in argv]
        assert run(argv + ["--out", str(tmp_path)], capsys)[0] == code
        payload = json.loads((tmp_path / "test_results.json").read_text())
        pinned = json.loads((GOLDEN / "test" / "test_results.json").read_text())
        assert payload["parameters"]["q"] is None
        assert payload["results"] == pinned["results"]

    @pytest.mark.parametrize("cl", ["1e-15", "1e-17"])
    def test_small_level_gives_strict_json_and_agreeing_decisions(self, cl, tmp_path, capsys):
        path = _ci_csv(tmp_path / "f.csv")
        code, _, err = run(["test", "--data", str(path)] + BASE
                           + ["--cl", cl, "--out", str(tmp_path / "out")], capsys)
        assert code == 3, err  # dm_fb is tabulated at 5% only

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        text = (tmp_path / "out" / "test_results.json").read_text()
        results = json.loads(text, parse_constant=refuse)["results"]
        tested = [r for r in results if r["pval"] is not None]
        assert len(tested) == 7 and any(r["rej"] for r in tested)
        for r in tested:
            assert r["rej"] == (r["pval"] < float(cl)), r

    @pytest.mark.parametrize("data, argv, code", [
        (_ci_csv, ["--method", "dm_im_q10"], 0),  # a 9-character label
        (_ci_csv, ["--cl", "1e-17"], 3),  # a 22-character critical value
        (_near_constant_csv, [], 0),  # statistics of 13 and 14 characters
        (None, ["--method", "all", "--cl", "0.1", "--h", "3"], 3),  # TestPinnedOutput's battery
    ], ids=["long_label", "long_critical_value", "long_statistics", "pinned_battery"])
    def test_table_fields_line_up_with_the_header(self, data, argv, code, data_csv, tmp_path,
                                                  capsys):
        path = data_csv if data is None else data(tmp_path / "f.csv")
        status, out, err = run(["test", "--data", str(path)] + BASE + argv, capsys)
        assert status == code, err
        header, rule, *rows = out.splitlines()[1:]
        assert rule == "-" * len(header) and rows

        def spans(line):
            return [m.span() for m in re.finditer(r"\S+", line)]

        # the method starts the line, the five numeric fields end where their
        # headings end, and the decision starts under "reject@"
        want = spans(header)
        for row in rows:
            got = spans(row)
            assert len(got) == 7 and got[0][0] == 0, row
            assert [end for _, end in got[1:6]] == [end for _, end in want[1:6]], row
            assert got[6][0] == want[6][0], row

    def test_unknown_label_exits_1_and_writes_nothing(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(data_csv)] + BASE
                             + ["--method", "dm_zzz", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: unknown method 'dm_zzz'; expected one of: dm_r, dm_m, dm_nw, "
                       "dm_nw_l, dm_fb, dm_ewc, dm_wpe, dm_im\n")
        assert not out_dir.exists()

    def test_json_rerun_byte_identical(self, data_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["test", "--data", str(data_csv)] + BASE + ["--out", str(a)], capsys)
        run(["test", "--data", str(data_csv)] + BASE + ["--out", str(b)], capsys)
        assert (a / "test_results.json").read_bytes() == (b / "test_results.json").read_bytes()

    def test_json_round_trip_is_lossless(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "res"
        run(["test", "--data", str(data_csv)] + BASE + ["--out", str(out_dir)], capsys)
        text = (out_dir / "test_results.json").read_text()
        payload = json.loads(text)
        assert json.dumps(payload, indent=2) + "\n" == text

    def test_byte_order_mark_gives_the_same_output(self, data_csv, tmp_path, capsys):
        # The mark sits before X1, the date column asked for here. Both runs
        # read one path, which the JSON output records.
        path = tmp_path / "forecasts.csv"
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + data_csv.read_bytes())
            out_dir = tmp_path / f"out{len(mark)}"
            argv = ["test", "--data", str(path), *BASE, "--date-col", "X1", "--from", "1995:01",
                    "--out", str(out_dir)]
            code, out, err = run(argv, capsys)
            assert code == 0, err
            outputs.append((out, (out_dir / "test_results.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(["test", "--data", str(tmp_path / "none.csv")] + BASE, capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_non_utf8_file_exits_1_naming_it(self, data_csv, tmp_path, capsys):
        rows = data_csv.read_text().splitlines()
        rows[3] = rows[3].replace(":", "\xe9", 1)  # a Latin-1 date cell on line 4
        path = tmp_path / "latin.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(path)] + BASE + ["--out", str(out_dir)],
                             capsys)
        assert (code, out, err) == (1, "", f"error: {path}: not UTF-8 text (line 4)\n")
        assert not out_dir.exists()

    def test_directory_as_data_exits_1(self, tmp_path, capsys):
        code, out, err = run(["test", "--data", str(tmp_path)] + BASE, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_out_below_a_regular_file_fails_before_loading(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        code, out, err = run(["test", "--data", str(tmp_path / "none.csv")] + BASE
                             + ["--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: --out {out_dir}: {tmp_path / 'file'} is not a writable directory\n"

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "1e400", "nan"])
    @pytest.mark.parametrize("policy", ["drop", "zero"])
    def test_non_finite_cell_exits_1_naming_it(self, data_csv, tmp_path, capsys, text, policy):
        rows = data_csv.read_text().splitlines()
        fields = rows[5].split(",")
        fields[1] = text
        rows[5] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(path)] + BASE
                             + ["--na-policy", policy, "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "row 6, column 'A'" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_repeated_forecast_column_exits_1(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("Y,A,A,B\n" + "".join(f"{i},{i + 1},{i + 2},{i % 3}\n" for i in range(8)))
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(path)] + BASE + ["--out", str(out_dir)],
                             capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: column 'A' appears more than once in the header\n"
        assert not out_dir.exists()

    def test_same_forecast_column_twice_exits_1(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(data_csv), "--forecast-cols", "A,A",
                              "--realization-col", "Y", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --forecast-cols names the column 'A' twice\n"
        assert not out_dir.exists()

    def test_realization_among_the_forecasts_exits_1(self, data_csv, tmp_path, capsys):
        # It would score forecast A as perfect and test nothing.
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(data_csv), "--forecast-cols", "A,B",
                              "--realization-col", "A", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --realization-col 'A' is also a forecast column\n"
        assert not out_dir.exists()

    def test_empty_named_date_column(self, data_csv, tmp_path, capsys):
        # pandas' to_csv writes its index column under an empty name.
        path = tmp_path / "pandas.csv"
        path.write_text(data_csv.read_text().replace("X1,", ",", 1))
        firsts = []
        for data, date_col in ((data_csv, "X1"), (path, "")):
            code, out, err = run(["test", "--data", str(data)] + BASE
                                 + ["--date-col", date_col, "--from", "1995:01"], capsys)
            assert (code, err) == (0, "")
            firsts.append(out.splitlines()[0])
        assert firsts[0] == firsts[1] == "n = 28 loss-differential observations"

    def test_unsupported_level_exits_1(self, data_csv, capsys):
        code, _, err = run(
            ["test", "--data", str(data_csv)] + BASE + ["--method", "dm_fb", "--cl", "0.10"],
            capsys,
        )
        assert code == 1
        assert "cl=0.05" in err

    def test_bad_forecast_cols_exits_1(self, data_csv, capsys):
        code, _, err = run(
            ["test", "--data", str(data_csv), "--forecast-cols", "A",
             "--realization-col", "Y"],
            capsys,
        )
        assert code == 1
        assert "exactly two" in err


class TestDegenerateMethod:
    """An MA(1) loss differential with coefficient -0.95 at h = 4: the rectangular
    estimate behind dm_r and dm_m comes out negative; the other six tests are defined."""

    @pytest.fixture(scope="class")
    def ma_csv(self, tmp_path_factory):
        e = np.random.default_rng(0).standard_normal(31)
        d = e[1:] - 0.95 * e[:-1]
        # realization 0, so the squared-error differential is A^2 - B^2 = d
        path = tmp_path_factory.mktemp("ma") / "ma.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["A", "B", "Y"])
            for x in d:
                w.writerow([repr(math.sqrt(max(x, 0.0))), repr(math.sqrt(max(-x, 0.0))), "0"])
        return path

    def test_reports_every_method_and_exits_3(self, ma_csv, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, out, err = run(
            ["test", "--data", str(ma_csv)] + BASE + ["--h", "4", "--out", str(out_dir)], capsys
        )
        assert code == 3
        rows = {ln.split()[0]: ln for ln in out.splitlines()[3:]}
        assert list(rows) == ["dm_r", "dm_m", "dm_nw", "dm_nw_l", "dm_fb", "dm_ewc",
                              "dm_wpe", "dm_im"]
        for name, row in rows.items():
            assert (row.split()[1] == "degenerate") == (name in ("dm_r", "dm_m"))
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert warnings == [
            f"warning: {name}: nonpositive variance estimate -0.0590446 "
            "(rectangular kernel, bandwidth 3); statistic undefined" for name in ("dm_r", "dm_m")
        ]
        payload = json.loads((out_dir / "test_results.json").read_text())
        assert [r["method"] for r in payload["results"]] == list(rows)
        for rec in payload["results"]:
            assert len(rec) == 8
            undefined = rec["method"] in ("dm_r", "dm_m")
            assert [rec[key] is None for key in ("stat", "rej")] == [undefined] * 2
            assert (rec["pval"] is None) == (undefined or rec["method"] == "dm_fb")
            assert rec["critical_value"] is not None and rec["bandwidth"] is not None

    def test_library_still_raises(self, ma_csv):
        from epatest.data import load_csv, loss_series

        d = loss_series(load_csv(ma_csv, ("A", "B"), "Y"))
        with pytest.raises(DegenerateVarianceError, match="-0.0590446"):
            dm_test_r(d, h=4)


class TestRoundOffVariance:
    """40 rows of 0.1, 0.0, 0.0: the loss differential is the constant 0.01, whose
    variance estimates are zero or round-off of its level, so no method has a statistic."""

    def test_every_method_degenerate_and_exits_3(self, tmp_path, capsys):
        data = tmp_path / "constant.csv"
        data.write_text("A,B,Y\n" + "0.1,0.0,0.0\n" * 40)
        out_dir = tmp_path / "res"
        code, out, err = run(["test", "--data", str(data)] + BASE
                             + ["--method", "all", "--out", str(out_dir)], capsys)
        assert code == 3
        rows = [ln.split() for ln in out.splitlines()[3:]]
        assert [row[0] for row in rows] == TestUnsupportedMethod.ORDER
        assert [row[1] for row in rows] == ["degenerate"] * 8
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 8
        # the cosine and periodogram estimates are positive round-off, not zero
        for kernel in ("ewc", "wpe"):
            assert any(w.startswith(f"warning: dm_{kernel}: round-off variance estimate ")
                       and f"({kernel} kernel," in w for w in warnings), kernel
        payload = json.loads((out_dir / "test_results.json").read_text())
        assert [r["stat"] for r in payload["results"]] == [None] * 8


class TestUnsupportedMethod:
    """Under --method all, a method that refuses the arguments keeps its row."""

    ORDER = ["dm_r", "dm_m", "dm_nw", "dm_nw_l", "dm_fb", "dm_ewc", "dm_wpe", "dm_im"]

    def _check(self, argv, unsupported, tmp_path, capsys):
        """Run ``argv``; return the rows the other methods computed, by method.

        ``unsupported`` maps each method expected to refuse the arguments
        to its reason.
        """
        out_dir = tmp_path / "res"
        code, out, err = run(argv + ["--out", str(out_dir)], capsys)
        assert code == 3
        rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[3:]}
        assert list(rows) == self.ORDER
        for method, reason in unsupported.items():
            assert rows.pop(method)[1:] == ["unsupported", "-", "-", "-", "-", "-"]
            assert f"warning: {method}: {reason}" in err.splitlines()
        payload = json.loads((out_dir / "test_results.json").read_text())
        assert [r["method"] for r in payload["results"]] == self.ORDER
        for rec in payload["results"]:
            assert len(rec) == 8
            assert rec["cl"] == payload["parameters"]["cl"]
            fields = ("stat", "pval", "rej", "critical_value", "bandwidth", "df")
            if rec["method"] in unsupported:
                assert [rec[key] for key in fields] == [None] * 6
            else:
                assert rec["critical_value"] is not None and rec["bandwidth"] is not None
        return rows

    def test_level_without_fixed_b_table(self, data_csv, tmp_path, capsys):
        reason = "fixed-b critical values are tabulated for cl=0.05 only, got cl=0.1"
        rows = self._check(["test", "--data", str(data_csv)] + BASE + ["--cl", "0.1"],
                           {"dm_fb": reason}, tmp_path, capsys)
        for fields in rows.values():
            float(fields[1])  # every other test is defined at 10%

    @pytest.fixture(scope="class")
    def short_csv(self, tmp_path_factory):
        rng = np.random.default_rng(12)
        path = tmp_path_factory.mktemp("short") / "short.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["A", "B", "Y"])
            for row in rng.standard_normal((12, 3)):
                w.writerow([repr(float(x)) for x in row])
        return path

    def test_horizon_as_long_as_the_sample(self, short_csv, tmp_path, capsys):
        # at h = P the flat-weight sum behind dm_r is zero in exact arithmetic
        unsupported = {
            "dm_r": "forecast horizon must lie in [1, 11], got 12",
            "dm_m": "small-sample correction factor is nonpositive at P=12, h=12; "
                    "the horizon is too large for this sample",
        }
        rows = self._check(["test", "--data", str(short_csv)] + BASE + ["--h", "12"],
                           unsupported, tmp_path, capsys)
        # the lag-window tests with their own bandwidths are defined
        for name in ("dm_nw", "dm_nw_l", "dm_fb", "dm_ewc", "dm_wpe", "dm_im"):
            float(rows[name][1])

    def test_bandwidth_two_methods_refuse_alike(self, tmp_path, capsys):
        # --M sets the bandwidth of dm_nw and dm_fb, which refuse it in the same words;
        # each warning line names its method
        reason = "bandwidth must lie in [1, 59], got 1000"
        rows = self._check(["test", "--data", str(_ci_csv(tmp_path / "f.csv"))] + BASE
                           + ["--M", "1000"], {"dm_nw": reason, "dm_fb": reason},
                           tmp_path, capsys)
        for fields in rows.values():
            float(fields[1])

    def test_named_method_still_exits_1(self, short_csv, capsys):
        code, out, err = run(
            ["test", "--data", str(short_csv)] + BASE + ["--method", "dm_m", "--h", "12"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == ("error: small-sample correction factor is nonpositive at P=12, h=12; "
                       "the horizon is too large for this sample\n")

    def test_no_method_applies_exits_1(self, data_csv, capsys):
        code, out, err = run(["test", "--data", str(data_csv)] + BASE + ["--cl", "1.5"], capsys)
        assert code == 1 and out == ""
        assert err == "error: significance level must lie in (0, 1), got 1.5\n"


class TestEnvironmentRecord:
    def test_every_manifest_records_the_environment(self, data_csv, tmp_path, capsys):
        runs = {
            "test_results.json": ["test", "--data", str(data_csv)] + BASE,
            "tradeoff.json": ["tradeoff", "--data", str(data_csv)] + BASE
            + ["--grid", "2", "--n-sim", "100", "--no-svg"],
            "manifest.json": TestMcCommand.ARGS[:-4] + ["--n-reps", "100"],
        }
        for name, argv in runs.items():
            assert run(argv + ["--out", str(tmp_path / name)], capsys)[0] == 0
            payload = json.loads((tmp_path / name / name).read_text())
            assert payload["environment"] == environment(), name


class TestPinnedOutput:
    """Three small runs give exactly the bytes stored under tests/cli_golden/<run>/.

    Every file a run writes is compared byte for byte, and so are its
    standard output (``stdout.txt``) and error stream (``stderr.txt``). This
    pins float formatting, column and key order and trailing newlines. The
    only substitutions: in JSON files the environment record reads
    "ENVIRONMENT" and the data path "DATA", and in the error stream the
    output directory reads OUT.
    """

    RUNS = {
        "test": (3, ["test", "--data", "DATA"] + BASE
                 + ["--method", "all", "--cl", "0.1", "--h", "3"]),
        "tradeoff": (0, ["tradeoff", "--data", "DATA"] + BASE
                     + ["--grid", "2,4", "--n-sim", "120"]),
        # R = 75 has no diagonal cell, so its power cells are empty
        "mc": (0, ["mc", "--families", "ucr", "--h-set", "1", "--r-set", "25,75",
                   "--rt-set", "25,125", "--p-set", "25", "--methods", "dm_r,dm_fb",
                   "--n-reps", "100"]),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_output_bytes(self, name, data_csv, tmp_path, capsys):
        code, argv = self.RUNS[name]
        out_dir = tmp_path / name
        argv = [str(data_csv) if a == "DATA" else a for a in argv] + ["--out", str(out_dir)]
        assert run(argv, capsys) == (
            code,
            (GOLDEN / name / "stdout.txt").read_text(),
            (GOLDEN / name / "stderr.txt").read_text().replace("OUT", str(out_dir)),
        )
        env = json.dumps(environment(), indent=2).replace("\n", "\n  ")
        written = sorted(path.name for path in out_dir.iterdir())
        expected = sorted(path.name for path in (GOLDEN / name).iterdir())
        assert written == [f for f in expected if f not in ("stdout.txt", "stderr.txt")]
        for file in written:
            text = (out_dir / file).read_bytes().decode()
            if file.endswith(".json"):
                text = text.replace(env, '"ENVIRONMENT"').replace(
                    json.dumps(str(data_csv)), '"DATA"')
            assert text == (GOLDEN / name / file).read_bytes().decode(), file


class TestTradeoffCommand:
    def _run(self, data_csv, out_dir, capsys, extra=()):
        argv = (
            ["tradeoff", "--data", str(data_csv)] + BASE
            + ["--grid", "2,4", "--n-sim", "120", "--seed", "3", "--out", str(out_dir)]
            + list(extra)
        )
        return run(argv, capsys)

    def test_writes_csv_json_svg(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, _, err = self._run(data_csv, out_dir, capsys)
        assert code == 0
        assert (out_dir / "tradeoff.csv").exists()
        assert (out_dir / "tradeoff.json").exists()
        assert (out_dir / "tradeoff.svg").exists()

    @pytest.mark.parametrize("cols, realization, message", [
        ("A,A", "Y", "--forecast-cols names the column 'A' twice"),
        ("A,B", "A", "--realization-col 'A' is also a forecast column"),
    ])
    def test_bad_columns_name_the_flags(self, data_csv, tmp_path, capsys, cols, realization,
                                        message):
        out_dir = tmp_path / "t"
        code, out, err = run(["tradeoff", "--data", str(data_csv), "--forecast-cols", cols,
                              "--realization-col", realization, "--out", str(out_dir)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_csv_schema(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        self._run(data_csv, out_dir, capsys)
        lines = (out_dir / "tradeoff.csv").read_text().splitlines()
        assert lines[0] == "M,size_distortion,max_power_loss,rejected"
        assert len(lines) == 3
        for line in lines[1:]:
            m, sd, mpl, rej = line.split(",")
            assert int(m) in (2, 4)
            assert -0.05 <= float(sd) <= 0.95
            assert 0.0 <= float(mpl) <= 1.0
            assert rej in ("true", "false")

    def test_json_payload(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        self._run(data_csv, out_dir, capsys)
        payload = json.loads((out_dir / "tradeoff.json").read_text())
        assert payload["command"] == "tradeoff"
        assert payload["default_bandwidth"] == bandwidth("llsw", 48)
        assert [p["M"] for p in payload["points"]] == [2, 4]

    def test_default_bandwidth_follows_the_registry(self, data_csv, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setitem(METHODS, "dm_fb", dataclasses.replace(METHODS["dm_fb"],
                                                                  default="nw1994"))
        out_dir = tmp_path / "t"
        assert self._run(data_csv, out_dir, capsys, extra=["--no-svg"])[0] == 0
        payload = json.loads((out_dir / "tradeoff.json").read_text())
        assert payload["default_bandwidth"] == bandwidth("nw1994", 48) != bandwidth("llsw", 48)

    def test_svg_failure_warns_and_keeps_the_data_files(self, data_csv, tmp_path, capsys,
                                                        monkeypatch):
        def fail(points, default_M):
            raise RuntimeError("no renderer")

        monkeypatch.setattr(cli, "_tradeoff_svg", fail)
        out_dir = tmp_path / "t"
        code, _, err = self._run(data_csv, out_dir, capsys)
        assert code == 0
        assert "warning: SVG rendering failed: no renderer\n" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["tradeoff.csv", "tradeoff.json"]

    def test_rerun_byte_identical(self, data_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(data_csv, a, capsys)
        self._run(data_csv, b, capsys)
        for name in ("tradeoff.csv", "tradeoff.json", "tradeoff.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_no_svg_flag(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        self._run(data_csv, out_dir, capsys, extra=["--no-svg"])
        assert not (out_dir / "tradeoff.svg").exists()

    def test_empty_grid_exits_1(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, _, err = run(["tradeoff", "--data", str(data_csv)] + BASE
                           + ["--grid", "5:2", "--out", str(out_dir)], capsys)
        assert code == 1
        assert err == "error: bandwidth grid is empty\n"
        assert not out_dir.exists()

    def test_empty_grid_is_refused_before_loading(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, out, err = run(["tradeoff", "--data", str(tmp_path / "none.csv")] + BASE
                             + ["--grid", "5:4", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: bandwidth grid is empty\n"
        assert not out_dir.exists()

    def test_negative_max_ar_order_is_refused_before_loading(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, out, err = run(["tradeoff", "--data", str(tmp_path / "none.csv")] + BASE
                             + ["--max-ar-order", "-1", "--out", str(out_dir)], capsys)
        assert (code, out, err) == (
            1, "", "error: max_ar_order must be a nonnegative integer, got -1\n")
        assert not out_dir.exists()

    def test_max_ar_order_too_long_for_the_series(self, data_csv, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(tradeoff, "fit_ar", _no_fit)
        out_dir = tmp_path / "t"
        code, out, err = run(["tradeoff", "--data", str(data_csv)] + BASE
                             + ["--max-ar-order", "24", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: max_ar_order must lie in [0, 23], got 24\n"
        assert not out_dir.exists()

    # Runs main in a child process whose address space is capped, so a grid
    # that is listed before it is checked, or a matrix too large for memory,
    # fails there instead of filling memory.
    GRID_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from epatest.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "seconds": time.perf_counter() - start,
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

    def test_range_grid_is_checked_before_it_is_listed(self, data_csv, tmp_path):
        runs = {}
        for grid in ("1:100", "1:1000000000"):
            out_dir = tmp_path / grid.replace(":", "-")
            child = subprocess.run(
                [sys.executable, "-c", self.GRID_CHILD, "tradeoff", "--data", str(data_csv),
                 *BASE, "--grid", grid, "--n-sim", "100", "--out", str(out_dir)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(epatest.__file__).parents[1])},
            )
            assert child.stderr == "error: bandwidth must lie in [1, 47], got 48\n", grid
            assert not out_dir.exists()
            runs[grid] = json.loads(child.stdout)
        small, huge = runs["1:100"], runs["1:1000000000"]
        assert small["code"] == huge["code"] == 1
        assert huge["seconds"] < 0.5
        assert huge["peak_kb"] - small["peak_kb"] < 4096

    def test_range_grid_runs_as_listed(self, data_csv, tmp_path, capsys):
        ranged, listed = tmp_path / "ranged", tmp_path / "listed"
        for grid, out_dir in (("2:4", ranged), ("2,3,4", listed)):
            code, _, _ = run(["tradeoff", "--data", str(data_csv)] + BASE
                             + ["--grid", grid, "--n-sim", "100", "--out", str(out_dir)], capsys)
            assert code == 0
        for name in ("tradeoff.csv", "tradeoff.json", "tradeoff.svg"):
            assert (ranged / name).read_bytes() == (listed / name).read_bytes(), name

    def test_repeated_bandwidth_exits_1_before_the_fit(self, data_csv, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(tradeoff, "fit_ar", _no_fit)
        out_dir = tmp_path / "t"
        code, _, err = run(["tradeoff", "--data", str(data_csv)] + BASE
                           + ["--grid", "1,1,2", "--n-sim", "100", "--out", str(out_dir)], capsys)
        assert (code, err) == (1, "error: bandwidth 1 is listed more than once\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unwritable_out_fails_before_the_fit(self, out, data_csv, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(tradeoff, "fit_ar", _no_fit)
        (tmp_path / "file").write_text("")
        code, _, err = run(["tradeoff", "--data", str(data_csv)] + BASE
                           + ["--grid", "2", "--n-sim", "100", "--out", str(tmp_path / out)],
                           capsys)
        assert code == 1
        assert err == (f"error: --out {tmp_path / out}: {tmp_path / 'file'} "
                       "is not a writable directory\n")
        assert (tmp_path / "file").read_text() == ""

    def test_unit_root_fit_exits_1(self, tmp_path, capsys):
        # loss differential 1, 0, 1, ...: the selected AR fit has a unit root
        data = tmp_path / "period2.csv"
        data.write_text("A,B,Y\n" + "".join(f"{1 - t % 2},0,0\n" for t in range(157)))
        out_dir = tmp_path / "t"
        code, _, err = run(["tradeoff", "--data", str(data)] + BASE
                           + ["--out", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith("error: ") and "unit root" in err
        assert not out_dir.exists()

    def test_round_off_fit_exits_1(self, tmp_path, capsys):
        # the same series with --max-ar-order 6 selects an AR(2) whose
        # innovation variance is round-off
        data = tmp_path / "period2.csv"
        data.write_text("A,B,Y\n" + "".join(f"{1 - t % 2},0,0\n" for t in range(157)))
        out_dir = tmp_path / "t"
        code, _, err = run(["tradeoff", "--data", str(data)] + BASE
                           + ["--max-ar-order", "6", "--grid", "2,6,12", "--n-sim", "200",
                              "--out", str(out_dir)], capsys)
        assert code == 1
        assert err == "error: fitted innovation variance is zero; series is degenerate\n"
        assert not out_dir.exists()

    def test_svg_markers(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        self._run(data_csv, out_dir, capsys)
        svg = (out_dir / "tradeoff.svg").read_text()
        assert svg.startswith("<svg")
        assert "<circle" in svg or "<line" in svg  # non-rejection / rejection markers

    def test_svg_draws_each_point_where_the_csv_puts_it(self, tmp_path, capsys):
        """The SVG read as a picture: every bandwidth's label sits over a cross where the
        test rejects on the data and over a circle where it does not, at the plot's scale;
        one 14-pixel box surrounds the automatic bandwidth; the legend shows the three marks."""
        rng = np.random.default_rng(100)
        y = rng.standard_normal(48)
        # data_csv's recipe with a smaller gap between the forecasts: both decisions occur
        data = _abY_csv(tmp_path / "f.csv", y + rng.standard_normal(48),
                        y + 0.8 * rng.standard_normal(48), y)
        out_dir = tmp_path / "t"
        argv = ["tradeoff", "--data", str(data)] + BASE + ["--n-sim", "200", "--out", str(out_dir)]
        assert run(argv, capsys)[0] == 0
        with (out_dir / "tradeoff.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {row["rejected"] for row in rows} == {"true", "false"}
        auto = json.loads((out_dir / "tradeoff.json").read_text())["default_bandwidth"]
        root = ElementTree.parse(out_dir / "tradeoff.svg").getroot()

        def each(tag):
            return list(root.iter("{http://www.w3.org/2000/svg}" + tag))

        def near(a, b):  # coordinates are printed to one decimal
            return abs(a[0] - b[0]) <= 0.051 and abs(a[1] - b[1]) <= 0.051

        crosses = []
        for path in each("path"):
            x1, y1, x2, y2, x3, y3, x4, y4 = (
                float(v) for v in path.get("d").split() if v not in ("M", "L"))
            assert (x3, y3, x4, y4) == (x1, y2, x2, y1) and x2 - x1 == y2 - y1 > 0
            crosses.append(((x1 + x2) / 2, (y1 + y2) / 2))
        circles = [(float(c.get("cx")), float(c.get("cy"))) for c in each("circle")]
        boxes = {}
        for rect in each("rect"):
            if rect.get("stroke-width") == "1.6":
                half = float(rect.get("width")) / 2
                boxes.setdefault(half, []).append(
                    (float(rect.get("x")) + half, float(rect.get("y")) + half))
        # the plot's frame, and its axes as _tradeoff_svg scales them
        (frame,) = [r for r in each("rect") if r.get("stroke-width") == "1"]
        left, top, width, height = (float(frame.get(k)) for k in ("x", "y", "width", "height"))
        xs = [float(row["max_power_loss"]) for row in rows]
        ys = [float(row["size_distortion"]) for row in rows]
        x_hi = max(max(xs) * 1.15, 0.02)
        pad = max((max(ys + [0.0]) - min(ys + [0.0])) * 0.15, 0.01)
        y_lo, y_hi = min(ys + [0.0]) - pad, max(ys + [0.0]) + pad
        labels = {t.text: (float(t.get("x")), float(t.get("y"))) for t in each("text")
                  if t.get("font-size") == "9"}
        assert sorted(labels, key=int) == [row["M"] for row in rows]
        for row, x, y in zip(rows, xs, ys):
            point = (left + x / x_hi * width, top + (y_hi - y) / (y_hi - y_lo) * height)
            label = labels[row["M"]]
            assert near((label[0], label[1] + 9), point), row
            marks = crosses if row["rejected"] == "true" else circles
            assert any(near(mark, point) for mark in marks), row
            if int(row["M"]) == auto:
                assert len(boxes[7.0]) == 1 and near(boxes[7.0][0], point), row
        assert len(crosses) + len(circles) == len(rows) + 2  # and one of each in the legend
        legend = {t.text: (float(t.get("x")) - 10, float(t.get("y")) - 4) for t in each("text")
                  if t.get("font-size") == "11" and t.get("text-anchor") is None}
        assert list(legend) == ["rejects on the data", "does not reject",
                                f"automatic bandwidth (M = {auto})"]
        mark_of = dict(zip(legend, (crosses, circles, boxes[6.0])))
        for text, centre in legend.items():
            assert any(near(mark, centre) for mark in mark_of[text]), text


class TestMcCommand:
    ARGS = [
        "mc", "--families", "ucr", "--h-set", "1", "--r-set", "25,75",
        "--rt-set", "25,75", "--p-set", "25,75", "--methods", "dm_r,dm_fb",
        "--n-reps", "150", "--seed", "0",
    ]

    def test_matrix_layout(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        code, _, err = run(self.ARGS + ["--out", str(out_dir)], capsys)
        assert code == 0
        for name in ("ucr_dm_r_size.csv", "ucr_dm_r_power.csv",
                     "ucr_dm_fb_size.csv", "ucr_dm_fb_power.csv"):
            assert (out_dir / name).exists(), name
        lines = (out_dir / "ucr_dm_r_size.csv").read_text().splitlines()
        assert lines[0] == "R,R_tilde,diagonal,h=1:P=25,h=1:P=75"
        assert len(lines) == 5  # header + 2x2 (R, R_tilde) rows
        for line in lines[1:]:
            fields = line.split(",")
            R, Rt, diag = int(fields[0]), int(fields[1]), fields[2]
            assert diag == ("true" if R == Rt else "false")
            for cell in fields[3:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_power_diagonal_matches_quantile_convention(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        run(self.ARGS + ["--out", str(out_dir)], capsys)
        rows = (out_dir / "ucr_dm_r_power.csv").read_text().splitlines()[1:]
        n = 150
        expected = 1.0 - (-(-19 * n // 20)) / n
        for row in rows:
            fields = row.split(",")
            if fields[2] == "true":
                for cell in fields[3:]:
                    assert float(cell) == pytest.approx(expected, abs=1e-12)

    def test_power_diagonal_at_the_run_level(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        code, _, _ = run(self.ARGS + ["--methods", "dm_r", "--cl", "0.1",
                                      "--out", str(out_dir)], capsys)
        assert code == 0
        rows = (out_dir / "ucr_dm_r_power.csv").read_text().splitlines()[1:]
        n = 150
        expected = 1.0 - math.ceil(0.9 * n) / n
        for row in rows:
            fields = row.split(",")
            if fields[2] == "true":
                for cell in fields[3:]:
                    assert float(cell) == pytest.approx(expected, abs=1e-12)

    def test_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        run(self.ARGS + ["--out", str(out_dir)], capsys)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "mc"
        assert manifest["seed"] == 0
        assert sorted(manifest["outputs"]) == sorted(
            ["ucr_dm_r_size.csv", "ucr_dm_r_power.csv",
             "ucr_dm_fb_size.csv", "ucr_dm_fb_power.csv"]
        )
        assert set(manifest["degenerate_counts"]) == {"dm_r", "dm_fb"}

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(self.ARGS + ["--out", str(a)], capsys)
        run(self.ARGS + ["--out", str(b)], capsys)
        assert (a / "ucr_dm_fb_power.csv").read_bytes() == (b / "ucr_dm_fb_power.csv").read_bytes()

    def test_bad_method_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            ["mc", "--families", "ucr", "--h-set", "1", "--r-set", "25", "--rt-set", "25",
             "--p-set", "25", "--methods", "dm_bogus", "--n-reps", "100",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "unknown method" in err

    def test_any_procedure_label(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        argv = self.ARGS + ["--out", str(out_dir)]
        argv[argv.index("--methods") + 1] = "dm_wpe,dm_im_q3"
        assert run(argv, capsys)[0] == 0
        names = [f"ucr_{m}_{metric}.csv" for m in ("dm_wpe", "dm_im_q3")
                 for metric in ("size", "power")]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(names)
        assert all((out_dir / name).exists() for name in names)
        assert list(manifest["degenerate_counts"]) == ["dm_wpe", "dm_im_q3"]

    # A planning refusal is prefixed with the label and the cell it refers to (``where``).
    @pytest.mark.parametrize("methods, p_set, message, where", [
        ("dm_r,dm_wpe,dm_r", "25", "method 'dm_r' is listed more than once", ""),
        ("dm_im_q02", "25", "unknown method 'dm_im_q02'; expected one of: dm_r, dm_m, dm_nw, "
                            "dm_nw_l, dm_fb, dm_ewc, dm_wpe, dm_im", "dm_im_q02 at P=25, h=1: "),
        ("dm_im_q30", "75,25", "bandwidth must lie in [2, 25], got 30", "dm_im_q30 at P=25, h=1: "),
        ("dm_im,dm_im_q2", "25", "methods 'dm_im' and 'dm_im_q2' are the same test", ""),
        # the default battery's dm_im_q5 cannot split P = 2
        (", ".join(mc.DEFAULT_METHODS), "2", "bandwidth must lie in [2, 2], got 5",
         "dm_im_q5 at P=2, h=1: "),
    ])
    def test_bad_label_fails_before_any_cell(self, methods, p_set, message, where, tmp_path,
                                             capsys):
        out_dir = tmp_path / "x"
        code, out, err = run(
            ["mc", "--families", "ucr", "--h-set", "1", "--r-set", "25", "--rt-set", "25",
             "--p-set", p_set, "--methods", methods, "--n-reps", "100", "--out", str(out_dir)],
            capsys,
        )
        assert (code, out, err) == (1, "", f"error: {where}{message}\n")
        assert not out_dir.exists()

    def test_unsupported_level_fails_before_any_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code, _, err = run(
            ["mc", "--families", "ucr", "--h-set", "1", "--r-set", "25", "--rt-set", "25",
             "--p-set", "25", "--methods", "dm_fb", "--cl", "0.1", "--n-reps", "100",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert "cl=0.05" in err
        assert "[1/" not in err
        assert not out_dir.exists()

    def test_repeated_cell_fails_before_any_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code, _, err = run(
            ["mc", "--families", "ucr", "--h-set", "1,1", "--r-set", "25", "--rt-set", "25",
             "--p-set", "25", "--methods", "dm_r", "--n-reps", "100", "--out", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert err == ("error: cell family=ucr h=1 R=25 R_tilde=25 P=25 "
                       "is listed more than once\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("option, message", [
        ("--methods", "the method list is empty"),
        ("--families", "the experiment grid has no cells"),
        ("--p-set", "the experiment grid has no cells"),
    ])
    def test_empty_list_fails_before_any_cell(self, option, message, tmp_path, capsys):
        out_dir = tmp_path / "x"
        argv = self.ARGS + ["--out", str(out_dir)]
        argv[argv.index(option) + 1] = " , "
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_out_below_a_regular_file_fails_before_any_cell(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        code, out, err = run(self.ARGS + ["--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert "[1/" not in err
        assert err == f"error: --out {out_dir}: {tmp_path / 'file'} is not a writable directory\n"

    @pytest.mark.parametrize("r_set, rt_set", [("25,75,125", "25,75"), ("25", "75")])
    def test_power_matrices_equal_size_corrected_power(self, r_set, rt_set, tmp_path, capsys):
        # R = 125 and the second grid have no diagonal null cell: empty entries
        argv = ["mc", "--families", "ucr,cr", "--h-set", "1,3", "--r-set", r_set,
                "--rt-set", rt_set, "--p-set", "25", "--methods", "dm_r,dm_im_q2",
                "--n-reps", "100", "--cl", "0.1", "--seed", "4"]
        assert run(argv + ["--out", str(tmp_path)], capsys)[0] == 0
        specs = mc.experiment_grid(["ucr", "cr"], [1, 3], [int(R) for R in r_set.split(",")],
                                   [int(R) for R in rt_set.split(",")], [25])
        result = mc.run_experiment(specs, ["dm_r", "dm_im_q2"], 100, 0.1, 4)
        entries = 0
        for family in ("ucr", "cr"):
            for method in ("dm_r", "dm_im_q2"):
                with (tmp_path / f"{family}_{method}_power.csv").open() as fh:
                    for row in csv.DictReader(fh):
                        R, Rt = int(row["R"]), int(row["R_tilde"])
                        for h in (1, 3):
                            got = row[f"h={h}:P=25"]
                            cell = (family, R, Rt, h, 25)
                            try:
                                want = repr(mc.size_corrected_power(result, cell, method))
                            except KeyError:
                                want = ""
                            assert got == want, (family, method, cell)
                            entries += want != ""
        assert entries == (32 if r_set == "25,75,125" else 0)

    def test_jobs_write_the_same_bytes(self, tmp_path, capsys):
        runs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / jobs
            code, out, err = run(TestPinnedOutput.RUNS["mc"][1]
                                 + ["--jobs", jobs, "--out", str(out_dir)], capsys)
            files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
            runs.append((code, out, err.replace(str(out_dir), "OUT"), files))
        assert runs[0] == runs[1]
        assert runs[0][2].startswith("[1/4] family=ucr h=1 R=25 R_tilde=25 P=25\n[2/4] ")
        assert len(runs[0][3]) == 5

    def test_a_dead_worker_is_one_error_line(self, tmp_path, capfd, monkeypatch):
        # os._exit skips the worker's cleanup, as the out-of-memory killer does
        simulate_rows = mc._simulate_rows

        def die(spec, E):
            if spec.R_tilde == 75:
                os._exit(3)
            return simulate_rows(spec, E)

        monkeypatch.setattr(mc, "_simulate_rows", die)
        out_dir = tmp_path / "x"
        code = main(self.ARGS + ["--p-set", "25", "--jobs", "2", "--out", str(out_dir)])
        err = capfd.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == ("error: a worker died on cell 2, DgpSpec(family='ucr', "
                                        "h=1, R=25, R_tilde=75, P=25, mu=0.2): exit code 3")
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_jobs_below_one_fails_before_any_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code, out, err = run(self.ARGS + ["--jobs", "0", "--out", str(out_dir)], capsys)
        assert (code, out, err) == (1, "", "error: jobs must be a positive integer, got 0\n")
        assert not out_dir.exists()

    def test_progress_line_per_cell(self, tmp_path, capsys):
        code, _, err = run(self.ARGS + ["--out", str(tmp_path / "mc")], capsys)
        assert code == 0
        cells = [(R, Rt, P) for R in (25, 75) for Rt in (25, 75) for P in (25, 75)]
        assert [ln for ln in err.splitlines() if ln.startswith("[")] == [
            f"[{i}/8] family=ucr h=1 R={R} R_tilde={Rt} P={P}"
            for i, (R, Rt, P) in enumerate(cells, start=1)
        ]


@pytest.mark.parametrize("command, flag, value, bad", [
    ("tradeoff", "--grid", "a", "a"),
    ("tradeoff", "--grid", "1:b", "b"),
    ("tradeoff", "--grid", "2:", ""),
    ("tradeoff", "--grid", "1:2:3", "2:3"),
    ("mc", "--h-set", "1,a", "a"),
    ("mc", "--r-set", "x", "x"),
    ("mc", "--rt-set", "25,2.5", "2.5"),
    ("mc", "--p-set", "a", "a"),
])
def test_integer_list_errors_name_their_flag(command, flag, value, bad, data_csv, tmp_path,
                                             capsys):
    out_dir = tmp_path / "x"
    if command == "tradeoff":
        argv = ["tradeoff", "--data", str(data_csv)] + BASE + ["--n-sim", "100"]
    else:
        argv = TestMcCommand.ARGS.copy()
    argv += [flag, value, "--out", str(out_dir)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: invalid literal for int() with base 10: {bad!r}\n"
    assert not out_dir.exists()


def _count_argv(command, data_csv, count):
    if command == "tradeoff":
        return ["tradeoff", "--data", str(data_csv)] + BASE + ["--grid", "2", "--n-sim", count]
    return TestMcCommand.ARGS + ["--n-reps", count]


@pytest.mark.parametrize("command", ["mc", "tradeoff"])
def test_too_many_replications_fail_before_any_simulation(command, data_csv, tmp_path,
                                                          capsys, monkeypatch):
    monkeypatch.setattr(tradeoff, "fit_ar", _no_fit)
    out_dir = tmp_path / "x"
    code, out, err = run(_count_argv(command, data_csv, "100000000000")
                         + ["--out", str(out_dir)], capsys)
    name = "n_sim" if command == "tradeoff" else "n_reps"
    kind = "simulation" if command == "tradeoff" else "replication"
    assert (code, out) == (1, "")
    assert err == (f"error: {name} must be at most 2**32 (one stream key word per {kind}), "
                   "got 100000000000\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command, target, previous", [
    ("test", "test_results.json", ["--cl", "0.1"]),
    ("tradeoff", "tradeoff.json", ["--seed", "1"]),
    ("mc", "ucr_dm_fb_size.csv", ["--seed", "1"]),
    ("tradeoff", "tradeoff.svg", ["--seed", "1"]),
])
def test_a_failed_write_leaves_the_previous_file(command, target, previous, data_csv, tmp_path,
                                                 capsys, monkeypatch):
    argv = {
        "test": ["test", "--data", str(data_csv)] + BASE,
        "tradeoff": ["tradeoff", "--data", str(data_csv)] + BASE + ["--grid", "2,4",
                                                                    "--n-sim", "120"],
        "mc": TestMcCommand.ARGS,
    }[command] + ["--out", str(tmp_path)]
    assert run(argv + previous, capsys)[0] in (0, 3)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    write_text = Path.write_text

    def fail_partway(self, text, *args, **kwargs):  # a full disk, say
        if target in self.name:
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_partway)
    code, _, err = run(argv, capsys)
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: No space left on device"] == err.splitlines()[-1:]
    assert (tmp_path / target).read_bytes() == before[target]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before)
    # The manifest is written last: a failed write before it leaves the previous one.
    manifest = {"test": "test_results.json", "tradeoff": "tradeoff.json", "mc": "manifest.json"}
    assert (tmp_path / manifest[command]).read_bytes() == before[manifest[command]]


@pytest.mark.parametrize("command", ["mc", "tradeoff"])
def test_a_failed_render_writes_nothing(command, data_csv, tmp_path, capsys, monkeypatch):
    argv = {
        "tradeoff": ["tradeoff", "--data", str(data_csv)] + BASE + ["--grid", "2,4",
                                                                    "--n-sim", "120"],
        "mc": TestMcCommand.ARGS,
    }[command] + ["--out", str(tmp_path)]
    assert run(argv + ["--seed", "1"], capsys)[0] == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_manifest", fail)
    code, _, err = run(argv, capsys)
    assert (code, err.splitlines()[-1]) == (1, "error: boom")
    assert "wrote" not in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["test", "tradeoff"])
@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_a_date_bound_without_date_col_names_the_flags(command, flag, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(tradeoff, "fit_ar", _no_fit)
    out_dir = tmp_path / "x"
    code, out, err = run([command, "--data", str(tmp_path / "none.csv")] + BASE
                         + [flag, "2000:01", "--out", str(out_dir)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "error: --from and --to require --date-col"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["mc", "tradeoff"])
def test_running_out_of_memory_exits_1(command, data_csv, tmp_path):
    # 2**32 replications pass the count check; their matrix cannot be allocated.
    out_dir = tmp_path / "x"
    child = subprocess.run(
        [sys.executable, "-c", TestTradeoffCommand.GRID_CHILD,
         *_count_argv(command, data_csv, str(2**32)), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(epatest.__file__).parents[1])},
    )
    assert json.loads(child.stdout)["code"] == 1
    assert child.stderr.splitlines()[-1].startswith("error: Unable to allocate")
    assert "Traceback" not in child.stderr
    assert not out_dir.exists()
