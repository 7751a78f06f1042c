import csv
import json
import math
import platform
from pathlib import Path

import numpy as np
import scipy
import pytest

from epatest.cli import build_parser, main
from epatest.dmtests import DegenerateVarianceError, dm_test_r
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


def environment() -> dict:
    """The environment record every manifest should carry on this interpreter."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self, data_csv):
        args = build_parser().parse_args(["test", "--data", str(data_csv)] + BASE)
        assert args.method == "all" and args.h == 1 and args.cl == 0.05 and args.q == 2
        args = build_parser().parse_args(
            ["tradeoff", "--data", str(data_csv)] + BASE + ["--out", "x"]
        )
        assert args.n_sim == 5000 and args.alt_grid_size == 20 and args.seed == 0
        args = build_parser().parse_args(["mc", "--out", "x"])
        assert args.n_reps == 5000 and args.p_set == "25,75,125,175,1000"

    def test_bad_choice_exits_2(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["test", "--data", str(data_csv)] + BASE + ["--method", "dm_zzz"]
            )
        assert exc.value.code == 2


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

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(["test", "--data", str(tmp_path / "none.csv")] + BASE, capsys)
        assert code == 1
        assert err.startswith("error:")

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
            "warning: nonpositive variance estimate -0.0590446 "
            "(rectangular kernel, bandwidth 3); statistic undefined"
        ] * 2
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
            assert f"warning: {reason}" in err.splitlines()
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
            "dm_r": "horizon 12 needs at least 13 observations, got 12",
            "dm_m": "small-sample correction factor is nonpositive at P=12, h=12; "
                    "the horizon is too large for this sample",
        }
        rows = self._check(["test", "--data", str(short_csv)] + BASE + ["--h", "12"],
                           unsupported, tmp_path, capsys)
        # the lag-window tests with their own bandwidths are defined
        for name in ("dm_nw", "dm_nw_l", "dm_fb", "dm_ewc", "dm_wpe", "dm_im"):
            float(rows[name][1])

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

    def test_svg_markers(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "t"
        self._run(data_csv, out_dir, capsys)
        svg = (out_dir / "tradeoff.svg").read_text()
        assert svg.startswith("<svg")
        assert "<circle" in svg or "<line" in svg  # non-rejection / rejection markers


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

    def test_progress_line_per_cell(self, tmp_path, capsys):
        code, _, err = run(self.ARGS + ["--out", str(tmp_path / "mc")], capsys)
        assert code == 0
        cells = [(R, Rt, P) for R in (25, 75) for Rt in (25, 75) for P in (25, 75)]
        assert [ln for ln in err.splitlines() if ln.startswith("[")] == [
            f"[{i}/8] family=ucr h=1 R={R} R_tilde={Rt} P={P}"
            for i, (R, Rt, P) in enumerate(cells, start=1)
        ]
