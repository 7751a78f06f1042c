"""The command line's contract, over argument lists drawn from a small grammar.

For every flag the grammar offers valid and invalid values, on tiny grids
(``--n-sim 100``, ``--n-reps 100``) and on data files that include a
directory and a path below a regular file. Whatever the arguments:

* nothing escapes ``main`` except argparse's ``SystemExit(2)``;
* the exit status is 0, 1 or 3;
* exit status 1 leaves ``--out`` as it was: no file, and no directory;
* ``main`` keeps no state from one call to the next: a sequence of lists
  run through its one shared parser gives, for each list, the exit status,
  output and files the list gives on a freshly built parser.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epatest import cli
from epatest.cli import main

OMIT = None  # as an invalid value: leave the flag out
DATA = (("data:ok",),
        ("data:constant", "data:short", "data:malformed", "data:empty", "data:missing",
         "data:directory", "data:below-file", OMIT))
OUT = (("out:new", "out:nested", "out:existing"), ("out:file", "out:below-file"))

# Each flag maps to (valid values, invalid values); a flag that takes no
# value has the valid value "". The first dict of a command holds the flags
# every list gives; mc and tradeoff always get their size flags, since the
# defaults are the full multi-minute designs.
DATA_FLAGS = {
    "--data": DATA,
    "--forecast-cols": (("A,B", "B,A"), ("A", "A,Q", ",", OMIT)),
    "--realization-col": (("Y",), ("Q", OMIT)),
    "--date-col": (("X1",), ("Q", OMIT)),
}
DATA_OPTIONS = {
    "--na-policy": (("drop", "zero"), ("keep",)),
    "--from": (("1990:01", "1992:03"), ("2001:01",)),
    "--to": (("1999:04",), ("1980:01",)),
    "--loss": (("squared", "absolute"), ("cubic",)),
}
COMMANDS = {
    "test": (DATA_FLAGS, {
        **DATA_OPTIONS,
        "--method": (("all", "dm_r", "dm_fb", "dm_im", "dm_wpe", "dm_im_q3"),
                     ("dm_zzz", "dm_im_q1", "dm_im_q02")),
        "--h": (("1", "3"), ("0", "48", "-1", "a")),
        "--cl": (("0.05", "0.1"), ("0", "1.5", "nan")),
        "--M": (("2", "5"), ("0", "60")),
        "--B": (("4",), ("0", "60")),
        "--m": (("3",), ("0", "30")),
        "--q": (("2", "5"), ("1", "60")),
        "--out": OUT,
    }),
    "tradeoff": ({**DATA_FLAGS, "--n-sim": (("100",), ("99", "0", "1.5", "100000000000")),
                  "--out": (OUT[0], OUT[1] + (OMIT,))}, {
        **DATA_OPTIONS,
        "--grid": (("2,4", "1:3", "3"),
                   ("1,1,2", "a", "5:2", "0", "60", "2:", "1:2:3", " , ")),
        "--alt-grid-size": (("20", "3"), ("0", "-1")),
        "--seed": (("0", "3"), ("-1", "x")),
        "--max-ar-order": (("2", "0"), ("-1", "30")),
        "--no-svg": (("",), ()),
    }),
    "mc": ({
        "--families": (("ucr", "cr"), ("ucr,bogus", ",")),
        "--h-set": (("1", "1,3"), ("1,1", "a", "0")),
        "--r-set": (("25", "25,75"), ("2", "x", "0")),
        "--rt-set": (("25", "25,75"), ("0", "b")),
        "--p-set": (("25",), ("1", "a", "25,25")),
        "--n-reps": (("100",), ("99", "1.5", "100000000000")),
        "--out": (OUT[0], OUT[1] + (OMIT,)),
    }, {
        "--methods": (("dm_r", "dm_r,dm_fb", "dm_im_q5", "dm_wpe"),
                      ("dm_r,dm_r", "dm_im_q1", "dm_im_q02", "dm_im,dm_im_q2", ",")),
        "--cl": (("0.05", "0.1"), ("2", "0")),
        "--seed": (("0", "7"), ("-1",)),
    }),
}


@st.composite
def argument_lists(draw):
    """A valid argument list, or one with a single flag given an invalid value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, sometimes = COMMANDS[command]
    chosen = {flag: draw(st.sampled_from(valid)) for flag, (valid, _) in always.items()}
    for flag, (valid, _) in sometimes.items():
        if draw(st.booleans()):
            chosen[flag] = draw(st.sampled_from(valid))
    flags = {**always, **sometimes}
    fault = draw(st.sampled_from([None, *(f for f, (_, bad) in flags.items() if bad)]))
    if fault is not None:
        chosen[fault] = draw(st.sampled_from(flags[fault][1]))
    argv = [command]
    for flag, value in chosen.items():
        if value is not OMIT:
            argv += [flag] if value == "" else [flag, value]
    return argv


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(5)

    def forecast_file(name, rows):
        path = root / name
        lines = (f"{1990 + t // 4}:{t % 4 + 1:02d},{a},{b},{y}\n"
                 for t, (a, b, y) in enumerate(rows))
        path.write_text("X1,A,B,Y\n" + "".join(lines))
        return path

    y = rng.standard_normal(48)
    f1, f2 = (y + scale * rng.standard_normal(48) for scale in (1.2, 0.8))
    (root / "regular").write_text("")
    (root / "directory").mkdir()
    (root / "empty.csv").write_text("")
    (root / "malformed.csv").write_text("X1,A,B,Y\n1990:01,1.0,x,2.0\n")
    return {
        "data:ok": forecast_file("ok.csv", zip(f1.tolist(), f2.tolist(), y.tolist())),
        "data:constant": forecast_file("constant.csv", [(1.0, 1.0, 0.0)] * 48),
        "data:short": forecast_file("short.csv", [(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)] * 3),
        "data:malformed": root / "malformed.csv",
        "data:empty": root / "empty.csv",
        "data:missing": root / "missing.csv",
        "data:directory": root / "directory",
        "data:below-file": root / "regular" / "data.csv",
    }


def _snapshot(path: Path):
    """What lies at ``path``: None, a regular file's bytes, or every path under
    the directory, relative to it, with its bytes (None for a directory)."""
    if not path.exists():
        return None
    if not path.is_dir():
        return path.read_bytes()
    return {str(p.relative_to(path)): None if p.is_dir() else p.read_bytes()
            for p in sorted(path.rglob("*"))}


def _call(argv, data_files, scratch: Path):
    """Run ``argv`` with its placeholders resolved, its ``--out`` under ``scratch``.

    Returns the exit status (``"SystemExit(<code>)"`` when ``main`` raised
    it), standard output, the error stream with ``scratch`` read as
    SCRATCH, and what ``--out`` held before and after the call.
    """
    (scratch / "file").write_text("")
    (scratch / "existing").mkdir()
    outs = {
        "out:new": scratch / "new",
        "out:nested": scratch / "a" / "b",
        "out:existing": scratch / "existing",
        "out:file": scratch / "file",
        "out:below-file": scratch / "file" / "sub",
    }
    places = {**data_files, **outs}
    argv = [str(places.get(arg, arg)) for arg in argv]
    out = next((outs[a] for a in outs if str(outs[a]) in argv), None)
    before = None if out is None else _snapshot(out)
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    after = None if out is None else _snapshot(out)
    return code, stdout.getvalue(), err.getvalue().replace(str(scratch), "SCRATCH"), before, after


DATA_ARGS = ["--forecast-cols", "A,B", "--realization-col", "Y"]


# The defects this contract was written against, so every run covers them.
@example(argv=["test", "--data", "data:directory", *DATA_ARGS])
@example(argv=["test", "--data", "data:below-file", *DATA_ARGS])
@example(argv=["mc", "--families", "ucr", "--h-set", "1", "--r-set", "25", "--rt-set", "25",
               "--p-set", "25", "--n-reps", "100", "--out", "out:below-file"])
@example(argv=["tradeoff", "--data", "data:ok", *DATA_ARGS, "--n-sim", "100",
               "--out", "out:file"])
@example(argv=["tradeoff", "--data", "data:ok", *DATA_ARGS, "--n-sim", "100",
               "--grid", "1,1,2", "--out", "out:new"])
@settings(max_examples=200, deadline=None)
@given(argv=argument_lists())
def test_main_exits_0_1_or_3_and_exit_1_writes_nothing(argv, data_files):
    with tempfile.TemporaryDirectory() as scratch:
        code, _, err, before, after = _call(argv, data_files, Path(scratch))
    if code == "SystemExit(2)":
        return
    assert code in (0, 1, 3), (argv, err)
    if code == 1:
        assert err.startswith("error: "), argv
        assert after == before, (argv, err)


TRADEOFF_ARGS = ["tradeoff", "--data", "data:ok", *DATA_ARGS, "--n-sim", "100",
                 "--grid", "2,4", "--out", "out:new"]
TEST_ARGS = ["test", "--data", "data:ok", *DATA_ARGS, "--out", "out:new"]


# A flag, then its default; an argument error, then a valid list.
@example(argvs=[TRADEOFF_ARGS + ["--no-svg"], TRADEOFF_ARGS])
@example(argvs=[TEST_ARGS + ["--M", "5", "--method", "dm_fb"], TEST_ARGS])
@example(argvs=[TEST_ARGS + ["--method", "dm_zzz"], TEST_ARGS])
@settings(max_examples=60, deadline=None)
@given(argvs=st.lists(argument_lists(), min_size=2, max_size=3))
def test_calls_in_sequence_equal_calls_on_a_fresh_parser(argvs, data_files):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        shared, fresh = [], []
        for i, argv in enumerate(argvs):
            (scratch / f"shared{i}").mkdir()
            shared.append(_call(argv, data_files, scratch / f"shared{i}"))
        for i, argv in enumerate(argvs):
            cli._parser.cache_clear()
            (scratch / f"fresh{i}").mkdir()
            fresh.append(_call(argv, data_files, scratch / f"fresh{i}"))
    for argv, one, other in zip(argvs, shared, fresh):
        assert one == other, argv
