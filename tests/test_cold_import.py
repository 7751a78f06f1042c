"""Each command loads only the SciPy subpackages it uses.

Cold start is most of the wall time of a single ``epatest test`` call, and
``scipy.stats`` and ``scipy.signal`` (with what they import) were most of
that. ``scipy.fft`` (the truncated impulse-response filter of the
conditional-rolling simulator and of the tradeoff's null paths) and
``scipy.linalg`` (the banded solve that computes both impulse responses) are
imported inside the functions that use them, so importing the package,
``epatest test`` and an unconditional-rolling ``epatest mc`` never load them,
and ``epatest tradeoff`` and a conditional-rolling cell load both.
Every check runs in a fresh interpreter, so nothing the test session has
already imported can hide a regression.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import epatest

HEAVY = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.optimize",
         "scipy.fft", "scipy.linalg")
DEFERRED = ("scipy.fft", "scipy.linalg")


def _fresh_python(code: str) -> list:
    """Run ``code`` in a new interpreter that imports this checkout; return its JSON output."""
    src = str(Path(epatest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _heavy_loaded_by_import(module: str) -> list:
    return _fresh_python(
        "import json, sys\n"
        f"import {module}\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n"
    )


def test_package_import_leaves_heavy_scipy_subpackages_unloaded():
    assert _heavy_loaded_by_import("epatest") == []


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    assert _heavy_loaded_by_import("epatest.cli") == []


def test_each_command_loads_only_the_subpackages_it_uses(tmp_path):
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["A", "B", "Y"])
        w.writerows(rng.standard_normal((60, 3)).round(6).tolist())
    base = ["--data", str(data), "--forecast-cols", "A,B", "--realization-col", "Y"]
    cell = ["--h-set", "1", "--r-set", "25", "--rt-set", "25", "--p-set", "25",
            "--n-reps", "100"]
    steps = [
        ["test", *base],
        ["tradeoff", *base, "--n-sim", "100", "--grid", "1,2", "--no-svg",
         "--out", str(tmp_path / "tradeoff")],
        ["mc", "--families", "ucr", *cell, "--out", str(tmp_path / "ucr")],
        ["mc", "--families", "cr", *cell, "--out", str(tmp_path / "cr")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from epatest import cli\n"
        "loaded = []\n"
        f"for argv in {steps!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        f"    loaded.append([code, sorted(m for m in {DEFERRED!r} if m in sys.modules)])\n"
        "print(json.dumps(loaded))\n"
    )
    assert _fresh_python(code) == [
        [0, []],
        [0, ["scipy.fft", "scipy.linalg"]],
        [0, ["scipy.fft", "scipy.linalg"]],
        [0, ["scipy.fft", "scipy.linalg"]],
    ]


def test_forked_cells_load_scipy_in_the_parent_only_for_cr(tmp_path):
    # Two workers run the cells. The parent loads scipy.fft and scipy.linalg
    # before it forks a grid with a cr cell, so that the workers inherit
    # them, and loads neither for a ucr grid.
    cells = ["--h-set", "1", "--r-set", "25,75", "--rt-set", "25", "--p-set", "25",
             "--n-reps", "100", "--jobs", "2"]
    steps = [["mc", "--families", family, *cells, "--out", str(tmp_path / family)]
             for family in ("ucr", "cr")]
    code = (
        "import contextlib, io, json, sys\n"
        "from epatest import cli\n"
        "loaded = []\n"
        f"for argv in {steps!r}:\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        f"    loaded.append([code, sorted(m for m in {DEFERRED!r} if m in sys.modules)])\n"
        "print(json.dumps(loaded))\n"
    )
    assert _fresh_python(code) == [[0, []], [0, ["scipy.fft", "scipy.linalg"]]]
