"""Importing the CLI loads none of SciPy's heavy subpackages.

Cold start is most of the wall time of a single ``epatest test`` call, and
``scipy.stats`` and ``scipy.signal`` (with what they import) were most of
that. The import runs in a fresh interpreter, so nothing the test session
has already imported can hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import epatest

HEAVY = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.optimize")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    src = str(Path(epatest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys\n"
        "import epatest.cli\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
