"""Record the golden outputs that every benchmark op is checked against.

Run from the root of a checkout of the commit whose outputs are the
reference (goldens are never regenerated by a change that claims a gain):

    python3 perfbench/make_golden.py

It runs one op per workload and input variant, in process, and writes what
``Workload.extract`` keeps to ``perfbench/golden/<workload>/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import epatest.cli as cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    scratch = ROOT / ".perfbench" / "golden-work"
    for workload in workloads.WORKLOADS.values():
        variants = range(workloads.N_VARIANTS) if workload.seeded else [0]
        for variant in variants:
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            workload.write_inputs(scratch, variant)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(workload.argv(scratch))
            if code != 0:
                print(f"{workload.name} variant {variant}: exit code {code}", file=sys.stderr)
                return 1
            path = workload.golden_path(variant)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(workload.extract(scratch), indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
