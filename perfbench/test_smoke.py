"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_checked_and_traced():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for name in workloads.WORKLOADS:
        assert f"smoke {name}: attempted 2, failed 0" in proc.stdout
    for name, _unit, _better, _moves in layers.PER_LAYER:
        assert f"  {name} " in proc.stdout


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.PER_LAYER]


def test_golden_check_catches_changed_outputs():
    mc = workloads.WORKLOADS["mc_ucr_p75"]
    golden = json.loads(mc.golden_path(0).read_text())
    assert mc.compare(golden, golden) == []
    changed = copy.deepcopy(golden)
    row = changed["matrices"]["ucr_dm_r_size.csv"][2]
    row[3] = repr(float(row[3]) + 0.01)
    assert mc.compare(changed, golden)
    changed = copy.deepcopy(golden)
    changed["degenerate_counts"]["dm_r"] += 1
    assert mc.compare(changed, golden)

    test = workloads.WORKLOADS["cli_test_single"]
    golden = json.loads(test.golden_path(3).read_text())
    assert test.compare(golden, golden) == []
    changed = copy.deepcopy(golden)
    changed["results"][0]["stat"] *= 1 + 1e-6
    assert test.compare(changed, golden)
    changed = copy.deepcopy(golden)
    changed["results"][0]["stat"] *= 1 + 1e-12
    assert test.compare(changed, golden) == []

    tradeoff = workloads.WORKLOADS["tradeoff_ar1"]
    golden = json.loads(tradeoff.golden_path(5).read_text())
    assert tradeoff.compare(golden, golden) == []
    changed = copy.deepcopy(golden)
    changed["rows"][4][1] = repr(float(changed["rows"][4][1]) + 1.0 / golden["n_sim"])
    assert tradeoff.compare(changed, golden)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mc_ucr_p75",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
