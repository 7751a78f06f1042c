"""The epatest benchmark: one workload, one run, every metric by name.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload mc_ucr_p75 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics, from a traced pass that follows an untraced
one in the same process. ``--smoke`` runs every workload for one op per
pass, with the golden check and the traced pass, and ends each workload's
per-layer table with a ``smoke <workload>: attempted N, failed M`` line.

The benchmark's ``--seed`` picks the input variant; every op's output is
checked against the golden output of that variant, and an op that raises,
exits nonzero or differs from its golden file counts as failed. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics with
their sample counts, and the run record (machine, versions, load average).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 4  # extra fresh processes that only set up; with the main one, 5 samples
# Host-speed scaling. This host shares its cores: while neighbours run,
# everything here slows by 1.3x to 2x, in phases of seconds, so raw times
# mostly measure the neighbours. Work between two pauses of the worker is
# multiplied by REF_NOMINAL_S / (mean time of worker.reference_seconds in
# those pauses), and each set-up time by SETUP_REF_NOMINAL_S / (time of
# worker.interpreter_reference_seconds measured around it). The nominal
# values are those kernels' times on an uncontended core of the machine the
# baseline was recorded on, so scaled figures estimate an uncontended run.
# Import work slows less under contention than the NumPy-call kernel does,
# hence the separate pure-interpreter kernel for set-up.
REF_NOMINAL_S = 0.0021
SETUP_REF_NOMINAL_S = 0.0020
WORKER_TIMEOUT_S = 120

# The metrics of BENCHMARK.json. call_ms_p99 is printed but not among them:
# a run holds only ~20 calls of tradeoff_ar1 and ~30 of mc_cr_p1000, so
# their p99 is the slowest call, which no bound can hold steady here.
END_TO_END = [
    ("setup_s", "s"),
    ("reps_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn_worker(workload: str, variant: int, workdir: Path, extra: list[str]) -> dict:
    """Run worker.py in a fresh process and return its result record."""
    result_path = workdir / f"result-{len(list(workdir.glob('result-*')))}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--variant", str(variant), "--workdir", str(workdir / "io"),
           "--result", str(result_path), *extra]
    spawned = _now_ns()
    proc = subprocess.run([*cmd, "--spawned-ns", str(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class HostScale:
    """Scales work time within a pass by the reference timings around it.

    ``pauses`` are the worker's [start, end, reference seconds] records. The
    work between two pauses runs at REF_NOMINAL_S / (mean of their reference
    times) of its measured speed's cost; pauses themselves are left out.
    """

    def __init__(self, pauses: list[list[float]]):
        self.pauses = pauses
        self._ends = [end for _start, end, _ref in pauses]
        self.factors = [REF_NOMINAL_S / statistics.mean((p[2], q[2]))
                        for p, q in zip(pauses, pauses[1:])]

    def seconds(self, a: float, b: float, scaled: bool = True) -> float:
        """Work time in [a, b], host-scaled unless ``scaled`` is false."""
        total = 0.0
        i = max(bisect.bisect_right(self._ends, a) - 1, 0)
        while i < len(self.factors) and self.pauses[i][1] < b:
            overlap = min(b, self.pauses[i + 1][0]) - max(a, self.pauses[i][1])
            if overlap > 0:
                total += overlap * (self.factors[i] if scaled else 1.0)
            i += 1
        return total


def scale_pass(pass_record: dict, reps_per_call: int) -> dict:
    """Host-scaled call latencies (ms) and throughput of one pass, and unscaled ones."""
    scale = HostScale(pass_record["pauses"])
    calls = [scale.seconds(a, b) * 1e3 for a, b in pass_record["calls"]]
    raw = [scale.seconds(a, b, scaled=False) * 1e3 for a, b in pass_record["calls"]]
    reps = len(calls) * reps_per_call
    return {"call_ms": calls, "call_ms_raw": raw,
            "reps_per_s": reps / sum(calls) * 1e3, "reps_per_s_raw": reps / sum(raw) * 1e3,
            "ms_per_rep": sum(calls) / reps}


def scale_edges(pass_record: dict) -> list[list]:
    """Span edges of a traced pass, host-scaled interval by interval."""
    factors = HostScale(pass_record["pauses"]).factors
    edges: dict[tuple, list[float]] = {}
    for factor, interval in zip(factors, pass_record["edges"]):
        for parent, name, calls, incl, self_ns in interval:
            rec = edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl * factor
            rec[2] += self_ns * factor
    return [[parent, name, *rec] for (parent, name), rec in edges.items()]


def end_to_end(main: dict, setups: list[tuple[float, float]], reps_per_call: int) -> dict:
    """Every end-to-end metric as (value, unit, note); the note gives the unscaled figure."""
    s = scale_pass(main["untraced"], reps_per_call)
    calls, raw = s["call_ms"], s["call_ms_raw"]
    setup = [seconds * SETUP_REF_NOMINAL_S / ref for seconds, ref in setups]
    p99 = _quantile(calls, 0.99)
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes; "
                    f"unscaled {statistics.median(seconds for seconds, _ref in setups):.4g}"),
        "reps_per_s": (s["reps_per_s"], "1/s",
                       f"{len(calls) * reps_per_call} reps over all calls; "
                       f"unscaled {s['reps_per_s_raw']:.4g}"),
        "call_ms_p50": (statistics.median(calls), "ms",
                        f"{len(calls)} calls; unscaled {statistics.median(raw):.4g}"),
        "call_ms_p99": (p99, "ms", f"{len(calls)} calls, {sum(c > p99 for c in calls)} beyond "
                                   f"it; unscaled {_quantile(raw, 0.99):.4g}"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "ru_maxrss of the measuring process"),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probes: int, max_ops: int) -> dict:
    """Set-up probes, then the measuring process; returns everything measured."""
    workload = workloads.WORKLOADS[name]
    variant = seed % workloads.N_VARIANTS
    workdir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        setups = []
        for _ in range(probes):
            probe = _spawn_worker(name, variant, workdir, ["--setup-only", "--seconds", "0"])
            setups.append((probe["setup_s"], probe["setup_ref_s"]))
        main = _spawn_worker(name, variant, workdir,
                             ["--seconds", str(seconds), "--trace", str(int(trace)),
                              "--max-ops", str(max_ops)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()
    passes = [main["untraced"]] + ([main["traced"]] if trace else [])
    record = {
        "workload": name, "seed": seed, "variant": variant, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        **main["versions"], "git_commit": _git_commit(),
        "loadavg_before": load_before, "loadavg_after": load_after,
    }
    return {
        "workload": workload,
        "setups": setups + [(main["setup_s"], main["setup_ref_s"])],
        "main": main,
        "attempted": sum(len(p["durations_s"]) for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "record": record,
    }


def _print_metrics(rows: dict) -> None:
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    workload = run["workload"]
    work = workload.work_per_op()
    print(f"workload {workload.name}: {workload.why}")
    print(f"  unit of work: {workload.work_unit}, {work} per op")
    if trace:
        main = run["main"]
        per_call = workload.reps_per_call()
        traced_scale = HostScale(main["traced"]["pauses"])
        output_s = [traced_scale.seconds(a, b) for a, b in main["traced"]["outputs"]]
        values = layers.per_layer_metrics(
            scale_edges(main["traced"]), main["traced"], output_s, work,
            untraced=scale_pass(main["untraced"], per_call),
            traced=scale_pass(main["traced"], per_call))
        rows = {name: (values[name], unit, f"-> {moves}")
                for name, unit, _better, moves in layers.PER_LAYER}
        metrics = {name: (values[name], unit) for name, unit, _b, _m in layers.PER_LAYER}
        _print_metrics(rows)
        self_sum, traced_ms, untraced_ms = (values[f"trace.{k}_ms_per_rep"]
                                            for k in ("self_sum", "traced", "untraced"))
        print(f"  self times sum to {self_sum:.4f} ms/rep against {traced_ms:.4f} ms/rep traced "
              f"({(self_sum / traced_ms - 1) * 100:+.2f}%); they exceed the untraced "
              f"{untraced_ms:.4f} ms/rep by {self_sum - untraced_ms:+.4f} ms/rep, the tracing "
              f"overhead being {traced_ms - untraced_ms:+.4f} ms/rep")
    else:
        values = end_to_end(run["main"], run["setups"], workload.reps_per_call())
        _print_metrics(values)
        metrics = {name: values[name][:2] for name, _unit in END_TO_END}
    failed, attempted = run["failed"], run["attempted"]
    print(f"  {'failed_ratio':<40} {failed}/{attempted} = {failed / attempted:.6g} "
          "failed/attempted")
    print("run_record " + json.dumps(run["record"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="epatest benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, one op per pass, traced, one line each")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epatest" / "cli.py").is_file():
        print(f"error: no epatest source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            run = run_workload(name, args.seed, 0.0, trace=True, probes=0, max_ops=1)
            result = report(run, trace=True)
            ok = ok and result["correct"]
            print(f"smoke {name}: attempted {result['attempted']}, failed {result['failed']}")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       probes=SETUP_PROBES, max_ops=1_000_000)
    print(json.dumps(report(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
