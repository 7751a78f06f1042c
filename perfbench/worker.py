"""One fresh benchmark process: set up, run timed ops, check them, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. The parent passes its
``CLOCK_MONOTONIC`` reading taken just before the spawn, so ``setup_s``
covers interpreter start, ``import epatest.cli`` and writing the seeded
inputs. The worker then runs ops for ``--seconds`` (a pass), checking each
op's output against its golden file outside the timed region. With
``--trace 1`` a second, traced pass follows the untraced one. The result
goes to the JSON file named by ``--result``.

A call is the unit one latency is taken over: one ``test`` or ``tradeoff``
op, or one cell of an ``mc`` op (``epatest mc`` writes a ``[i/N] ...``
progress line to standard error as each cell starts, and those instants
split the op). During a pass, a timer interrupts the program every
``TICK_S`` to time the reference kernel; ``run.py`` scales the work between
two such pauses by their reference times, and leaves the pauses out of
every call, op and span.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

TICK_S = 0.1


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def reference_seconds() -> float:
    """Time a fixed kernel: 400 rounds of small NumPy calls on a 75-element array.

    It is the kind of work epatest does per test (interpreter dispatch around
    tiny array operations), so host contention slows it about as much as it
    slows the program.
    """
    import numpy as np

    a = np.arange(75.0)
    start = time.perf_counter()
    for _ in range(400):
        x = a - a.mean()
        float(np.dot(x[:70], x[5:]))
    return time.perf_counter() - start


def interpreter_reference_seconds() -> float:
    """Time a fixed pure-Python kernel, for scaling set-up (imports are interpreter work)."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    return time.perf_counter() - start


class _Pauses:
    """Times the reference kernel from a SIGALRM handler every ``TICK_S``.

    The handler runs in the main thread between bytecodes. Each pause is
    recorded as [start, end, reference seconds]; with a tracer, the span
    edges completed between two pauses are kept with the interval.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.pauses: list[list[float]] = []
        self.edges: list[list] = []
        self._starts: list[float] = []
        self._snapshot: dict = {}

    def _pause(self, *_signal_args) -> None:
        if self.tracer is not None:
            edges, snap = self.tracer.edges, self._snapshot
            if self.pauses:
                zero = [0, 0, 0]
                self.edges.append([[*key, *(a - b for a, b in zip(rec, snap.get(key, zero)))]
                                   for key, rec in edges.items() if rec != snap.get(key)])
            self._snapshot = {key: list(rec) for key, rec in edges.items()}
        start = time.perf_counter_ns()
        ref = reference_seconds()
        end = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.exclude(end - start)
        self.pauses.append([start / 1e9, end / 1e9, ref])
        self._starts.append(start / 1e9)

    def __enter__(self):
        self._pause()
        signal.signal(signal.SIGALRM, self._pause)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._pause()

    def paused(self, a: float, b: float) -> float:
        """Seconds of pauses that started within [a, b]."""
        i = bisect.bisect_left(self._starts, a)
        return sum(p[1] - p[0] for p in self.pauses[i:] if p[0] < b)


class _ProgressSink:
    """Discards the CLI's output, noting when each ``mc`` progress line arrives."""

    def __init__(self, devnull):
        self._devnull = devnull
        self.marks: list[float] = []

    def write(self, text):
        if text.startswith("["):
            self.marks.append(time.perf_counter())
        return self._devnull.write(text)

    def flush(self):
        self._devnull.flush()


def run_pass(cli, workload, workdir: Path, golden: dict, seconds: float, max_ops: int,
             tracer=None) -> dict:
    """Run ops until ``seconds`` have passed (or ``max_ops`` ops); return their timings."""
    argv = workload.argv(workdir)
    calls, durations, failures, outputs, null_paths = [], [], [], [], []
    devnull = open(os.devnull, "w")
    sink = _ProgressSink(devnull)
    real_out, real_err = sys.stdout, sys.stderr
    deadline = time.perf_counter() + seconds
    try:
        with _Pauses(tracer) as pauses:
            while len(durations) < max_ops and (not durations or time.perf_counter() < deadline):
                for path in workload.outputs(workdir):
                    path.unlink(missing_ok=True)
                if tracer is not None:
                    tracer.null_paths.clear()
                    tracer.last_end.clear()
                sink.marks.clear()
                sys.stdout, sys.stderr = devnull, sink
                error = None
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # an op that raises is a failed op, not a crash
                    code, error = None, traceback.format_exc()
                finally:
                    end = time.perf_counter()
                    sys.stdout, sys.stderr = real_out, real_err
                # The first cell's call starts with the op; the last ends with it.
                cuts = [start, *sink.marks[1:], end]
                calls += [[a, b] for a, b in zip(cuts, cuts[1:])]
                durations.append(end - start - pauses.paused(start, end))
                if tracer is not None:
                    compute = tracer.last_end.get(
                        "mc.run_experiment", tracer.last_end.get("tradeoff.build_tradeoff_curve"))
                    if compute is not None:
                        outputs.append([compute / 1e9, tracer.last_end["cli.main"] / 1e9])
                    null_paths.append(len(tracer.null_paths))
                if error is None and code != 0:
                    error = f"exit code {code}"
                if error is None:
                    problems = workload.compare(workload.extract(workdir), golden)
                    if problems:
                        error = "golden mismatch: " + "; ".join(problems[:5])
                if error is not None:
                    failures.append(error)
                    print(f"op {len(durations)} failed: {error}", file=sys.stderr)
    finally:
        devnull.close()
    return {"calls": calls, "durations_s": durations, "pauses": pauses.pauses,
            "edges": pauses.edges, "failures": failures, "outputs": outputs,
            "null_paths": null_paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=1_000_000)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    ref_before_setup = interpreter_reference_seconds()

    import epatest.cli as cli

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(workdir, args.variant)
    setup_s = (_now_ns() - args.spawned_ns) / 1e9

    result = {"setup_s": setup_s,
              "setup_ref_s": (ref_before_setup + interpreter_reference_seconds()) / 2}
    if not args.setup_only:
        import resource

        import numpy
        import scipy

        golden = json.loads(workload.golden_path(args.variant).read_text())
        result["untraced"] = run_pass(cli, workload, workdir, golden, args.seconds, args.max_ops)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result["traced"] = run_pass(cli, workload, workdir, golden, args.seconds,
                                            args.max_ops, tracer)
            finally:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
