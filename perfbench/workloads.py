"""Workload definitions for the epatest benchmark.

Each workload is a closed loop of calls to ``epatest.cli.main(argv)`` in one
process. A workload knows how to write its seeded inputs, which argv one
operation (op) runs, how much work an op does, and how to compare an op's
output files against the golden outputs stored in ``golden/``.

The benchmark's ``--seed`` picks one of ``N_VARIANTS`` input variants
(``seed % N_VARIANTS``), and every variant has its golden output, so every
seed can be checked. The program's own ``--seed`` stays 0 throughout, as the
workload definitions ask; the ``mc`` workloads therefore read no seeded
input and are the same for every variant.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

N_VARIANTS = 16
PROGRAM_SEED = "0"

# Golden comparison: rejection rates, counts, decisions, labels and
# bandwidths must match exactly; other floats (statistics, p-values,
# critical values, power losses) within this tolerance.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return [row for row in csv.reader(fh)]


def _write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class Workload:
    """One benchmark workload; subclasses fill in the op and its check."""

    name = ""
    why = ""
    work_unit = ""
    seeded = True

    def golden_path(self, variant: int) -> Path:
        stem = f"variant_{variant:02d}" if self.seeded else "fixed"
        return GOLDEN_DIR / self.name / f"{stem}.json"

    def write_inputs(self, workdir: Path, variant: int) -> None:
        """Write the variant's input files under ``workdir`` (none by default)."""

    def argv(self, workdir: Path) -> list[str]:
        raise NotImplementedError

    def work_per_op(self) -> int:
        """Replications one op performs."""
        raise NotImplementedError

    def reps_per_call(self) -> int:
        """Replications per call: an op, or one cell of an ``mc`` op."""
        return self.work_per_op()

    def outputs(self, workdir: Path) -> list[Path]:
        """Files an op writes; removed before each op so stale files cannot pass."""
        raise NotImplementedError

    def extract(self, workdir: Path) -> dict:
        """The part of an op's output that the golden file records."""
        raise NotImplementedError

    def compare(self, actual: dict, golden: dict) -> list[str]:
        """Mismatches between an op's extracted output and its golden file."""
        raise NotImplementedError


class McWorkload(Workload):
    """``epatest mc`` on a fixed grid with the default nine-method battery."""

    work_unit = "cell-replications of the nine-method battery"
    seeded = False
    n_reps = 100  # the smallest the CLI accepts; one op is already seconds long

    def __init__(self, name, why, families, h_set, r_set, p_set):
        self.name = name
        self.why = why
        self.families = families
        self.h_set = h_set
        self.r_set = r_set
        self.p_set = p_set

    @property
    def n_cells(self) -> int:
        return (len(self.h_set.split(",")) * len(self.r_set.split(",")) ** 2
                * len(self.p_set.split(",")))

    def argv(self, workdir):
        return ["mc", "--families", self.families, "--h-set", self.h_set,
                "--r-set", self.r_set, "--rt-set", self.r_set, "--p-set", self.p_set,
                "--n-reps", str(self.n_reps), "--seed", PROGRAM_SEED,
                "--out", str(workdir / "out")]

    def work_per_op(self):
        return self.n_cells * self.n_reps

    def reps_per_call(self):
        return self.n_reps

    def outputs(self, workdir):
        out = workdir / "out"
        return sorted(out.glob("*.csv")) + [out / "manifest.json"]

    def extract(self, workdir):
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        return {
            "matrices": {name: _read_csv(out / name) for name in sorted(manifest["outputs"])},
            "degenerate_counts": manifest["degenerate_counts"],
        }

    def compare(self, actual, golden):
        problems = []
        if actual["degenerate_counts"] != golden["degenerate_counts"]:
            problems.append(f"degenerate counts {actual['degenerate_counts']} "
                            f"!= {golden['degenerate_counts']}")
        if sorted(actual["matrices"]) != sorted(golden["matrices"]):
            problems.append("matrix file names differ")
            return problems
        for name, want in golden["matrices"].items():
            got = actual["matrices"][name]
            if len(got) != len(want) or got[:1] != want[:1]:
                problems.append(f"{name}: shape or header differs")
                continue
            for got_row, want_row in zip(got[1:], want[1:]):
                # R, R_tilde and the diagonal flag are labels; every other
                # cell is a rejection rate or a size-corrected power, a
                # count over n_reps, so it must match exactly.
                if (got_row[:3] != want_row[:3] or len(got_row) != len(want_row)
                        or any((g == "") != (w == "") or (g and float(g) != float(w))
                               for g, w in zip(got_row[3:], want_row[3:]))):
                    problems.append(f"{name}: row {want_row[:2]} differs")
        return problems


class TradeoffWorkload(Workload):
    """``epatest tradeoff`` with the default bandwidth grid on a persistent series."""

    name = "tradeoff_ar1"
    why = ("persistent AR(1) series, P=96, grid 1..26: every bandwidth redraws the same "
           "null paths; no mc simulator and no EWC/WPE/rectangular estimator")
    work_unit = "(bandwidth, simulated replication) pairs"
    P = 96
    n_sim = 100  # TradeoffConfig's minimum, so an op is short and ops are many
    grid_size = 26  # 2 * ceil(1.3 sqrt(96)), the default grid's top

    def write_inputs(self, workdir, variant):
        # The loss differential of demos/bandwidth_tradeoff.py: an AR(1) with
        # coefficient 0.6, scaled by 0.8, plus a 0.18 mean shift. It is split
        # into two squared forecast errors around a noisy realization.
        rng = np.random.default_rng([variant, 11])
        eps = rng.standard_normal(500 + self.P)
        x = np.empty_like(eps)
        acc = 0.0
        for t, e in enumerate(eps):
            acc = 0.6 * acc + e
            x[t] = acc
        d = x[500:] * 0.8 + 0.18
        y = 1.0 + rng.standard_normal(self.P)
        e1 = np.sqrt(np.maximum(d, 0.0))
        e2 = np.sqrt(np.maximum(-d, 0.0))
        _write_rows(workdir / "tradeoff.csv", ["A", "B", "Y"],
                    ([repr(float(a)), repr(float(b)), repr(float(c))]
                     for a, b, c in zip(y - e1, y - e2, y)))

    def argv(self, workdir):
        return ["tradeoff", "--data", str(workdir / "tradeoff.csv"),
                "--forecast-cols", "A,B", "--realization-col", "Y",
                "--n-sim", str(self.n_sim), "--seed", PROGRAM_SEED,
                "--out", str(workdir / "out")]

    def work_per_op(self):
        return self.grid_size * self.n_sim

    def outputs(self, workdir):
        out = workdir / "out"
        return [out / "tradeoff.csv", out / "tradeoff.json", out / "tradeoff.svg"]

    def extract(self, workdir):
        out = workdir / "out"
        n_sim = json.loads((out / "tradeoff.json").read_text())["parameters"]["n_sim"]
        return {"n_sim": n_sim, "rows": _read_csv(out / "tradeoff.csv")}

    def compare(self, actual, golden):
        if actual["n_sim"] != golden["n_sim"]:
            return [f"n_sim {actual['n_sim']} != {golden['n_sim']}"]
        got, want = actual["rows"], golden["rows"]
        if len(got) != len(want) or got[:1] != want[:1]:
            return ["tradeoff.csv: shape or header differs"]
        n = golden["n_sim"]
        problems = []
        for g, w in zip(got[1:], want[1:]):
            M, sd, loss, rej = g
            wM, wsd, wloss, wrej = w
            # size_distortion is rejections / n_sim - 0.05: the rejection
            # count must match exactly.
            same_count = round((float(sd) + 0.05) * n) == round((float(wsd) + 0.05) * n)
            if (M != wM or rej != wrej or not same_count
                    or not _close(float(sd), float(wsd)) or not _close(float(loss), float(wloss))):
                problems.append(f"tradeoff.csv: bandwidth {wM} differs")
        return problems


class CliTestWorkload(Workload):
    """Repeated ``epatest test --method all`` calls on one quarterly CSV."""

    name = "cli_test_single"
    why = ("one-series path: load_csv with missing cells and a date filter, all eight "
           "tests incl. dm_wpe, JSON output; import kept out of the timed loop")
    work_unit = "test calls"
    n_rows = 120
    # Fixed missing cells, so every variant keeps the same number of rows
    # (95 after the 1995:01 filter and listwise deletion).
    missing = {(5, "A"), (17, "B"), (40, "A"), (58, "B"), (77, "Y"), (91, "A"), (103, "Y")}

    def write_inputs(self, workdir, variant):
        rng = np.random.default_rng([variant, 12])
        n = self.n_rows
        y = 2.0 + rng.standard_normal(n)
        # Overlapping four-quarter-ahead errors: MA(3) with weights 0.5^k.
        weights = 0.5 ** np.arange(4)
        u1 = rng.standard_normal(n + 3)
        u2 = rng.standard_normal(n + 3)
        a = y + 1.15 * np.convolve(u1, weights, mode="valid")
        b = y + 1.0 * np.convolve(u2, weights, mode="valid")
        rows = []
        for t in range(n):
            cells = {"A": f"{a[t]:.4f}", "B": f"{b[t]:.4f}", "Y": f"{y[t]:.4f}"}
            for col in cells:
                if (t, col) in self.missing:
                    cells[col] = "#N/A" if col == "Y" else ""
            rows.append([f"{1990 + t // 4}:{t % 4 + 1:02d}", cells["A"], cells["B"], cells["Y"]])
        _write_rows(workdir / "quarterly.csv", ["X1", "A", "B", "Y"], rows)

    def argv(self, workdir):
        return ["test", "--data", str(workdir / "quarterly.csv"),
                "--forecast-cols", "A,B", "--realization-col", "Y",
                "--date-col", "X1", "--from", "1995:01", "--na-policy", "drop",
                "--method", "all", "--h", "4", "--out", str(workdir / "out")]

    def work_per_op(self):
        return 1

    def outputs(self, workdir):
        return [workdir / "out" / "test_results.json"]

    def extract(self, workdir):
        payload = json.loads((workdir / "out" / "test_results.json").read_text())
        return {"n_obs": payload["n_obs"], "results": payload["results"]}

    def compare(self, actual, golden):
        if actual["n_obs"] != golden["n_obs"]:
            return [f"n_obs {actual['n_obs']} != {golden['n_obs']}"]
        if len(actual["results"]) != len(golden["results"]):
            return ["number of results differs"]
        problems = []
        for got, want in zip(actual["results"], golden["results"]):
            exact = ("method", "rej", "cl", "bandwidth", "df")
            approx = ("stat", "pval", "critical_value")
            if (any(got[k] != want[k] for k in exact)
                    or any((got[k] is None) != (want[k] is None)
                           or (want[k] is not None and not _close(got[k], want[k]))
                           for k in approx)):
                problems.append(f"{want['method']} differs")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            "mc_ucr_p75",
            "32 small cells (ucr, P=75): per-call overhead in dmtests, lrv and series "
            "dominates; simulation is ~2% of a replication",
            "ucr", "1,12", "25,75,125,175", "75",
        ),
        McWorkload(
            "mc_cr_p1000",
            "4 large cells (cr, P=1000): 10k-step lfilter burn-in and the 40-coefficient "
            "EWC loop dominate; per-call overhead matters little",
            "cr", "3", "25,175", "1000",
        ),
        TradeoffWorkload(),
        CliTestWorkload(),
    )
}
