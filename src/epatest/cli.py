"""Command-line interface.

Three subcommands over CSV forecast data:

* ``test``: run one or all equal-predictive-ability tests on a loss
  differential built from two forecast columns and a realization column;
* ``tradeoff``: estimate the bandwidth size-power tradeoff curve for the
  fixed-b test and write it as CSV, JSON, and an SVG scatter;
* ``mc``: run the simulation grid and write rejection-rate and
  size-corrected-power matrices.

Human-readable tables go to standard output, progress and warnings to the
error stream, and machine-readable results to files under ``--out``. Every
file-producing run also writes a manifest recording the command, its
parameters, the seed, the package version, and the environment (Python,
NumPy and SciPy versions, operating system and machine type). A command
renders all its files before it writes the first, so a failure while
rendering leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
from itertools import product
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import _check_columns, load_csv, loss_series
from .dmtests import METHODS, DegenerateVarianceError, TestOutcome, outcomes, procedure
from .lrv import bandwidth
from .mc import (
    DEFAULT_H_SET,
    DEFAULT_METHODS,
    DEFAULT_P_SET,
    DEFAULT_R_SET,
    _default_jobs,
    experiment_grid,
    run_experiment,
    size_corrected_powers,
)
from .tradeoff import TradeoffConfig, build_tradeoff_curve

__all__ = ["main", "build_parser"]

# Recorded in every manifest; no timestamp, so reruns stay byte-identical.
_ENVIRONMENT = {
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "system": platform.system(),
    "machine": platform.machine(),
    # The LAPACK/BLAS build fixes the bits of every autoregressive filter.
    "lapack": "{name} {version}".format(
        **scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]),
}

# The data-loading options of ``test`` and ``tradeoff``, in manifest order, and
# the bandwidth flags of ``test``: the registry's params, in METHODS order.
_DATA_OPTIONS = ("data", "forecast_cols", "realization_col", "na_policy", "date_col",
                 "date_from", "date_to", "loss")
_BANDWIDTH_FLAGS = tuple(dict.fromkeys(m.param for m in METHODS.values() if m.param))
# The grid flags of ``mc``, in argument order: what each lists, and its default.
_GRID_FLAGS = {"--h-set": ("horizons", DEFAULT_H_SET),
               "--r-set": ("DGP window sizes R", DEFAULT_R_SET),
               "--rt-set": ("forecast window sizes R-tilde", DEFAULT_R_SET),
               "--p-set": ("evaluation sample sizes P", DEFAULT_P_SET)}


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV file with forecasts and realizations")
    parser.add_argument(
        "--forecast-cols", required=True, metavar="COL1,COL2",
        help="comma-separated names of the two forecast columns, in the order "
             "that defines the loss differential L(e1) - L(e2)",
    )
    parser.add_argument("--realization-col", required=True, help="name of the realization column")
    parser.add_argument(
        "--na-policy", choices=("drop", "zero"), default="drop",
        help="drop rows with any missing value, or keep rows and zero the affected errors",
    )
    parser.add_argument("--date-col", default=None, help="textual date column (e.g. 2007:Q2)")
    parser.add_argument("--from", dest="date_from", default=None, metavar="DATE",
                        help="inclusive lower date bound (string comparison)")
    parser.add_argument("--to", dest="date_to", default=None, metavar="DATE",
                        help="inclusive upper date bound (string comparison)")
    parser.add_argument("--loss", choices=("squared", "absolute"), default="squared",
                        help="per-period loss function")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the three subcommands, built afresh on every call.

    :func:`main` parses with one parser per process, built on its first
    call; every default here is immutable (str, int, None or tuple), so
    reusing it carries nothing from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="epatest",
        description="Tests of equal predictive ability for two forecast sequences, "
                    "with fixed-smoothing alternatives, a bandwidth tradeoff "
                    "diagnostic, and a Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run equal-predictive-ability tests on CSV data")
    _add_data_arguments(p_test)
    p_test.add_argument("--method", default="all", help=f"test to run: {', '.join(METHODS)}, "
                        "dm_im_q<q> for the block test with q blocks, or all (default)")
    p_test.add_argument("--h", type=int, default=1, help="forecast horizon (default 1)")
    p_test.add_argument("--cl", type=float, default=0.05, help="significance level (default 0.05)")
    for param in _BANDWIDTH_FLAGS:
        users = [name for name, method in METHODS.items() if method.param == param]
        p_test.add_argument(f"--{param}", type=int, help=f"bandwidth of {' and '.join(users)} "
                            f"(default: {' and '.join(str(METHODS[u].default) for u in users)})")
    p_test.add_argument("--out", default=None, metavar="DIR",
                        help="directory for the JSON results file")
    p_test.set_defaults(func=cmd_test)

    p_tr = sub.add_parser("tradeoff",
                          help="bandwidth size-power tradeoff curve for the fixed-b test")
    _add_data_arguments(p_tr)
    p_tr.add_argument("--grid", default=None, metavar="A:B|M1,M2,...",
                      help="bandwidth grid, as an inclusive range 'a:b' or a comma list "
                           "(default: 1 up to twice the automatic bandwidth)")
    p_tr.add_argument("--n-sim", type=int, default=5000,
                      help="simulated replications per bandwidth (default 5000)")
    p_tr.add_argument("--alt-grid-size", type=int, default=20,
                      help="number of mean shifts on the alternative grid (default 20)")
    p_tr.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    p_tr.add_argument("--max-ar-order", type=int, default=None,
                      help="cap on the fitted autoregressive order")
    p_tr.add_argument("--out", required=True, metavar="DIR",
                      help="directory for tradeoff.csv, tradeoff.json, tradeoff.svg")
    p_tr.add_argument("--no-svg", action="store_true", help="skip the SVG scatter plot")
    p_tr.set_defaults(func=cmd_tradeoff)

    p_mc = sub.add_parser("mc", help="Monte Carlo size and size-corrected power grids")
    p_mc.add_argument("--families", default="ucr,cr",
                      help="comma list of DGP families: ucr, cr (default both)")
    for flag, (what, default) in _GRID_FLAGS.items():
        p_mc.add_argument(flag, default=",".join(map(str, default)),
                          help=f"comma list of {what} (default %(default)s)")
    p_mc.add_argument("--methods", default=", ".join(DEFAULT_METHODS),
                      help=f"comma list of tests, each at most once: {', '.join(METHODS)}, "
                      "or dm_im_q<q> for the block test with q blocks (default %(default)s)")
    p_mc.add_argument("--n-reps", type=int, default=5000,
                      help="replications per cell (default 5000)")
    p_mc.add_argument("--cl", type=float, default=0.05, help="significance level (default 0.05)")
    p_mc.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    p_mc.add_argument("--jobs", type=int, default=_default_jobs(), metavar="N",
                      help="worker processes, one cell each at a time; every N writes the same "
                      "bytes (default: the CPUs this process may use, here %(default)s)")
    p_mc.add_argument("--out", required=True, metavar="DIR", help="directory for result matrices")
    p_mc.set_defaults(func=cmd_mc)
    return parser


def _comma_list(text: str) -> tuple[str, ...]:
    """The nonblank items of a comma list."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _integers(flag: str, items) -> tuple[int, ...]:
    """The strings ``items`` as ints; one that is not an integer is an error naming ``flag``."""
    try:
        return tuple(int(item) for item in items)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that cannot become a writable directory, before any work starts."""
    existing = Path(path)
    while not existing.exists():  # ends at "." or "/"
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(f"--out {path}: {existing} is not a writable directory")


def _load_series(args) -> np.ndarray:
    cols = _check_columns(_comma_list(args.forecast_cols), args.realization_col,
                          ("--forecast-cols", "--realization-col"))
    date_range = (args.date_from, args.date_to)
    if date_range == (None, None):
        date_range = None
    elif args.date_col is None:  # before the file is opened
        raise ValueError("--from and --to require --date-col")
    ds = load_csv(args.data, cols, args.realization_col, na_policy=args.na_policy,
                  date_col=args.date_col, date_range=date_range)
    return loss_series(ds, args.loss)


def _options(args, *names) -> dict:
    return {name: getattr(args, name) for name in names}


def _write(path: Path, text: str) -> Path:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``:
    an interrupted or failed write leaves the previous file, or none, and no temporary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text)
        os.replace(temp, path)
    finally:  # after the rename there is nothing left to remove
        temp.unlink(missing_ok=True)
    return path


def _manifest(command: str, parameters: dict, seed, **results) -> str:
    """A JSON record of the run, then the command's own ``results`` in the order given."""
    payload = {"command": command, "parameters": parameters, "seed": seed,
               "software_version": __version__, "environment": _ENVIRONMENT, **results}
    return json.dumps(payload, indent=2) + "\n"


def _csv_field(value) -> str:
    """Booleans as true/false, floats by repr (exact round trip), None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(bool(value)).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv(header, rows) -> str:
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in [header, *rows])


def _outcome_record(method: str, proc, outcome, cl: float) -> dict:
    """One method's JSON record.

    A degenerate method has no ``stat``, ``pval`` or ``rej``; a method that
    refused the arguments (``proc`` is None) has none of the fields after ``cl``
    either.
    """
    ok = isinstance(outcome, TestOutcome)
    return {
        "method": method,
        "stat": outcome.stat if ok else None,
        "pval": outcome.pval if ok else None,
        "rej": outcome.rej if ok else None,
        "cl": cl,
        "critical_value": proc.critical_value if proc else None,
        "bandwidth": proc.bandwidth if proc else None,
        "df": proc.df if proc else None,
    }


def cmd_test(args) -> int:
    d = _load_series(args)
    names = tuple(METHODS) if args.method == "all" else (args.method,)
    planned, results = {}, {}
    for name in names:
        param = METHODS[name].param if name in METHODS else None  # dm_im_q<q> sets its q
        try:
            planned[name] = procedure(name, d.size, args.h, args.cl,
                                      getattr(args, param) if param else None)
        except ValueError as exc:
            # A method that refuses the arguments gets an "unsupported" row; when none
            # applies (a named method is a battery of one), the first refusal is raised.
            results[name] = exc
    if not planned:
        raise results[names[0]]
    results.update(zip(planned, outcomes(list(planned.values()), d, strict=False)))
    records = [_outcome_record(name, planned.get(name), results[name], args.cl)
               for name in names]
    print(f"n = {d.size} loss-differential observations")
    table = [("method", "statistic", "critical", "p-value", "bandwidth", "df", f"reject@{args.cl:g}")]
    for r in records:
        stat, crit, pval, bw, df = ("-" if r[k] is None else format(r[k], f) for k, f in zip(
            ("stat", "critical_value", "pval", "bandwidth", "df"), (".4f",) * 3 + ("d", ".0f")))
        if r["stat"] is None:  # no critical value: the method refused the arguments
            stat = "unsupported" if r["critical_value"] is None else "degenerate"
        rej = "-" if r["rej"] is None else ("yes" if r["rej"] else "no")
        table.append((r["method"], stat, crit, pval, bw, df, rej))
    # Each column is as wide as its widest cell, but no narrower than its fixed width.
    widths = [max(w, *map(len, column)) for w, column in zip((8, 10, 9, 8, 9, 4), zip(*table))]
    lines = [" ".join((row[0].ljust(widths[0]), *map(str.rjust, row[1:6], widths[1:])))
             + "  " + row[6] for row in table]
    print("\n".join([lines[0], "-" * len(lines[0]), *lines[1:]]))
    if args.out is not None:
        text = _manifest("test", _options(args, *_DATA_OPTIONS, "method", "h", "cl",
                                          *_BANDWIDTH_FLAGS),
                         seed=None, n_obs=int(d.size), results=records)
        print(f"wrote {_write(Path(args.out) / 'test_results.json', text)}", file=sys.stderr)
    problems = [name for name in names if not isinstance(results[name], TestOutcome)]
    for name in problems:
        print(f"warning: {name}: {results[name]}", file=sys.stderr)
    return 3 if problems else 0


def _parse_grid(text: str) -> range | tuple[int, ...]:
    """An ``a:b`` grid stays a range: its bandwidths are checked, not listed, first."""
    if ":" in text:
        lo, hi = _integers("--grid", text.split(":", 1))
        return range(lo, hi + 1)
    return _integers("--grid", _comma_list(text))


def cmd_tradeoff(args) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else None
    config = TradeoffConfig(bandwidth_grid=grid, n_sim=args.n_sim,
                            alternative_grid_size=args.alt_grid_size, seed=args.seed,
                            max_ar_order=args.max_ar_order)
    d = _load_series(args)
    points = build_tradeoff_curve(d, config)
    default_M = bandwidth(METHODS["dm_fb"].default, d.size)

    records = [vars(p) for p in points]  # field order; no deep copy, as asdict makes
    files = {"tradeoff.csv": _csv(records[0].keys(), [r.values() for r in records])}
    if not args.no_svg:
        try:
            files["tradeoff.svg"] = _tradeoff_svg(points, default_M)
        except Exception as exc:  # plot failure must not invalidate the data files
            print(f"warning: SVG rendering failed: {exc}", file=sys.stderr)
    # The manifest is written last, so that its presence marks a complete run.
    files["tradeoff.json"] = _manifest(
        "tradeoff",
        {**_options(args, *_DATA_OPTIONS), "grid": [p.M for p in points],
         **_options(args, "n_sim", "alt_grid_size", "max_ar_order")},
        seed=args.seed, n_obs=int(d.size), default_bandwidth=default_M, points=records)
    for name, text in files.items():
        print(f"wrote {_write(Path(args.out) / name, text)}", file=sys.stderr)
    return 0


def _tradeoff_svg(points, default_M: int) -> str:
    """Scatter of size distortion against worst-case power loss, one point per bandwidth.

    Crosses mark bandwidths at which the test rejects on the observed data,
    circles the rest; the automatic-bandwidth point is boxed. Each mark is
    written once, by one function of its half-size that the legend calls
    too. Standalone SVG with no external references.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 78, 24, 46, 58
    plot_w, plot_h = width - ml - mr, height - mt - mb

    xs = [p.max_power_loss for p in points]
    ys = [p.size_distortion for p in points]
    x_lo, x_hi = 0.0, max(max(xs) * 1.15, 0.02)
    y_min, y_max = min(ys + [0.0]), max(ys + [0.0])
    pad = max((y_max - y_min) * 0.15, 0.01)
    y_lo, y_hi = y_min - pad, y_max + pad

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" fill="#111">'
        "Size-power tradeoff across bandwidths</text>",
    ]
    axis = "#333"
    for tx in np.linspace(x_lo, x_hi, 5):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt + plot_h}" '
                     'stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<line x1="{px:.1f}" y1="{mt + plot_h}" x2="{px:.1f}" '
                     f'y2="{mt + plot_h + 5}" stroke="{axis}"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + plot_h + 19}" text-anchor="middle" '
                     f'font-size="11" fill="#111">{tx:.3g}</text>')
    for ty in np.linspace(y_lo, y_hi, 5):
        py = sy(ty)
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + plot_w}" y2="{py:.1f}" '
                     'stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" '
                     f'stroke="{axis}"/>')
        parts.append(f'<text x="{ml - 9}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11" fill="#111">{ty:.3g}</text>')
    py = sy(0.0)
    parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + plot_w}" y2="{py:.1f}" '
                 'stroke="#999" stroke-width="1" stroke-dasharray="5,4"/>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" '
                 f'stroke="{axis}" stroke-width="1"/>')
    parts.append(f'<text x="{ml + plot_w / 2:.1f}" y="{height - 14}" text-anchor="middle" '
                 'font-size="13" fill="#111">maximum size-corrected power loss</text>')
    parts.append(f'<text x="20" y="{mt + plot_h / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'fill="#111" transform="rotate(-90 20 {mt + plot_h / 2:.1f})">'
                 "size distortion (null rejection rate - 0.05)</text>")

    def box(x: float, y: float, half: int) -> str:  # the automatic bandwidth
        return (f'<rect x="{x - half:.1f}" y="{y - half:.1f}" width="{2 * half}" '
                f'height="{2 * half}" fill="none" stroke="#1a7f37" stroke-width="1.6"/>')

    def cross(x: float, y: float, half: int) -> str:  # rejects on the data
        return (f'<path d="M {x - half:.1f} {y - half:.1f} L {x + half:.1f} {y + half:.1f} '
                f'M {x - half:.1f} {y + half:.1f} L {x + half:.1f} {y - half:.1f}" '
                f'stroke="#c0392b" stroke-width="2" fill="none"/>')

    def circle(x: float, y: float, half: int) -> str:  # does not reject
        return (f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{half}" fill="none" '
                f'stroke="#20618d" stroke-width="2"/>')

    for p in points:
        px, py = sx(p.max_power_loss), sy(p.size_distortion)
        if p.M == default_M:
            parts.append(box(px, py, 7))
        parts.append((cross if p.rejected else circle)(px, py, 4))
        parts.append(f'<text x="{px:.1f}" y="{py - 9:.1f}" text-anchor="middle" '
                     f'font-size="9" fill="#555">{p.M}</text>')

    lx, ly = ml + 12, mt + 16
    for k, (mark, label) in enumerate([
            (cross(lx, ly, 4), "rejects on the data"), (circle(lx, ly + 18, 4), "does not reject"),
            (box(lx, ly + 36, 6), f"automatic bandwidth (M = {default_M})")]):
        parts += [mark, f'<text x="{lx + 10}" y="{ly + 4 + 18 * k}" font-size="11" '
                        f'fill="#111">{label}</text>']
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_mc(args) -> int:
    families = _comma_list(args.families)
    h_set, r_set, rt_set, p_set = (
        _integers(flag, _comma_list(getattr(args, flag[2:].replace("-", "_"))))
        for flag in _GRID_FLAGS)
    methods = _comma_list(args.methods)
    specs = experiment_grid(families, h_set, r_set, rt_set, p_set)

    def progress(i: int, n_cells: int, spec) -> None:
        print(
            f"[{i}/{n_cells}] family={spec.family} h={spec.h} R={spec.R} "
            f"R_tilde={spec.R_tilde} P={spec.P}",
            file=sys.stderr, flush=True,
        )

    result = run_experiment(specs, methods, args.n_reps, args.cl, args.seed, progress,
                            args.jobs)

    # One matrix per (family, method, metric): rows are (R, R_tilde) pairs with a
    # diagonal flag, columns the h x P groups; no diagonal null cell, no power entry.
    columns = list(product(h_set, p_set))
    header = ["R", "R_tilde", "diagonal", *(f"h={h}:P={P}" for h, P in columns)]
    matrices = {"size": result.rejection_rates, "power": size_corrected_powers(result)}
    files = {}
    for family, method, metric in product(families, methods, ("size", "power")):
        rows = (
            [R, Rt, R == Rt,
             *(matrices[metric].get((method, family, R, Rt, h, P)) for h, P in columns)]
            for R, Rt in product(r_set, rt_set)
        )
        files[f"{family}_{method}_{metric}.csv"] = _csv(header, rows)

    degenerate_totals = {}
    for (method, *_rest), count in result.degenerate_counts.items():
        degenerate_totals[method] = degenerate_totals.get(method, 0) + count
    files["manifest.json"] = _manifest(
        "mc",
        {"families": list(families), "h_set": list(h_set), "r_set": list(r_set),
         "rt_set": list(rt_set), "p_set": list(p_set), "methods": list(methods),
         "n_reps": args.n_reps, "cl": args.cl},
        seed=args.seed, outputs=list(files), degenerate_counts=degenerate_totals)
    written = [_write(Path(args.out) / name, text) for name, text in files.items()]
    print(f"wrote {len(written) - 1} matrices and {written[-1]}", file=sys.stderr)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command: ``argv`` (default ``sys.argv[1:]``) in, exit status out.

    May be called any number of times in one process. The parser is built
    on the first call and shared by the later ones, which it leaves no
    state for: each call parses into a new namespace. Argument errors exit
    through argparse's ``SystemExit(2)``; runtime errors, running out of
    memory included, print ``error:`` and return 1.
    """
    args = _parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except (DegenerateVarianceError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
