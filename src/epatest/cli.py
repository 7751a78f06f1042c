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
parameters, the seed, and the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import CsvParseError, load_csv, loss_series
from .dmtests import (
    METHODS,
    DegenerateVarianceError,
    TestOutcome,
    UnsupportedLevelError,
    outcomes,
    procedure,
)
from .lrv import bandwidth
from .mc import (
    DEFAULT_METHODS,
    experiment_grid,
    run_experiment,
    size_corrected_power,
)
from .tradeoff import TradeoffConfig, build_tradeoff_curve

__all__ = ["main", "build_parser"]

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
    p_test.add_argument("--method", choices=(*METHODS, "all"), default="all",
                        help="which test to run (default: all)")
    p_test.add_argument("--h", type=int, default=1, help="forecast horizon (default 1)")
    p_test.add_argument("--cl", type=float, default=0.05, help="significance level (default 0.05)")
    p_test.add_argument("--M", type=int, default=None,
                        help="explicit kernel bandwidth for dm_nw and dm_fb")
    p_test.add_argument("--B", type=int, default=None,
                        help="number of cosine basis functions for dm_ewc")
    p_test.add_argument("--m", type=int, default=None,
                        help="number of periodogram ordinates for dm_wpe")
    p_test.add_argument("--q", type=int, default=2, help="number of blocks for dm_im (default 2)")
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
    p_mc.add_argument("--h-set", default="1,3,12", help="comma list of horizons (default 1,3,12)")
    p_mc.add_argument("--r-set", default="25,75,125,175",
                      help="comma list of DGP window sizes R (default 25,75,125,175)")
    p_mc.add_argument("--rt-set", default="25,75,125,175",
                      help="comma list of forecast window sizes R-tilde (default 25,75,125,175)")
    p_mc.add_argument("--p-set", default="25,75,125,175,1000",
                      help="comma list of evaluation sample sizes P (default 25,75,125,175,1000)")
    p_mc.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                      help="comma list of methods (default: the full battery)")
    p_mc.add_argument("--n-reps", type=int, default=5000,
                      help="replications per cell (default 5000)")
    p_mc.add_argument("--cl", type=float, default=0.05, help="significance level (default 0.05)")
    p_mc.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    p_mc.add_argument("--out", required=True, metavar="DIR", help="directory for result matrices")
    p_mc.set_defaults(func=cmd_mc)
    return parser


def _load_series(args) -> np.ndarray:
    cols = tuple(c.strip() for c in args.forecast_cols.split(",") if c.strip())
    if len(cols) != 2:
        raise ValueError(f"--forecast-cols needs exactly two names, got {args.forecast_cols!r}")
    date_range = None
    if args.date_from is not None or args.date_to is not None:
        date_range = (args.date_from, args.date_to)
    ds = load_csv(
        args.data,
        forecast_cols=cols,
        realization_col=args.realization_col,
        na_policy=args.na_policy,
        date_col=args.date_col,
        date_range=date_range,
    )
    return loss_series(ds, args.loss)


def _data_parameters(args) -> dict:
    return {
        "data": str(args.data),
        "forecast_cols": args.forecast_cols,
        "realization_col": args.realization_col,
        "na_policy": args.na_policy,
        "date_col": args.date_col,
        "date_from": args.date_from,
        "date_to": args.date_to,
        "loss": args.loss,
    }


def _manifest(command: str, parameters: dict, seed) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "software_version": __version__,
    }


def _outcome_record(proc, outcome) -> dict:
    """One method's JSON record; a degenerate method has no ``stat``, ``pval`` or ``rej``."""
    ok = isinstance(outcome, TestOutcome)
    return {
        "method": proc.method,
        "stat": outcome.stat if ok else None,
        "pval": outcome.pval if ok else None,
        "rej": outcome.rej if ok else None,
        "cl": proc.cl,
        "critical_value": proc.critical_value,
        "bandwidth": proc.bandwidth,
        "df": proc.df,
    }


def cmd_test(args) -> int:
    d = _load_series(args)
    names = tuple(METHODS) if args.method == "all" else (args.method,)
    procedures = [
        procedure(name, d.size, args.h, args.cl,
                  getattr(args, METHODS[name].param) if METHODS[name].param else None)
        for name in names
    ]
    results = outcomes(procedures, d, strict=False)
    print(f"n = {d.size} loss-differential observations")
    header = (f"{'method':<8} {'statistic':>10} {'critical':>9} {'p-value':>8} "
              f"{'bandwidth':>9} {'df':>4}  reject@{args.cl:g}")
    print(header)
    print("-" * len(header))
    for p, r in zip(procedures, results):
        ok = isinstance(r, TestOutcome)
        stat = f"{r.stat:10.4f}" if ok else f"{'degenerate':>10}"
        pval = f"{r.pval:8.4f}" if ok and r.pval is not None else f"{'-':>8}"
        df = f"{p.df:4.0f}" if p.df is not None else f"{'-':>4}"
        rej = ("yes" if r.rej else "no") if ok else "-"
        print(f"{p.method:<8} {stat} {p.critical_value:9.4f} {pval} {p.bandwidth:9d} {df}  {rej}")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = _manifest(
            "test",
            {**_data_parameters(args), "method": args.method, "h": args.h, "cl": args.cl,
             "M": args.M, "B": args.B, "m": args.m, "q": args.q},
            seed=None,
        )
        payload["n_obs"] = int(d.size)
        payload["results"] = [_outcome_record(p, r) for p, r in zip(procedures, results)]
        target = out_dir / "test_results.json"
        target.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {target}", file=sys.stderr)
    degenerate = [r for r in results if isinstance(r, DegenerateVarianceError)]
    for exc in degenerate:
        print(f"warning: {exc}", file=sys.stderr)
    return 3 if degenerate else 0


def _parse_grid(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _format_float(x: float) -> str:
    return repr(float(x))


def cmd_tradeoff(args) -> int:
    d = _load_series(args)
    grid = _parse_grid(args.grid) if args.grid is not None else None
    config = TradeoffConfig(
        bandwidth_grid=grid,
        n_sim=args.n_sim,
        alternative_grid_size=args.alt_grid_size,
        seed=args.seed,
        max_ar_order=args.max_ar_order,
    )
    points = build_tradeoff_curve(d, config)
    default_M = bandwidth("llsw", d.size)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "tradeoff.csv"
    lines = ["M,size_distortion,max_power_loss,rejected"]
    for p in points:
        lines.append(
            f"{p.M},{_format_float(p.size_distortion)},{_format_float(p.max_power_loss)},"
            f"{str(p.rejected).lower()}"
        )
    csv_path.write_text("\n".join(lines) + "\n")

    payload = _manifest(
        "tradeoff",
        {**_data_parameters(args), "grid": [p.M for p in points], "n_sim": args.n_sim,
         "alt_grid_size": args.alt_grid_size, "max_ar_order": args.max_ar_order},
        seed=args.seed,
    )
    payload["n_obs"] = int(d.size)
    payload["default_bandwidth"] = default_M
    payload["points"] = [
        {"M": p.M, "size_distortion": p.size_distortion,
         "max_power_loss": p.max_power_loss, "rejected": p.rejected}
        for p in points
    ]
    json_path = out_dir / "tradeoff.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    written = [csv_path, json_path]

    if not args.no_svg:
        svg_path = out_dir / "tradeoff.svg"
        try:
            svg_path.write_text(_tradeoff_svg(points, default_M))
            written.append(svg_path)
        except Exception as exc:  # plot failure must not invalidate the data files
            print(f"warning: SVG rendering failed: {exc}", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, n)]


def _tradeoff_svg(points, default_M: int) -> str:
    """Scatter of size distortion against worst-case power loss, one point per bandwidth.

    Crosses mark bandwidths at which the test rejects on the observed data,
    circles the rest; the automatic-bandwidth point is boxed. Standalone
    SVG with no external references.
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
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt + plot_h}" '
                     'stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<line x1="{px:.1f}" y1="{mt + plot_h}" x2="{px:.1f}" '
                     f'y2="{mt + plot_h + 5}" stroke="{axis}"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + plot_h + 19}" text-anchor="middle" '
                     f'font-size="11" fill="#111">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + plot_w}" y2="{py:.1f}" '
                     'stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" '
                     f'stroke="{axis}"/>')
        parts.append(f'<text x="{ml - 9}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11" fill="#111">{ty:.3g}</text>')
    if y_lo < 0.0 < y_hi:
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

    reject_color, accept_color, default_color = "#c0392b", "#20618d", "#1a7f37"
    for p in points:
        px, py = sx(p.max_power_loss), sy(p.size_distortion)
        if p.M == default_M:
            parts.append(f'<rect x="{px - 7:.1f}" y="{py - 7:.1f}" width="14" height="14" '
                         f'fill="none" stroke="{default_color}" stroke-width="1.6"/>')
        if p.rejected:
            parts.append(f'<path d="M {px - 4:.1f} {py - 4:.1f} L {px + 4:.1f} {py + 4:.1f} '
                         f'M {px - 4:.1f} {py + 4:.1f} L {px + 4:.1f} {py - 4:.1f}" '
                         f'stroke="{reject_color}" stroke-width="2" fill="none"/>')
        else:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="none" '
                         f'stroke="{accept_color}" stroke-width="2"/>')
        parts.append(f'<text x="{px:.1f}" y="{py - 9:.1f}" text-anchor="middle" '
                     f'font-size="9" fill="#555">{p.M}</text>')

    lx, ly = ml + 12, mt + 16
    parts.append(f'<path d="M {lx - 4} {ly - 4} L {lx + 4} {ly + 4} M {lx - 4} {ly + 4} '
                 f'L {lx + 4} {ly - 4}" stroke="{reject_color}" stroke-width="2"/>')
    parts.append(f'<text x="{lx + 10}" y="{ly + 4}" font-size="11" fill="#111">'
                 "rejects on the data</text>")
    parts.append(f'<circle cx="{lx}" cy="{ly + 18}" r="4" fill="none" stroke="{accept_color}" '
                 'stroke-width="2"/>')
    parts.append(f'<text x="{lx + 10}" y="{ly + 22}" font-size="11" fill="#111">'
                 "does not reject</text>")
    parts.append(f'<rect x="{lx - 6}" y="{ly + 30}" width="12" height="12" fill="none" '
                 f'stroke="{default_color}" stroke-width="1.6"/>')
    parts.append(f'<text x="{lx + 10}" y="{ly + 40}" font-size="11" fill="#111">'
                 f"automatic bandwidth (M = {default_M})</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def cmd_mc(args) -> int:
    families = tuple(tok.strip() for tok in args.families.split(",") if tok.strip())
    h_set = _parse_int_list(args.h_set)
    r_set = _parse_int_list(args.r_set)
    rt_set = _parse_int_list(args.rt_set)
    p_set = _parse_int_list(args.p_set)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    specs = experiment_grid(families, h_set, r_set, rt_set, p_set)

    def progress(i: int, n_cells: int, spec) -> None:
        print(
            f"[{i}/{n_cells}] family={spec.family} h={spec.h} R={spec.R} "
            f"R_tilde={spec.R_tilde} P={spec.P}",
            file=sys.stderr, flush=True,
        )

    result = run_experiment(specs, methods, args.n_reps, args.cl, args.seed, progress)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    # One matrix per (family, method, metric): rows are (R, R_tilde) pairs
    # with a diagonal flag, columns are the h x P groups.
    col_keys = [(h, P) for h in h_set for P in p_set]
    header = ",".join(
        ["R", "R_tilde", "diagonal"] + [f"h={h}:P={P}" for h, P in col_keys]
    )
    for family in families:
        for method in methods:
            for metric in ("size", "power"):
                path = out_dir / f"{family}_{method}_{metric}.csv"
                rows = [header]
                for R in r_set:
                    for Rt in rt_set:
                        cells = []
                        for h, P in col_keys:
                            if metric == "size":
                                rate = result.rejection_rates[
                                    (method, family, R, Rt, h, P)
                                ]
                                cells.append(_format_float(rate))
                            else:
                                try:
                                    cells.append(_format_float(size_corrected_power(
                                        result, (family, R, Rt, h, P), method
                                    )))
                                except KeyError:
                                    cells.append("")
                        rows.append(",".join(
                            [str(R), str(Rt), str(R == Rt).lower()] + cells
                        ))
                path.write_text("\n".join(rows) + "\n")
                outputs.append(path.name)

    degenerate_totals = {}
    for (method, *_rest), count in result.degenerate_counts.items():
        degenerate_totals[method] = degenerate_totals.get(method, 0) + count
    manifest = _manifest(
        "mc",
        {"families": list(families), "h_set": list(h_set), "r_set": list(r_set),
         "rt_set": list(rt_set), "p_set": list(p_set), "methods": list(methods),
         "n_reps": args.n_reps, "cl": args.cl},
        seed=args.seed,
    )
    manifest["outputs"] = outputs
    manifest["degenerate_counts"] = degenerate_totals
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(outputs)} matrices and {manifest_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CsvParseError,
        DegenerateVarianceError,
        UnsupportedLevelError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
