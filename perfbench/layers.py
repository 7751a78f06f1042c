"""Per-layer metrics computed from a traced pass, and the tracing overhead.

Every metric is listed in ``PER_LAYER`` with its unit, the direction that is
better, and the end-to-end metric (and workload) it should move. A metric
that a workload does not exercise reads 0. "Per rep" means per replication
as ``reps_per_s`` counts them: per cell-replication on ``mc_*``, per
(bandwidth, replication) pair on ``tradeoff_ar1``, per ``test`` call on
``cli_test_single``. "Per op" means per CLI call.
"""

from __future__ import annotations

import statistics

DM_LABELS = ("dm_r", "dm_m", "dm_nw", "dm_nw_l", "dm_fb", "dm_ewc",
             "dm_im_q2", "dm_im_q5", "dm_im_q10", "dm_wpe")
LAYERS = ("cli", "mc", "tradeoff", "dmtests", "lrv", "series", "data", "numpy", "scipy")

_MC = "reps_per_s on mc_cr_p1000; almost nothing on mc_ucr_p75"
_DM = "reps_per_s on mc_ucr_p75; call_ms_p50 on cli_test_single"
_SERIES = "reps_per_s on mc_ucr_p75, mc_cr_p1000 and tradeoff_ar1"
_TRADEOFF = "reps_per_s on tradeoff_ar1 only"
_DATA = "call_ms_p50 on cli_test_single"
_TRACE = "tracing overhead (not an end-to-end metric)"

# (name, unit, better, should move)
PER_LAYER = [
    ("mc.simulate_us", "us", "lower", _MC),
    ("mc.self_us", "us", "lower", _MC),
    *[(f"dmtests.{label}_us", "us", "lower",
       "call_ms_p50 on cli_test_single" if label == "dm_wpe"
       else "reps_per_s on mc_cr_p1000" if label == "dm_ewc" else _DM)
      for label in DM_LABELS],
    ("dmtests.refdist_us", "us", "lower", _DM),
    ("dmtests.refdist_calls_per_rep", "count", "lower", _DM),
    ("lrv.rectangular_us", "us", "lower", _DM),
    ("lrv.bartlett_us", "us", "lower", "reps_per_s on tradeoff_ar1"),
    ("lrv.ewc_us", "us", "lower", "reps_per_s on mc_cr_p1000"),
    ("lrv.wpe_us", "us", "lower", "call_ms_p50 on cli_test_single only"),
    ("series.as_loss_series_calls_per_rep", "count", "lower", _SERIES),
    ("series.autocovariance_calls_per_rep", "count", "lower", _SERIES),
    ("series.cosine_coefficient_calls_per_rep", "count", "lower", _SERIES),
    ("series.periodogram_calls_per_call", "count", "lower", "call_ms_p50 on cli_test_single"),
    ("series.autocovariance_us", "us", "lower", _SERIES),
    ("tradeoff.fit_ar_ms", "ms", "lower", _TRADEOFF),
    ("tradeoff.simulate_us", "us", "lower", _TRADEOFF),
    ("tradeoff.paths_per_distinct", "ratio", "lower", _TRADEOFF),
    ("tradeoff.size_distortion_ms", "ms", "lower", _TRADEOFF),
    ("tradeoff.max_power_loss_ms", "ms", "lower", _TRADEOFF),
    ("data.load_csv_us", "us", "lower", _DATA),
    ("data.loss_series_us", "us", "lower", _DATA),
    ("cli.self_ms", "ms", "lower", "call_ms_p50 on cli_test_single"),
    ("cli.output_s", "s", "lower", "a little of reps_per_s on mc_* and tradeoff_ar1"),
    *[(f"self_us_per_rep.{layer}", "us", "lower", "reps_per_s / call_ms_p50 of the workload")
      for layer in LAYERS],
    ("trace.reps_per_s_untraced", "1/s", "higher", _TRACE),
    ("trace.reps_per_s_traced", "1/s", "higher", _TRACE),
    ("trace.call_ms_p50_untraced", "ms", "lower", _TRACE),
    ("trace.call_ms_p50_traced", "ms", "lower", _TRACE),
    ("trace.overhead_pct", "%", "lower", _TRACE),
    ("trace.untraced_ms_per_rep", "ms", "lower", _TRACE),
    ("trace.traced_ms_per_rep", "ms", "lower", _TRACE),
    ("trace.self_sum_ms_per_rep", "ms", "lower", _TRACE),
]


class _Spans:
    def __init__(self, edges):
        self.edges = edges  # [parent, name, calls, incl_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        for _parent, name, calls, incl, self_ns in edges:
            rec = self.totals.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_ns

    def calls(self, name) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def incl_ns(self, name) -> int:
        return self.totals.get(name, [0, 0, 0])[1]

    def self_ns(self, name) -> int:
        return self.totals.get(name, [0, 0, 0])[2]

    def incl_us(self, name) -> float:
        calls = self.calls(name)
        return self.incl_ns(name) / calls / 1e3 if calls else 0.0

    def self_us(self, name) -> float:
        calls = self.calls(name)
        return self.self_ns(name) / calls / 1e3 if calls else 0.0

    def child_incl_ns(self, parents, prefix) -> int:
        return sum(incl for parent, name, _c, incl, _s in self.edges
                   if parent in parents and name.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(edges, traced_pass: dict, output_s: list[float], work_per_op: int, *,
                      untraced: dict, traced: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric.

    ``edges`` are the traced pass's host-scaled span edges, ``traced_pass``
    its worker record and ``output_s`` its scaled output times per op;
    ``untraced`` and ``traced`` are both passes' scaled summaries
    (``run.scale_pass``).
    """
    s = _Spans(edges)
    ops = len(traced_pass["durations_s"])
    reps = ops * work_per_op
    m: dict[str, float] = {}

    sims = s.incl_ns("mc.simulate_ucr") + s.incl_ns("mc.simulate_cr")
    rng_in_loop = s.child_incl_ns({"mc.run_experiment"}, "numpy.default_rng")
    m["mc.simulate_us"] = _ratio(sims + rng_in_loop, reps) / 1e3
    m["mc.self_us"] = _ratio(s.self_ns("mc.run_experiment"), reps) / 1e3

    tests = {f"dmtests.{label}" for label in DM_LABELS}
    for label in DM_LABELS:
        m[f"dmtests.{label}_us"] = s.incl_us(f"dmtests.{label}")
    test_ns = sum(s.incl_ns(t) for t in tests)
    m["dmtests.refdist_us"] = _ratio(
        test_ns - s.child_incl_ns(tests, "lrv.lrv_"), sum(s.calls(t) for t in tests)) / 1e3
    scipy_calls = sum(s.calls(n) for n in s.totals if n.startswith("scipy."))
    m["dmtests.refdist_calls_per_rep"] = _ratio(scipy_calls, reps)

    for kind in ("rectangular", "bartlett", "ewc", "wpe"):
        m[f"lrv.{kind}_us"] = s.self_us(f"lrv.lrv_{kind}")

    for fn in ("as_loss_series", "autocovariance", "cosine_coefficient"):
        m[f"series.{fn}_calls_per_rep"] = _ratio(s.calls(f"series.{fn}"), reps)
    m["series.periodogram_calls_per_call"] = _ratio(s.calls("series.periodogram"), ops)
    m["series.autocovariance_us"] = s.incl_us("series.autocovariance")

    m["tradeoff.fit_ar_ms"] = s.incl_us("tradeoff.fit_ar") / 1e3
    m["tradeoff.simulate_us"] = s.incl_us("tradeoff.simulate_from_model")
    m["tradeoff.paths_per_distinct"] = _ratio(s.calls("tradeoff.simulate_from_model"),
                                             sum(traced_pass["null_paths"]))
    m["tradeoff.size_distortion_ms"] = s.incl_us("tradeoff.size_distortion") / 1e3
    m["tradeoff.max_power_loss_ms"] = s.incl_us("tradeoff.max_power_loss") / 1e3

    m["data.load_csv_us"] = s.incl_us("data.load_csv")
    m["data.loss_series_us"] = s.incl_us("data.loss_series")

    m["cli.self_ms"] = _ratio(sum(rec[2] for name, rec in s.totals.items()
                                  if name.startswith("cli.")), ops) / 1e6
    m["cli.output_s"] = _ratio(sum(output_s), ops)

    for layer in LAYERS:
        layer_ns = sum(rec[2] for name, rec in s.totals.items() if name.split(".")[0] == layer)
        m[f"self_us_per_rep.{layer}"] = _ratio(layer_ns, reps) / 1e3

    m["trace.reps_per_s_untraced"] = untraced["reps_per_s"]
    m["trace.reps_per_s_traced"] = traced["reps_per_s"]
    m["trace.call_ms_p50_untraced"] = statistics.median(untraced["call_ms"])
    m["trace.call_ms_p50_traced"] = statistics.median(traced["call_ms"])
    m["trace.overhead_pct"] = (untraced["reps_per_s"] / traced["reps_per_s"] - 1.0) * 100.0
    m["trace.untraced_ms_per_rep"] = untraced["ms_per_rep"]
    m["trace.traced_ms_per_rep"] = traced["ms_per_rep"]
    m["trace.self_sum_ms_per_rep"] = sum(rec[2] for rec in s.totals.values()) / reps / 1e6
    return m
