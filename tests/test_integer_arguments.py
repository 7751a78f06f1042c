"""One rule for every public integer argument: integral, then within its range.

``series.as_integer`` owns the rule. For each argument the table lists a
non-integral value, a value below the range and, where the range is bounded
above, a value above it, each with the exact message it must raise.
"""

import numpy as np
import pytest

from epatest import dmtests, lrv, series
from epatest.mc import DgpSpec, calibrate_mu, ma_weights, run_experiment
from epatest.tradeoff import (
    FittedArModel,
    TradeoffConfig,
    fit_ar,
    max_power_loss,
    oracle_power,
    simulate_from_model,
    size_distortion,
)

D20 = np.random.default_rng(25).standard_normal(20)
D40 = np.random.default_rng(26).standard_normal(40)
MODEL = FittedArModel((0.5,), 1.0, 0.0)
CELL = [DgpSpec("ucr", 1, 25, 25, 25)]

ARGUMENTS = [
    ("DgpSpec.h", lambda v: DgpSpec("cr", v, 25, 25, 75),
     [(1.5, "h must be an integer, got 1.5"), (0, "h must be a positive integer, got 0")]),
    ("DgpSpec.R", lambda v: DgpSpec("cr", 1, v, 25, 75),
     [(1.5, "R must be an integer, got 1.5"), (0, "R must be a positive integer, got 0")]),
    ("DgpSpec.R_tilde", lambda v: DgpSpec("cr", 1, 25, v, 75),
     [(1.5, "R_tilde must be an integer, got 1.5"),
      (0, "R_tilde must be a positive integer, got 0")]),
    ("DgpSpec.P", lambda v: DgpSpec("cr", 1, 25, 25, v),
     [(1.5, "P must be an integer, got 1.5"), (0, "P must be a positive integer, got 0")]),
    ("ma_weights.h", ma_weights,
     [(1.5, "horizon must be an integer, got 1.5"),
      (0, "horizon must be a positive integer, got 0")]),
    ("calibrate_mu.R", lambda v: calibrate_mu(3, v),
     [(3.5, "R must be an integer, got 3.5"), (2, "R must be at least 3, got 2")]),
    ("run_experiment.jobs", lambda v: run_experiment(CELL, ("dm_r",), 100, jobs=v),
     [(1.5, "jobs must be an integer, got 1.5"), (0, "jobs must be a positive integer, got 0")]),
    ("run_experiment.seed", lambda v: run_experiment(CELL, ("dm_r",), 100, seed=v),
     [(0.5, "seed must be an integer, got 0.5"),
      (-1, "seed must be a nonnegative integer, got -1")]),
    ("TradeoffConfig.alternative_grid_size", lambda v: TradeoffConfig(alternative_grid_size=v),
     [(1.5, "alternative_grid_size must be an integer, got 1.5"),
      (0, "alternative_grid_size must be a positive integer, got 0")]),
    ("TradeoffConfig.seed", lambda v: TradeoffConfig(seed=v),
     [(0.5, "seed must be an integer, got 0.5"),
      (-1, "seed must be a nonnegative integer, got -1")]),
    ("TradeoffConfig.max_ar_order", lambda v: TradeoffConfig(max_ar_order=v),
     [(0.5, "max_ar_order must be an integer, got 0.5"),
      (-1, "max_ar_order must be a nonnegative integer, got -1")]),
    ("fit_ar.max_order", lambda v: fit_ar(D40, v),
     [(0.5, "max_order must be an integer, got 0.5"),
      (-1, "max_order must lie in [0, 19], got -1"),
      (20, "max_order must lie in [0, 19], got 20")]),
    ("procedure.P", lambda v: dmtests.procedure("dm_r", v, 1, 0.05),
     [(2.5, "sample size must be an integer, got 2.5"),
      (1, "sample size must be at least 2, got 1")]),
    ("size_distortion.P", lambda v: size_distortion(MODEL, v, 3, 100),
     [(50.5, "sample size must be an integer, got 50.5"),
      (1, "sample size must be at least 2, got 1")]),
    ("simulate_from_model.P", lambda v: simulate_from_model(MODEL, v, 0.0, 0),
     [(2.5, "path length must be an integer, got 2.5"),
      (0, "path length must be a positive integer, got 0")]),
    ("oracle_power.P", lambda v: oracle_power(1.0, v, 0.1),
     [(2.5, "sample size must be an integer, got 2.5"),
      (-4, "sample size must be a positive integer, got -4")]),
    ("bandwidth.P", lambda v: lrv.bandwidth("llsw", v),
     [(2.5, "sample size must be an integer, got 2.5"),
      (1, "sample size must be at least 2, got 1")]),
    ("im_partition.P", lambda v: dmtests.im_partition(v, 2),
     [(10.5, "sample size must be an integer, got 10.5"),
      (1, "sample size must be at least 2, got 1")]),
    ("im_partition.q", lambda v: dmtests.im_partition(10, v),
     [(2.5, "bandwidth must be an integer, got 2.5"),
      (1, "bandwidth must lie in [2, 10], got 1"),
      (11, "bandwidth must lie in [2, 10], got 11")]),
    ("lrv_rectangular.h", lambda v: lrv.lrv_rectangular(D20, v),
     [(1.5, "forecast horizon must be an integer, got 1.5"),
      (0, "forecast horizon must lie in [1, 19], got 0"),
      (20, "forecast horizon must lie in [1, 19], got 20")]),
    ("lrv_bartlett.M", lambda v: lrv.lrv_bartlett(D20, v),
     [(1.5, "bandwidth must be an integer, got 1.5"),
      (0, "bandwidth must lie in [1, 19], got 0"),
      (20, "bandwidth must lie in [1, 19], got 20")]),
    ("lrv_ewc.B", lambda v: lrv.lrv_ewc(D20, v),
     [(1.5, "bandwidth must be an integer, got 1.5"),
      (0, "bandwidth must lie in [1, 19], got 0"),
      (20, "bandwidth must lie in [1, 19], got 20")]),
    ("lrv_wpe.m", lambda v: lrv.lrv_wpe(D20, v),
     [(1.5, "bandwidth must be an integer, got 1.5"),
      (0, "bandwidth must lie in [1, 10], got 0"),
      (11, "bandwidth must lie in [1, 10], got 11")]),
    ("autocovariance.maxlag", lambda v: series.autocovariance(D20, v),
     [(0.5, "maxlag must be an integer, got 0.5"),
      (-1, "maxlag must lie in [0, 19], got -1"),
      (20, "maxlag must lie in [0, 19], got 20")]),
    ("periodogram.j", lambda v: series.periodogram(D20, v),
     [(1.5, "frequency index must be an integer, got 1.5"),
      (0, "frequency index must lie in [1, 10], got 0"),
      (11, "frequency index must lie in [1, 10], got 11")]),
    ("cosine_coefficient.j", lambda v: series.cosine_coefficient(D20, v),
     [(1.5, "basis index must be an integer, got 1.5"),
      (0, "basis index must lie in [1, 19], got 0"),
      (20, "basis index must lie in [1, 19], got 20")]),
]


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{name}={value!r}")
    for name, call, cases in ARGUMENTS for value, message in cases
])
def test_bad_integer_argument_gets_the_rule_message(call, value, message):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message


@pytest.mark.parametrize("name, call", [
    ("procedure", lambda P: dmtests.procedure("dm_fb", P, 1, 0.05)),
    ("im_partition", lambda P: dmtests.im_partition(P, 3)),
    ("bandwidth", lambda P: lrv.bandwidth("llsw", P)),
    ("oracle_power", lambda P: oracle_power(1.0, P, 0.1)),
    ("simulate_from_model", lambda P: simulate_from_model(MODEL, P, 0.0, 0).tolist()),
    ("size_distortion", lambda P: size_distortion(MODEL, P, 3, 100)),
    ("max_power_loss", lambda P: max_power_loss(MODEL, P, 3, 100)),
])
def test_integral_sample_sizes_equal_the_int(name, call):
    want = call(50)
    for P in (50.0, np.int64(50)):
        assert call(P) == want, P


def test_as_integer_returns_an_int_within_the_bounds():
    for value in (2, np.int64(2), 2.0, np.float64(2.0)):
        got = series.as_integer(value, "x", 2, 2)
        assert got == 2 and type(got) is int
    assert series.as_integer(-5, "x") == -5  # no bounds
    assert series.as_integer(10**30, "x", 0) == 10**30
