"""Equal-predictive-ability testing for competing forecast sequences.

Public surface:

* :mod:`epatest.series`: loss differentials and their sample transforms;
* :mod:`epatest.lrv`: long-run variance estimators and bandwidth rules;
* :mod:`epatest.dmtests`: the test procedures and their outcomes;
* :mod:`epatest.tradeoff`: the bandwidth size-power tradeoff diagnostic;
* :mod:`epatest.mc`: the rolling-forecast Monte Carlo harness;
* :mod:`epatest.data`: CSV ingestion with explicit missing-data policies.
"""

__version__ = "0.1.0"

from .data import *  # noqa: F403
from .dmtests import *  # noqa: F403
from .lrv import *  # noqa: F403
from .mc import *  # noqa: F403
from .series import *  # noqa: F403
from .tradeoff import *  # noqa: F403

__all__ = [
    "__version__",
    # series
    "LOSS_FUNCTIONS",
    "loss_differential",
    "autocovariance",
    "periodogram",
    "cosine_coefficient",
    # lrv
    "LrvEstimate",
    "BANDWIDTH_RULES",
    "bandwidth",
    "lrv_rectangular",
    "lrv_bartlett",
    "lrv_ewc",
    "lrv_wpe",
    # tests
    "TestOutcome",
    "ImPartition",
    "DegenerateVarianceError",
    "UnsupportedLevelError",
    "dm_statistic",
    "dm_test_r",
    "dm_test_m",
    "dm_test_bt",
    "dm_test_bt_fb",
    "dm_test_ewc_fb",
    "dm_test_wpe_fb",
    "dm_test_im",
    "fixed_b_critical_value",
    "im_partition",
    # tradeoff
    "FittedArModel",
    "TradeoffConfig",
    "TradeoffPoint",
    "fit_ar",
    "simulate_from_model",
    "size_distortion",
    "oracle_power",
    "max_power_loss",
    "default_bandwidth_grid",
    "build_tradeoff_curve",
    # mc
    "DgpSpec",
    "ExperimentResult",
    "DEFAULT_METHODS",
    "calibrate_mu",
    "make_spec",
    "experiment_grid",
    "simulate_ucr",
    "simulate_cr",
    "run_experiment",
    "size_corrected_critical_value",
    "size_corrected_power",
    # data
    "ForecastDataset",
    "CsvParseError",
    "load_csv",
    "forecast_errors",
    "loss_series",
]
