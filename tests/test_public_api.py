"""The public surface: every name exported by ``__all__`` stays exported.

The lists below are the package's ``__all__`` and each module's, as
released. A name may be added without touching this file; removing one is
an API break and must be a deliberate edit here, recorded in CHANGES.md.
The package's ``__all__`` is ``__version__`` followed by its submodules'
own lists, so a name is exported by the package exactly when a submodule
exports it.
"""

import importlib

import pytest

PUBLIC = {
    "epatest": [
        "__version__", "LOSS_FUNCTIONS", "loss_differential", "autocovariance", "periodogram",
        "cosine_coefficient", "LrvEstimate", "BANDWIDTH_RULES", "bandwidth", "lrv_rectangular",
        "lrv_bartlett", "lrv_ewc", "lrv_wpe", "TestOutcome", "ImPartition",
        "DegenerateVarianceError", "UnsupportedLevelError", "dm_statistic", "dm_test_r",
        "dm_test_m", "dm_test_bt", "dm_test_bt_fb", "dm_test_ewc_fb", "dm_test_wpe_fb",
        "dm_test_im", "fixed_b_critical_value", "im_partition", "FittedArModel",
        "TradeoffConfig", "TradeoffPoint", "fit_ar", "simulate_from_model", "size_distortion",
        "oracle_power", "max_power_loss", "default_bandwidth_grid", "build_tradeoff_curve",
        "DgpSpec", "ExperimentResult", "DEFAULT_METHODS", "calibrate_mu", "experiment_grid",
        "simulate", "run_experiment", "size_corrected_critical_value", "size_corrected_power",
        "size_corrected_powers", "ForecastDataset", "CsvParseError", "load_csv", "forecast_errors", "loss_series",
    ],
    "epatest.cli": ["main", "build_parser"],
    "epatest.data": [
        "MISSING_MARKERS", "NA_POLICIES", "CsvParseError", "ForecastDataset", "load_csv",
        "forecast_errors", "loss_series",
    ],
    "epatest.dmtests": [
        "DegenerateVarianceError", "UnsupportedLevelError", "TestOutcome", "ImPartition",
        "dm_statistic", "dm_test_r", "dm_test_m", "dm_test_bt", "dm_test_bt_fb",
        "dm_test_ewc_fb", "dm_test_wpe_fb", "dm_test_im", "fixed_b_critical_value",
        "im_partition",
    ],
    "epatest.lrv": [
        "LrvEstimate", "BANDWIDTH_RULES", "bandwidth", "lrv_rectangular", "lrv_bartlett",
        "lrv_ewc", "lrv_wpe",
    ],
    "epatest.mc": [
        "DgpSpec", "ExperimentResult", "DEFAULT_METHODS", "DEFAULT_H_SET", "DEFAULT_R_SET",
        "DEFAULT_P_SET", "CR_BURN_IN", "ma_weights", "ma_autocovariances", "calibrate_mu",
        "experiment_grid", "simulate", "run_experiment", "size_corrected_critical_value",
        "size_corrected_power", "size_corrected_powers",
    ],
    "epatest.series": [
        "LOSS_FUNCTIONS", "as_loss_series", "loss_differential", "autocovariance",
        "periodogram", "cosine_coefficient",
    ],
    "epatest.tradeoff": [
        "FittedArModel", "TradeoffConfig", "TradeoffPoint", "fit_ar", "simulate_from_model",
        "size_distortion", "oracle_power", "max_power_loss", "default_bandwidth_grid",
        "build_tradeoff_curve",
    ],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_no_public_name_disappears(module):
    mod = importlib.import_module(module)
    missing = [name for name in PUBLIC[module] if name not in mod.__all__]
    assert missing == []
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_surface_is_the_submodules_surfaces():
    import epatest

    modules = [importlib.import_module(f"epatest.{name}")
               for name in ("series", "lrv", "dmtests", "tradeoff", "mc", "data")]
    assert epatest.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    # A name in two submodules would be shadowed by whichever is star-imported last.
    assert len(set(epatest.__all__)) == len(epatest.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(epatest, name) is getattr(m, name), name
