import dataclasses
import math

import numpy as np
import pytest
from scipy import signal, stats

from epatest import tradeoff
from epatest.data import ForecastDataset
from epatest.dmtests import dm_test_bt_fb
from epatest.lrv import bandwidth
from epatest.tradeoff import (
    FittedArModel,
    TradeoffConfig,
    TradeoffPoint,
    build_tradeoff_curve,
    default_bandwidth_grid,
    fit_ar,
    max_power_loss,
    oracle_power,
    simulate_from_model,
    size_distortion,
)

AR0 = FittedArModel(coefficients=(), innovation_variance=1.0, sample_mean=0.0)


def ar1_model(phi=0.6, var=1.0):
    return FittedArModel(coefficients=(phi,), innovation_variance=var, sample_mean=0.0)


class TestFitAr:
    def test_white_noise_recovers_order_zero(self):
        m = fit_ar(np.random.default_rng(9).standard_normal(1000))
        assert m.order == 0
        assert m.coefficients == ()
        assert m.innovation_variance == pytest.approx(1.0, abs=0.1)
        assert m.implied_lrv == m.innovation_variance

    def test_white_noise_selection_rate(self):
        rng = np.random.default_rng(7)
        selected = [fit_ar(rng.standard_normal(1000)).order for _ in range(100)]
        assert np.mean([p == 0 for p in selected]) >= 0.80

    def test_ar1_recovery(self):
        rng = np.random.default_rng([11, 0])
        x = signal.lfilter([1.0], [1.0, -0.6], rng.standard_normal(2500))[500:]
        m = fit_ar(x)
        assert m.order >= 1
        assert m.coefficients[0] == pytest.approx(0.6, abs=0.05)
        # AR(1) long-run variance is sigma^2 / (1 - phi)^2 = 6.25
        assert m.implied_lrv == pytest.approx(6.25, rel=0.20)

    def test_sample_mean_recorded(self):
        d = np.random.default_rng(12).standard_normal(200) + 3.0
        assert fit_ar(d).sample_mean == pytest.approx(d.mean())

    def test_max_order_default_cap(self):
        d = np.random.default_rng(13).standard_normal(30)
        # min(10, 30 // 4) = 7; enough data is left for selection
        assert fit_ar(d).order <= 7

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="too short"):
            fit_ar(np.arange(10.0), max_order=5)

    def test_negative_max_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_ar(np.arange(40.0), max_order=-1)


class TestFittedArModel:
    def test_order_and_implied_lrv_are_computed(self):
        m = FittedArModel((0.6,), 1.0, 0.0)
        assert m.order == 1
        assert m.implied_lrv == 1 / 0.4**2
        assert FittedArModel((0.6, -0.2, 0.1), 0.7, 0.0).order == 3
        assert FittedArModel((), 0.7, 0.0).implied_lrv == 0.7
        assert [f.name for f in dataclasses.fields(FittedArModel)] == [
            "order", "coefficients", "innovation_variance", "sample_mean", "implied_lrv",
        ]
        for name in ("order", "implied_lrv"):
            with pytest.raises(TypeError):
                FittedArModel((0.6,), 1.0, 0.0, **{name: 1})

    def test_unit_root_refused(self):
        with pytest.raises(ValueError, match="unit root"):
            FittedArModel((0.5, 0.5), 1.0, 0.0)

    def test_unit_root_fit_refused(self):
        # the selected fit of this period-2 series has coefficients summing to 1
        with pytest.raises(ValueError, match="unit root"):
            fit_ar(np.tile([1.0, 0.0], 79)[:157])


class TestSimulateFromModel:
    def test_deterministic_given_seed(self):
        a = simulate_from_model(AR0, 50, 0.0, 4)
        b = simulate_from_model(AR0, 50, 0.0, 4)
        np.testing.assert_array_equal(a, b)
        assert a.size == 50

    def test_shift_moves_the_mean(self):
        base = simulate_from_model(AR0, 200, 0.0, 5)
        shifted = simulate_from_model(AR0, 200, 1.5, 5)
        np.testing.assert_allclose(shifted, base + 1.5)

    def test_ar1_stationary_variance(self):
        m = ar1_model(0.6)
        path = simulate_from_model(m, 200_000, 0.0, 6)
        assert path.var() == pytest.approx(1.0 / (1.0 - 0.36), rel=0.03)
        assert path.mean() == pytest.approx(0.0, abs=0.03)

    def test_innovation_variance_scales(self):
        m = FittedArModel(coefficients=(), innovation_variance=4.0, sample_mean=0.0)
        path = simulate_from_model(m, 100_000, 0.0, 7)
        assert path.var() == pytest.approx(4.0, rel=0.03)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="positive"):
            simulate_from_model(AR0, 0, 0.0, 0)


class TestSizeDistortion:
    def test_white_noise_large_sample_is_nearly_exact(self):
        # fixed-b critical values nearly remove the distortion at the
        # automatic bandwidth: band straddling a mildly negative value
        sd = size_distortion(AR0, P=1000, M=42, n_sim=10_000, seed=0)
        assert sd == pytest.approx(-0.010, abs=0.01)

    def test_small_bandwidth_under_persistence_overrejects(self):
        sd = size_distortion(ar1_model(0.8), P=100, M=1, n_sim=2000, seed=0)
        assert sd > 0.05

    def test_bounded_below_by_minus_nominal(self):
        sd = size_distortion(AR0, P=50, M=49, n_sim=500, seed=1)
        assert -0.05 <= sd <= 0.95

    def test_deterministic(self):
        a = size_distortion(AR0, P=60, M=5, n_sim=300, seed=2)
        b = size_distortion(AR0, P=60, M=5, n_sim=300, seed=2)
        assert a == b


class TestSeedChecks:
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_refused_by_simulating_functions(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            size_distortion(AR0, P=60, M=5, n_sim=300, seed=seed)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            max_power_loss(AR0, P=60, M=5, n_sim=300, seed=seed)

    def test_integral_float_seed_is_that_integer(self):
        assert size_distortion(AR0, P=60, M=5, n_sim=300, seed=2.0) == size_distortion(
            AR0, P=60, M=5, n_sim=300, seed=2
        )


class TestIntegerCounts:
    def test_size_distortion(self):
        with pytest.raises(ValueError, match="n_sim must be an integer, got 100.5"):
            size_distortion(AR0, P=60, M=5, n_sim=100.5)
        assert size_distortion(AR0, P=60, M=5, n_sim=100.0) == size_distortion(
            AR0, P=60, M=5, n_sim=100)

    def test_max_power_loss(self):
        with pytest.raises(ValueError, match="grid_size must be an integer, got 2.5"):
            max_power_loss(AR0, P=60, M=5, n_sim=300, grid_size=2.5)
        with pytest.raises(ValueError, match="n_sim must be an integer, got 300.5"):
            max_power_loss(AR0, P=60, M=5, n_sim=300.5)
        assert max_power_loss(AR0, P=60, M=5, n_sim=300.0, grid_size=3.0) == max_power_loss(
            AR0, P=60, M=5, n_sim=300, grid_size=3)

    def test_fit_ar(self):
        d = simulate_from_model(ar1_model(0.5), 80, 0.0, 3)
        with pytest.raises(ValueError, match="max_order must be an integer, got 1.5"):
            fit_ar(d, max_order=1.5)
        assert fit_ar(d, max_order=2.0) == fit_ar(d, max_order=2)


class TestOraclePower:
    def test_array_of_shifts(self):
        shifts = np.linspace(-0.3, 0.5, 7)
        powers = oracle_power(2.0, 50, shifts)
        assert isinstance(powers, np.ndarray) and powers.shape == (7,)
        assert powers.tolist() == [oracle_power(2.0, 50, float(s)) for s in shifts]
        assert type(oracle_power(2.0, 50, 0.1)) is float

    def test_nominal_level_at_zero_shift(self):
        assert oracle_power(1.0, 100, 0.0) == pytest.approx(0.05, abs=1e-10)

    def test_knife_edge_shift_value(self):
        z = stats.norm.ppf(0.975)
        val = oracle_power(1.0, 100, z / 10.0)
        assert round(val, 5) == 0.50004

    def test_symmetric_and_monotone(self):
        vals = [oracle_power(2.0, 50, s) for s in (0.0, 0.1, 0.2, 0.4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert oracle_power(2.0, 50, -0.2) == pytest.approx(oracle_power(2.0, 50, 0.2))

    def test_brute_force_normal_simulation(self):
        z = stats.norm.ppf(0.975)
        draws = np.random.default_rng(5).standard_normal(1_000_000)
        for frac in (0.5, 1.0, 2.0):
            u = frac * z
            mc = np.mean(np.abs(draws + u) > z)
            assert oracle_power(1.0, 400, u / 20.0) == pytest.approx(mc, abs=0.005)

    def test_requires_positive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            oracle_power(0.0, 100, 0.1)


class TestMaxPowerLoss:
    def test_white_noise_small_bandwidth_loses_little(self):
        assert max_power_loss(AR0, P=1000, M=2, n_sim=5000, seed=0) <= 0.05

    def test_full_bandwidth_costs_more_than_smallest(self):
        m = ar1_model(0.6)
        hi = max_power_loss(m, P=40, M=39, n_sim=2000, seed=0)
        lo = max_power_loss(m, P=40, M=1, n_sim=2000, seed=0)
        assert hi >= lo

    def test_floored_at_zero_and_bounded(self):
        val = max_power_loss(AR0, P=200, M=3, n_sim=500, seed=3)
        assert 0.0 <= val <= 1.0

    def test_deterministic(self):
        a = max_power_loss(AR0, P=80, M=4, n_sim=300, seed=4)
        b = max_power_loss(AR0, P=80, M=4, n_sim=300, seed=4)
        assert a == b


class TestTradeoffConfig:
    def test_minimum_simulations(self):
        with pytest.raises(ValueError, match="100"):
            TradeoffConfig(n_sim=99)

    def test_positive_alt_grid(self):
        with pytest.raises(ValueError, match="alternative_grid_size"):
            TradeoffConfig(alternative_grid_size=0)

    def test_integer_seed(self):
        # refused when the config is made, before any model is fitted
        for seed in (1.5, "3", -1):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                TradeoffConfig(seed=seed)
        assert TradeoffConfig(seed=np.int64(2**40)).seed == 2**40
        TradeoffConfig(seed=2.0)

    def test_integer_counts(self):
        # refused when the config is made, before any model is fitted
        for field, value in [("n_sim", 150.5), ("alternative_grid_size", 2.5),
                             ("max_ar_order", 1.5)]:
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
                TradeoffConfig(**{field: value})
        cfg = TradeoffConfig(n_sim=150.0, alternative_grid_size=4.0, max_ar_order=2.0)
        assert (cfg.n_sim, cfg.alternative_grid_size, cfg.max_ar_order) == (150, 4, 2)
        assert all(isinstance(v, int) for v in (cfg.n_sim, cfg.alternative_grid_size,
                                                cfg.max_ar_order))

    def test_integral_float_counts_give_the_integer_curve(self):
        d = simulate_from_model(ar1_model(0.5), 60, 0.0, 9)
        whole = build_tradeoff_curve(d, TradeoffConfig((2, 5), n_sim=150.0, max_ar_order=2.0))
        assert whole == build_tradeoff_curve(d, TradeoffConfig((2, 5), n_sim=150,
                                                               max_ar_order=2))

    def test_defaults(self):
        cfg = TradeoffConfig()
        assert cfg.n_sim == 5000
        assert cfg.alternative_grid_size == 20
        assert cfg.bandwidth_grid is None


class TestDefaultGrid:
    def test_spans_twice_the_automatic_bandwidth(self):
        assert default_bandwidth_grid(100) == tuple(range(1, 27))
        assert default_bandwidth_grid(25) == tuple(range(1, 15))

    def test_contains_automatic_bandwidth(self):
        for P in (10, 25, 40, 100, 400):
            assert bandwidth("llsw", P) in default_bandwidth_grid(P)

    def test_capped_by_sample_size(self):
        assert max(default_bandwidth_grid(10)) <= 9


class TestBuildTradeoffCurve:
    def _series(self, n=60, seed=21):
        return np.random.default_rng(seed).standard_normal(n) * 0.5 + 0.05

    def test_point_per_grid_entry(self):
        d = self._series()
        cfg = TradeoffConfig(bandwidth_grid=(2, 5, 9), n_sim=150)
        points = build_tradeoff_curve(d, cfg)
        assert [p.M for p in points] == [2, 5, 9]
        assert all(isinstance(p, TradeoffPoint) for p in points)

    def test_deterministic(self):
        d = self._series()
        cfg = TradeoffConfig(bandwidth_grid=(2, 6), n_sim=150, seed=9)
        assert build_tradeoff_curve(d, cfg) == build_tradeoff_curve(d, cfg)

    def test_rejected_flags_match_the_actual_test(self):
        d = self._series(n=80, seed=22)
        cfg = TradeoffConfig(bandwidth_grid=(1, 3, 7, 15), n_sim=150)
        for p in build_tradeoff_curve(d, cfg):
            assert p.rejected == dm_test_bt_fb(d, M=p.M).rej

    def test_accepts_forecast_dataset(self):
        rng = np.random.default_rng(23)
        ds = ForecastDataset(
            f1=rng.standard_normal(40),
            f2=rng.standard_normal(40),
            realization=rng.standard_normal(40),
            dates=None,
            forecast_cols=("a", "b"),
            realization_col="y",
            na_policy="drop",
        )
        d = (ds.realization - ds.f1) ** 2 - (ds.realization - ds.f2) ** 2
        cfg = TradeoffConfig(bandwidth_grid=(2, 4), n_sim=120)
        assert build_tradeoff_curve(ds, cfg) == build_tradeoff_curve(d, cfg)

    def test_minimum_sample(self):
        with pytest.raises(ValueError, match="at least 10"):
            build_tradeoff_curve(np.arange(9.0), TradeoffConfig(n_sim=100))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \[1, 19\], got 25$"):
            build_tradeoff_curve(
                self._series(n=20), TradeoffConfig(bandwidth_grid=(25,), n_sim=100)
            )

    def test_degenerate_series(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_tradeoff_curve(np.zeros(50), TradeoffConfig(n_sim=100))

    def test_empty_grid_rejected_before_fitting(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fitted the model for an empty grid")

        monkeypatch.setattr(tradeoff, "fit_ar", fail)
        with pytest.raises(ValueError, match="grid is empty"):
            build_tradeoff_curve(self._series(), TradeoffConfig(bandwidth_grid=(), n_sim=100))


class TestPinnedCurve:
    """The demo AR(1) curve as the per-bandwidth implementation produced it.

    Rejection counts must match exactly; power losses are counts over the
    simulated replications too, so they are pinned to rounding only.
    """

    P = 96
    N_SIM = 200
    # (M, null rejections out of N_SIM, max power loss, rejects on the data)
    PINNED = (
        (1, 69, 0.05451127802038158, True),
        (2, 40, 0.04951127802038158, True),
        (3, 35, 0.059511278020381586, True),
        (4, 27, 0.059511278020381586, True),
        (5, 24, 0.049675532693731594, True),
        (6, 22, 0.04951127802038158, True),
        (7, 21, 0.059511278020381586, True),
        (8, 21, 0.06467553269373161, True),
        (9, 20, 0.0795112780203816, True),
        (10, 20, 0.08451127802038161, True),
    )

    def _series(self):
        # the loss differential of demos/bandwidth_tradeoff.py
        eps = np.random.default_rng(9).standard_normal(500 + self.P)
        return signal.lfilter([1.0], [1.0, -0.6], eps)[500:] * 0.8 + 0.18

    def test_curve_matches_pinned_values(self):
        cfg = TradeoffConfig(bandwidth_grid=tuple(range(1, 11)), n_sim=self.N_SIM, seed=0)
        curve = build_tradeoff_curve(self._series(), cfg)
        assert [p.M for p in curve] == [row[0] for row in self.PINNED]
        for p, (M, rejections, loss, rejected) in zip(curve, self.PINNED):
            assert round((p.size_distortion + 0.05) * self.N_SIM) == rejections, M
            assert p.size_distortion == pytest.approx(rejections / self.N_SIM - 0.05, abs=1e-15)
            assert p.max_power_loss == pytest.approx(loss, rel=1e-9), M
            assert p.rejected is rejected

    def test_one_bandwidth_functions_agree_with_the_curve(self):
        d = self._series()
        model = fit_ar(d)
        cfg = TradeoffConfig(bandwidth_grid=(1, 4, 10), n_sim=self.N_SIM, seed=0)
        for point in build_tradeoff_curve(d, cfg):
            assert size_distortion(model, self.P, point.M, self.N_SIM, 0) == point.size_distortion
            assert max_power_loss(model, self.P, point.M, self.N_SIM, seed=0) == pytest.approx(
                point.max_power_loss, rel=1e-9
            )
