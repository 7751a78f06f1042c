import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from epatest import tradeoff
from epatest._streams import keyed_rows
from epatest.data import ForecastDataset
from epatest.dmtests import METHODS, dm_test_bt_fb, procedure, tally
from epatest.lrv import bandwidth
from epatest.series import filter_tail_rows
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

from reference import ar_lfilter, naive_fit_ar

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
        with pytest.raises(ValueError, match=r"^max_order must lie in \[0, 4\], got 5$"):
            fit_ar(np.arange(10.0), max_order=5)

    def test_negative_max_order(self):
        with pytest.raises(ValueError, match=r"^max_order must lie in \[0, 19\], got -1$"):
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


def _assert_fit_equals_oracle(d, max_order=None):
    """``fit_ar`` gives the exhaustive search's model byte for byte, or its error text."""
    try:
        coefficients, innovation_variance, sample_mean = naive_fit_ar(d, max_order)
    except ValueError as expected:
        with pytest.raises(ValueError) as exc:
            fit_ar(d, max_order)
        assert str(exc.value) == str(expected)
        return None
    got = fit_ar(d, max_order)
    assert got == FittedArModel(coefficients, innovation_variance, sample_mean)
    assert np.array(got.coefficients).tobytes() == np.array(coefficients).tobytes()
    assert (np.float64(got.innovation_variance).tobytes()
            == np.float64(innovation_variance).tobytes())
    return got.order


class TestFitArOracle:
    """The order search checks stationarity lazily, in AIC order; the
    exhaustive search of ``reference.naive_fit_ar`` checks every order."""

    @pytest.fixture
    def stationarity_checks(self, monkeypatch):
        results = []

        def record(coefficients):
            results.append(is_stationary(coefficients))
            return results[-1]

        is_stationary = tradeoff._is_stationary
        monkeypatch.setattr(tradeoff, "_is_stationary", record)
        return results

    def test_random_ar_series(self, stationarity_checks):
        rng = np.random.default_rng(2026)
        orders, nonstationary = set(), 0
        for i in range(1000):
            P = int(rng.integers(12, 401))
            if i % 5 == 0:  # AR(1) at or near a unit root, stationary or explosive
                roots = rng.uniform(0.98, 1.03, 1)
            else:  # AR(0-3) with real roots inside the unit circle
                roots = rng.uniform(-0.97, 0.97, rng.integers(4))
            d = ar_lfilter(np.poly(roots), rng.standard_normal(P + 100))[100:]
            d = d * 10.0 ** rng.uniform(-4, 4) + rng.normal(0.0, 5.0)
            max_order = None if i % 2 else int(rng.integers(0, min(12, (P - 2) // 2) + 1))
            del stationarity_checks[:]
            orders.add(_assert_fit_equals_oracle(d, max_order))
            nonstationary += False in stationarity_checks
        assert {0, 1, 2, 3} <= orders
        assert nonstationary >= 50  # series on which a checked fit was nonstationary

    @pytest.mark.parametrize("max_order", [None, 6, 8, 9])
    def test_period_two_series(self, max_order):
        # unit root at the default order, a round-off fit at the others
        assert _assert_fit_equals_oracle(np.tile([1.0, 0.0], 79)[:157], max_order) is None

    def test_degenerate_series(self):
        assert _assert_fit_equals_oracle(0.5 ** np.arange(60.0)) is None
        assert _assert_fit_equals_oracle(np.full(40, 0.3)) is None

    @pytest.mark.parametrize("max_order", range(11))
    def test_shortest_admissible_lengths(self, max_order):
        rng = np.random.default_rng(max_order)
        for _ in range(20):
            _assert_fit_equals_oracle(rng.standard_normal(2 * max_order + 2), max_order)

    def test_ar1_checks_stationarity_at_most_twice(self, stationarity_checks):
        # once for the selected order 1 and once for its refit; the
        # exhaustive search checks all ten orders 1..10 and the refit
        rng = np.random.default_rng([11, 0])
        for _ in range(5):
            d = signal.lfilter([1.0], [1.0, -0.6], rng.standard_normal(600))[500:]
            del stationarity_checks[:]
            assert _assert_fit_equals_oracle(d, 10) == 1
            assert 1 <= len(stationarity_checks) <= 2


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
    MESSAGES = {-1: "seed must be a nonnegative integer, got -1",
                1.5: "seed must be an integer, got 1.5"}

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_refused_by_simulating_functions(self, seed):
        for fn in (size_distortion, max_power_loss):
            with pytest.raises(ValueError) as err:
                fn(AR0, P=60, M=5, n_sim=300, seed=seed)
            assert str(err.value) == self.MESSAGES[seed]

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


class TestSimulationCounts:
    """The one-bandwidth functions refuse what TradeoffConfig refuses, before simulating."""

    @staticmethod
    def _no_simulation(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated paths for a count that should be refused first")

        monkeypatch.setattr(tradeoff, "keyed_rows", fail)

    @pytest.mark.parametrize("fn", [size_distortion, max_power_loss])
    def test_fewer_than_100_simulations_refused(self, fn, monkeypatch):
        self._no_simulation(monkeypatch)
        with pytest.raises(ValueError, match="at least 100 simulations, got 99$"):
            fn(AR0, P=60, M=5, n_sim=99)

    @pytest.mark.parametrize("fn", [size_distortion, max_power_loss])
    def test_more_than_2_to_the_32_simulations_refused(self, fn, monkeypatch):
        self._no_simulation(monkeypatch)
        with pytest.raises(ValueError, match=r"n_sim must be at most 2\*\*32 .* got 4294967297$"):
            fn(AR0, P=60, M=5, n_sim=2**32 + 1)

    def test_zero_innovation_variance_still_gives_minus_nominal(self):
        # every null path is constant, so every replication is a degenerate non-rejection
        model = FittedArModel(coefficients=(), innovation_variance=0.0, sample_mean=0.0)
        assert size_distortion(model, P=60, M=5, n_sim=100) == -0.05


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


class TestCrossingCounts:
    """Power counted from two crossing shifts per replication equals the direct comparisons."""

    @settings(max_examples=200)
    @given(st.data())
    def test_equal_direct_counts(self, data):
        B, R, G = (data.draw(st.integers(1, n)) for n in (4, 30, 25))

        def floats(lo, hi, n):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

        # stat0 from -8 to 8 against crit up to 6, so some rows lie below -crit
        stat0 = floats(-8.0, 8.0, B * R).reshape(B, R)
        sd = floats(1e-3, 1e3, B * R).reshape(B, R)
        nan = np.array(data.draw(st.lists(st.booleans(), min_size=B * R, max_size=B * R)))
        stat0[nan.reshape(B, R)] = sd[nan.reshape(B, R)] = np.nan  # degenerate rows
        crit = floats(0.0, 6.0, B)[:, None]
        sqrt_p = math.sqrt(data.draw(st.integers(2, 1000)))
        shifts = data.draw(st.floats(1e-3, 10.0)) * np.arange(1, G + 1) / G
        if data.draw(st.booleans()) and not nan[0]:
            # a critical value hit exactly by one statistic: the tie must not reject
            crit[0, 0] = abs(stat0[0, 0] + sqrt_p * shifts[G // 2] / sd[0, 0])
        want = np.column_stack([
            np.count_nonzero(np.abs(stat0 + sqrt_p * s / sd) > crit, axis=1) for s in shifts])
        got = tradeoff._crossing_counts(stat0, sd, crit, sqrt_p * shifts)
        assert got.tolist() == want.tolist()


def _order_coefficients(p):
    """Random AR(p) coefficients with sum |phi| = 0.9, so the model is stationary."""
    c = np.random.default_rng(p).uniform(-1.0, 1.0, p)
    return tuple(0.9 * c / np.abs(c).sum()) if p else ()


# Orders 0-10, two oscillating responses, and a near unit root whose
# response spans the whole path. The null paths, filtered through the
# response that the banded solve in `arma_response` builds, must match
# SciPy's direct filter run over the whole path, burn-in included.
NULL_PATH_MODELS = {**{f"order{p}": _order_coefficients(p) for p in range(11)},
                    "oscillating": (0.0, -0.5), "alternating": (-0.7,),
                    "near_unit_root": (0.999,)}


@pytest.mark.parametrize("name", NULL_PATH_MODELS)
def test_null_paths_match_the_banded_solve(name):
    coefficients, P = NULL_PATH_MODELS[name], 96
    model = FittedArModel(coefficients, 0.7, 0.0)
    E = np.random.default_rng(8).standard_normal((40, tradeoff.SIMULATION_BURN_IN + P))
    a = np.concatenate(([1.0], -np.asarray(coefficients)))
    want = ar_lfilter(a, E * math.sqrt(0.7))[:, tradeoff.SIMULATION_BURN_IN :]
    response = tradeoff._model_response(model, P)
    got = filter_tail_rows(E, response, P)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    _, n, L = response
    # the near unit root keeps every innovation, the others a part of the burn-in
    assert (L == tradeoff.SIMULATION_BURN_IN) is (name == "near_unit_root")
    assert n >= P + L


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

    def test_zero_innovation_variance_is_refused(self):
        with pytest.raises(ValueError, match="nonpositive long-run variance"):
            max_power_loss(ar1_model(0.5, var=0.0), P=40, M=3, n_sim=100)

    def test_deterministic(self):
        a = max_power_loss(AR0, P=80, M=4, n_sim=300, seed=4)
        b = max_power_loss(AR0, P=80, M=4, n_sim=300, seed=4)
        assert a == b


class TestTradeoffConfig:
    def test_minimum_simulations(self):
        with pytest.raises(ValueError, match="100"):
            TradeoffConfig(n_sim=99)

    def test_maximum_simulations(self):
        # each simulation's stream is keyed by one 32-bit word
        assert TradeoffConfig(n_sim=2**32).n_sim == 2**32
        with pytest.raises(ValueError, match=r"n_sim must be at most 2\*\*32 .* got 4294967297"):
            TradeoffConfig(n_sim=2**32 + 1)

    def test_positive_alt_grid(self):
        with pytest.raises(ValueError, match="alternative_grid_size"):
            TradeoffConfig(alternative_grid_size=0)

    def test_integer_seed(self):
        # refused when the config is made, before any model is fitted
        for seed, message in [(1.5, "seed must be an integer, got 1.5"),
                              ("3", "seed must be an integer, got '3'"),
                              (-1, "seed must be a nonnegative integer, got -1")]:
            with pytest.raises(ValueError) as err:
                TradeoffConfig(seed=seed)
            assert str(err.value) == message
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

    def test_nonnegative_max_ar_order(self):
        # refused when the config is made, naming the field, not fit_ar's max_order
        with pytest.raises(ValueError,
                           match="^max_ar_order must be a nonnegative integer, got -1$"):
            TradeoffConfig(max_ar_order=-1)
        assert TradeoffConfig(max_ar_order=0).max_ar_order == 0

    def test_integral_float_counts_give_the_integer_curve(self):
        d = simulate_from_model(ar1_model(0.5), 60, 0.0, 9)
        whole = build_tradeoff_curve(d, TradeoffConfig((2, 5), n_sim=150.0, max_ar_order=2.0))
        assert whole == build_tradeoff_curve(d, TradeoffConfig((2, 5), n_sim=150,
                                                               max_ar_order=2))

    def test_repeated_bandwidth(self):
        # refused when the config is made, before any model is fitted
        with pytest.raises(ValueError, match="^bandwidth 1 is listed more than once$"):
            TradeoffConfig(bandwidth_grid=(1, 1, 2))
        with pytest.raises(ValueError, match="^bandwidth 4 is listed more than once$"):
            TradeoffConfig(bandwidth_grid=(2, 4, 3, 4))

    def test_range_grid_is_not_listed(self):
        # a range repeats nothing, so the config takes it as it is, and the
        # curve refuses its first bandwidth past P - 1 without listing the rest
        grid = range(1, 10**6)
        d = np.random.default_rng(3).standard_normal(60)
        tracemalloc.start()
        try:
            cfg = TradeoffConfig(bandwidth_grid=grid, n_sim=100)
            with pytest.raises(ValueError, match=r"^bandwidth must lie in \[1, 59\], got 60$"):
                build_tradeoff_curve(d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.bandwidth_grid is grid
        assert peak < 1 << 20

    def test_iterator_grid_gives_the_list_grids_curve(self):
        # The duplicate check used to consume the iterator, leaving an empty grid.
        d = np.random.default_rng(21).standard_normal(60) * 0.5 + 0.05
        cfg = TradeoffConfig(bandwidth_grid=(M for M in (2, 4)), n_sim=100)
        assert cfg.bandwidth_grid == (2, 4)
        want = build_tradeoff_curve(d, TradeoffConfig(bandwidth_grid=[2, 4], n_sim=100))
        assert build_tradeoff_curve(d, cfg) == want
        assert len(want) == 2

    def test_iterator_grid_is_checked(self):
        with pytest.raises(ValueError, match="^bandwidth 4 is listed more than once$"):
            TradeoffConfig(bandwidth_grid=iter((4, 2, 4)))
        with pytest.raises(ValueError, match="^bandwidth grid is empty$"):
            TradeoffConfig(bandwidth_grid=iter(()))

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

    def test_follows_the_registry(self, monkeypatch):
        monkeypatch.setitem(METHODS, "dm_fb", dataclasses.replace(METHODS["dm_fb"],
                                                                  default="nw1994"))
        assert default_bandwidth_grid(100) == tuple(range(1, 2 * bandwidth("nw1994", 100) + 1))


class TestBuildTradeoffCurve:
    def _series(self, n=60, seed=21):
        return np.random.default_rng(seed).standard_normal(n) * 0.5 + 0.05

    def test_point_per_grid_entry(self):
        d = self._series()
        cfg = TradeoffConfig(bandwidth_grid=(2, 5, 9), n_sim=150)
        points = build_tradeoff_curve(d, cfg)
        assert [p.M for p in points] == [2, 5, 9]
        assert all(isinstance(p, TradeoffPoint) for p in points)

    def test_no_config_is_the_default_config(self):
        d = self._series(n=30)
        assert build_tradeoff_curve(d) == build_tradeoff_curve(d, TradeoffConfig())

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

    @pytest.mark.parametrize("max_ar_order", [6, 8, 9])
    def test_round_off_fit_is_degenerate(self, max_ar_order):
        # the period-2 series fits to round-off (innovation variance ~1e-32);
        # fit_ar refuses it, for library callers and the diagnostic alike
        d = np.tile([1.0, 0.0], 79)[:157]
        message = "^fitted innovation variance is zero; series is degenerate$"
        with pytest.raises(ValueError, match=message):
            fit_ar(d, max_ar_order)
        with pytest.raises(ValueError, match=message):
            build_tradeoff_curve(d, TradeoffConfig(max_ar_order=max_ar_order, n_sim=100))

    def test_empty_grid_rejected_before_fitting(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fitted the model for an empty grid")

        monkeypatch.setattr(tradeoff, "fit_ar", fail)
        with pytest.raises(ValueError, match="grid is empty"):
            build_tradeoff_curve(self._series(), TradeoffConfig(bandwidth_grid=(), n_sim=100))


class TestDegeneratePaths:
    """Null paths whose variance estimate is zero: non-rejections, counted in the debug log."""

    P, N_SIM, GRID = 48, 200, (2, 5, 9)

    def test_constant_paths_count_as_non_rejections(self, monkeypatch, caplog):
        # paths at 1.0 give Bartlett estimates of exactly zero
        self._check_constant_paths(1.0, monkeypatch, caplog)

    def test_round_off_paths_count_as_non_rejections(self, monkeypatch, caplog):
        # paths at 0.1 give round-off estimates, which the floor of
        # dmtests.tally makes degenerate too
        self._check_constant_paths(0.1, monkeypatch, caplog)

    def _check_constant_paths(self, level, monkeypatch, caplog):
        d = simulate_from_model(ar1_model(0.5), self.P, 0.0, 4)
        model = fit_ar(d)
        procedures = [procedure("dm_fb", self.P, 1, 0.05, M) for M in self.GRID]
        paths = np.empty((self.N_SIM, self.P))  # the null paths as _null_summary draws them
        response = tradeoff._model_response(model, self.P)
        keyed_rows(paths, [0], tradeoff.SIMULATION_BURN_IN + self.P,
                   lambda E: filter_tail_rows(E, response, self.P))
        clean = tally(procedures, paths)[0]  # the statistics
        live = np.arange(self.N_SIM) % 10 != 0
        want = [np.count_nonzero(np.abs(stat[live]) > p.critical_value) / self.N_SIM - 0.05
                for p, stat in zip(procedures, clean)]
        # the paths of replications 0, 10, 20, ... are constant
        first = [0]

        def every_tenth_path_constant(E, response, keep):
            paths = filter_tail_rows(E, response, keep)
            paths[-first[0] % 10 :: 10] = level
            first[0] += len(paths)
            return paths

        monkeypatch.setattr(tradeoff, "filter_tail_rows", every_tenth_path_constant)
        caplog.set_level(logging.DEBUG, logger="epatest.tradeoff")
        cfg = TradeoffConfig(bandwidth_grid=self.GRID, n_sim=self.N_SIM)
        curve = build_tradeoff_curve(d, cfg)
        assert [p.size_distortion for p in curve] == want
        assert [r.getMessage() for r in caplog.records] == [
            f"fixed-b null statistics (P={self.P}, M={M}): {self.N_SIM // 10} of "
            f"{self.N_SIM} replications degenerate" for M in self.GRID
        ]
        first[0] = 0
        assert size_distortion(model, self.P, 5, self.N_SIM) == want[1]


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
