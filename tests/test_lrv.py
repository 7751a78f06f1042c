import dataclasses

import numpy as np
import pytest

from epatest.lrv import (
    BANDWIDTH_RULES,
    LrvEstimate,
    bandwidth,
    lrv_bartlett,
    lrv_ewc,
    lrv_rectangular,
    lrv_wpe,
)

from reference import (
    naive_lrv_bartlett,
    naive_lrv_ewc,
    naive_lrv_rectangular,
    naive_lrv_wpe,
)

# Hand-computed values of every published rule on the sample sizes used
# throughout, including P = 1000 where 0.4 * P^(2/3) and P^(1/3) land on
# a representation boundary that naive floor/ceil would misround.
BANDWIDTH_TABLE = {
    "llsw": {25: 7, 40: 9, 75: 12, 100: 13, 125: 15, 175: 18, 1000: 42},
    "nw1994": {25: 3, 40: 4, 75: 4, 100: 4, 125: 5, 175: 5, 1000: 7},
    "textbook": {25: 3, 40: 3, 75: 4, 100: 4, 125: 4, 175: 5, 1000: 8},
    "ci_baseline": {25: 5, 40: 6, 75: 8, 100: 10, 125: 11, 175: 13, 1000: 31},
    "ewc_default": {25: 3, 40: 4, 75: 7, 100: 8, 125: 10, 175: 12, 1000: 40},
    "wpe_default": {25: 2, 40: 3, 75: 4, 100: 4, 125: 5, 175: 5, 1000: 10},
}


class TestBandwidth:
    @pytest.mark.parametrize("rule", sorted(BANDWIDTH_TABLE))
    def test_published_rule_table(self, rule):
        for P, expected in BANDWIDTH_TABLE[rule].items():
            assert bandwidth(rule, P) == expected, (rule, P)

    def test_registry_is_complete(self):
        assert set(BANDWIDTH_RULES) == set(BANDWIDTH_TABLE)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown bandwidth rule"):
            bandwidth("andrews", 100)

    def test_minimum_sample(self):
        with pytest.raises(ValueError, match="at least 2"):
            bandwidth("llsw", 1)

    def test_clamped_into_valid_range(self):
        # llsw at tiny P would exceed P - 1 without the clamp
        assert bandwidth("llsw", 2) == 1
        assert bandwidth("llsw", 4) == 3
        # wpe ordinates cannot exceed P // 2
        assert bandwidth("wpe_default", 2) == 1
        for P in (2, 3, 4, 5, 10):
            assert 1 <= bandwidth("wpe_default", P) <= P // 2


class TestRectangular:
    def test_matches_naive(self):
        rng = np.random.default_rng(10)
        for h in (1, 2, 4):
            d = rng.standard_normal(60)
            est = lrv_rectangular(d, h)
            assert est.value == pytest.approx(naive_lrv_rectangular(d, h), rel=1e-12)
            assert est.kernel == "rectangular"
            assert est.bandwidth == h - 1

    def test_h1_is_plain_variance(self):
        d = np.array([1.0, 2.0, 3.0, 6.0])
        assert lrv_rectangular(d, 1).value == pytest.approx(np.var(d))

    def test_nonpositive_is_flagged_not_repaired(self):
        # strongly negative lag-1 autocovariance drives the h=2 sum below zero
        d = np.array([1.0, -1.0] * 8)
        est = lrv_rectangular(d, 2)
        assert est.value < 0.0
        assert est.nonpositive

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="at least 1"):
            lrv_rectangular([1.0, 2.0], 0)

    def test_horizon_as_long_as_the_sample(self):
        # every autocovariance with full weight sums to zero about the mean
        d = np.random.default_rng(19).standard_normal(16)
        with pytest.raises(ValueError, match="^horizon 16 needs at least 17 observations, got 16$"):
            lrv_rectangular(d, d.size)
        assert lrv_rectangular(d, d.size - 1).bandwidth == 14


class TestBartlett:
    def test_matches_naive(self):
        rng = np.random.default_rng(11)
        for M in (1, 3, 12):
            d = rng.standard_normal(80)
            est = lrv_bartlett(d, M)
            assert est.value == pytest.approx(naive_lrv_bartlett(d, M), rel=1e-12)
            assert est.kernel == "bartlett"
            assert est.bandwidth == M

    def test_m1_reduces_to_variance(self):
        d = np.random.default_rng(12).standard_normal(30)
        assert lrv_bartlett(d, 1).value == pytest.approx(np.var(d))

    def test_never_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = rng.standard_normal(25)
            assert lrv_bartlett(d, 24).value >= 0.0

    def test_bandwidth_bounds(self):
        d = np.arange(10.0)
        with pytest.raises(ValueError, match="bandwidth"):
            lrv_bartlett(d, 0)
        with pytest.raises(ValueError, match="bandwidth"):
            lrv_bartlett(d, 10)


class TestEwc:
    def test_matches_naive(self):
        rng = np.random.default_rng(14)
        d = rng.standard_normal(55)
        for B in (1, 4, 20):
            assert lrv_ewc(d, B).value == pytest.approx(naive_lrv_ewc(d, B), rel=1e-12)

    def test_level_shift_invariant(self):
        rng = np.random.default_rng(15)
        d = rng.standard_normal(48)
        assert lrv_ewc(d, 6).value == pytest.approx(lrv_ewc(d + 100.0, 6).value, rel=1e-9)

    def test_bounds(self):
        d = np.arange(10.0)
        with pytest.raises(ValueError, match="basis functions"):
            lrv_ewc(d, 10)


class TestWpe:
    def test_matches_naive(self):
        rng = np.random.default_rng(16)
        d = rng.standard_normal(44)
        for m in (1, 5, 22):
            assert lrv_wpe(d, m).value == pytest.approx(naive_lrv_wpe(d, m), rel=1e-12)

    def test_iid_unit_variance_range(self):
        # chi-squared averaging with 2m = 18 degrees of freedom: any single
        # draw lands in a wide but bounded band around 1
        d = np.random.default_rng(17).standard_normal(1000)
        est = lrv_wpe(d, 9)
        assert 0.4 <= est.value <= 1.8

    def test_iid_unit_variance_mean(self):
        rng = np.random.default_rng(18)
        vals = [lrv_wpe(rng.standard_normal(300), 9).value for _ in range(400)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)

    def test_bounds(self):
        d = np.arange(10.0)
        with pytest.raises(ValueError, match="ordinates"):
            lrv_wpe(d, 6)


class TestEstimateRecord:
    def test_fields(self):
        est = lrv_bartlett(np.arange(20.0), 4)
        assert isinstance(est, LrvEstimate)
        assert est.kernel == "bartlett"
        assert est.bandwidth == 4
        assert est.nonpositive == (est.value <= 0.0)

    def test_nonpositive_is_computed(self):
        assert LrvEstimate(-0.5, "rectangular", 1).nonpositive is True
        assert LrvEstimate(0.0, "rectangular", 1).nonpositive is True
        assert LrvEstimate(4.0, "rectangular", 0).nonpositive is False
        assert [f.name for f in dataclasses.fields(LrvEstimate)][-1] == "nonpositive"
        with pytest.raises(TypeError):
            LrvEstimate(4.0, "rectangular", 0, nonpositive=True)

    def test_frozen(self):
        est = lrv_bartlett(np.arange(20.0), 4)
        with pytest.raises(AttributeError):
            est.value = 1.0


class TestIntegerBandwidths:
    """Every bandwidth argument goes through one check: integral values are
    taken as ints, anything else is refused with one message."""

    D = np.random.default_rng(19).standard_normal(40)
    MESSAGE = "bandwidth must be an integer, got 3.5"

    @staticmethod
    def _entry_points(d, value):
        from epatest import dmtests, tradeoff

        model = tradeoff.FittedArModel((0.5,), 1.0, 0.0)
        return {
            "lrv_bartlett": lambda: lrv_bartlett(d, value),
            "lrv_ewc": lambda: lrv_ewc(d, value),
            "lrv_wpe": lambda: lrv_wpe(d, value),
            "dm_test_bt": lambda: dmtests.dm_test_bt(d, M=value),
            "dm_test_bt_fb": lambda: dmtests.dm_test_bt_fb(d, M=value),
            "dm_test_ewc_fb": lambda: dmtests.dm_test_ewc_fb(d, B=value),
            "dm_test_wpe_fb": lambda: dmtests.dm_test_wpe_fb(d, m=value),
            "dm_test_im": lambda: dmtests.dm_test_im(d, q=value),
            "im_partition": lambda: dmtests.im_partition(d.size, value),
            "procedure": lambda: dmtests.procedure("dm_fb", d.size, 1, 0.05, value),
            "size_distortion": lambda: tradeoff.size_distortion(model, d.size, value, 100),
            "max_power_loss": lambda: tradeoff.max_power_loss(model, d.size, value, 100),
            "build_tradeoff_curve": lambda: tradeoff.build_tradeoff_curve(
                d, tradeoff.TradeoffConfig(bandwidth_grid=(2, value), n_sim=100)),
        }

    @pytest.mark.parametrize("name", sorted(_entry_points(D, 3.5)))
    def test_fractional_bandwidth_refused_with_one_message(self, name):
        with pytest.raises(ValueError) as err:
            self._entry_points(self.D, 3.5)[name]()
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("value", ["3", None, float("nan"), float("inf"), 3 + 0j])
    def test_non_numbers_refused(self, value):
        with pytest.raises(ValueError, match="bandwidth must be an integer"):
            lrv_ewc(self.D, value)

    @pytest.mark.parametrize("name", sorted(_entry_points(D, 3.5)))
    def test_integral_values_equal_the_int(self, name):
        want = self._entry_points(self.D, 3)[name]()
        for value in (3.0, np.int64(3), np.float64(3.0)):
            got = self._entry_points(self.D, value)[name]()
            assert got == want, (name, value)

    def test_estimates_record_an_int(self):
        for fn in (lrv_bartlett, lrv_ewc, lrv_wpe):
            est = fn(self.D, 3.0)
            assert type(est.bandwidth) is int and est.bandwidth == 3

    def test_horizon_must_be_an_integer(self):
        with pytest.raises(ValueError, match="forecast horizon must be an integer, got 3.5"):
            lrv_rectangular(self.D, 3.5)
        assert lrv_rectangular(self.D, 3.0) == lrv_rectangular(self.D, 3)
