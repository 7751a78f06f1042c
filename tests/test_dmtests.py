import math

import numpy as np
import pytest
from scipy import stats

from epatest.dmtests import (
    DegenerateVarianceError,
    ImPartition,
    TestOutcome as OutcomeRecord,
    UnsupportedLevelError,
    dm_statistic,
    dm_test_bt,
    dm_test_bt_fb,
    dm_test_ewc_fb,
    dm_test_im,
    dm_test_m,
    dm_test_r,
    dm_test_wpe_fb,
    fixed_b_critical_value,
    im_partition,
)
from epatest.lrv import LrvEstimate, bandwidth, lrv_bartlett, lrv_rectangular

from reference import (
    naive_lrv_rectangular,
    normal_cdf,
    normal_quantile,
    t_cdf,
    t_quantile,
)


def _series(seed, n=60):
    return np.random.default_rng(seed).standard_normal(n) + 0.1


class TestDmStatistic:
    def test_hand_value(self):
        d = [1.0, 2.0, 3.0, 4.0]
        est = LrvEstimate(value=4.0, kernel="rectangular", bandwidth=0)
        assert dm_statistic(d, est) == pytest.approx(2.0 * 2.5 / 2.0)

    def test_degenerate_raises_with_context(self):
        est = LrvEstimate(value=-0.5, kernel="rectangular", bandwidth=1)
        with pytest.raises(DegenerateVarianceError) as exc:
            dm_statistic([1.0, 2.0], est)
        assert exc.value.kernel == "rectangular"
        assert exc.value.bandwidth == 1
        assert exc.value.value == -0.5


class TestDmR:
    def test_statistic_formula(self):
        d = _series(0)
        out = dm_test_r(d, h=2)
        expected = math.sqrt(d.size) * d.mean() / math.sqrt(naive_lrv_rectangular(d, 2))
        assert out.stat == pytest.approx(expected, rel=1e-12)
        assert out.method == "dm_r"
        assert out.bandwidth == 1

    def test_normal_reference_by_quadrature(self):
        out = dm_test_r(_series(1), h=1)
        assert out.pval == pytest.approx(2.0 * (1.0 - normal_cdf(abs(out.stat))), abs=1e-9)
        assert out.critical_value == pytest.approx(normal_quantile(0.975), abs=1e-8)
        assert out.df is None

    def test_rejection_consistent_with_pval(self):
        for seed in range(8):
            out = dm_test_r(_series(seed), h=1)
            assert out.rej == (out.pval < 0.05)
            assert out.rej == (abs(out.stat) > out.critical_value)

    def test_sign_antisymmetry(self):
        d = _series(2)
        plus, minus = dm_test_r(d, h=3), dm_test_r(-d, h=3)
        assert minus.stat == pytest.approx(-plus.stat, rel=1e-12)
        assert minus.rej == plus.rej

    def test_level_validation(self):
        with pytest.raises(ValueError, match="significance level"):
            dm_test_r(_series(3), cl=1.5)

    def test_horizon_as_long_as_the_sample(self):
        # the flat-weight sum of every autocovariance is zero at h = P
        d = _series(6, n=12)
        with pytest.raises(ValueError, match="^horizon 12 needs at least 13 observations, got 12$"):
            dm_test_r(d, h=d.size)
        assert dm_test_r(d, h=d.size - 1).bandwidth == 10


class TestDmM:
    def test_scaled_identity_with_dm_r(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            P = int(rng.integers(10, 201))
            h = int(rng.integers(1, 5))
            d = rng.standard_normal(P)
            factor = math.sqrt((P + 1.0 - 2.0 * h + h * (h - 1.0) / P) / P)
            assert dm_test_m(d, h=h).stat == pytest.approx(
                factor * dm_test_r(d, h=h).stat, abs=1e-12
            )

    def test_p40_h1_factor_literal(self):
        d = _series(4, n=40)
        ratio = dm_test_m(d, h=1).stat / dm_test_r(d, h=1).stat
        assert ratio == pytest.approx(math.sqrt(39.0 / 40.0), rel=1e-12)
        assert round(ratio, 5) == 0.98742

    def test_student_reference_by_quadrature(self):
        d = _series(5, n=25)
        out = dm_test_m(d, h=1)
        assert out.df == 24
        assert out.pval == pytest.approx(2.0 * (1.0 - t_cdf(abs(out.stat), 24)), abs=1e-9)
        assert out.critical_value == pytest.approx(t_quantile(0.975, 24), abs=1e-8)

    def test_degenerate_correction_factor(self):
        # P + 1 - 2h + h(h-1)/P = 0 at P = 4, h = 4
        with pytest.raises(ValueError, match="correction factor"):
            dm_test_m(np.arange(4.0), h=4)


class TestDmBt:
    def test_default_rule_and_label(self):
        d = _series(6, n=100)
        out = dm_test_bt(d)
        assert out.method == "dm_nw"
        assert out.bandwidth == bandwidth("nw1994", 100) == 4

    def test_llsw_automatic_label(self):
        d = _series(7, n=100)
        out = dm_test_bt(d, rule="llsw")
        assert out.method == "dm_nw_l"
        assert out.bandwidth == 13

    def test_explicit_bandwidth_keeps_plain_label(self):
        d = _series(8, n=100)
        out = dm_test_bt(d, M=13, rule="llsw")
        assert out.method == "dm_nw"
        assert out.bandwidth == 13

    def test_statistic_uses_bartlett_variance(self):
        d = _series(9, n=80)
        out = dm_test_bt(d, M=7)
        expected = math.sqrt(d.size) * d.mean() / math.sqrt(lrv_bartlett(d, 7).value)
        assert out.stat == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_bounds(self):
        with pytest.raises(ValueError, match="bandwidth"):
            dm_test_bt(_series(10, n=20), M=20)


class TestFixedBCriticalValue:
    def test_collapses_to_normal_at_zero(self):
        assert fixed_b_critical_value(0.0) == 1.9600

    def test_quarter_point(self):
        assert fixed_b_critical_value(0.225) == pytest.approx(2.64311, abs=1e-5)

    def test_endpoint(self):
        assert fixed_b_critical_value(1.0) == pytest.approx(4.8130, abs=1e-10)

    def test_monotone_increasing_on_unit_interval(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [fixed_b_critical_value(b) for b in grid]
        assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))

    def test_domain(self):
        for b in (-0.01, 1.01):
            with pytest.raises(ValueError, match="bandwidth fraction"):
                fixed_b_critical_value(b)


class TestDmBtFb:
    def test_same_statistic_as_standard_bartlett(self):
        d = _series(11, n=90)
        M = bandwidth("llsw", 90)
        assert dm_test_bt_fb(d).stat == pytest.approx(dm_test_bt(d, M=M).stat, rel=1e-14)
        assert dm_test_bt_fb(d).bandwidth == M

    def test_critical_value_is_polynomial_at_band_fraction(self):
        d = _series(12, n=64)
        out = dm_test_bt_fb(d, M=16)
        assert out.critical_value == pytest.approx(fixed_b_critical_value(0.25), rel=1e-14)
        assert out.rej == (abs(out.stat) > out.critical_value)

    def test_no_pval(self):
        assert dm_test_bt_fb(_series(13)).pval is None

    def test_only_five_percent_level(self):
        with pytest.raises(UnsupportedLevelError, match="cl=0.05"):
            dm_test_bt_fb(_series(14), cl=0.10)

    def test_method_label(self):
        assert dm_test_bt_fb(_series(15)).method == "dm_fb"


class TestDmEwcFb:
    def test_p40_defaults(self):
        out = dm_test_ewc_fb(_series(16, n=40))
        assert out.bandwidth == 4
        assert out.df == 4
        assert round(out.critical_value, 3) == 2.776

    def test_student_reference_by_quadrature(self):
        out = dm_test_ewc_fb(_series(17, n=50), B=6)
        assert out.df == 6
        assert out.pval == pytest.approx(2.0 * (1.0 - t_cdf(abs(out.stat), 6)), abs=1e-9)

    def test_bounds(self):
        with pytest.raises(ValueError, match="basis functions"):
            dm_test_ewc_fb(_series(18, n=20), B=20)


class TestDmWpeFb:
    def test_p40_defaults(self):
        out = dm_test_wpe_fb(_series(19, n=40))
        assert out.bandwidth == 3
        assert out.df == 6
        assert round(out.critical_value, 3) == 2.447

    def test_student_reference_by_quadrature(self):
        out = dm_test_wpe_fb(_series(20, n=50), m=4)
        assert out.df == 8
        assert out.pval == pytest.approx(2.0 * (1.0 - t_cdf(abs(out.stat), 8)), abs=1e-9)

    def test_bounds(self):
        with pytest.raises(ValueError, match="ordinates"):
            dm_test_wpe_fb(_series(21, n=20), m=11)


class TestImPartition:
    def test_ten_into_three(self):
        assert im_partition(10, 3) == ImPartition(block_sizes=(4, 3, 3))

    def test_q_is_computed(self):
        assert ImPartition((4, 3, 3)).q == 3
        with pytest.raises(TypeError):
            ImPartition(q=3, block_sizes=(4, 3, 3))

    def test_even_split(self):
        assert im_partition(100, 5).block_sizes == (20,) * 5

    def test_singletons(self):
        assert im_partition(7, 7).block_sizes == (1,) * 7

    def test_sizes_sum_and_balance(self):
        for P in (10, 37, 100):
            for q in (2, 3, 5, 7):
                sizes = im_partition(P, q).block_sizes
                assert sum(sizes) == P
                assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            im_partition(10, 1)
        with pytest.raises(ValueError, match="cannot split"):
            im_partition(3, 4)


class TestDmIm:
    def test_hand_example(self):
        out = dm_test_im([1.0, 1.0, 3.0, 3.0], q=2)
        assert out.stat == pytest.approx(2.0, rel=1e-14)
        assert out.df == 1

    def test_equals_t_test_on_block_means(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            P = int(rng.integers(20, 120))
            q = int(rng.integers(2, 9))
            d = rng.standard_normal(P) + 0.2
            sizes = im_partition(P, q).block_sizes
            means, pos = [], 0
            for b in sizes:
                means.append(d[pos : pos + b].mean())
                pos += b
            ref = stats.ttest_1samp(means, 0.0)
            out = dm_test_im(d, q=q)
            assert out.stat == pytest.approx(ref.statistic, rel=1e-12)
            assert out.pval == pytest.approx(ref.pvalue, rel=1e-12)

    def test_default_two_blocks(self):
        d = _series(22, n=30)
        assert dm_test_im(d).df == 1

    def test_degenerate_block_means(self):
        with pytest.raises(DegenerateVarianceError) as exc:
            dm_test_im([1.0, 2.0, 2.0, 1.0], q=2)
        assert exc.value.kernel == "block-means"

    def test_student_reference_by_quadrature(self):
        out = dm_test_im(_series(23, n=45), q=5)
        assert out.pval == pytest.approx(2.0 * (1.0 - t_cdf(abs(out.stat), 4)), abs=1e-9)


class TestOutcomeRecord:
    def test_frozen(self):
        out = dm_test_r(_series(24))
        assert isinstance(out, OutcomeRecord)
        with pytest.raises(AttributeError):
            out.stat = 0.0

    def test_cl_recorded(self):
        out = dm_test_r(_series(25), cl=0.10)
        assert out.cl == 0.10
        assert out.critical_value == pytest.approx(normal_quantile(0.95), abs=1e-8)
