import dataclasses
import inspect
import math

import numpy as np
import pytest
from scipy import stats

from epatest import dmtests
from epatest.dmtests import (
    METHODS,
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
    outcomes,
    procedure,
    tally,
)
from epatest.lrv import LrvEstimate, bandwidth, lrv_bartlett, lrv_rectangular

from reference import (
    naive_lrv_rectangular,
    normal_cdf,
    normal_quantile,
    normal_tail,
    t_cdf,
    t_quantile,
    t_tail,
    upper_quantile,
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


class TestRoundOffVariance:
    """A constant loss differential has no statistic: its variance estimates come out
    zero or round-off of its level, at most (P eps)^2 mean(d^2), which is degenerate."""

    SIZES = (10, 40, 175, 1000, 5000)
    LEVELS = (1e-8, -3.3e-7, 0.01, -0.1, 7.77, -123.456, 1e6)

    @staticmethod
    def _battery(P):
        return [procedure(name, P, 1, 0.05) for name in METHODS] + [
            procedure("dm_im_q5", P, 1, 0.05), procedure("dm_r", P, 4, 0.05)]

    @pytest.mark.parametrize("P", SIZES)
    def test_constant_is_degenerate_for_every_method(self, P):
        procedures = self._battery(P)
        X = np.repeat(np.array(self.LEVELS)[:, None], P, axis=1)
        for c, d in zip(self.LEVELS, X):
            results = outcomes(procedures, d, strict=False)
            assert all(isinstance(r, DegenerateVarianceError) for r in results), (P, c)
        tallies = list(zip(*tally(procedures, X)))  # one tuple per procedure
        for p, (stat, variance, abs_stat, rejections, degenerate) in zip(procedures, tallies):
            assert np.isnan(stat).all() and not abs_stat.any(), p.method
            assert (rejections, degenerate) == (0, len(self.LEVELS)), p.method
        # the floor does the work: not every estimate is exactly zero
        assert any((variance > 0.0).any() for _, variance, *_ in tallies)

    @pytest.mark.parametrize("P", SIZES)
    def test_noise_far_below_the_level_is_not_degenerate(self, P):
        procedures = self._battery(P)
        rng = np.random.default_rng(P)
        for c in self.LEVELS:
            d = c * (1.0 + 1e-9 * rng.standard_normal(P))
            for p, r in zip(procedures, outcomes(procedures, d, strict=False)):
                # a rectangular estimate at h > 1 may be genuinely negative
                if not (p.kernel == "rectangular" and p.bandwidth > 0):
                    assert isinstance(r, OutcomeRecord), (P, c, p.method, r)

    def test_dm_statistic_applies_the_floor(self):
        round_off = LrvEstimate(value=1e-35, kernel="ewc", bandwidth=4)
        with pytest.raises(DegenerateVarianceError,
                           match=r"^round-off variance estimate 1e-35 \(ewc kernel, bandwidth 4\)"):
            dm_statistic(np.full(40, 0.01), round_off)
        # the floor is relative: the same estimate is real for a series at 1e-20
        d = 1e-20 * np.random.default_rng(2).standard_normal(40)
        assert dm_statistic(d, round_off) == pytest.approx(
            math.sqrt(40) * d.mean() / math.sqrt(1e-35), rel=1e-12)


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
        with pytest.raises(ValueError, match=r"^forecast horizon must lie in \[1, 11\], got 12$"):
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
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \[1, 19\], got 20$"):
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
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \[1, 10\], got 11$"):
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
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \[2, 10\], got 1$"):
            im_partition(10, 1)
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \[2, 3\], got 4$"):
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

    # Each block count has one label: a superscript digit, a leading zero or
    # a full-width digit is no second spelling of it.
    @pytest.mark.parametrize("label", ["dm_im_q²", "dm_im_q02", "dm_im_q３"])
    def test_block_label_has_one_spelling(self, label):
        with pytest.raises(ValueError, match=f"^unknown method '{label}'; expected one of: "):
            procedure(label, 40, 1, 0.05)
        assert procedure("dm_im_q3", 40, 1, 0.05).bandwidth == 3


class TestRegistryDefaults:
    """The wrappers leave every default to ``METHODS``, through :func:`procedure`."""

    CASES = [(dm_test_bt, "dm_nw", "rule", "nw1994", "llsw"),
             (dm_test_bt_fb, "dm_fb", "rule", "llsw", "nw1994"),
             (dm_test_im, "dm_im", "q", 2, 3)]

    @pytest.mark.parametrize("wrapper, label, arg, old, other", CASES)
    def test_defaults_equal_the_old_literals(self, wrapper, label, arg, old, other):
        d = _series(24, n=100)
        assert inspect.signature(wrapper).parameters[arg].default is None
        assert METHODS[label].default == old
        assert wrapper(d) == wrapper(d, **{arg: old})

    @pytest.mark.parametrize("wrapper, label, arg, old, other", CASES)
    def test_defaults_follow_the_registry(self, wrapper, label, arg, old, other, monkeypatch):
        d = _series(25, n=100)
        monkeypatch.setitem(METHODS, label, dataclasses.replace(METHODS[label], default=other))
        swapped, named = wrapper(d), wrapper(d, **{arg: other})
        # every field but the label: dm_test_bt labels a call naming the llsw rule dm_nw_l
        assert dataclasses.astuple(swapped)[1:] == dataclasses.astuple(named)[1:]
        assert wrapper(d).bandwidth != wrapper(d, **{arg: old}).bandwidth


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


class TestSmallLevels:
    """Levels far below the spacing of doubles near 1, where 1 - cl/2 rounds away the level."""

    @pytest.mark.parametrize("cl", [1e-15, 1e-17])
    @pytest.mark.parametrize("label", ["dm_r", "dm_m", "dm_nw_l", "dm_ewc", "dm_im_q10"])
    def test_decision_agrees_with_the_p_value(self, label, cl):
        d0 = _series(40)
        p = procedure(label, d0.size, 1, cl)
        tail = normal_tail if p.df is None else (lambda x: t_tail(x, p.df))
        q = upper_quantile(tail, cl / 2.0, 1e4)
        assert p.critical_value == pytest.approx(q, rel=1e-12)
        # a constant added to the series moves the statistic linearly
        s0, s1 = (outcomes([p], d0 + c)[0].stat for c in (0.0, 1.0))
        for target in (q * (1.0 - 1e-9), q * (1.0 + 1e-9)):
            out = outcomes([p], d0 + (target - s0) / (s1 - s0))[0]
            assert out.stat == pytest.approx(target, rel=1e-11)
            assert out.rej == (out.pval < cl) == (target > q)

    @pytest.mark.parametrize("label", ["dm_r", "dm_m", "dm_im"])
    def test_level_without_a_finite_critical_value_is_refused(self, label):
        # cl / 2 underflows to 0, whose quantile is infinite
        with pytest.raises(UnsupportedLevelError, match="no finite critical value at cl=5e-324"):
            procedure(label, 60, 1, 5e-324)


class TestReferenceDistributions:
    """``dmtests.stats`` gives SciPy's normal and t values to the bit."""

    LEVELS = np.concatenate(([1e-12, 0.5, 1.0 - 1e-12], np.linspace(0.0005, 0.9995, 250)))
    DFS = np.arange(1.0, 201.0)

    @staticmethod
    def _statistics():
        rng = np.random.default_rng(20)
        tiny = 10.0 ** rng.uniform(-300.0, 0.0, 400)
        return np.concatenate((
            [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300],
            np.linspace(-40.0, 40.0, 1201), tiny, -tiny, rng.standard_normal(400) * 5.0,
        ))

    @staticmethod
    def _same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_quantiles(self):
        q = self.LEVELS
        self._same_bits(dmtests.stats.norm.ppf(q), stats.norm.ppf(q))
        self._same_bits(dmtests.stats.t.ppf(q[:, None], self.DFS), stats.t.ppf(q[:, None], self.DFS))
        assert q.size >= 200

    def test_survival_functions(self):
        x = self._statistics()
        assert x.size >= 2000
        self._same_bits(dmtests.stats.norm.sf(x), stats.norm.sf(x))
        self._same_bits(dmtests.stats.t.sf(x[:, None], self.DFS), stats.t.sf(x[:, None], self.DFS))

    def test_scalar_calls_as_the_procedures_make_them(self):
        assert float(dmtests.stats.norm.ppf(0.975)) == float(stats.norm.ppf(0.975))
        assert float(dmtests.stats.t.ppf(0.975, 7)) == float(stats.t.ppf(0.975, 7))
        assert float(dmtests.stats.norm.sf(1.7)) == float(stats.norm.sf(1.7))
        assert float(dmtests.stats.t.sf(1.7, 7)) == float(stats.t.sf(1.7, 7))
