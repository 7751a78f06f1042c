import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from epatest import mc
from epatest.dmtests import UnsupportedLevelError
from epatest.mc import (
    CR_BURN_IN,
    DEFAULT_H_SET,
    DEFAULT_METHODS,
    DEFAULT_P_SET,
    DEFAULT_R_SET,
    DgpSpec,
    ExperimentResult,
    _cr_recursion,
    calibrate_mu,
    experiment_grid,
    ma_autocovariances,
    ma_weights,
    make_spec,
    run_experiment,
    simulate,
    simulate_cr,
    simulate_ucr,
    size_corrected_critical_value,
    size_corrected_power,
)
from reference import cr_recursion_lfilter


class TestMaStructure:
    def test_weights_halve(self):
        assert ma_weights(1) == pytest.approx([1.0])
        assert ma_weights(3) == pytest.approx([1.0, 0.5, 0.25])

    def test_autocovariances_hand_values(self):
        gamma = ma_autocovariances(2)  # weights (1, 1/2)
        assert gamma[0] == pytest.approx(1.25)
        assert gamma[1] == pytest.approx(0.5)

    def test_autocovariances_match_simulation(self):
        h = 3
        gamma = ma_autocovariances(h)
        rng = np.random.default_rng(0)
        eps = rng.standard_normal(400_000)
        x = np.convolve(eps, ma_weights(h), mode="valid")
        for j in range(h):
            sample = np.mean(x[: x.size - j] * x[j:])
            assert sample == pytest.approx(gamma[j], abs=0.02)


class TestCalibrateMu:
    def test_one_step_closed_form(self):
        # h=1: mu = sqrt(gamma_0 / R) = 1/sqrt(R)
        assert calibrate_mu(1, 25) == 0.2
        assert calibrate_mu(1, 100) == pytest.approx(0.1)

    def test_three_step_value(self):
        assert calibrate_mu(3, 25) == pytest.approx(0.34482, abs=1e-5)

    def test_window_shorter_than_dependence(self):
        with pytest.raises(ValueError, match="R >= h"):
            calibrate_mu(4, 2)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            calibrate_mu(0, 10)

    def test_loss_equality_by_simulation(self):
        # the calibrated mean really does equalize the two MSEs
        spec = make_spec("ucr", h=2, R=25, R_tilde=25, P=150_000)
        target, f1, f2 = simulate(spec, 42)
        d = (target - f1) ** 2 - (target - f2) ** 2
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert abs(d.mean()) < 3.0 * se


class TestDgpSpec:
    def test_family_validation(self):
        with pytest.raises(ValueError, match="family"):
            DgpSpec(family="ar1", h=1, R=25, R_tilde=25, P=25)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            DgpSpec(family="ucr", h=0, R=25, R_tilde=25, P=25)
        with pytest.raises(ValueError):
            DgpSpec(family="ucr", h=1, R=25, R_tilde=25, P=0)

    def test_mu_is_computed_not_passed(self):
        assert DgpSpec("ucr", 1, 25, 25, 75) == make_spec("ucr", 1, 25, 25, 75)
        assert DgpSpec("ucr", 1, 25, 25, 75).mu == calibrate_mu(1, 25)
        assert DgpSpec("cr", 3, 75, 25, 75) == make_spec("cr", 3, 75, 25, 75)
        assert DgpSpec("cr", 3, 75, 25, 75).mu == 0.0
        assert [f.name for f in dataclasses.fields(DgpSpec)][-1] == "mu"
        with pytest.raises(TypeError):
            DgpSpec("cr", 1, 25, 25, 25, mu=0.0)

    def test_integer_dimensions(self):
        spec = DgpSpec("ucr", 3.0, np.int64(25), 25, 75.0)
        assert spec == make_spec("ucr", 3, 25, 25, 75)
        assert repr(spec) == repr(make_spec("ucr", 3, 25, 25, 75))
        for name in ("h", "R", "R_tilde", "P"):
            args = {"h": 1, "R": 25, "R_tilde": 25, "P": 25, name: 1.5}
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
                DgpSpec("ucr", **args)

    def test_make_spec_calibrates_ucr_only(self):
        assert make_spec("ucr", 1, 25, 75, 25).mu == 0.2
        assert make_spec("cr", 1, 25, 75, 25).mu == 0.0

    def test_default_grid_dimensions(self):
        grid = experiment_grid()
        assert len(grid) == 2 * len(DEFAULT_H_SET) * len(DEFAULT_R_SET) ** 2 * len(DEFAULT_P_SET)
        grid_small = experiment_grid(("ucr",), (1,), (25,), (25, 75), (25,))
        assert len(grid_small) == 2


class TestSimulators:
    def test_ucr_h1_reconstruction(self):
        spec = make_spec("ucr", h=1, R=5, R_tilde=5, P=4)
        target, f1, f2 = simulate_ucr(spec, 7)
        rng = np.random.default_rng(7)
        y = spec.mu + rng.standard_normal(5 + 4)  # T_tot draws, MA(0)
        np.testing.assert_allclose(target, y[5:9])
        np.testing.assert_allclose(f1, np.zeros(4))
        np.testing.assert_allclose(f2, [y[i : i + 5].mean() for i in range(4)])

    def test_ucr_marginal_moments(self):
        spec = make_spec("ucr", h=2, R=25, R_tilde=25, P=200_000)
        target, _, _ = simulate_ucr(spec, 1)
        gamma = ma_autocovariances(2)
        assert target.mean() == pytest.approx(spec.mu, abs=0.02)
        assert target.var() == pytest.approx(gamma[0], rel=0.02)

    def test_cr_recursion_matches_hand_loop(self):
        h, R = 2, 3
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(30)
        theta = ma_weights(h)
        x = np.zeros(30)
        y = np.zeros(30)
        for t in range(30):
            x[t] = sum(theta[k] * eps[t - k] for k in range(h) if t - k >= 0)
            feedback = sum(y[t - h - j] for j in range(R) if t - h - j >= 0)
            y[t] = x[t] + feedback / (2.0 * R)
        np.testing.assert_allclose(_cr_recursion(eps, h, R), y, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 3, 12])
    @pytest.mark.parametrize("R", [25, 175])
    def test_cr_recursion_matches_lfilter_oracle(self, h, R):
        T_tot = 175 + 1000 + h - 1
        eps = np.random.default_rng([h, R]).standard_normal(CR_BURN_IN + T_tot)
        want = cr_recursion_lfilter(eps, h, R)
        for keep in (T_tot, eps.size):
            got = _cr_recursion(eps, h, R, keep)
            assert got.shape == (keep,)
            tail = want[eps.size - keep :]
            np.testing.assert_allclose(got, tail, rtol=0, atol=1e-12 * np.abs(tail).max())

    def test_cr_spectrum_is_read_only(self):
        G, n = mc._cr_spectrum(3, 25, 60, 20)
        assert n >= 60 + 20 - 1
        with pytest.raises(ValueError, match="read-only"):
            G[0] = 0.0

    def test_cr_filter_runs_once_per_cell_not_per_replication(self, monkeypatch):
        calls = []
        lfilter = mc.signal.lfilter

        def counting_lfilter(*args, **kwargs):
            calls.append(1)
            return lfilter(*args, **kwargs)

        monkeypatch.setattr(mc.signal, "lfilter", counting_lfilter)
        specs = [make_spec("cr", 3, 25, 25, 75), make_spec("cr", 3, 175, 25, 75)]
        run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        assert 1 <= len(calls) <= len(specs)

    def test_cr_series_is_stable_and_centered(self):
        spec = make_spec("cr", h=3, R=25, R_tilde=25, P=100_000)
        target, f1, f2 = simulate_cr(spec, 9)
        assert not f1.any()
        half = target.size // 2
        assert target.mean() == pytest.approx(0.0, abs=0.05)
        # stationarity: both halves carry the same variance
        assert target[:half].var() == pytest.approx(target[half:].var(), rel=0.1)

    def test_family_cross_check(self):
        ucr = make_spec("ucr", 1, 25, 25, 25)
        with pytest.raises(ValueError, match="expected 'cr'"):
            simulate_cr(ucr, 0)

    def test_burn_in_constant(self):
        assert CR_BURN_IN == 10_000


class TestRunExperiment:
    def test_deterministic(self):
        specs = [make_spec("ucr", 1, 25, 25, 25)]
        a = run_experiment(specs, methods=("dm_r", "dm_fb"), n_reps=150, seed=5)
        b = run_experiment(specs, methods=("dm_r", "dm_fb"), n_reps=150, seed=5)
        assert a.rejection_rates == b.rejection_rates
        for key in a.archives:
            np.testing.assert_array_equal(a.archives[key], b.archives[key])

    def test_cell_streams_do_not_depend_on_grid(self):
        s1 = make_spec("ucr", 1, 25, 25, 25)
        s2 = make_spec("ucr", 1, 75, 25, 25)
        alone = run_experiment([s1], methods=("dm_r",), n_reps=120, seed=3)
        together = run_experiment([s2, s1], methods=("dm_r", "dm_m"), n_reps=120, seed=3)
        key = ("dm_r", "ucr", 25, 25, 1, 25)
        np.testing.assert_array_equal(alone.archives[key], together.archives[key])

    def test_requires_enough_replications(self):
        with pytest.raises(ValueError, match="100"):
            run_experiment([make_spec("ucr", 1, 25, 25, 25)], n_reps=99)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment([make_spec("ucr", 1, 25, 25, 25)], methods=("dm_x",), n_reps=100)

    def test_arguments_checked_before_any_simulation(self, monkeypatch):
        def fail(spec, E):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(mc, "_simulate_rows", fail)
        cells = []
        good = [make_spec("ucr", 1, 25, 25, 25), make_spec("cr", 3, 25, 25, 75)]

        def run(specs=good, **kwargs):
            return run_experiment(specs, progress=lambda *cell: cells.append(cell), **kwargs)

        with pytest.raises(UnsupportedLevelError, match="cl=0.05"):
            run(methods=("dm_r", "dm_fb"), n_reps=100, cl=0.10)
        with pytest.raises(ValueError, match="significance level"):
            run(methods=("dm_r",), n_reps=100, cl=1.5)
        with pytest.raises(ValueError, match="unknown method"):
            run(methods=("dm_r", "dm_x"), n_reps=100)
        with pytest.raises(ValueError, match="more than once"):
            run(methods=("dm_r", "dm_fb", "dm_r"), n_reps=100)
        with pytest.raises(ValueError, match="cell family=cr h=3 .* more than once"):
            run(good + [make_spec("cr", 3, 25, 25, 75)], methods=("dm_r",), n_reps=100)
        with pytest.raises(ValueError, match="100"):
            run(n_reps=99)
        with pytest.raises(ValueError, match="n_reps must be an integer, got 150.5"):
            run(n_reps=150.5)
        with pytest.raises(ValueError, match="the method list is empty"):
            run(methods=(), n_reps=100)
        with pytest.raises(ValueError, match="the experiment grid has no cells"):
            run((), n_reps=100)
        with pytest.raises(ValueError, match="seed"):
            run(n_reps=100, seed=-1)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got 1.5"):
            run(n_reps=100, seed=1.5)
        # only the last cell's horizon is too long for its sample
        with pytest.raises(ValueError, match="horizon 30"):
            run(good + [make_spec("ucr", 30, 30, 30, 25)], methods=("dm_r",), n_reps=100)
        assert cells == []

    def test_integral_float_replication_count(self):
        specs = [make_spec("ucr", 1, 25, 25, 25)]
        whole = run_experiment(specs, methods=("dm_r",), n_reps=150.0, seed=1)
        exact = run_experiment(specs, methods=("dm_r",), n_reps=150, seed=1)
        assert whole.n_reps == 150 and isinstance(whole.n_reps, int)
        key = ("dm_r", "ucr", 25, 25, 1, 25)
        np.testing.assert_array_equal(whole.archives[key], exact.archives[key])

    def test_progress_reports_each_cell(self):
        specs = [make_spec("ucr", 1, 25, 25, 25), make_spec("ucr", 1, 75, 25, 25)]
        seen = []
        run_experiment(specs, methods=("dm_r",), n_reps=100,
                       progress=lambda *call: seen.append(call))
        assert seen == [(1, 2, specs[0]), (2, 2, specs[1])]

    def test_bartlett_labels_share_statistics(self):
        # the llsw-rule Bartlett test and its fixed-b twin differ only in
        # critical values, so their archived |statistics| coincide exactly
        specs = [make_spec("ucr", 1, 25, 25, 25), make_spec("cr", 3, 25, 25, 75)]
        res = run_experiment(specs, methods=("dm_nw_l", "dm_fb"), n_reps=150, seed=11)
        for spec in specs:
            cell = (spec.family, spec.R, spec.R_tilde, spec.h, spec.P)
            np.testing.assert_array_equal(
                res.archives[("dm_nw_l",) + cell], res.archives[("dm_fb",) + cell]
            )

    def test_example_cell_rejection_rate(self):
        res = run_experiment(
            [make_spec("ucr", 1, 25, 25, 25)], methods=("dm_r",), n_reps=1500, seed=0
        )
        rate = res.rejection_rates[("dm_r", "ucr", 25, 25, 1, 25)]
        assert rate == pytest.approx(0.058, abs=0.02)

    def test_result_metadata(self):
        specs = (make_spec("ucr", 1, 25, 25, 25),)
        res = run_experiment(specs, methods=("dm_im_q2",), n_reps=100, seed=1)
        assert res.n_reps == 100 and res.seed == 1 and res.cl == 0.05
        assert res.methods == ("dm_im_q2",)
        assert res.specs == specs
        key = ("dm_im_q2", "ucr", 25, 25, 1, 25)
        assert res.degenerate_counts[key] >= 0
        assert res.archives[key].shape == (100,)

    def test_default_method_list(self):
        assert "dm_r" in DEFAULT_METHODS and "dm_fb" in DEFAULT_METHODS
        assert len(DEFAULT_METHODS) == 9


    def test_cr_rates_pinned(self):
        # Recorded with the direct two-filter recursion: the FFT evaluation
        # must not move any rejection or degenerate count on this grid.
        specs = experiment_grid(("cr",), (1, 3, 12), (25, 175), (25, 175), (25, 1000))
        res = run_experiment(specs, n_reps=500, seed=3)
        for spec in specs:
            cell = (spec.h, spec.R, spec.R_tilde, spec.P)
            keys = [(m, "cr", spec.R, spec.R_tilde, spec.h, spec.P) for m in DEFAULT_METHODS]
            rejections = tuple(round(res.rejection_rates[k] * 500) for k in keys)
            assert rejections == CR_PINNED_REJECTIONS[cell], cell
            degenerate = (0,) * 9
            if spec.h == 12 and spec.P == 25:
                # the rectangular estimate behind dm_r and dm_m
                n = CR_PINNED_DEGENERATE[spec.R, spec.R_tilde]
                degenerate = (n, n) + (0,) * 7
            assert tuple(res.degenerate_counts[k] for k in keys) == degenerate, cell


# Rejections out of 500 per (h, R, R_tilde, P) cell, in DEFAULT_METHODS order.
CR_PINNED_REJECTIONS = {
    (1, 25, 25, 25): (37, 24, 51, 85, 26, 26, 30, 25, 29),
    (1, 25, 25, 1000): (22, 22, 28, 45, 35, 37, 22, 35, 36),
    (1, 25, 175, 25): (71, 56, 95, 123, 45, 34, 29, 43, 54),
    (1, 25, 175, 1000): (51, 51, 40, 19, 15, 19, 28, 35, 24),
    (1, 175, 25, 25): (45, 33, 67, 102, 33, 37, 23, 35, 34),
    (1, 175, 25, 1000): (381, 381, 393, 434, 420, 419, 103, 367, 406),
    (1, 175, 175, 25): (37, 27, 41, 63, 24, 22, 26, 20, 23),
    (1, 175, 175, 1000): (23, 23, 31, 37, 30, 29, 31, 48, 48),
    (3, 25, 25, 25): (55, 35, 63, 77, 27, 17, 29, 25, 36),
    (3, 25, 25, 1000): (30, 30, 38, 37, 30, 30, 29, 36, 42),
    (3, 25, 175, 25): (112, 74, 126, 142, 61, 35, 22, 55, 83),
    (3, 25, 175, 1000): (50, 50, 54, 20, 14, 19, 26, 32, 15),
    (3, 175, 25, 25): (57, 33, 64, 75, 20, 18, 21, 20, 38),
    (3, 175, 25, 1000): (360, 359, 393, 417, 403, 402, 110, 335, 379),
    (3, 175, 175, 25): (57, 32, 66, 90, 26, 29, 26, 24, 37),
    (3, 175, 175, 1000): (21, 21, 25, 32, 23, 23, 24, 39, 36),
    (12, 25, 25, 25): (108, 37, 89, 92, 36, 18, 20, 23, 60),
    (12, 25, 25, 1000): (32, 29, 46, 38, 31, 29, 31, 24, 32),
    (12, 25, 175, 25): (131, 66, 116, 114, 48, 26, 24, 34, 86),
    (12, 25, 175, 1000): (55, 51, 74, 33, 27, 39, 21, 29, 21),
    (12, 175, 25, 25): (157, 63, 112, 121, 46, 28, 31, 49, 74),
    (12, 175, 25, 1000): (304, 301, 341, 344, 326, 310, 79, 233, 291),
    (12, 175, 175, 25): (116, 42, 98, 106, 39, 17, 23, 34, 67),
    (12, 175, 175, 1000): (34, 30, 44, 36, 28, 25, 25, 49, 47),
}
# Degenerate replications of dm_r and dm_m at h = 12, P = 25, per (R, R_tilde).
CR_PINNED_DEGENERATE = {(25, 25): 148, (25, 175): 137, (175, 25): 129, (175, 175): 130}


class TestSizeCorrection:
    def test_critical_value_is_95th_order_statistic(self):
        assert size_corrected_critical_value(np.arange(1.0, 101.0)) == 95.0

    def test_critical_value_index_is_exact(self):
        for n in range(1, 10_001):
            a = np.arange(1.0, n + 1.0)
            assert size_corrected_critical_value(a) == -(-19 * n // 20), n
        assert size_corrected_critical_value(np.arange(1.0, 11.0), 0.1) == 9.0
        with pytest.raises(ValueError, match="significance level"):
            size_corrected_critical_value(np.arange(1.0, 11.0), 1.0)

    def test_critical_value_unsorted_input(self):
        rng = np.random.default_rng(21)
        a = np.arange(1.0, 41.0)
        rng.shuffle(a)
        assert size_corrected_critical_value(a) == 38.0  # ceil(0.95*40) = 38

    def test_matches_normal_quantile_in_large_samples(self):
        draws = np.abs(np.random.default_rng(2).standard_normal(1_000_000))
        assert size_corrected_critical_value(draws) == pytest.approx(1.96, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            size_corrected_critical_value(np.empty(0))

    def _result(self):
        specs = [
            make_spec("ucr", 1, 25, 25, 25),
            make_spec("ucr", 1, 75, 75, 25),
            make_spec("ucr", 1, 75, 25, 25),
        ]
        return run_experiment(specs, methods=("dm_r",), n_reps=200, seed=0)

    def test_diagonal_correction_is_exact_by_construction(self):
        res = self._result()
        n = res.n_reps
        idx = -(-19 * n // 20)
        assert size_corrected_power(res, (25, 25, 1, 25), "dm_r") == pytest.approx(
            1.0 - idx / n, abs=1e-12
        )

    def test_diagonal_correction_at_the_run_level(self):
        specs = [make_spec("ucr", 1, 25, 25, 25), make_spec("ucr", 1, 75, 25, 25)]
        n = 130
        res = run_experiment(specs, methods=("dm_r",), n_reps=n, cl=0.1, seed=0)
        assert size_corrected_power(res, (25, 25, 1, 25), "dm_r") == pytest.approx(
            1.0 - math.ceil(Fraction(9, 10) * n) / n, abs=1e-12
        )

    def test_four_and_five_tuple_cells_agree(self):
        res = self._result()
        four = size_corrected_power(res, (75, 25, 1, 25), "dm_r")
        five = size_corrected_power(res, ("ucr", 75, 25, 1, 25), "dm_r")
        assert four == five

    def test_missing_diagonal_key(self):
        specs = [make_spec("ucr", 1, 75, 25, 25)]
        res = run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        with pytest.raises(KeyError, match="diagonal"):
            size_corrected_power(res, (75, 25, 1, 25), "dm_r")

    def test_ambiguous_family_needs_five_tuple(self):
        specs = [make_spec("ucr", 1, 25, 25, 25), make_spec("cr", 1, 25, 25, 25)]
        res = run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        with pytest.raises(ValueError, match="ambiguous"):
            size_corrected_power(res, (25, 25, 1, 25), "dm_r")
        assert size_corrected_power(res, ("cr", 25, 25, 1, 25), "dm_r") >= 0.0

    def test_bad_cell_shape(self):
        res = self._result()
        with pytest.raises(ValueError, match="cell"):
            size_corrected_power(res, (25, 25, 1), "dm_r")
