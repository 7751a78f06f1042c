import math

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
            DgpSpec(family="ar1", h=1, R=25, R_tilde=25, P=25, mu=0.0)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            DgpSpec(family="ucr", h=0, R=25, R_tilde=25, P=25, mu=0.0)
        with pytest.raises(ValueError):
            DgpSpec(family="ucr", h=1, R=25, R_tilde=25, P=0, mu=0.0)

    def test_cr_requires_zero_mean(self):
        with pytest.raises(ValueError, match="mean zero"):
            DgpSpec(family="cr", h=1, R=25, R_tilde=25, P=25, mu=0.3)

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
        def fail(spec, rng):
            raise AssertionError("simulated before the arguments were checked")

        for family in ("ucr", "cr"):
            monkeypatch.setitem(mc._SIMULATORS, family, fail)
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
        with pytest.raises(ValueError, match="100"):
            run(n_reps=99)
        with pytest.raises(ValueError, match="seed"):
            run(n_reps=100, seed=-1)
        # only the last cell's horizon is too long for its sample
        with pytest.raises(ValueError, match="horizon 30"):
            run(good + [make_spec("ucr", 30, 30, 30, 25)], methods=("dm_r",), n_reps=100)
        assert cells == []

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


class TestSizeCorrection:
    def test_critical_value_is_95th_order_statistic(self):
        assert size_corrected_critical_value(np.arange(1.0, 101.0)) == 95.0

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
