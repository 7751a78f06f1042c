import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

from epatest import mc, series
from epatest.dmtests import DegenerateVarianceError, UnsupportedLevelError, procedure, tally
from epatest.mc import (
    CR_BURN_IN,
    DEFAULT_H_SET,
    DEFAULT_METHODS,
    DEFAULT_P_SET,
    DEFAULT_R_SET,
    DgpSpec,
    ExperimentResult,
    calibrate_mu,
    experiment_grid,
    ma_autocovariances,
    ma_weights,
    run_experiment,
    simulate,
    size_corrected_critical_value,
    size_corrected_power,
    size_corrected_powers,
)
from reference import ar_lfilter, cr_recursion_lfilter


class TestMaStructure:
    def test_weights_halve(self):
        assert ma_weights(1) == pytest.approx([1.0])
        assert ma_weights(3) == pytest.approx([1.0, 0.5, 0.25])

    def test_horizon_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^horizon must be a positive integer, got 0$"):
            ma_weights(0)

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

    def test_integral_floats_equal_the_ints(self):
        assert calibrate_mu(3.0, 25.0) == calibrate_mu(3, 25)
        assert ma_autocovariances(np.int64(3)).tolist() == ma_autocovariances(3.0).tolist()

    def test_window_shorter_than_dependence(self):
        with pytest.raises(ValueError, match="^R must be at least 4, got 2$"):
            calibrate_mu(4, 2)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="^horizon must be a positive integer, got 0$"):
            calibrate_mu(0, 10)

    def test_loss_equality_by_simulation(self):
        # the calibrated mean really does equalize the two MSEs
        spec = DgpSpec("ucr", h=2, R=25, R_tilde=25, P=150_000)
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
        assert DgpSpec("ucr", 1, 25, 25, 75).mu == calibrate_mu(1, 25)
        assert DgpSpec("cr", 3, 75, 25, 75).mu == 0.0
        assert [f.name for f in dataclasses.fields(DgpSpec)][-1] == "mu"
        with pytest.raises(TypeError):
            DgpSpec("cr", 1, 25, 25, 25, mu=0.0)

    def test_integer_dimensions(self):
        spec = DgpSpec("ucr", 3.0, np.int64(25), 25, 75.0)
        assert spec == DgpSpec("ucr", 3, 25, 25, 75)
        assert repr(spec) == repr(DgpSpec("ucr", 3, 25, 25, 75))
        for name in ("h", "R", "R_tilde", "P"):
            args = {"h": 1, "R": 25, "R_tilde": 25, "P": 25, name: 1.5}
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
                DgpSpec("ucr", **args)

    def test_spec_calibrates_ucr_only(self):
        assert DgpSpec("ucr", 1, 25, 75, 25).mu == 0.2
        assert DgpSpec("cr", 1, 25, 75, 25).mu == 0.0

    def test_default_grid_dimensions(self):
        grid = experiment_grid()
        assert len(grid) == 2 * len(DEFAULT_H_SET) * len(DEFAULT_R_SET) ** 2 * len(DEFAULT_P_SET)
        grid_small = experiment_grid(("ucr",), (1,), (25,), (25, 75), (25,))
        assert len(grid_small) == 2


class TestSimulators:
    def test_ucr_h1_reconstruction(self):
        spec = DgpSpec("ucr", h=1, R=5, R_tilde=5, P=4)
        target, f1, f2 = simulate(spec, 7)
        rng = np.random.default_rng(7)
        y = spec.mu + rng.standard_normal(5 + 4)  # T_tot draws, MA(0)
        np.testing.assert_allclose(target, y[5:9])
        np.testing.assert_allclose(f1, np.zeros(4))
        np.testing.assert_allclose(f2, [y[i : i + 5].mean() for i in range(4)])

    def test_ucr_marginal_moments(self):
        spec = DgpSpec("ucr", h=2, R=25, R_tilde=25, P=200_000)
        target, _, _ = simulate(spec, 1)
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
        got = series.filter_tail_rows(eps, mc._cr_spectrum(h, R, eps.size, eps.size), eps.size)
        np.testing.assert_allclose(got, y, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 3, 12])
    @pytest.mark.parametrize("R", DEFAULT_R_SET)
    def test_cr_recursion_matches_lfilter_oracle(self, h, R):
        T_tot = 175 + 1000 + h - 1
        eps = np.random.default_rng([h, R]).standard_normal(CR_BURN_IN + T_tot)
        want = cr_recursion_lfilter(eps, h, R)
        for keep in (175 + 25 + h - 1, T_tot, eps.size):
            got = series.filter_tail_rows(eps, mc._cr_spectrum(h, R, eps.size, keep), keep)
            assert got.shape == (keep,)
            tail = want[eps.size - keep :]
            np.testing.assert_allclose(got, tail, rtol=0, atol=1e-12 * np.abs(tail).max())

    def test_cr_spectrum_is_read_only(self):
        G, n, _ = mc._cr_spectrum(3, 25, 60, 20)
        assert n >= 60 + 20 - 1
        with pytest.raises(ValueError, match="read-only"):
            G[0] = 0.0

    @pytest.mark.parametrize("h", DEFAULT_H_SET)
    @pytest.mark.parametrize("R", DEFAULT_R_SET)
    def test_cr_transforms_cover_only_the_impulse_response_support(self, h, R):
        impulse = np.zeros(CR_BURN_IN + 175 + 1000 + h - 1)
        impulse[0] = 1.0
        g = cr_recursion_lfilter(impulse, h, R)
        for R_tilde in DEFAULT_R_SET:
            for P in (25, 1000):
                keep = R_tilde + P + h - 1
                T = CR_BURN_IN + keep
                G, n, L = mc._cr_spectrum(h, R, T, keep)
                assert n < fft.next_fast_len(T + keep - 1, real=True)
                # L + 1 taps, L leading innovations: no wrap-around reaches the kept values
                assert L < T - keep and G.size == n // 2 + 1 and n >= keep + L
                # what the taps and the window leave out is at most 2^-53 of g,
                # and L is the shortest support with that bound
                total = g[:T].sum()
                assert g[L + 1 : T].sum() <= 2.0**-53 * total
                assert g[L:T].sum() > 2.0**-53 * total

    def test_cr_filter_runs_once_per_cell_not_per_replication(self, monkeypatch):
        calls = []
        response = mc.arma_response

        def counting_response(*args, **kwargs):
            calls.append(1)
            return response(*args, **kwargs)

        monkeypatch.setattr(mc, "arma_response", counting_response)
        specs = [DgpSpec("cr", 3, 25, 25, 75), DgpSpec("cr", 3, 175, 25, 75)]
        run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        assert 1 <= len(calls) <= len(specs)

    def test_cr_series_is_stable_and_centered(self):
        spec = DgpSpec("cr", h=3, R=25, R_tilde=25, P=100_000)
        target, f1, f2 = simulate(spec, 9)
        assert not f1.any()
        half = target.size // 2
        assert target.mean() == pytest.approx(0.0, abs=0.05)
        # stationarity: both halves carry the same variance
        assert target[:half].var() == pytest.approx(target[half:].var(), rel=0.1)

    def test_burn_in_constant(self):
        assert CR_BURN_IN == 10_000


def _block_width(K):
    return max(series._BAND_DOUBLES // (K + 1), K)


class TestArFilter:
    """The banded solve inside ``series.arma_response``, and so behind the impulse
    responses of both autoregressive simulators, against SciPy's direct filter."""

    @pytest.mark.parametrize("K", range(1, 11))
    def test_matches_lfilter_across_block_boundaries(self, K):
        rng = np.random.default_rng([7, K])
        # sum phi = 0.9999: stationary, and so persistent that no lag is cut
        phi = 0.9999 * rng.dirichlet(np.ones(K))
        ma = rng.standard_normal(3)
        a = np.concatenate(([1.0], -phi))
        B = _block_width(K)
        for T in (B - 1, B, B + 1, 3 * B + 2):
            G, n, L = series.arma_response(phi, ma, T, 1)
            assert L == T - 1
            want = ar_lfilter(a, np.concatenate((ma, np.zeros(T - ma.size))))
            got = fft.irfft(G, n)[:T]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("h", DEFAULT_H_SET)
    @pytest.mark.parametrize("R", DEFAULT_R_SET)
    def test_cr_impulse_response_matches_lfilter(self, h, R, monkeypatch):
        T = CR_BURN_IN + 175 + 1000 + h - 1
        impulse = np.zeros(T)
        impulse[0] = 1.0
        want = cr_recursion_lfilter(impulse, h, R)
        solved = []  # the response on its support, as the solve hands it to the FFT
        rfft = fft.rfft
        monkeypatch.setattr(fft, "rfft", lambda g, n: solved.append(g) or rfft(g, n))
        mc._cr_spectrum.cache_clear()
        G, n, L = mc._cr_spectrum(h, R, T, 1)
        (g,) = solved
        assert T > _block_width(h + R - 1) and g.size == L + 1
        assert np.all(want > 0.0)
        assert np.all(np.abs(g - want[: L + 1]) <= 1e-13 * want[: L + 1])
        # what the support leaves out is the oracle's tail too: below 2^-53 of the sum at S,
        # not at S - 1
        assert want[L + 1 :].sum() <= 2.0**-53 * want.sum() < want[L:].sum()
        taps = fft.irfft(G, n)
        np.testing.assert_allclose(taps[: L + 1], g, rtol=0, atol=1e-13 * want.max())


_SIMULATE_ROWS = mc._simulate_rows


def _fail_on_cr_cells(spec, E):
    """``mc._simulate_rows``, except that every ``cr`` cell raises."""
    if spec.family == "cr":
        raise DegenerateVarianceError("bartlett", spec.P, -1.0)
    return _SIMULATE_ROWS(spec, E)


_FOUR_CELLS = experiment_grid(("ucr",), (1,), (25, 75), (25, 75), (25,))


class TestRunExperiment:
    def test_deterministic(self):
        specs = [DgpSpec("ucr", 1, 25, 25, 25)]
        a = run_experiment(specs, methods=("dm_r", "dm_fb"), n_reps=150, seed=5)
        b = run_experiment(specs, methods=("dm_r", "dm_fb"), n_reps=150, seed=5)
        assert a.rejection_rates == b.rejection_rates
        for key in a.archives:
            np.testing.assert_array_equal(a.archives[key], b.archives[key])

    def test_cell_streams_do_not_depend_on_grid(self):
        s1 = DgpSpec("ucr", 1, 25, 25, 25)
        s2 = DgpSpec("ucr", 1, 75, 25, 25)
        alone = run_experiment([s1], methods=("dm_r",), n_reps=120, seed=3)
        together = run_experiment([s2, s1], methods=("dm_r", "dm_m"), n_reps=120, seed=3)
        key = ("dm_r", "ucr", 25, 25, 1, 25)
        np.testing.assert_array_equal(alone.archives[key], together.archives[key])

    def test_requires_enough_replications(self):
        with pytest.raises(ValueError, match="100"):
            run_experiment([DgpSpec("ucr", 1, 25, 25, 25)], n_reps=99)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment([DgpSpec("ucr", 1, 25, 25, 25)], methods=("dm_x",), n_reps=100)

    def test_arguments_checked_before_any_simulation(self, monkeypatch):
        def fail(spec, E):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(mc, "_simulate_rows", fail)
        cells = []
        good = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("cr", 3, 25, 25, 75)]

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
        with pytest.raises(ValueError, match="^methods 'dm_im' and 'dm_im_q2' are the same test$"):
            run(methods=("dm_r", "dm_im", "dm_im_q2"), n_reps=100)
        with pytest.raises(ValueError, match="cell family=cr h=3 .* more than once"):
            run(good + [DgpSpec("cr", 3, 25, 25, 75)], methods=("dm_r",), n_reps=100)
        with pytest.raises(ValueError, match="100"):
            run(n_reps=99)
        with pytest.raises(ValueError, match="n_reps must be an integer, got 150.5"):
            run(n_reps=150.5)
        with pytest.raises(ValueError, match=r"n_reps must be at most 2\*\*32 .* got 4294967297"):
            run(n_reps=2**32 + 1)
        with pytest.raises(ValueError, match="the method list is empty"):
            run(methods=(), n_reps=100)
        with pytest.raises(ValueError, match="the experiment grid has no cells"):
            run((), n_reps=100)
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            run(n_reps=100, seed=-1)
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
            run(n_reps=100, seed=1.5)
        # only the last cell's horizon is too long for its sample
        with pytest.raises(ValueError,
                           match=r"^dm_r at P=25, h=30: "
                                 r"forecast horizon must lie in \[1, 24\], got 30$"):
            run(good + [DgpSpec("ucr", 30, 30, 30, 25)], methods=("dm_r",), n_reps=100)
        # 30 blocks fit the P = 75 cell but not the P = 25 one
        with pytest.raises(ValueError,
                           match=r"^dm_im_q30 at P=25, h=1: "
                                 r"bandwidth must lie in \[2, 25\], got 30$"):
            run(methods=("dm_r", "dm_im_q30"), n_reps=100)
        for jobs in (0, -1):
            with pytest.raises(ValueError, match=f"^jobs must be a positive integer, got {jobs}$"):
                run(n_reps=100, jobs=jobs)
        with pytest.raises(ValueError, match="^jobs must be an integer, got 1.5$"):
            run(n_reps=100, jobs=1.5)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match="fork start method"):
            run(n_reps=100, jobs=2)
        assert cells == []

    def test_any_procedure_label_runs(self):
        # labels outside the default battery run beside it without changing it
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("cr", 3, 25, 75, 75)]
        labels = ("dm_r", "dm_wpe", "dm_im_q3")
        wide = run_experiment(specs, methods=labels, n_reps=150, seed=9)
        alone = run_experiment(specs, methods=("dm_r",), n_reps=150, seed=9)
        assert wide.methods == labels
        for spec in specs:
            cell = mc._cell_key(spec)
            key = ("dm_r",) + cell
            np.testing.assert_array_equal(wide.archives[key], alone.archives[key])
            assert wide.rejection_rates[key] == alone.rejection_rates[key]
            assert wide.degenerate_counts[key] == alone.degenerate_counts[key]
            D = mc._loss_differentials(spec, 150, 9)
            _, _, (abs_stat,), (rejections,), (degenerate,) = tally(
                [procedure("dm_wpe", spec.P, spec.h, 0.05)], D)
            key = ("dm_wpe",) + cell
            np.testing.assert_array_equal(wide.archives[key], abs_stat)
            assert wide.rejection_rates[key] == rejections / 150
            assert wide.degenerate_counts[key] == degenerate
            assert wide.archives[("dm_im_q3",) + cell].shape == (150,)

    def test_integral_float_replication_count(self):
        specs = [DgpSpec("ucr", 1, 25, 25, 25)]
        whole = run_experiment(specs, methods=("dm_r",), n_reps=150.0, seed=1)
        exact = run_experiment(specs, methods=("dm_r",), n_reps=150, seed=1)
        assert whole.n_reps == 150 and isinstance(whole.n_reps, int)
        key = ("dm_r", "ucr", 25, 25, 1, 25)
        np.testing.assert_array_equal(whole.archives[key], exact.archives[key])

    def test_progress_reports_each_cell(self):
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("ucr", 1, 75, 25, 25)]
        seen = []
        run_experiment(specs, methods=("dm_r",), n_reps=100,
                       progress=lambda *call: seen.append(call))
        assert seen == [(1, 2, specs[0]), (2, 2, specs[1])]

    def test_forked_workers_equal_one_process(self):
        specs = experiment_grid(("ucr", "cr"), (1, 3), (25,), (25, 75), (25, 75))
        runs = {}
        for jobs in (1, 2):
            seen = []
            result = run_experiment(specs, ("dm_r", "dm_fb", "dm_im_q2"), 100, seed=6, jobs=jobs,
                                    progress=lambda *call: seen.append(call))
            runs[jobs] = result, seen
        (serial, serial_seen), (forked, forked_seen) = runs[1], runs[2]
        assert forked_seen == serial_seen == [(i, 16, s) for i, s in enumerate(specs, start=1)]
        for field in ("rejection_rates", "degenerate_counts", "archives"):
            assert list(getattr(forked, field)) == list(getattr(serial, field))
        assert forked.rejection_rates == serial.rejection_rates
        assert forked.degenerate_counts == serial.degenerate_counts
        for key, archive in serial.archives.items():
            assert np.array_equal(forked.archives[key], archive)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_error_or_an_interrupt(self, monkeypatch):
        specs = experiment_grid(("ucr", "cr"), (1,), (25,), (25, 75), (25, 75))
        simulate_rows = mc._simulate_rows

        def fail_on_cr(spec, E):
            if spec.family == "cr":  # an exception whose constructor takes more than a message
                raise DegenerateVarianceError("bartlett", spec.P, -1.0)
            return simulate_rows(spec, E)

        def interrupt(i, n, spec):
            if i == 3:
                raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(mc, "_simulate_rows", fail_on_cr)
            with pytest.raises(DegenerateVarianceError, match=r"^nonpositive .*bandwidth 25\)"):
                run_experiment(specs, ("dm_r",), 100, jobs=2)
        assert multiprocessing.active_children() == []
        with pytest.raises(KeyboardInterrupt):
            run_experiment(specs, ("dm_r",), 100, jobs=2, progress=interrupt)
        assert multiprocessing.active_children() == []
        cells = mc._cells(lambda i: i, specs, 2, lambda *cell: None)
        assert next(cells) == 0
        cells.close()
        assert multiprocessing.active_children() == []

    def test_a_worker_error_carries_its_traceback(self, monkeypatch):
        monkeypatch.setattr(mc, "_simulate_rows", _fail_on_cr_cells)
        specs = experiment_grid(("ucr", "cr"), (1,), (25,), (25,), (25,))
        with pytest.raises(DegenerateVarianceError) as err:
            run_experiment(specs, ("dm_r",), 100, jobs=2)
        assert str(err.value) == str(DegenerateVarianceError("bartlett", 25, -1.0))
        assert ", in _fail_on_cr_cells\n" in str(err.value.__cause__)
        assert multiprocessing.active_children() == []

    # Cell number: (seconds asleep, then an exit code or an exception); every other cell
    # returns (i, "x") as a list or a tuple. The slow cell 2 fails after the fast cell 4:
    # one process would report cell 2, and so must two.
    @pytest.mark.parametrize("specs, actions, result, error, match", [
        ([DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("ucr", 1, 25, 75, 25)], {2: (0, 3)}, list,
         ChildProcessError, r"^a worker died on cell 2, DgpSpec\(family='ucr', h=1, R=25, "
         r"R_tilde=75, P=25, mu=.*\): exit code 3$"),
        (_FOUR_CELLS, {2: (0.5, ValueError("cell 2 failed")), 4: (0, 4)}, list,
         ValueError, r"^cell 2 failed$"),
        (_FOUR_CELLS, {2: (0.5, 3), 4: (0, 4)}, list,
         ChildProcessError, r"^a worker died on cell 2, DgpSpec\(.*R_tilde=75.*\): exit code 3$"),
        (_FOUR_CELLS, {}, tuple, None, None),
    ], ids=["exit", "slow-error-fast-exit", "slow-exit-fast-exit", "tuple-results"])
    def test_a_dead_worker_names_its_cell(self, specs, actions, result, error, match):
        def run_cell(i):
            if i + 1 not in actions:
                return result((i, "x"))
            seconds, outcome = actions[i + 1]
            time.sleep(seconds)
            if isinstance(outcome, Exception):
                raise outcome
            os._exit(outcome)

        cells = mc._cells(run_cell, specs, 2, lambda *cell: None)
        if error is None:
            assert list(cells) == [(i, "x") for i in range(len(specs))]
        else:
            with pytest.raises(error, match=match) as err:
                list(cells)
            cause = err.value.__cause__  # a death has none; an exception its worker's traceback
            assert cause is None if error is ChildProcessError else ", in run_cell\n" in str(cause)
        assert multiprocessing.active_children() == []

    def test_every_worker_dead_names_the_first_cell(self):
        def hung(signum, frame):  # a wait on no worker would block for good
            raise TimeoutError("mc._cells still waits with every worker dead")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError, match=r"^a worker died on cell 1, "
                               r"DgpSpec\(.*\): killed by signal 9$"):
                list(mc._cells(lambda i: os.kill(os.getpid(), signal.SIGKILL), _FOUR_CELLS, 2,
                               lambda *cell: None))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # SIGKILL skips every cleanup, so the workers must notice the closed pipe
        code = (
            "import multiprocessing, os\n"
            "from epatest import mc\n"
            "specs = mc.experiment_grid(('cr',), (1,), (25,), (25, 75), (1000,))\n"
            "def stop(i, n, spec):\n"
            "    if i == 2:\n"
            "        print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            "        os.kill(os.getpid(), 9)\n"
            "mc.run_experiment(specs, ('dm_r',), 100, jobs=2, progress=stop)\n"
        )
        src = str(Path(mc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open(tmp_path / "pids", "w") as out:  # a file: a pipe would wait for the workers
            returncode = subprocess.run([sys.executable, "-c", code], env=env, stdout=out,
                                        timeout=60).returncode
        pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
        assert returncode == -9 and len(pids) == 2

        def running(pid):  # an exited orphan may linger as a zombie
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if running(pid)]
        for pid in alive:
            os.kill(pid, 9)
        assert alive == []

    def test_each_worker_runs_on_one_cpu_of_the_parents(self):
        cpus = sorted(os.sched_getaffinity(0))
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("ucr", 1, 25, 75, 25)]
        seen = list(mc._cells(lambda i: os.sched_getaffinity(0), specs, 2, lambda *cell: None))
        assert seen == [{cpus[0]}, {cpus[1 % len(cpus)]}]
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_workers_that_cannot_pin_give_the_same_result(self, monkeypatch):
        # as on macOS, which has no affinity API
        monkeypatch.delattr(os, "sched_setaffinity")
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("ucr", 1, 25, 75, 25)]
        serial, forked = (run_experiment(specs, ("dm_r", "dm_fb"), 100, seed=2, jobs=jobs)
                          for jobs in (1, 2))
        assert forked.rejection_rates == serial.rejection_rates
        assert forked.degenerate_counts == serial.degenerate_counts
        assert list(forked.archives) == list(serial.archives)
        for key, archive in serial.archives.items():
            assert np.array_equal(forked.archives[key], archive)
        assert multiprocessing.active_children() == []

    def test_default_jobs_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert mc._default_jobs() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert mc._default_jobs() == 7
        monkeypatch.delattr(os, "fork")
        assert mc._default_jobs() == 1

    def test_bartlett_labels_share_statistics(self):
        # the llsw-rule Bartlett test and its fixed-b twin differ only in
        # critical values, so their archived |statistics| coincide exactly
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("cr", 3, 25, 25, 75)]
        res = run_experiment(specs, methods=("dm_nw_l", "dm_fb"), n_reps=150, seed=11)
        for spec in specs:
            cell = (spec.family, spec.R, spec.R_tilde, spec.h, spec.P)
            np.testing.assert_array_equal(
                res.archives[("dm_nw_l",) + cell], res.archives[("dm_fb",) + cell]
            )

    def test_example_cell_rejection_rate(self):
        res = run_experiment(
            [DgpSpec("ucr", 1, 25, 25, 25)], methods=("dm_r",), n_reps=1500, seed=0
        )
        rate = res.rejection_rates[("dm_r", "ucr", 25, 25, 1, 25)]
        assert rate == pytest.approx(0.058, abs=0.02)

    def test_result_metadata(self):
        specs = (DgpSpec("ucr", 1, 25, 25, 25),)
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
        res = run_experiment(specs, n_reps=500, seed=3, jobs=2)
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

    def test_empty_rows_raise_as_an_empty_archive_does(self):
        with pytest.raises(ValueError) as one:
            size_corrected_critical_value(np.empty(0))
        with pytest.raises(ValueError) as rows:
            size_corrected_critical_value(np.empty((3, 0)))
        assert str(rows.value) == str(one.value)

    @pytest.mark.parametrize("n", [100, 101, 150])
    @pytest.mark.parametrize("cl", [0.05, 0.1])
    def test_rows_equal_one_archive_at_a_time(self, n, cl):
        rng = np.random.default_rng([23, n])
        A = np.abs(rng.standard_normal((40, n)))
        A[::4] = A[::4].round(1)  # ties
        A[5] = 0.0  # a cell where every replication degenerated
        A[6, : n // 2] = 0.0
        got = size_corrected_critical_value(A, cl)
        want = [size_corrected_critical_value(row, cl) for row in A]
        assert isinstance(got, np.ndarray) and got.shape == (40,)
        assert got.tobytes() == np.array(want).tobytes()
        assert all(type(c) is float for c in want)

    def _result(self):
        specs = [
            DgpSpec("ucr", 1, 25, 25, 25),
            DgpSpec("ucr", 1, 75, 75, 25),
            DgpSpec("ucr", 1, 75, 25, 25),
        ]
        return run_experiment(specs, methods=("dm_r",), n_reps=200, seed=0)

    def test_cell_outside_the_run_with_its_diagonal_present(self):
        # (25, 125) was never run, though its diagonal (25, 25) was
        with pytest.raises(KeyError, match=r"cell \('ucr', 25, 125, 1, 25\) for method 'dm_r' "
                                           "is not in the experiment"):
            size_corrected_power(self._result(), (25, 125, 1, 25), "dm_r")

    def test_diagonal_correction_is_exact_by_construction(self):
        res = self._result()
        n = res.n_reps
        idx = -(-19 * n // 20)
        assert size_corrected_power(res, (25, 25, 1, 25), "dm_r") == pytest.approx(
            1.0 - idx / n, abs=1e-12
        )

    def test_diagonal_correction_at_the_run_level(self):
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("ucr", 1, 75, 25, 25)]
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
        specs = [DgpSpec("ucr", 1, 75, 25, 25)]
        res = run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        with pytest.raises(KeyError, match="diagonal"):
            size_corrected_power(res, (75, 25, 1, 25), "dm_r")

    def test_ambiguous_family_needs_five_tuple(self):
        specs = [DgpSpec("ucr", 1, 25, 25, 25), DgpSpec("cr", 1, 25, 25, 25)]
        res = run_experiment(specs, methods=("dm_r",), n_reps=100, seed=0)
        with pytest.raises(ValueError, match="ambiguous"):
            size_corrected_power(res, (25, 25, 1, 25), "dm_r")
        assert size_corrected_power(res, ("cr", 25, 25, 1, 25), "dm_r") >= 0.0

    def test_bad_cell_shape(self):
        res = self._result()
        with pytest.raises(ValueError, match="cell"):
            size_corrected_power(res, (25, 25, 1), "dm_r")

    def test_powers_equal_one_cell_at_a_time(self):
        # R = 125 has no diagonal null cell in either family, so its cells are left out
        specs = experiment_grid(("ucr", "cr"), (1, 3), (25, 75, 125), (25, 75), (25,))
        res = run_experiment(specs, methods=("dm_r", "dm_im_q2"), n_reps=100, cl=0.1, seed=4)
        powers = size_corrected_powers(res)
        assert set(powers) == {key for key in res.archives if key[2] != 125}
        for (method, *cell), power in powers.items():
            assert repr(power) == repr(size_corrected_power(res, cell, method))

    def test_powers_hold_one_column_of_archives(self):
        # 96 cells x 9 methods x 5000 reps (33 MB of archives); a (method,
        # family, h, P) column is 16 cells, 0.64 MB of them.
        specs = experiment_grid(("ucr",), DEFAULT_H_SET, DEFAULT_R_SET, DEFAULT_R_SET, (75, 1000))
        rng = np.random.default_rng(6)
        archives = {(m,) + mc._cell_key(spec): np.abs(rng.standard_normal(5000))
                    for spec in specs for m in DEFAULT_METHODS}
        res = ExperimentResult(archives=archives, n_reps=5000, methods=DEFAULT_METHODS,
                               specs=tuple(specs))
        tracemalloc.start()
        try:
            powers = size_corrected_powers(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(specs) == 96 and set(powers) == set(archives)
        assert peak < 4e6
