"""The batched kernel against the one-series API, row by row.

``mc.run_experiment`` evaluates a cell's whole test battery on a matrix of
replications, one loss differential per row. Each ``dm_test_*`` function is
the one-row case of the same kernel, so running it on every row separately
must reproduce the batched statistics, decisions and degenerate rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epatest import dmtests, mc
from epatest.cli import build_parser
from epatest.dmtests import (
    METHODS,
    DegenerateVarianceError,
    dm_test_bt,
    dm_test_bt_fb,
    dm_test_ewc_fb,
    dm_test_im,
    dm_test_m,
    dm_test_r,
    dm_test_wpe_fb,
    outcomes,
    procedure,
    tally,
)
from epatest.lrv import ESTIMATORS

# Each registry label and each mc battery label as a call of the one-series
# API at the cell's horizon.
ONE_ROW = {
    "dm_r": lambda d, h, cl: dm_test_r(d, h=h, cl=cl),
    "dm_m": lambda d, h, cl: dm_test_m(d, h=h, cl=cl),
    "dm_nw": lambda d, h, cl: dm_test_bt(d, cl=cl),
    "dm_nw_l": lambda d, h, cl: dm_test_bt(d, rule="llsw", cl=cl),
    "dm_fb": lambda d, h, cl: dm_test_bt_fb(d, cl=cl),
    "dm_ewc": lambda d, h, cl: dm_test_ewc_fb(d, cl=cl),
    "dm_wpe": lambda d, h, cl: dm_test_wpe_fb(d, cl=cl),
    "dm_im": lambda d, h, cl: dm_test_im(d, cl=cl),
    "dm_im_q2": lambda d, h, cl: dm_test_im(d, q=2, cl=cl),
    "dm_im_q5": lambda d, h, cl: dm_test_im(d, q=5, cl=cl),
    "dm_im_q10": lambda d, h, cl: dm_test_im(d, q=10, cl=cl),
}


def test_registry_labels_all_have_a_one_row_check_and_a_cli_choice():
    assert set(METHODS) <= set(ONE_ROW)
    assert set(mc.DEFAULT_METHODS) <= set(ONE_ROW)
    (subcommands,) = [a for a in build_parser()._actions if a.dest == "command"]
    (method,) = [a for a in subcommands.choices["test"]._actions if a.dest == "method"]
    assert method.choices is None  # dmtests.procedure alone checks the label
    assert {m.kernel for m in METHODS.values()} - {"block-means"} <= set(ESTIMATORS)


def _rows(n_rows, P, seed):
    """Serially dependent rows around a small mean, like simulated loss differentials."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_rows, P + 3))
    return 0.2 + eps[:, 3:] + 0.6 * eps[:, 2:-1] - 0.3 * eps[:, :-3]


def check_battery(X, h, cl=0.05):
    """Compare every battery label's batched output with the one-row API; count degenerate rows."""
    n_rows, P = X.shape
    degenerate = dict.fromkeys(ONE_ROW, 0)
    for label, one_row in ONE_ROW.items():
        try:
            proc = procedure(label, P, h, cl)
        except ValueError as planned:
            # An argument the procedure rejects is rejected on every row alike.
            for d in X:
                with pytest.raises(type(planned)) as exc:
                    one_row(d, h, cl)
                assert str(exc.value) == str(planned)
            continue
        (stat,), (variance,), *_ = tally([proc], X)
        assert stat.shape == variance.shape == (n_rows,)
        for i, d in enumerate(X):
            if np.isnan(stat[i]):
                degenerate[label] += 1
                with pytest.raises(DegenerateVarianceError) as exc:
                    one_row(d, h, cl)
                assert exc.value.kernel == proc.kernel
                assert exc.value.bandwidth == proc.bandwidth
                assert variance[i] <= 0.0
                continue
            out = one_row(d, h, cl)
            assert out.method == proc.method
            assert abs(out.stat) == pytest.approx(abs(stat[i]), rel=1e-12, abs=0.0)
            assert out.rej == bool(abs(stat[i]) > proc.critical_value)
            assert out.critical_value == proc.critical_value
            assert out.bandwidth == proc.bandwidth
    return degenerate


SHAPES = pytest.mark.parametrize(
    "n_rows, P, h, seed",
    [
        (40, 75, 12, 0),
        (25, 1000, 3, 1),
        (60, 12, 10, 2),  # short P, large h: the rectangular estimate often comes out <= 0
        (60, 10, 10, 3),  # h = P: dm_r and dm_m reject the horizon on every row
        (30, 25, 26, 4),  # h > P: likewise
        (5, 2, 1, 5),     # shortest admissible series: several procedures reject P
    ],
)


@SHAPES
def test_batched_battery_matches_one_row(n_rows, P, h, seed):
    degenerate = check_battery(_rows(n_rows, P, seed), h)
    if (P, h) == (12, 10):
        assert degenerate["dm_r"] > 0 and degenerate["dm_m"] > 0


@SHAPES
def test_one_shared_autocovariance_array_changes_nothing(n_rows, P, h, seed):
    X = _rows(n_rows, P, seed)
    procedures = []
    for label in ONE_ROW:
        try:
            procedures.append(procedure(label, P, h, 0.05))
        except ValueError:
            pass
    for proc, stat, variance, *_ in zip(procedures, *tally(procedures, X)):
        (alone_stat,), (alone_variance,), *_ = tally([proc], X)
        assert stat.tobytes() == alone_stat.tobytes(), proc
        assert variance.tobytes() == alone_variance.tobytes(), proc


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 12),
    P=st.integers(2, 90),
    h_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_battery_matches_one_row_on_random_shapes(n_rows, P, h_frac, seed):
    h = 1 + math.floor(h_frac * P)
    check_battery(_rows(n_rows, P, seed), h)


def test_tally_counts_constant_rows_as_degenerate_non_rejections():
    P, constant = 20, [1, 4, 5]
    X = _rows(8, P, 6)
    # every variance estimate of these rows is exactly zero; a nonzero
    # constant's cosine coefficients are round-off, so dm_ewc sees zeros only
    X[constant] = [[0.0], [0.5], [-2.0]]
    labels = ["dm_r", "dm_m", "dm_nw", "dm_nw_l", "dm_fb", "dm_wpe",
              "dm_im_q2", "dm_im_q5", "dm_im_q10"]
    procedures = [procedure(label, P, 1, 0.05) for label in labels]
    live = np.delete(np.arange(8), constant)
    for p, stat, variance, abs_stat, rejections, degenerate in zip(
        procedures, *tally(procedures, X)
    ):
        assert np.isnan(stat[constant]).all() and (variance[constant] <= 0.0).all(), p
        assert abs_stat[constant].tolist() == [0.0, 0.0, 0.0], p
        assert abs_stat[live].tobytes() == np.abs(stat[live]).tobytes(), p
        assert degenerate == 3, p
        assert rejections == np.count_nonzero(np.abs(stat[live]) > p.critical_value), p
    (stat,), _, (abs_stat,), _, (degenerate,) = tally([procedure("dm_ewc", P, 1, 0.05)], X[:2])
    assert np.isnan(stat[1]) and abs_stat[1] == 0.0 and degenerate == 1


def test_run_experiment_archives_match_one_row_on_the_simulated_rows():
    spec = mc.DgpSpec("ucr", 12, 25, 75, 25)
    res = mc.run_experiment([spec], n_reps=100, seed=7)
    X = mc._loss_differentials(spec, 100, 7)
    cell = (spec.family, spec.R, spec.R_tilde, spec.h, spec.P)
    for label in mc.DEFAULT_METHODS:
        archive = res.archives[(label,) + cell]
        rejections = 0
        degenerate = 0
        for i, d in enumerate(X):
            try:
                out = ONE_ROW[label](d, spec.h, 0.05)
            except DegenerateVarianceError:
                degenerate += 1
                assert archive[i] == 0.0
                continue
            assert archive[i] == pytest.approx(abs(out.stat), rel=1e-12, abs=0.0)
            rejections += out.rej
        assert res.rejection_rates[(label,) + cell] == rejections / 100
        assert res.degenerate_counts[(label,) + cell] == degenerate


def _batteries():
    """The tradeoff's 26-bandwidth dm_fb grid, the mc battery at two sample
    sizes, and the mc battery with its block tests among the kernel tests."""
    fb_grid = [procedure("dm_fb", 96, 1, 0.05, M) for M in range(1, 27)]
    mc_p75 = [procedure(label, 75, 12, 0.05) for label in mc.DEFAULT_METHODS]
    # at P = 12, h = 10 the rectangular estimate is often nonpositive
    mc_p12 = [procedure(label, 12, 10, 0.05) for label in mc.DEFAULT_METHODS]
    mixed = [mc_p75[i] for i in (6, 0, 7, 5, 8, 1, 2, 3, 4)]
    return {"dm_fb_grid": fb_grid, "mc_p75": mc_p75, "mc_p12": mc_p12, "mixed": mixed}


@pytest.mark.parametrize("name", ["dm_fb_grid", "mc_p75", "mc_p12", "mixed"])
def test_stacked_pass_equals_one_procedure_calls(name):
    procedures = _batteries()[name]
    X = _rows(40, {"dm_fb_grid": 96, "mc_p12": 12}.get(name, 75), 9)
    X[3] = 0.0   # every estimate is zero
    X[5] = 0.1   # every estimate is round-off
    X[7] = -2.5
    X[11] *= 1e-150  # tiny, not round-off
    # one tuple per procedure, as tally's callers zip it
    stacked, tallies = list(zip(*tally(procedures, X))), list(zip(*tally(procedures, X)))
    assert len(stacked) == len(tallies) == len(procedures)
    for proc, (stat, variance, *_), counts in zip(procedures, stacked, tallies):
        (alone_stat,), (alone_variance,), *_ = tally([proc], X)
        ((*alone_arrays, alone_rejections, alone_degenerate),) = zip(*tally([proc], X))
        assert stat.tobytes() == alone_stat.tobytes(), proc
        assert variance.tobytes() == alone_variance.tobytes(), proc
        for got, want in zip(counts[:3], alone_arrays):
            assert got.tobytes() == want.tobytes(), proc
        assert counts[3:] == (alone_rejections, alone_degenerate), proc
        assert np.isnan(stat[[3, 5, 7]]).all(), proc
    if name == "mc_p12":  # rows whose statistic is NaN for dm_r alone
        assert np.isnan(stacked[0][0]).sum() > np.isnan(stacked[2][0]).sum()
    for d in X[:12]:
        assert list(map(repr, outcomes(procedures, d, strict=False))) == [
            repr(outcomes([proc], d, strict=False)[0]) for proc in procedures]


def test_cached_kernel_constants_are_read_only():
    starts, sizes = dmtests._blocks(75, 10)
    assert dmtests._blocks(75, 10)[0] is starts
    assert starts.tolist() == [0, 8, 16, 24, 32, 40, 47, 54, 61, 68]
    assert sizes.tolist() == [8.0] * 5 + [7.0] * 5
    for array in (starts, sizes):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
