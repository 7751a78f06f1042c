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

from epatest import mc
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
    evaluate,
    procedure,
)

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
    assert tuple(method.choices) == (*METHODS, "all")


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
        ((stat, variance),) = evaluate([proc], X)
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


@pytest.mark.parametrize(
    "n_rows, P, h, seed",
    [
        (40, 75, 12, 0),
        (25, 1000, 3, 1),
        (60, 12, 10, 2),  # short P, large h: the rectangular estimate often comes out <= 0
        (60, 10, 10, 3),  # h = P: the flat-weight sum is zero up to rounding
        (30, 25, 26, 4),  # h > P: dm_r and dm_m reject the horizon on every row
        (5, 2, 1, 5),     # shortest admissible series: several procedures reject P
    ],
)
def test_batched_battery_matches_one_row(n_rows, P, h, seed):
    degenerate = check_battery(_rows(n_rows, P, seed), h)
    if (P, h) == (12, 10):
        assert degenerate["dm_r"] > 0 and degenerate["dm_m"] > 0


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


def test_run_experiment_archives_match_one_row_on_the_simulated_rows():
    spec = mc.make_spec("ucr", 12, 25, 75, 25)
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
