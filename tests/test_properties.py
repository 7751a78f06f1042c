"""Scale, sign and shift invariances of the batched battery on random shapes.

The statistic sqrt(P) * mean(d) / sigma_hat is homogeneous of degree zero in
d and odd in d, and every variance estimator works on deviations from the
sample mean (or on block means' spread), so it ignores a level shift.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epatest.dmtests import procedure, tally
from epatest.mc import DEFAULT_METHODS

# The battery plus dm_wpe, so that every lrv.ESTIMATORS entry is covered.
LABELS = (*DEFAULT_METHODS, "dm_wpe")

shapes = {
    "n_rows": st.integers(1, 8),
    "P": st.integers(2, 90),
    "h_frac": st.floats(0.0, 1.0, exclude_max=True),
    "seed": st.integers(0, 2**32 - 1),
}


def _battery(P, h, labels=DEFAULT_METHODS):
    """The labels' procedures at (P, h), leaving out those that refuse the arguments."""
    procedures = []
    for label in labels:
        try:
            procedures.append(procedure(label, P, h, 0.05))
        except ValueError:
            pass
    return procedures


def _draw(n_rows, P, h_frac, seed):
    # h < P: at h = P dm_r and dm_m refuse the horizon.
    h = 1 + math.floor(h_frac * (P - 1))
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_rows, P + 1))
    return h, 0.2 + eps[:, 1:] + 0.5 * eps[:, :-1]


def _assert_statistics_close(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.maximum(1.0, np.abs(want[ok])))


@settings(max_examples=60)
@given(**shapes, c=st.floats(1e-3, 1e3))
def test_statistics_are_scale_invariant(n_rows, P, h_frac, seed, c):
    h, X = _draw(n_rows, P, h_frac, seed)
    procedures = _battery(P, h)
    for stat, scaled in zip(tally(procedures, X)[0], tally(procedures, c * X)[0]):
        _assert_statistics_close(scaled, stat)


@settings(max_examples=60)
@given(**shapes)
def test_negation_negates_every_statistic(n_rows, P, h_frac, seed):
    h, X = _draw(n_rows, P, h_frac, seed)
    procedures = _battery(P, h)
    for stat, negated in zip(tally(procedures, X)[0], tally(procedures, -X)[0]):
        _assert_statistics_close(negated, -stat)


@settings(max_examples=60)
@given(**shapes, shift=st.floats(-100.0, 100.0))
def test_variance_estimates_ignore_a_level_shift(n_rows, P, h_frac, seed, shift):
    h, X = _draw(n_rows, P, h_frac, seed)
    procedures = _battery(P, h, LABELS)
    # Rounding X + shift perturbs each deviation by about eps * |shift|; a
    # quadratic form in P deviations moves by at most a few P * eps * |shift| * sd.
    gamma0 = X.var(axis=1)
    tol = 1e-12 * P * (1.0 + abs(shift) / np.sqrt(gamma0)) * gamma0
    for p, variance, shifted in zip(
        procedures, tally(procedures, X)[1], tally(procedures, X + shift)[1]
    ):
        assert np.all(np.abs(shifted - variance) <= tol), p.method
