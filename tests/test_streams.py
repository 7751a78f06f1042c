"""Keyed streams of the batched simulators against NumPy's own seeding.

``_streams.stream_states`` reproduces ``np.random.default_rng([*key, rep])``
for a whole range of reps without constructing one generator per rep; the
oracle here is that call itself. The batched matrices are then checked row
by row against the one-replication simulators run on each row's own
generator, and the ``ucr`` rows against a direct one-path construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import bit_generator

from reference import ucr_loss_differential

from epatest import _streams, mc, tradeoff
from epatest.dmtests import procedure

SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 20260818, 7_135_200_448_213)
N_REPS = 5000


def _key(prefix, seed):
    # The mc cell key (seed, family code, h, R, R_tilde, P), or tradeoff's (seed,).
    return [seed, 1, 12, 175, 25, 1000] if prefix == "mc" else [seed]


def _first_draws(rng):
    return rng.standard_normal(5).tobytes()


def _check_reps(key, start, stop):
    states = _streams.stream_states(key, start, stop)
    assert len(states) == stop - start
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for rep, state in enumerate(states, start):
        oracle = np.random.default_rng([*key, rep])
        assert state == oracle.bit_generator.state, (key, rep)
        bitgen.state = state
        assert _first_draws(rng) == _first_draws(oracle), (key, rep)


@pytest.mark.parametrize("prefix", ["mc", "tradeoff"])
@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_default_rng_streams(prefix, seed):
    if seed in (0, 2**64 + 3):
        _check_reps(_key(prefix, seed), 0, N_REPS)
    else:
        _check_reps(_key(prefix, seed), 0, 50)
        _check_reps(_key(prefix, seed), N_REPS - 50, N_REPS)


@settings(max_examples=60)
@given(
    key=st.lists(st.integers(0, 2**70), max_size=9),
    n=st.integers(1, 40),
)
def test_states_equal_default_rng_on_random_keys(key, n):
    _check_reps(key, 0, n)


@pytest.mark.parametrize(
    "value", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 3 * 2**70 + 5, np.uint64(2**64 - 1), np.int64(5)]
)
def test_seed_words_split_as_numpy_does(value):
    assert _streams.uint32_words(value) == bit_generator._coerce_to_uint32_array(value).tolist()


@pytest.mark.parametrize("value", [-1, -(2**40), 1.5, "3", None])
def test_key_words_must_be_nonnegative_integers(value):
    # -1 used to loop for ever splitting into words: -1 >> 32 == -1
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        _streams.uint32_words(value)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        _streams.keyed_rows(np.empty((3, 4)), [value], 4, lambda E: E)


@pytest.mark.parametrize("value", [0, 7, np.int64(7), 7.0, 2**64 + 3])
def test_integral_seeds_are_accepted(value):
    assert _streams.check_seed(value) == int(value)
    assert type(_streams.check_seed(value)) is int


@pytest.mark.parametrize(
    "spec, n_reps, seed",
    [
        # several chunks per cell, the last one partial
        (mc.make_spec("ucr", 3, 25, 175, 1000), 130, 5),
        (mc.make_spec("ucr", 12, 125, 25, 25), 100, 2**32),
        (mc.make_spec("cr", 3, 25, 175, 75), 101, 0),
    ],
)
def test_batched_rows_equal_one_row_simulators(spec, n_reps, seed):
    D = mc._loss_differentials(spec, n_reps, seed)
    assert D.shape == (n_reps, spec.P)
    one_row = mc.simulate_ucr if spec.family == "ucr" else mc.simulate_cr
    key = [seed, 0 if spec.family == "ucr" else 1, spec.h, spec.R, spec.R_tilde, spec.P]
    for rep in (0, 1, 27, 28, n_reps - 2, n_reps - 1):
        target, f1, f2 = one_row(spec, np.random.default_rng([*key, rep]))
        e1 = target - f1
        e2 = target - f2
        assert D[rep].tobytes() == (e1 * e1 - e2 * e2).tobytes(), rep


@pytest.mark.parametrize(
    "spec, n_reps, seed",
    [
        (mc.make_spec("ucr", 3, 25, 175, 75), 120, 11),
        # about 27 rows per chunk at P = 1000: several chunks, the last partial
        (mc.make_spec("ucr", 12, 25, 25, 1000), 100, 2**32 + 5),
    ],
)
def test_ucr_rows_equal_direct_convolution(spec, n_reps, seed):
    D = mc._loss_differentials(spec, n_reps, seed)
    key = [seed, 0, spec.h, spec.R, spec.R_tilde, spec.P]
    for rep in range(n_reps):
        # R_tilde + P + h - 1 path values, h - 1 presample innovations
        width = spec.R_tilde + spec.P + 2 * (spec.h - 1)
        eps = np.random.default_rng([*key, rep]).standard_normal(width)
        want = ucr_loss_differential(eps, spec.mu, spec.h, spec.R_tilde, spec.P)
        assert D[rep].tobytes() == want.tobytes(), rep


@pytest.mark.parametrize("order", [0, 1, 3])
def test_null_paths_equal_one_path_simulator(order):
    coefficients = (0.6, -0.2, 0.1)[:order]
    model = tradeoff.FittedArModel(coefficients, 0.7, 0.0)
    P, n_sim, seed = 48, 150, 2**33 + 1
    procedures = [procedure("dm_fb", P, 1, 0.05, M) for M in (1, 4, 13)]
    paths = np.stack([
        tradeoff.simulate_from_model(model, P, 0.0, tradeoff._null_rng(seed, rep))
        for rep in range(n_sim)
    ])
    got = tradeoff._null_statistics(model, P, procedures, n_sim, seed)
    want = tradeoff.evaluate(procedures, paths)
    for (stat, variance), (want_stat, want_variance) in zip(got, want):
        assert stat.tobytes() == want_stat.tobytes()
        assert variance.tobytes() == want_variance.tobytes()
