"""Keyed streams of the batched simulators against NumPy's own seeding.

``_streams.seed_words`` computes ``np.random.SeedSequence([*key, rep])``'s
PCG64 seed words for a whole range of reps without constructing one
SeedSequence per rep, and a generator seeded with them through
``_streams._SeedWords`` must draw what ``np.random.default_rng([*key, rep])``
draws; the oracle here is those calls themselves. The batched matrices are
then checked row by row against the one-replication simulators run on each
row's own generator, and the ``ucr`` and ``cr`` rows against direct one-path
constructions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import bit_generator

from reference import cr_loss_differential, ucr_loss_differential

from epatest import _streams, mc, tradeoff
from epatest.dmtests import procedure, tally

SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 20260818, 7_135_200_448_213)
N_REPS = 5000


def _key(prefix, seed):
    # The mc cell key (seed, family code, h, R, R_tilde, P), or tradeoff's (seed,).
    return [seed, 1, 12, 175, 25, 1000] if prefix == "mc" else [seed]


def _first_draws(rng):
    return rng.standard_normal(5).tobytes()


def _check_reps(key, start, stop):
    words = _streams.seed_words(key, start, stop)
    assert words.shape == (stop - start, 4) and words.dtype == np.uint64
    assert words.flags.c_contiguous
    for rep, row in enumerate(words, start):
        want = np.random.SeedSequence([*key, rep]).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes(), (key, rep)
        rng = np.random.Generator(np.random.PCG64(_streams._SeedWords(row)))
        assert _first_draws(rng) == _first_draws(np.random.default_rng([*key, rep])), (key, rep)


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


def _key_of_words(n_words):
    # A key of n_words 32-bit words; from two words on its first word is
    # the two-word seed 2**40.
    key = [2**40, *range(3, n_words + 1)] if n_words >= 2 else [5] * n_words
    assert sum(len(_streams.uint32_words(v)) for v in key) == n_words
    return key


@pytest.mark.parametrize("start", [0, 1023, 5000])
@pytest.mark.parametrize("n_words", range(9))
def test_seed_words_for_every_key_length(n_words, start):
    # Below four key words the rep word enters pool lane n_words before the
    # cross-mix; from four on it is mixed in after the pool is full.
    key = _key_of_words(n_words)
    words = _streams.seed_words(key, start, start + 30)
    assert words.shape == (30, 4) and words.dtype == np.uint64 and words.flags.c_contiguous
    for rep, row in enumerate(words, start):
        want = np.random.SeedSequence([*key, rep]).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes(), (key, rep)


@pytest.mark.parametrize("width", [3, 40])
@pytest.mark.parametrize("n", [1, 100, _streams.STATE_BLOCK, _streams.STATE_BLOCK + 1,
                               2 * _streams.STATE_BLOCK + 5])
def test_keyed_rows_hashes_each_seed_block_once(n, width, monkeypatch):
    block = _streams.STATE_BLOCK
    calls = []
    seed_words = _streams.seed_words

    def spy(key, start, stop):
        calls.append((start, stop))
        return seed_words(key, start, stop)

    monkeypatch.setattr(_streams, "seed_words", spy)
    out = np.empty((n, width))
    _streams.keyed_rows(out, [4], width, lambda E: E)
    assert len(calls) == -(-n // block)
    assert calls == [(start, min(start + block, n)) for start in range(0, n, block)]
    for rep in (0, n - 1):
        assert out[rep].tobytes() == np.random.default_rng([4, rep]).standard_normal(width).tobytes()


def test_keyed_rows_across_seed_blocks_and_chunks():
    # 819-row chunks at width 40 end inside the 1024-rep seed blocks.
    width, n = 40, _streams.STATE_BLOCK + 5
    assert _streams.CHUNK_INNOVATIONS // width == 819
    key = [7, 0, 3, 25, 25, 40]
    out = np.empty((n, width))
    _streams.keyed_rows(out, key, width, lambda E: E)
    for rep in (*range(817, 822), *range(1022, n)):
        want = np.random.default_rng([*key, rep]).standard_normal(width)
        assert out[rep].tobytes() == want.tobytes(), rep


@pytest.mark.parametrize(
    "value", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 3 * 2**70 + 5, np.uint64(2**64 - 1), np.int64(5)]
)
def test_seed_words_split_as_numpy_does(value):
    assert _streams.uint32_words(value) == bit_generator._coerce_to_uint32_array(value).tolist()


@pytest.mark.parametrize("value", [-1, -(2**40), 1.5, "3", None])
def test_key_words_must_be_nonnegative_integers(value):
    # -1 used to loop for ever splitting into words: -1 >> 32 == -1
    message = (f"seed must be a nonnegative integer, got {value}" if isinstance(value, int)
               else f"seed must be an integer, got {value!r}")
    with pytest.raises(ValueError) as err:
        _streams.uint32_words(value)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        _streams.keyed_rows(np.empty((3, 4)), [value], 4, lambda E: E)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [0, 7, np.int64(7), 7.0, 2**64 + 3])
def test_integral_seeds_are_accepted(value):
    # TradeoffConfig keeps the seed as checked, so its type shows
    seed = tradeoff.TradeoffConfig(seed=value).seed
    assert seed == int(value) and type(seed) is int


@pytest.mark.parametrize(
    "spec, n_reps, seed",
    [
        # several chunks per cell, the last one partial
        (mc.DgpSpec("ucr", 3, 25, 175, 1000), 130, 5),
        (mc.DgpSpec("ucr", 12, 125, 25, 25), 100, 2**32),
        (mc.DgpSpec("cr", 3, 25, 175, 75), 101, 0),
    ],
)
def test_batched_rows_equal_one_row_simulators(spec, n_reps, seed):
    D = mc._loss_differentials(spec, n_reps, seed)
    assert D.shape == (n_reps, spec.P)
    key = [seed, 0 if spec.family == "ucr" else 1, spec.h, spec.R, spec.R_tilde, spec.P]
    for rep in (0, 1, 27, 28, n_reps - 2, n_reps - 1):
        target, f1, f2 = mc.simulate(spec, np.random.default_rng([*key, rep]))
        e1 = target - f1
        e2 = target - f2
        assert D[rep].tobytes() == (e1 * e1 - e2 * e2).tobytes(), rep


@pytest.mark.parametrize(
    "spec, n_reps, seed",
    [
        (mc.DgpSpec("ucr", 3, 25, 175, 75), 120, 11),
        # about 27 rows per chunk at P = 1000: several chunks, the last partial
        (mc.DgpSpec("ucr", 12, 25, 25, 1000), 100, 2**32 + 5),
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


def _ucr_oracle_rows(spec, n_reps, seed):
    key = [seed, 0, spec.h, spec.R, spec.R_tilde, spec.P]
    width = spec.R_tilde + spec.P + 2 * (spec.h - 1)
    return np.stack([
        ucr_loss_differential(np.random.default_rng([*key, rep]).standard_normal(width),
                              spec.mu, spec.h, spec.R_tilde, spec.P)
        for rep in range(n_reps)
    ])


@pytest.mark.parametrize("h", range(1, 16))
@pytest.mark.parametrize("P", [25, 75, 1000])
def test_ucr_filter_equals_convolution_bit_for_bit_up_to_h15(h, P):
    # At P = 1000 a chunk holds about 30 rows: 100 reps span several chunks,
    # the last one partial.
    spec = mc.DgpSpec("ucr", h, 25, 25, P)
    n_reps, seed = 100, 31
    D = mc._loss_differentials(spec, n_reps, seed)
    assert D.tobytes() == _ucr_oracle_rows(spec, n_reps, seed).tobytes()


@pytest.mark.parametrize("h", [16, 24, 40])
@pytest.mark.parametrize("P", [75, 1000])
def test_ucr_filter_is_within_round_off_of_convolution_from_h16(h, P):
    # np.convolve sums 16 or more terms through a BLAS dot product, which
    # groups them differently from the left-to-right sum of the filter.
    spec = mc.DgpSpec("ucr", h, 40, 40, P)
    n_reps, seed = 40, 32
    D = mc._loss_differentials(spec, n_reps, seed)
    want = _ucr_oracle_rows(spec, n_reps, seed)
    for got_row, want_row in zip(D, want):
        np.testing.assert_allclose(got_row, want_row, rtol=0,
                                   atol=1e-12 * np.abs(want_row).max())


def test_ucr_cells_simulate_without_per_row_convolution(monkeypatch):
    spec = mc.DgpSpec("ucr", 12, 25, 25, 75)

    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called while simulating a ucr cell")

    with monkeypatch.context() as m:
        m.setattr(np, "convolve", refuse)
        D = mc._loss_differentials(spec, 100, 33)
        target, _, _ = mc.simulate(spec, np.random.default_rng(0))
    assert D.shape == (100, spec.P) and np.isfinite(D).all()
    assert target.shape == (spec.P,)


@pytest.mark.parametrize("h", mc.DEFAULT_H_SET)
@pytest.mark.parametrize("R", mc.DEFAULT_R_SET)
@pytest.mark.parametrize("R_tilde", mc.DEFAULT_R_SET)
@pytest.mark.parametrize("P", [25, 1000])
def test_cr_rows_equal_full_length_filter(h, R, R_tilde, P):
    spec = mc.DgpSpec("cr", h, R, R_tilde, P)
    n_reps, seed = 3, 17
    D = mc._loss_differentials(spec, n_reps, seed)
    key = [seed, 1, h, R, R_tilde, P]
    width = mc.CR_BURN_IN + R_tilde + P + h - 1
    for rep in range(n_reps):
        eps = np.random.default_rng([*key, rep]).standard_normal(width)
        want = cr_loss_differential(eps, h, R, R_tilde, P)
        np.testing.assert_allclose(D[rep], want, rtol=0, atol=1e-10 * np.abs(D[rep]).max())


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
    keyed = np.empty((n_sim, P))  # the null paths as tradeoff._null_summary draws them
    _streams.keyed_rows(keyed, [seed], tradeoff.SIMULATION_BURN_IN + P,
                        lambda E: tradeoff._model_paths(model, E, 0.0))
    got = tally(procedures, keyed)
    want = tally(procedures, paths)
    for (stat, variance, *_), (want_stat, want_variance, *_) in zip(got, want):
        assert stat.tobytes() == want_stat.tobytes()
        assert variance.tobytes() == want_variance.tobytes()
