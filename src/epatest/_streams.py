"""Keyed random streams for the batched simulators.

Every simulated replication of the package draws its innovations from
``np.random.default_rng([*key, rep])``: the key names the experiment cell
(or the tradeoff diagnostic's seed) and ``rep`` the replication. That call
runs SeedSequence's hash in Python, which costs more than simulating a small
replication. So :func:`seed_words` runs the hash for a block of reps at once,
and :func:`keyed_rows` hands each rep's words to NumPy's own PCG64 seeding.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .series import as_integer

# O'Neill's seed_seq hash as NumPy's SeedSequence runs it (pool of four
# 32-bit words, numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Innovations drawn per chunk of replications: a whole 100-replication ucr
# cell at P = 75, or two cr rows at P = 1000. Seed words are computed for a
# block of replications at a time, since hashing a block costs about as much
# as hashing one rep; so memory does not grow with the number of replications.
CHUNK_INNOVATIONS = 2**15
STATE_BLOCK = 1024
MAX_REPS = 2**32  # each rep is one 32-bit key word


def check_seed(seed) -> int:
    """``seed`` as an int if it is a nonnegative integer (by the rule of
    :func:`series.as_integer`); anything else raises ValueError."""
    try:
        value = as_integer(seed, "seed")
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return value


def check_reps(value, name: str, noun: str) -> int:
    """``value`` as an int if it is a whole count of ``noun``s from 100, enough for
    a rejection rate, to ``MAX_REPS``; anything else raises ValueError."""
    n = as_integer(value, name)
    if n < 100:
        raise ValueError(f"rejection rates need at least 100 {noun}s, got {n}")
    if n > MAX_REPS:
        raise ValueError(f"{name} must be at most 2**32 (one stream key word per "
                         f"{noun}), got {n}")
    return n


def uint32_words(value) -> list[int]:
    """A key word as NumPy coerces it: little-endian 32-bit words, one word for 0."""
    value = check_seed(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) constant pairs of successive hash calls."""
    while True:
        yield init, (init := init * mult & _MASK32)


def _hashmix(value, constants):
    xor, mult = next(constants)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def seed_words(key, start: int, stop: int) -> np.ndarray:
    """Row ``rep - start`` is ``np.random.SeedSequence([*key, rep])
    .generate_state(4, np.uint64)``, the words ``default_rng([*key, rep])``
    seeds its PCG64 with, for every rep in range(start, stop).

    The result is a C-contiguous uint64 array. The hash runs on all reps at
    once: each word is a Python int while it does not depend on the rep, and
    a uint64 array of 32-bit values, one per rep, once it does. Each rep is
    one 32-bit word, so stop must not exceed ``MAX_REPS``.
    """
    entropy = [w for v in key for w in uint32_words(v)]
    entropy.append(np.arange(start, stop, dtype=np.uint64))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, constants) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    # generate_state(4, np.uint64): eight 32-bit words, read in pairs as
    # little-endian 64-bit words.
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % 4], constants) for i in range(8)]
    return np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


class _SeedWords(ISeedSequence):
    """One row of :func:`seed_words` as a seed sequence. ``PCG64`` reads the
    row's buffer directly, so it must be C-contiguous: a strided view would
    seed another stream without any error."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def keyed_rows(out: np.ndarray, key, width: int, transform) -> None:
    """Fill ``out`` with ``transform`` of keyed standard normal rows.

    Row ``rep`` of ``out`` is the image of the first ``width`` standard
    normals of ``np.random.default_rng([*key, rep])``, bit for bit. The
    draws go into a matrix of about ``CHUNK_INNOVATIONS`` innovations, one
    replication per row, and ``transform`` maps each such chunk to its rows
    of ``out``. Every word of ``key`` must be a nonnegative integer.
    """
    n = out.shape[0]
    seeds = (words for start in range(0, n, STATE_BLOCK)
             for words in seed_words(key, start, min(start + STATE_BLOCK, n)))
    size = max(1, min(n, CHUNK_INNOVATIONS // width))
    E = np.empty((size, width))
    for start in range(0, n, size):
        stop = min(start + size, n)
        chunk = E[: stop - start]
        for row, words in zip(chunk, seeds):
            np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(out=row)
        out[start:stop] = transform(chunk)
