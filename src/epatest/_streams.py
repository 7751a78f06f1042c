"""Keyed random streams for the batched simulators.

Every simulated replication of the package draws its innovations from
``np.random.default_rng([*key, rep])``: the key names the experiment cell
(or the tradeoff diagnostic's seed) and ``rep`` the replication. That call
runs SeedSequence's hash in Python, which costs more than simulating a small
replication. So :func:`seed_words` runs the hash for a block of reps at once,
with the four words of SeedSequence's pool as one array from the step where
the rep enters, and :func:`keyed_rows` hands each rep's words to NumPy's own
PCG64 seeding.
"""

from __future__ import annotations

from functools import lru_cache

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
# as hashing one rep; so memory does not grow with the number of replications
# (a block's largest array, its eight output words, takes 64 KB).
CHUNK_INNOVATIONS = 2**15
STATE_BLOCK = 1024
MAX_REPS = 2**32  # each rep is one 32-bit key word


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
    value = as_integer(value, "seed", 0)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=32)
def _hash_constants(init: int, mult: int, n: int):
    """The first ``n + 1`` constants of a hash: its step ``i`` xors with
    constant ``i`` and multiplies by constant ``i + 1``. Returned as a tuple
    of ints and as a read-only uint64 column, for steps on ints and on lanes."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & _MASK32)
    column = np.array(values, dtype=np.uint64)[:, None]
    column.flags.writeable = False
    return tuple(values), column


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


# For each source lane of the pool's cross-mix, the lanes it mixes into.
_OTHERS = tuple(np.array([dst for dst in range(4) if dst != src]) for src in range(4))
# generate_state(4, np.uint64) hashes the pool lanes cyclically into eight
# 32-bit words, read in pairs as little-endian 64-bit words.
_OUTPUT_LANES = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)[1]


def seed_words(key, start: int, stop: int) -> np.ndarray:
    """Row ``rep - start`` is ``np.random.SeedSequence([*key, rep])
    .generate_state(4, np.uint64)``, the words ``default_rng([*key, rep])``
    seeds its PCG64 with, for every rep in range(start, stop).

    The result is a C-contiguous uint64 array. The hash runs on all reps at
    once, in two stages. Pool words that do not depend on the rep are Python
    ints. From the step where the rep word enters, the four pool lanes are
    one ``(4, reps)`` uint64 array of 32-bit values, and the steps that
    share a source word run on all the lanes they touch in one array step:
    the rep word's hash into each lane, a lane's cross-mix into the other
    three, and the eight output words. Each rep is one 32-bit word, so stop
    must not exceed ``MAX_REPS``.
    """
    entropy = [w for v in key for w in uint32_words(v)]
    k = len(entropy)  # the rep word's position
    reps = np.arange(start, stop, dtype=np.uint64)
    a, a_column = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(k - 3, 0))
    pool = [_hashmix(entropy[i] if i < k else 0, a[i], a[i + 1]) for i in range(4)]
    if k < 4:  # the rep word enters pool lane k
        pool[k] = _hashmix(reps, a[k], a[k + 1])
    i = 4
    for src, others in enumerate(_OTHERS):
        if src < k:
            for dst in others:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[i], a[i + 1]))
                i += 1
        else:  # lane src depends on the rep: one step per column of constants
            if src == k:
                lanes = np.empty((4, len(reps)), dtype=np.uint64)
                for lane, value in zip(lanes, pool):
                    lane[...] = value
                pool = lanes
            pool[others] = _mix(pool[others],
                                _hashmix(pool[src], a_column[i:i + 3], a_column[i + 1:i + 4]))
            i += 3
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, a[i], a[i + 1]))
            i += 1
    if k >= 4:  # the rep word enters every lane of the full pool
        pool = _mix(np.array(pool, dtype=np.uint64)[:, None],
                    _hashmix(reps, a_column[i:i + 4], a_column[i + 1:i + 5]))
    words = _hashmix(pool[_OUTPUT_LANES], _OUTPUT_CONSTANTS[:8], _OUTPUT_CONSTANTS[1:])
    out = np.empty((len(reps), 4), dtype=np.uint64)
    np.bitwise_or(words[0::2], words[1::2] << 32, out=out.T)
    return out


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
    size = max(1, min(n, CHUNK_INNOVATIONS // width))
    E = np.empty((size, width))
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    for start in range(0, n, size):
        stop = min(start + size, n)
        for rep in range(start, stop):
            i = rep % STATE_BLOCK
            if i == 0:
                words = seed_words(key, rep, min(rep + STATE_BLOCK, n))
            Generator(PCG64(_SeedWords(words[i]))).standard_normal(out=E[rep - start])
        out[start:stop] = transform(E[: stop - start])
