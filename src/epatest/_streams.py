"""Keyed random streams for the batched simulators.

Every simulated replication of the package draws its innovations from
``np.random.default_rng([*key, rep])``: the key names the experiment cell
(or the tradeoff diagnostic's seed) and ``rep`` the replication. Building
one generator per replication costs more than simulating it, so
:func:`keyed_rows` reproduces those streams, draw for draw, by computing
each replication's PCG64 state directly and setting it on one reused
generator.
"""

from __future__ import annotations

import numpy as np

from .series import as_integer

# O'Neill's seed_seq hash as NumPy's SeedSequence runs it (pool of four
# 32-bit words, numpy/random/bit_generator.pyx), and PCG64's 128-bit LCG
# multiplier for its seeding step (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Innovations drawn per chunk of replications: a whole 100-replication ucr
# cell at P = 75, or two cr rows at P = 1000. States are computed for a
# block of replications at a time, since hashing a block costs about as much
# as hashing one rep; so memory does not grow with the number of replications.
CHUNK_INNOVATIONS = 2**15
STATE_BLOCK = 1024


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


def stream_states(key, start: int, stop: int) -> list[dict]:
    """The PCG64 state of ``np.random.default_rng([*key, rep])`` for every
    rep in range(start, stop).

    SeedSequence's hash runs on all reps at once: each word is a Python int
    while it does not depend on the rep, and a uint64 array of 32-bit
    values, one per rep, once it does. PCG64's seeding step then runs on
    Python ints. Setting a reused ``PCG64``'s ``state`` to one of these
    gives that rep's stream, draw for draw. Each rep is one 32-bit word, so
    stop must not exceed 2**32.
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
    words = [_hashmix(pool[i % 4], constants).tolist() for i in range(8)]
    states = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*words):
        # 128-bit seed and sequence, high 64-bit word first; the increment is
        # the sequence shifted up with its low bit set. From state 0, one
        # step, add the seed, one more step.
        seed = w1 << 96 | w0 << 64 | w3 << 32 | w2
        inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _MASK128
        state = ((inc + seed) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def keyed_rows(out: np.ndarray, key, width: int, transform) -> None:
    """Fill ``out`` with ``transform`` of keyed standard normal rows.

    Row ``rep`` of ``out`` is the image of the first ``width`` standard
    normals of ``np.random.default_rng([*key, rep])``, bit for bit. The
    draws go into a matrix of about ``CHUNK_INNOVATIONS`` innovations, one
    replication per row, and ``transform`` maps each such chunk to its rows
    of ``out``. Every word of ``key`` must be a nonnegative integer.
    """
    n = out.shape[0]
    states = (state for start in range(0, n, STATE_BLOCK)
              for state in stream_states(key, start, min(start + STATE_BLOCK, n)))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    size = max(1, min(n, CHUNK_INNOVATIONS // width))
    E = np.empty((size, width))
    for start in range(0, n, size):
        stop = min(start + size, n)
        chunk = E[: stop - start]
        for row, state in zip(chunk, states):
            bitgen.state = state
            rng.standard_normal(out=row)
        out[start:stop] = transform(chunk)
