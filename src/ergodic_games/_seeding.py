"""Batch seeding of the path engine's generators.

A path's stream is ``np.random.default_rng(key)``: PCG64 seeded through
numpy's SeedSequence.  Built that way one generator costs about 20 µs, most
of it the SeedSequence; :func:`streams` does SeedSequence's hashing for a
whole batch of keys in uint32 array arithmetic and hands each PCG64 its
precomputed state words, bitwise the same generators, at about 5 µs a key.  The module
loads ``numpy.random``, so :mod:`.sde` imports it on first use.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool of
# four uint32 words, the hash multipliers of entropy mixing and of state output
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64 seeds itself from four uint64 state words, eight uint32 ones
_STATE_WORDS = 8


def _entropy_words(key: Tuple[int, ...]) -> list:
    """The uint32 words SeedSequence reads from ``key``: each entry, folded to 64
    bits, gives its low word and, when nonzero, its high word."""
    words = []
    for v in key:
        v = int(v) & 0xFFFFFFFFFFFFFFFF
        words.append(v & _MASK32)
        if v >> 32:
            words.append(v >> 32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive constants of one SeedSequence hash, a column:
    its ``k``-th ``hashmix`` xors with entry ``k`` and multiplies by entry ``k + 1``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of row ``k`` of ``values`` with ``consts[k:k + 2]``."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> np.uint32(16)
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L)
    out -= y * np.uint32(_MIX_MULT_R)
    out ^= out >> np.uint32(16)
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for every row of
    ``entropy``, a ``(keys, words)`` uint32 array, in uint32 array arithmetic.

    The hash constants depend on the word count only, so every key goes
    through each step together; so do the pool words that one step mixes
    independently (a column per key, a row per pool word).
    """
    n, w = entropy.shape
    extra = max(w - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)  # words past the entropy hash 0
    pool[:w] = entropy[:, :_POOL_SIZE].T
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    # every pool word mixes in the hash of each other one, in this order
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * len(dst)], consts[k:k + len(dst) + 1]))
        k += len(dst)
    # then each entropy word beyond the pool into every pool word
    for src in range(_POOL_SIZE, w):
        pool = _mix(pool, _hashmix(np.broadcast_to(entropy[:, src], pool.shape),
                                   consts[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    state = _hashmix(pool[np.arange(_STATE_WORDS) % _POOL_SIZE],
                     _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _FixedState(ISeedSequence):
    """Hands PCG64 the state words precomputed for one key."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("a fixed state holds exactly the words PCG64 asks for")
        return self.words


def streams(keys: list) -> list:
    """``np.random.default_rng(key)`` for every key, each entry folded to 64
    bits, from one vectorised SeedSequence pass per entropy word count."""
    entropy = [_entropy_words(key) for key in keys]
    states = np.empty((len(keys), _STATE_WORDS // 2), dtype=np.uint64)
    for w in set(map(len, entropy)):
        rows = [i for i, words in enumerate(entropy) if len(words) == w]
        states[rows] = _seed_states(np.array([entropy[i] for i in rows], dtype=np.uint32))
    return [Generator(PCG64(_FixedState(words))) for words in states]
