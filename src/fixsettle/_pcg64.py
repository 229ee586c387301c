"""The PCG64 states of ``numpy.random.default_rng((seed, k))``, many k at a time.

Rebuilds numpy's seeding of a PCG64 from ``SeedSequence((seed, k))``
(numpy/random/bit_generator.pyx and pcg64.h) so that a caller can set one
reused generator to each state in turn instead of building a generator
per k.  The constants below are numpy's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mix_entropy's hashmix: initial, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state's hash: initial, multiplier
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def _words(n: int) -> list:
    """The uint32 words numpy's SeedSequence makes of a nonnegative int."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


@lru_cache(maxsize=None)
def _hash_consts(initial: int, multiplier: int, count: int) -> np.ndarray:
    """The running hash constant before each of ``count`` calls, and after
    the last, as a read-only column (it is cached)."""
    out = [initial]
    for _ in range(count):
        out.append(out[-1] * multiplier & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def seed_states(seed: int, k0: int, count: int) -> list:
    """PCG64 ``(state, inc)`` of ``default_rng((seed, k))`` for k = k0, k0 + 1, ...

    One uint32 pass over a block of consecutive k rebuilds numpy's
    SeedSequence: the hashmix/mix pool of four words over the entropy
    words of ``seed`` and ``k``, then ``generate_state(4, uint64)``.
    PCG64's ``srandom_r`` then runs in Python ints.  The block holds
    ``count`` states, fewer where k's low word would wrap, so that every k
    in it has the same entropy words but that low word.
    """
    low = k0 & _MASK32
    m = min(count, _MASK32 + 1 - low)
    seed_words = _words(seed)
    entropy = seed_words + [low] + _words(k0)[1:]
    rows = np.repeat(np.array(entropy, dtype=np.uint32)[:, None], m, axis=1)
    rows[len(seed_words)] = np.arange(low, low + m, dtype=np.uint64)
    extra = max(0, len(entropy) - _POOL)
    # Every pool word is hashed once, then once per other pool word, then
    # every entropy word past the pool once per pool word.
    hash_a = _hash_consts(*_HASH_A, _POOL * (_POOL + extra))
    j = 0

    def hashmix(value, calls):
        nonlocal j
        value = value ^ hash_a[j:j + calls]
        value *= hash_a[j + 1:j + calls + 1]
        value ^= value >> 16
        j += calls
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_L)
        out -= y * np.uint32(_MIX_R)
        out ^= out >> 16
        return out

    # mix_entropy: a pool word past the entropy is hashed from 0.
    pool = np.zeros((_POOL, m), dtype=np.uint32)
    pool[:len(entropy)] = rows[:_POOL]
    pool = hashmix(pool, _POOL)
    # A source word does not change while it is mixed into the others, so
    # its hashes with the next running constants are taken at once.
    for src in range(_POOL):
        others = _OTHERS[src]
        pool[others] = mix(pool[others], hashmix(pool[src], _POOL - 1))
    for src in range(_POOL, len(entropy)):
        pool = mix(pool, hashmix(rows[src], _POOL))
    # generate_state(4, uint64): eight uint32 words, cycling over the pool.
    hash_b = _hash_consts(*_HASH_B, 2 * _POOL)
    out = pool[list(range(_POOL)) * 2] ^ hash_b[:-1]
    out *= hash_b[1:]
    out ^= out >> 16
    out = out.astype(np.uint64)
    # Little-endian uint32 pairs are the uint64 seed words s0, s1, i0, i1.
    words = (out[0::2] | out[1::2] << np.uint64(32)).T.tolist()
    states = []
    # srandom_r: inc = 2 i + 1; state 0 is stepped, the seed s added, and
    # the state stepped again, all mod 2^128.
    for s0, s1, i0, i1 in words:
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        states.append(((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc & _MASK128, inc))
    return states
