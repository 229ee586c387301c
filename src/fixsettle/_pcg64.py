"""The draws of ``numpy.random.default_rng((seed, k))`` for many k at a time.

Step k of ``uniform_ball`` draws ``standard_normal(n)`` and then
``random()`` from a fresh ``default_rng((seed, k))``.  ``normals_and_uniforms``,
the one source of those draws, makes a block of consecutive steps' draws
in one pass, the same bit for bit, with no generator per step:

- ``_seed_words`` rebuilds numpy's ``SeedSequence((seed, k))`` hashing
  (numpy/random/bit_generator.pyx) in one uint32 pass over the block;
- ``raw_words`` runs PCG64's seeding and first outputs (pcg64.h:
  ``srandom_r``, the mod-2^128 LCG and the XSL-RR output) for every step
  at once, each state in its own 256-bit slot of one Python int, so one
  multiply steps them all;
- a uniform is numpy's ``(word >> 11) * 2**-53``; a normal is the fast
  path of numpy's ziggurat (distributions.c): with ``idx`` the low 8 bits
  of the word, the sign bit 8 and ``rabs`` bits 9..60, it is
  ``rabs * wi[idx]``, negated when the sign bit is set, whenever ``rabs``
  lies below the layer's threshold.

numpy does not export its ziggurat tables, so ``_ziggurat`` reads them
once per process from ``standard_normal`` itself, and certifies each
layer's threshold by feeding chosen words through an MT19937.  A step
with a normal word past its layer's certified threshold, or every step
when the certification fails, draws from ``default_rng((seed, k))``
itself (``fresh_draws``, which serves that fallback alone).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mix_entropy's hashmix: initial, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state's hash: initial, multiplier
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
_RABS_BITS = 52  # a normal word: 8 bits of layer, 1 of sign, 52 of rabs
_LAYERS = 256
_MARGIN = 4.0  # how far under its bound a layer's threshold is probed


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


def _seed_words(seed: int, k0: int, count: int) -> np.ndarray:
    """The uint64 seed words ``s0, s1, i0, i1`` (rows) of the PCG64 of
    ``default_rng((seed, k))`` for k = k0, k0 + 1, ... (columns).

    One uint32 pass over a block of consecutive k rebuilds numpy's
    SeedSequence: the hashmix/mix pool of four words over the entropy
    words of ``seed`` and ``k``, then ``generate_state(4, uint64)``.  The
    block holds ``count`` steps, fewer where k's low word would wrap, so
    that every k in it has the same entropy words but that low word.
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
    # Little-endian uint32 pairs are the uint64 words.
    return out[0::2] | out[1::2] << np.uint64(32)


@lru_cache(maxsize=8)
def _slot_mask(m: int) -> int:
    """The low 128 bits of each of ``m`` 256-bit slots."""
    return int.from_bytes((b"\xff" * 16 + b"\x00" * 16) * m, "little")


def _packed(low: np.ndarray, high: np.ndarray) -> int:
    """One Python int with ``high * 2**64 + low`` in each 256-bit slot."""
    slots = np.zeros((len(low), 4), dtype="<u8")
    slots[:, 0], slots[:, 1] = low, high
    return int.from_bytes(slots.tobytes(), "little")


def raw_words(seed: int, k0: int, count: int, per_step: int) -> np.ndarray:
    """The first ``per_step`` PCG64 outputs of ``default_rng((seed, k))``
    for k = k0 .. k0 + count - 1, as a (count, per_step) uint64 array: row
    j is ``default_rng((seed, k0 + j)).bit_generator.random_raw(per_step)``.
    """
    blocks = []
    done = 0
    # _seed_words stops where k's low word wraps; an empty block is one pass.
    while done < count or not blocks:
        s0, s1, i0, i1 = _seed_words(seed, k0 + done, count - done)
        m = len(s0)
        mask = _slot_mask(m)
        # srandom_r: inc = 2 i + 1; state 0 is stepped, the seed s added,
        # and the state stepped again, all mod 2^128.  A slot holds a state
        # below 2^129 between steps, and below 2^128 when multiplied, so no
        # product reaches the next slot.
        inc = _packed(i1 << np.uint64(1) | np.uint64(1), i0 << np.uint64(1) | i1 >> np.uint64(63))
        state = ((inc + _packed(s1, s0) & mask) * _PCG64_MULT & mask) + inc
        states = []
        for _ in range(per_step):  # each output steps first
            state = ((state & mask) * _PCG64_MULT & mask) + inc
            states.append(state.to_bytes(32 * m, "little"))
        limbs = np.frombuffer(b"".join(states), dtype="<u8").reshape(per_step, m, 4)
        # XSL-RR: the high and low halves xored, rotated right by the top 6 bits.
        low, high = limbs[:, :, 0], limbs[:, :, 1]
        folded = high ^ low
        rot = high >> np.uint64(58)
        words = folded >> rot | folded << (np.uint64(64) - rot & np.uint64(63))
        # In C order, which the normals made of these rows keep: ``row_norms``
        # of an F-ordered stack can differ from ``np.dot`` in the last bit.
        blocks.append(np.ascontiguousarray(words.T))
        done += m
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _untemper(out: np.ndarray) -> np.ndarray:
    """The MT19937 key words (uint32) whose tempered outputs are ``out``."""
    y = out ^ out >> 18
    y ^= y << 15 & 0xEFC60000
    x = y
    for _ in range(4):  # 7-bit shifts: five passes cover 32 bits
        y = x ^ (y << 7 & 0x9D2C5680)
    x = y
    for _ in range(2):  # 11-bit shifts: three passes cover 32 bits
        y = x ^ y >> 11
    return y


def _normal_word(layer, sign, rabs) -> np.ndarray:
    """The words whose normals have these layers, sign bits and ``rabs``."""
    return (np.asarray(rabs, dtype=np.uint64) << np.uint64(9)
            | np.asarray(sign, dtype=np.uint64) << np.uint64(8)
            | np.asarray(layer, dtype=np.uint64))


def fed_normals(bitgen, words, draws: int) -> Tuple[np.ndarray, int]:
    """numpy's first ``draws`` standard normals of the chosen uint64
    ``words`` (at most 312), and how many words they took.

    ``bitgen`` is an MT19937, set to a key that holds the words'
    untempered halves, high half first.  The key is padded with the word
    2^63, a uniform of 1/2 and a fast normal 0.0, so that a draw off the
    fast path ends: an all-zero key would keep the tail of layer 0
    rejecting forever.
    """
    from numpy.random import Generator

    halves = np.tile(np.array([1 << 31, 0], dtype=np.uint32), 312)
    words = np.asarray(words, dtype=np.uint64)
    halves[0:2 * len(words):2] = words >> np.uint64(32)
    halves[1:2 * len(words):2] = words & np.uint64(_MASK32)
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": _untemper(halves), "pos": 0}}
    out = Generator(bitgen).standard_normal(draws)
    return out, bitgen.state["state"]["pos"] // 2


@lru_cache(maxsize=None)
def _ziggurat() -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(wi, limit)``: numpy's ziggurat layer widths, and for each layer
    the ``rabs`` below which a normal word is certified to take the fast
    path (0 where none is); None when ``standard_normal`` fails the probe.

    Chosen words reach ``standard_normal`` through ``fed_normals``, which
    also tells how many words the draws took.  ``rabs = 1`` gives ``wi``.
    Layer i's fast region ends within a unit of ``2**52 * wi[i - 1] /
    wi[i]`` (layer 0's of ``2**52 * wi[255] / wi[0]``).  The ``rabs``
    ``_MARGIN`` under that bound is certified when its word takes one word
    and gives ``rabs * wi`` exactly, negated on the odd layers, whose words
    set the sign bit; every smaller ``rabs`` of the layer then takes the
    fast path too.  A layer whose bound is not below 2^52 gets no fast
    region.  Layer 1 has none in numpy 2.4, so its width comes through the
    slow path, which takes a uniform word more; it is probed on its own,
    after the rest.
    """
    from numpy.random import MT19937

    bitgen = MT19937(0)
    layers = np.arange(_LAYERS)
    others = layers[layers != 1]
    wi = np.zeros(_LAYERS)
    wi[others], took = fed_normals(bitgen, _normal_word(others, 0, 1), len(others))
    if took != len(others):
        return None
    (wi[1],), took = fed_normals(bitgen, [_normal_word(1, 0, 1), 0], 1)  # the uniform 0 accepts
    if took not in (1, 2) or not (wi > 0.0).all():
        return None
    bound = 2.0 ** _RABS_BITS * np.roll(wi, 1) / wi  # wi[i - 1] / wi[i]
    bound[0] = 2.0 ** _RABS_BITS * wi[-1] / wi[0]
    candidate = np.floor(bound) - _MARGIN
    tried = np.flatnonzero((candidate >= 1.0) & (candidate < 2.0 ** _RABS_BITS))
    rabs = candidate[tried]
    negative = tried % 2  # the sign bit set on odd layers
    out, took = fed_normals(bitgen, _normal_word(tried, negative, rabs), len(tried))
    want = rabs * wi[tried]
    want[negative == 1] *= -1.0
    if took != len(tried) or out.tobytes() != want.tobytes():
        return None
    limit = np.zeros(_LAYERS, dtype=np.uint64)
    limit[tried] = candidate[tried] + 1.0
    wi.flags.writeable = limit.flags.writeable = False  # they are cached
    return wi, limit


def fresh_draws(seed: int, k: int, n: int) -> Tuple[np.ndarray, float]:
    """``standard_normal(n)`` and then ``random()`` of a fresh
    ``default_rng((seed, k))``: step k's draws as the contract states them,
    for the steps ``normals_and_uniforms`` does not make itself."""
    from numpy.random import default_rng

    rng = default_rng((seed, k))
    return rng.standard_normal(n), rng.random()


def normals_and_uniforms(seed: int, k0: int, count: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(normals, u)`` of steps k0 .. k0 + count - 1: row j of the
    (count, n) ``normals`` and ``u[j]`` are ``standard_normal(n)`` and then
    ``random()`` of ``default_rng((seed, k0 + j))``, bit for bit: the
    steps off the certified fast path come from ``fresh_draws``."""
    tables = _ziggurat()
    if tables is None:
        normals, u, slow = np.empty((count, n)), np.empty(count), range(count)
    else:
        wi, limit = tables
        words = raw_words(seed, k0, count, n + 1)
        u = (words[:, n] >> np.uint64(11)).astype(float) * 2.0 ** -53
        normal_words = words[:, :n]
        layer = (normal_words & np.uint64(0xFF)).astype(np.intp)
        rabs = normal_words >> np.uint64(9) & np.uint64((1 << _RABS_BITS) - 1)
        normals = rabs.astype(float) * wi[layer]
        np.negative(normals, out=normals, where=(normal_words & np.uint64(0x100)).astype(bool))
        slow = np.flatnonzero(~(rabs < limit[layer]).all(axis=1)).tolist()
    for j in slow:
        normals[j], u[j] = fresh_draws(seed, k0 + j, n)
    return normals, u
