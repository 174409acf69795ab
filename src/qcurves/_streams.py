"""Seeded uniform streams for many replicates at once.

Replicate ``i`` of a study cell or a bootstrap is drawn from the stream
``Generator(PCG64(SeedSequence(prefix + (i,))))``.  Building a SeedSequence
per replicate costs more than drawing a short sample, so
:func:`seeded_uniforms` computes NumPy's SeedSequence hash (pool size 4) for
all rows at once with array arithmetic, which wraps silently as the hash
wants.  Each row's four 64-bit words are then seeded into one reused
``PCG64`` by NumPy's own seeding step, set through its public ``state``,
and the row is drawn by ``Generator.random``.  Every value equals NumPy's
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["STREAMS", "seeded_uniforms"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# Stream indices per prefix: an index is one 32-bit entropy word, so every
# row's entropy has the same length and only its last word varies.
STREAMS = 1 << 32

# SeedSequence's hash constants (NumPy's ``bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL = 4

# PCG64's 128-bit multiplier; one step is s -> s*M + inc (mod 2**128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list:
    """An entropy entry as SeedSequence reads it: little-endian 32-bit words,
    and one word for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _Hasher:
    """SeedSequence's ``hashmix`` with its running constant."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> _XSHIFT)


def _seed_state(prefix: tuple, indices: np.ndarray):
    """The four uint64 words of ``SeedSequence(prefix + (i,)).generate_state(4)``
    for every index i: the uint32 hash of NumPy's SeedSequence on arrays."""
    words = [np.full(indices.shape, w, dtype=np.uint32) for v in prefix for w in _words(v)]
    words.append(indices)
    zero = np.zeros(indices.shape, dtype=np.uint32)
    hashmix = _Hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _Hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[j % _POOL]).astype(np.uint64) for j in range(2 * _POOL)]
    return [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(_POOL)]


def seeded_uniforms(prefix: tuple, indices, n: int) -> np.ndarray:
    """The (len(indices), n) matrix whose row i holds
    ``Generator(PCG64(SeedSequence(prefix + (indices[i],)))).random(n)``.

    ``prefix`` holds nonnegative ints; every index must be below 2**32, one
    entropy word, else DomainError.
    """
    indices = np.asarray(indices)
    if indices.size and not (indices.min() >= 0 and indices.max() < STREAMS):
        raise DomainError(f"stream indices must lie in [0, 2**32), got {indices.min()} "
                          f"to {indices.max()}")
    indices = indices.astype(np.uint32)
    u = np.empty((indices.size, n))
    words = (w.tolist() for w in _seed_state(tuple(int(v) for v in prefix), indices))
    generator = np.random.Generator(np.random.PCG64(0))  # each row sets its state
    bit_generator = generator.bit_generator
    state = bit_generator.state
    for row, w0, w1, w2, w3 in zip(u, *words):
        # NumPy's seeding: the seed from words 0-1, the increment from words
        # 2-3, and two steps around adding the seed
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        state["state"] = {"state": ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128,
                          "inc": inc}
        bit_generator.state = state
        generator.random(out=row)
    return u
