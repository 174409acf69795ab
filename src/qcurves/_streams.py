"""Seeded uniform streams for many replicates at once.

Replicate ``i`` of a study cell or a bootstrap is drawn from the stream
``Generator(PCG64(SeedSequence(prefix + (i,))))``.  Building those three
objects costs more than drawing a short sample from them, so
:func:`seeded_uniforms` reproduces the same streams for a whole block of
replicates with array arithmetic: NumPy's SeedSequence hash (pool size 4)
gives each row's 128-bit PCG64 state and increment, and the state is
advanced by jump-ahead, K columns at a time.  Every value equals NumPy's
bit for bit.

Arithmetic on unsigned arrays wraps silently, which is what the hash and
the generator want; 128-bit values are (hi, lo) pairs of uint64 arrays.
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

# Columns per jump-ahead block.  After j steps from a state s, PCG64 is at
# A_j*s + G_j*inc, with A_j = M**j and G_j = 1 + M + ... + M**(j-1).  Seeding
# sets s = (inc + seed)*M + inc = A_1*seed + G_2*inc, and draw c reads the
# state c + 1 steps later, A_{c+2}*seed + G_{c+3}*inc; so the first block
# comes from each row's seed and inc, and each later block from the one
# before as A_K*s + G_K*inc.
_K = 64


def _split(values):
    """Python ints (mod 2**128) as (hi, lo) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))


def _jump_constants():
    powers, sums = [1], [0]
    for _ in range(_K + 2):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    return (_split(powers[2:_K + 2]), _split(sums[3:_K + 3]),
            _split(powers[_K:_K + 1]), _split(sums[_K:_K + 1]))


_FIRST_A, _FIRST_G, _BLOCK_A, _BLOCK_G = _jump_constants()


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


def _to_unit(hi, lo, out, scratch):
    """PCG64's XSL-RR output of states (hi, lo) as doubles in [0, 1), into ``out``."""
    x, rot, left = scratch[:3]
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, np.uint64(58), out=rot)
    np.subtract(np.uint64(64), rot, out=left)
    left &= np.uint64(63)
    np.left_shift(x, left, out=left)
    x >>= rot
    x |= left
    x >>= np.uint64(11)
    np.multiply(x, 2.0**-53, out=out)


def _jump(hi, lo, a_hi, a_lo, step_hi, step_lo, scratch):
    """(hi, lo) <- a*(hi, lo) + step (mod 2**128) in place; ``a`` and ``step``
    broadcast against ``hi``, and ``scratch`` holds four arrays like it."""
    m, s = np.uint64(_MASK32), np.uint64(32)
    b0, b1 = a_lo & m, a_lo >> s
    x0, x1, t, w = scratch
    hi *= a_lo
    np.multiply(lo, a_hi, out=w)
    hi += w
    # high half of lo*a_lo from 32-bit limbs x1:x0 and b1:b0: neither
    # t = x1*b0 + (x0*b0 >> 32) nor w = (t & m) + x0*b1 overflows, and the
    # high half is x1*b1 + (t >> 32) + (w >> 32)
    np.bitwise_and(lo, m, out=x0)
    np.right_shift(lo, s, out=x1)
    np.multiply(x0, b0, out=t)
    t >>= s
    np.multiply(x1, b0, out=w)
    t += w
    np.bitwise_and(t, m, out=w)
    x0 *= b1
    w += x0
    t >>= s
    w >>= s
    x1 *= b1
    hi += x1
    hi += t
    hi += w
    hi += step_hi
    lo *= a_lo
    lo += step_lo
    np.less(lo, step_lo, out=w)  # the carry out of the low half
    hi += w


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
    v0, v1, v2, v3 = _seed_state(tuple(int(v) for v in prefix), indices)
    one = np.uint64(1)
    # PCG64 takes the seed from words 0-1 and the increment from words 2-3
    inc = ((v2 << one) | (v3 >> np.uint64(63)), (v3 << one) | one)
    k = min(n, _K)
    hi, lo, *inc = (np.repeat(v[:, None], k, axis=1) for v in (v0, v1, *inc))
    scratch = [np.empty_like(hi) for _ in range(4)]
    zero = np.uint64(0)
    if n > k:  # the later blocks step by G_K*inc
        step = [v.copy() for v in inc]
        _jump(*step, *_BLOCK_G, zero, zero, scratch)
    _jump(*inc, *(v[:k] for v in _FIRST_G), zero, zero, scratch)  # G_{c+3}*inc
    _jump(hi, lo, *(v[:k] for v in _FIRST_A), *inc, scratch)
    for c0 in range(0, n, _K):
        w = min(_K, n - c0)
        if w < k:  # the last, narrower block
            hi, lo, *step = (v[:, :w] for v in (hi, lo, *step))
            scratch = [v[:, :w] for v in scratch]
        if c0:
            _jump(hi, lo, *_BLOCK_A, *step, scratch)
        _to_unit(hi, lo, u[:, c0:c0 + w], scratch)
    return u
