"""Uniform UE positions: NumPy's default generator, reproduced without its random module.

``uniform_positions`` returns, bit for bit, what NumPy's ``default_rng(seed).uniform``
returns: the PCG64 stream (O'Neill, *PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation*, HMC-CS-2014-0905, 2014)
seeded through NumPy's ``SeedSequence``, in plain integer and array arithmetic. So a
layout depends only on the seed, not on the installed numpy, and building one never
loads numpy's random module (its compiled generators and, through ``secrets``, OpenSSL).

PCG64 steps a 128-bit LCG, s' = M s + inc, and outputs each new state folded to 64
bits. n steps at once are one affine map, s -> M^n s + C_n, so the first block of
states comes from its first 64, stepped one at a time, by doubling, and every later
block is one such map of the first. Array states are (high, low) uint64 halves, which wrap silently; every 128-bit
scalar stays a Python int, as numpy integer scalars warn when they overflow.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .radio import chunk_rows

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 2549297995355413924 << 64 | 4865540595714422341  # the PCG64 LCG multiplier


def _seed_words(seed: int) -> list[int]:
    """The four uint64 words ``SeedSequence(seed).generate_state(4, np.uint64)``
    gives: the seed's 32-bit words, least significant first, hashed into a
    pool of four and drawn from it."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value, dst in product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(value))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _steps(n: int, inc: int) -> tuple[int, int]:
    """(M^n, C_n): n LCG steps take s to ``M^n s + C_n`` mod 2^128."""
    mult, add, a, c = 1, 0, _MULT, inc
    while n:
        if n & 1:
            mult, add = mult * a & _MASK128, (add * a + c) & _MASK128
        a, c = a * a & _MASK128, (c * a + c) & _MASK128
        n >>= 1
    return mult, add


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int) -> tuple[np.ndarray, np.ndarray]:
    """The states ``mult * s + add`` mod 2^128 of states s held as uint64 halves.

    The high 64 bits of ``lo`` times the low word of ``mult`` are summed from
    32-bit limb products, none of which overflows.
    """
    m_hi, m_lo, a_hi, a_lo = (np.uint64(v) for v in (mult >> 64, mult & _MASK64, add >> 64, add & _MASK64))
    m0, m1, x0, x1 = np.uint64(mult & _MASK32), np.uint64(mult >> 32 & _MASK32), lo & _MASK32, lo >> 32
    p00 = x0 * m0
    t = x1 * m0 + (p00 >> 32)
    w = (t & _MASK32) + x0 * m1
    high = x1 * m1 + (t >> 32) + (w >> 32) + lo * m_hi + hi * m_lo + a_hi
    low = lo * m_lo + a_lo
    high += low < a_lo
    return high, low


def uniform_positions(seed: int, width: float, height: float, count: int) -> np.ndarray:
    """``count`` >= 1 points uniform over [0, width] x [0, height], as a (count, 2) array.

    Bit for bit ``default_rng(seed).uniform((0.0, 0.0), (width, height), size=(count, 2))``
    for any int ``seed`` >= 0: draws fill the array in C order, x then y, each
    ``(r >> 11) * 2**-53`` of a 64-bit output r, scaled. They are made ``chunk_rows(2)``
    points at a time, straight into the result, so the working space stays O(block).
    """
    w0, w1, w2, w3 = _seed_words(int(seed))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = (((inc + (w0 << 64 | w1)) * _MULT + inc) * _MULT + inc) & _MASK128
    draws = 2 * count
    block = min(draws, 2 * chunk_rows(2))
    # the first 64 states one Python int step at a time: an array map costs as much as
    # about a hundred such steps on a short array, so doubling starts from 64 states
    states = [state]
    for _ in range(min(block, 64) - 1):
        states.append((states[-1] * _MULT + inc) & _MASK128)
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    lo = np.array([s & _MASK64 for s in states], dtype=np.uint64)
    while len(hi) < block:
        more_hi, more_lo = _affine(hi, lo, *_steps(len(hi), inc))
        hi, lo = np.concatenate([hi, more_hi])[:block], np.concatenate([lo, more_lo])[:block]
    out = np.empty((count, 2))
    flat, scale = out.reshape(-1), np.tile([width, height], block // 2)
    step, shift = _steps(block, inc), (1, 0)
    for start in range(0, draws, block):
        n = min(block, draws - start)
        high, low = _affine(hi[:n], lo[:n], *shift) if start else (hi[:n], lo[:n])  # the first: M^0 s + 0
        # XSL-RR: the two halves xor-folded, rotated right by the top six bits
        folded, turn = high ^ low, high >> 58
        bits = (folded >> turn | folded << (-turn & 63)) >> 11
        # below 2**53, so int64 converts it exactly, and faster than uint64
        np.multiply(bits.view(np.int64), 2.0**-53, out=flat[start : start + n])
        flat[start : start + n] *= scale[:n]
        shift = shift[0] * step[0] & _MASK128, (shift[1] * step[0] + step[1]) & _MASK128
    return out
