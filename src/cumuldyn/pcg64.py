"""The PCG64 word stream of ``numpy.random.default_rng(seed)``, without numpy.random.

``default_rng(seed)`` hashes the seed with numpy's ``SeedSequence`` into
PCG64's 128-bit state and increment; each word then steps the 128-bit LCG
and takes its XSL-RR output (O'Neill, *PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation*, HMC-CS-2014-0905).  :func:`words` replays both, so that no
command loads numpy.random, which would cost a one-shot run about 11 ms and
5.6 MB on a 2-CPU x86-64 host (it loads OpenSSL through ``hashlib``).  The
tests check the words against numpy.random, word for word.

Words are made 1 024 at a time: numpy multiplies a table of jump-ahead
constants by the state before the block, in 128-bit lanes held as pairs of
uint64 words, and applies XSL-RR to every lane.  The table is built when
the module is imported.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Callable, Iterator

import numpy as np

__all__ = ["words"]

_BLOCK = 1024
_LOW32 = 0xFFFFFFFF
_LOW64 = (1 << 64) - 1
_LOW128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
# 128-bit ints, one per lane, as uint64 arrays of their low and high words.
_Lanes = tuple[np.ndarray, np.ndarray]


def _hasher(init: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's ``hashmix``, whose hash constant starts at ``init`` and steps by ``mult``."""
    constant = init

    def hashmix(value: int) -> int:
        nonlocal constant
        value ^= constant
        constant = constant * mult & _LOW32
        value = value * constant & _LOW32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two 32-bit words."""
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _LOW32
    return result ^ result >> 16


def _seeded_state(seed: int) -> tuple[int, int]:
    """The (state, increment) of ``PCG64(SeedSequence(seed))`` before its first word.

    The seed's 32-bit words, least significant first, are hashed into a
    pool of four; eight hashed pool words make the four 64-bit seed words
    w0..w3, from which PCG64 takes ``inc = (w2:w3) << 1 | 1`` and adds
    ``w0:w1`` to its state between two steps.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> shift & _LOW32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [hashmix(pool[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _LOW128
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _LOW128, inc


def _lanes(values: list[int]) -> _Lanes:
    """128-bit ints as lanes."""
    return (
        np.array([value & _LOW64 for value in values], np.uint64),
        np.array([value >> 64 for value in values], np.uint64),
    )


def _jump_table() -> tuple[_Lanes, _Lanes, int, int]:
    """PCG64's jump-ahead to each word of a block.

    ``k`` steps take a state ``s`` to ``M**k * s + G_k * inc`` (mod 2**128),
    where ``G_k = 1 + M + ... + M**(k-1)``.  Returns the lanes of ``M**k``
    and of ``G_k`` for k = 1.._BLOCK, then both for k = _BLOCK as ints.
    """
    mult, total = 1, 0
    mults, totals = [], []
    for _ in range(_BLOCK):
        mult, total = mult * _PCG_MULT & _LOW128, (total * _PCG_MULT + 1) & _LOW128
        mults.append(mult)
        totals.append(total)
    return _lanes(mults), _lanes(totals), mult, total


_MULTS, _TOTALS, _MULT_BLOCK, _TOTAL_BLOCK = _jump_table()


def _times(lanes: _Lanes, x: int) -> _Lanes:
    """``lanes * x`` mod 2**128, for 128-bit lanes and a 128-bit int ``x``.

    uint64 products wrap, so the high word of ``low * x_low`` is summed
    from products of 32-bit halves, none of which overflows (Warren,
    *Hacker's Delight*, 2nd ed., section 8-2).
    """
    low, high = lanes
    # numpy takes 0-d arrays as operands faster than Python ints.
    x0, x1, x_low, x_high = (
        np.array(part, np.uint64) for part in (x & _LOW32, x >> 32 & _LOW32, x & _LOW64, x >> 64)
    )
    low0, low1 = low & _LOW32, low >> 32
    middle = low1 * x0 + (low0 * x0 >> 32)
    inner = low0 * x1 + (middle & _LOW32)
    carry = low1 * x1 + (middle >> 32) + (inner >> 32)
    return low * x_low, carry + high * x_low + low * x_high


def _blocks(state: int, inc: int) -> Iterator[list[int]]:
    """PCG64's words after ``state``, _BLOCK at a time.

    Word k of a block is the XSL-RR output ``rotr64(hi ^ lo, state >> 122)``
    of the state k steps past the one before the block, ``M**k * state +
    G_k * inc``: one product of the jump table's lanes per block.
    """
    offset_low, offset_high = _times(_TOTALS, inc)
    step = _TOTAL_BLOCK * inc
    while True:
        product_low, product_high = _times(_MULTS, state)
        low = product_low + offset_low
        high = product_high + offset_high + (low < offset_low)
        word = low ^ high
        rotation = high >> 58
        yield ((word >> rotation) | (word << ((64 - rotation) & 63))).tolist()
        state = (state * _MULT_BLOCK + step) & _LOW128


def words(seed: int) -> Iterator[int]:
    """The output words of ``numpy.random.default_rng(seed)``'s PCG64, made in blocks.

    Raises ValueError for a negative or non-integer seed.
    """
    return chain.from_iterable(_blocks(*_seeded_state(seed)))
