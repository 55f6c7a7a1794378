"""Deterministic splitmix64 stream, reproducible across platforms.

A splitmix64 output is a pure function of a counter (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014), and in
Python the cost of a draw is the arithmetic on 64-bit big ints, a few
hundred nanoseconds, not the call.  `SplitMix64.below` is the scalar step;
`_words` computes `_CHUNK` consecutive outputs at once, each in its own
128-bit lane of one int, so a chunk costs a dozen big-int operations and
the sampler reads its draws from the same stream at C speed.
"""

import sys
from array import array
from itertools import chain, count

_MASK = (1 << 64) - 1


class SplitMix64:
    """The standard splitmix64 generator (Steele/Lea/Flood constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        return self.below(1 << 64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); n >= 1.  One splitmix64 step, inline."""
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % n


# -- lanes ---------------------------------------------------------------------
# Lane i of an int is its bits [128 i, 128 i + 128).  A lane holds a 64-bit
# value with 64 bits of headroom: a counter add carries at most one bit and
# a product of two 64-bit values fits, so no lane spills into the next, and
# what a right shift pulls down from lane i + 1 lands above bit 64 of lane
# i, where the mask clears it.

_CHUNK = 256
_LANE = 128
_GAMMA = 0x9E3779B97F4A7C15
_NBYTES = _CHUNK * _LANE // 8


def _lanes(values) -> int:
    """The int whose lane i holds values[i]."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE // 8, "little") for v in values), "little")


_ONES = _lanes([1] * _CHUNK)
_LOW = _lanes([_MASK] * _CHUNK)  # the low 64 bits of every lane
_STEPS = _lanes([(i + 1) * _GAMMA & _MASK for i in range(_CHUNK)])


def _chunk(counter: int) -> array:
    """The `_CHUNK` outputs that follow splitmix64 counter `counter`."""
    z = ((counter & _MASK) * _ONES + _STEPS) & _LOW
    z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
    z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
    z = (z ^ (z >> 31)) & _LOW
    words = array("Q", z.to_bytes(_NBYTES, "little"))[::2]  # the low word of each lane
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _words(seed: int):
    """An iterator over the outputs of `SplitMix64(seed).next_u64()`, in
    order.  It computes a chunk when the last one is used up and holds no
    other."""
    return chain.from_iterable(map(_chunk, count(seed & _MASK, _CHUNK * _GAMMA)))
