"""Reproducible uniform random stream: splitmix64 seeding + xoshiro256**.

The 64-bit seed is expanded into the four xoshiro256** state words with
splitmix64 (Blackman & Vigna, ACM TOMS 47(4), 2021).  `uniforms` is the
stream's only method; each uniform in [0, 1) is the top 53 bits of one
output word, so the stream is bit-identical for equal seeds on any
platform, and uniforms(3) followed by uniforms(4) equals uniforms(7).
"""

from __future__ import annotations

from array import array

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class UniformStream:
    """xoshiro256** generator yielding uniforms in [0, 1)."""

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        s = []
        for _ in range(4):
            state, word = splitmix64_next(state)
            s.append(word)
        self._s = tuple(s)

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniforms of the stream, as a float64 array."""
        s0, s1, s2, s3 = self._s
        words = array("Q")  # 8 bytes a word, not a Python int each
        append = words.append
        for _ in range(count):
            x = (s1 * 5) & _MASK64
            append((((x << 7) | (x >> 57)) * 9) & _MASK64)  # rotl(x, 7) * 9
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotl(s3, 45)
        self._s = (s0, s1, s2, s3)
        return (np.frombuffer(words, dtype=np.uint64) >> 11) * 2.0**-53
