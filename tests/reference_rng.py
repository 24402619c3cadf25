"""Validation oracles for the uniform stream and the generator: the
scalar xoshiro256** loop, one Python-int state update per output word,
and one candidate instance per `uniforms` call.  No generation path calls
these; the tests compare the lane generator in `quasieq.rng` and the
block loop in `quasieq.generator` against them."""

from __future__ import annotations

from array import array

import numpy as np

from quasieq.generator import _fields
from quasieq.oracles import AffineFractionalInstance
from quasieq.rng import UniformStream, splitmix64_next
from quasieq.sets import BoxSet

_MASK64 = (1 << 64) - 1


def seed_state(seed: int) -> tuple[int, int, int, int]:
    """The four xoshiro256** state words splitmix64 makes from seed."""
    state = int(seed) & _MASK64
    s = []
    for _ in range(4):
        state, word = splitmix64_next(state)
        s.append(word)
    return tuple(s)


def scalar_words(s: tuple[int, int, int, int], count: int):
    """(state after count steps, the count output words as uint64)."""
    s0, s1, s2, s3 = s
    words = array("Q")
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
    return (s0, s1, s2, s3), np.frombuffer(words, dtype=np.uint64)


class ScalarUniformStream:
    """The stream `quasieq.rng.UniformStream` must reproduce bit for bit."""

    def __init__(self, seed: int):
        self.state = seed_state(seed)

    def uniforms(self, count: int) -> np.ndarray:
        self.state, words = scalar_words(self.state, count)
        return (words >> 11) * 2.0**-53


def _draw_instance(stream: UniformStream, n: int, box: BoxSet):
    """One candidate from its own `uniforms` call: the block loop's reference."""
    return AffineFractionalInstance(*_fields(stream.uniforms(2 * n * n + 3 * n + 1), n), box)
