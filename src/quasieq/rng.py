"""Reproducible uniform random stream: splitmix64 seeding + xoshiro256**.

The seed, an integer (not a bool) in [0, 2**64), is expanded into the
four xoshiro256** state words with splitmix64 (Blackman & Vigna, ACM
TOMS 47(4), 2021).  `uniforms` is the stream's only method; each
uniform in [0, 1) is the top 53 bits of one output word, so the stream
is bit-identical for equal seeds on any platform, and uniforms(3)
followed by uniforms(4) equals uniforms(7).

The state update is linear over GF(2), so the state 2**p steps ahead is
a fixed 256 x 256 bit matrix times the state (Haramoto et al., INFORMS
J. Computing 20(3), 2008), built once per process into one jump table
per power (`_jump_table`).  A request that the uniforms left over cannot
meet refills the shortfall, rounded up to whole lanes: L numpy uint64
lanes of 2**q steps, q chosen from the size so that the grid is near
square (q from 4 to 8), one numpy call per step over all lanes.  Lane 0
starts at the stream state, and lanes m .. 2m - 1 start one stacked
jump by m * 2**q steps after lanes 0 .. m - 1, so the starts take
ceil(log2 L) jumps.  Lane l makes the refill's words l * 2**q ..
(l + 1) * 2**q - 1, so any lane length gives the same uniforms.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import is_integer

_MASK64 = (1 << 64) - 1
_PIECE = 1 << 13  # words per piece of `_advance`'s scrambler
_CHUNK = 64  # states per stacked jump, to keep its gathers small


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _advance(s: np.ndarray, out: np.ndarray) -> None:
    """Advance every lane (column of the (4, lanes) uint64 state s) by
    steps xoshiro256** steps in place; the uniform made from the j-th
    output word of lane l goes to out[l, j] (float64, (lanes, steps))."""
    steps = out.shape[1]
    s0, s1, s2, s3 = s
    low, high, high_reversed = s[:2], s[2:], s[:1:-1]
    t = np.empty_like(s0)
    history = out.view(np.uint64)  # s1 before each step
    for j in range(steps):
        history[:, j] = s1
        np.left_shift(s1, 17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        low ^= high_reversed  # s0 ^= s3, s1 ^= s2
        s2 ^= t
        np.right_shift(s3, 19, out=t)
        s3 <<= 45
        s3 |= t  # rotl(s3, 45)
    # The ** scrambler and the float conversion, in pieces of about
    # _PIECE words so that their temporaries stay small: one unchunked
    # pass raises the benchmark's `large` peak memory by about 2%.
    rows = max(1, _PIECE // steps)
    for i in range(0, len(out), rows):
        w = history[i:i + rows]
        w *= 5
        t = w >> 57
        w <<= 7
        w |= t  # rotl(s1 * 5, 7)
        w *= 9
        w >>= 11
        out[i:i + rows] = w  # overlaps w, so numpy converts via a copy
        out[i:i + rows] *= 2.0**-53  # the top 53 bits as a uniform


@functools.cache
def _jump_table(p: int) -> np.ndarray:
    """(4, 64 * 16) uint64: column 16 k + v is the state 2**p steps after
    the state whose nibble k (bits 4k .. 4k + 3) is v and whose other bits
    are 0.

    The update is linear over GF(2), so the images of the 256 one-bit
    states determine every jump, and a state's jump is the XOR of the 64
    columns its nibbles pick.  Those images are made by one step for
    p = 0 and by the previous power's jump applied twice for p > 0."""
    units = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
    s = units.view(np.uint64)  # row i: the state with only bit i set
    if p == 0:
        s = s.T.copy()
        _advance(s, np.empty((256, 1)))  # the uniforms are not needed
    else:
        s = _jump(_jump(s, p - 1), p - 1).T
    bits = s.reshape(4, 64, 4)  # the images by word, nibble and bit
    table = np.zeros((4, 64, 16), dtype=np.uint64)
    for b in range(4):
        np.bitwise_xor(table[..., :1 << b], bits[..., b, None], out=table[..., 1 << b:2 << b])
    table = table.reshape(4, -1)
    table.flags.writeable = False
    return table


# row 256 k + v: the table columns of byte k's low and high nibbles when byte k is v
_k, _v = np.divmod(np.arange(32 * 256), 256)
_NIBBLE_COLUMNS = np.stack((32 * _k + (_v & 15), 32 * _k + 16 + (_v >> 4)), axis=-1)
_BYTE_ROWS = np.arange(0, 32 * 256, 256)


def _jump(states: np.ndarray, p: int) -> np.ndarray:
    """The (m, 4) or (4,) uint64 states 2**p steps after states.  The
    table is word-major so that the XOR runs along the contiguous last
    axis; along a middle axis it took about 10x as long."""
    columns = _NIBBLE_COLUMNS.take(_BYTE_ROWS + states.view(np.uint8), axis=0)
    words = _jump_table(p).take(columns.reshape(*states.shape[:-1], 64), axis=1)
    return np.bitwise_xor.reduce(words, axis=-1).T.copy()


class UniformStream:
    """xoshiro256** generator yielding uniforms in [0, 1)."""

    def __init__(self, seed: int):
        """A seed that is not an integer (a bool is not) raises TypeError,
        and one outside [0, 2**64), which would alias another, ValueError."""
        if not is_integer(seed):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        state = int(seed)
        if not 0 <= state <= _MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        s = []
        for _ in range(4):
            state, word = splitmix64_next(state)
            s.append(word)
        self._s = np.array(s, dtype=np.uint64)
        self._made = np.empty(0)  # uniforms made but not yet handed out

    def _refill(self, need: int) -> None:
        """Make need more uniforms, rounded up to whole lanes of 2**q steps,
        q = round(log2(need / 16) / 2) (halves up) held within 4 .. 8."""
        q = min(8, max(4, (need.bit_length() - 4) // 2))
        steps = 1 << q
        lanes = -(-need // steps)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        # lanes m .. 2m - 1 start 2**p = m * steps steps after lanes 0 .. m - 1
        m, p = 1, q
        while m < lanes:
            for i in range(m, min(2 * m, lanes), _CHUNK):
                j = min(i + _CHUNK, 2 * m, lanes)
                starts[i:j] = _jump(starts[i - m:j - m], p)
            m, p = 2 * m, p + 1
        s = starts.T.copy()
        kept = self._made.size
        made = np.empty(kept + lanes * steps)
        made[:kept] = self._made
        _advance(s, made[kept:].reshape(lanes, steps))
        self._s = s[:, -1].copy()  # the last lane ends where the stream resumes
        self._made = made

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniforms of the stream, as a float64 array.

        A count that is not an integer (a bool is not) raises TypeError;
        a negative count raises ValueError."""
        if not is_integer(count):
            raise TypeError(f"count must be an integer, got {count!r}")
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if count > self._made.size:
            self._refill(int(count) - self._made.size)
        u, self._made = self._made[:count], self._made[count:]
        return u
