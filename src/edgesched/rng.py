"""numpy's ``default_rng(entropy)``, bit for bit, without numpy.

Every seeded draw the scheduler makes comes from numpy's default generator
seeded with a short list of integers. numpy turns the list into a state in
two steps, both ported here: ``SeedSequence`` (NEP 19) hashes the entropy's
32-bit words into a 4-word pool and expands the pool into four 64-bit words,
and ``PCG64`` (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014) takes its
128-bit LCG state and increment from them. ``Generator`` draws from that
state as numpy's ``random``, ``integers``, ``permutation`` and ``uniform``
do, and ``draw`` returns ``random(k)``: each double in [0, 1) is the top 53
bits of one XSL-RR output. Importing numpy costs more than a whole scheduled
run, so no policy loads it; only the oracles and the test tools do.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_MULT_A = 0x931E8875


def _hashes(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of a SeedSequence hash constant's first n hashes."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _M32)
    return tuple(zip(c, c[1:]))


# mix_entropy's first 16 hashes: one per pool word, then the 12 cross mixes,
# each with its (source, destination) pool words in numpy's order;
# generate_state's 8 hashes, each with the pool word it reads, cyclically
_FILL = _hashes(0x43B0D7E5, _MULT_A, 16)
_PAIRS = [(s, d) for s in range(4) for d in range(4) if s != d]
_CROSS = tuple((s, d, *h) for (s, d), h in zip(_PAIRS, _FILL[4:]))
_GENERATE = tuple((i & 3, *h) for i, h in enumerate(_hashes(0x8B51F9DD, 0x58F38DED, 8)))


def _seed(entropy: list[int]) -> tuple[int, int]:
    """PCG64's 128-bit (state, increment) after ``default_rng(entropy)``'s seeding."""
    words = []
    for e in entropy:
        if e < 0:
            raise ValueError(f"entropy entries must be >= 0, got {e}")
        words.append(e & _M32)
        e >>= 32
        while e:
            words.append(e & _M32)
            e >>= 32
    # SeedSequence.mix_entropy: hash a word (0 past the entropy) into each pool
    # word, mix the pool words into each other, then fold every word past the
    # pool into each pool word
    pool = []
    for w, (a, b) in zip(words + [0, 0, 0, 0], _FILL[:4]):
        v = (w ^ a) * b & _M32
        pool.append(v ^ v >> 16)
    for s, d, a, b in _CROSS:
        v = (pool[s] ^ a) * b & _M32
        r = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _M32
        pool[d] = r ^ r >> 16
    h = _FILL[-1][1]
    for w in words[4:]:
        for d in range(4):
            v = w ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            r = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[d] = r ^ r >> 16
    # SeedSequence.generate_state(4, uint64): 8 words read cyclically from the
    # pool, paired little-endian into the 128-bit seed and increment
    state = []
    for i, a, b in _GENERATE:
        v = (pool[i] ^ a) * b & _M32
        state.append(v ^ v >> 16)
    seed = state[0] << 64 | state[1] << 96 | state[2] | state[3] << 32
    inc = (state[4] << 65 | state[5] << 97 | state[6] << 1 | state[7] << 33 | 1) & _M128
    # pcg64 srandom: step from 0, add the seed, step again
    return ((inc + seed) * _PCG_MULT + inc) & _M128, inc


def _stream(x: int, inc: int):
    """PCG64's 64-bit outputs from 128-bit state x and increment inc: each
    steps the LCG, then applies XSL-RR to the new state."""
    while True:
        x = (x * _PCG_MULT + inc) & _M128
        # the output is z = hi ^ lo rotated right by the top 6 bits; z doubled
        # to 128 bits makes the rotation a shift
        z = (x >> 64 ^ x) & _M64
        yield (z << 64 | z) >> (x >> 122) & _M64


def draw(entropy: list[int], k: int) -> list[float]:
    """The k doubles of ``numpy.random.default_rng(entropy).random(k)``.

    Each entry of ``entropy`` is an int >= 0, split into little-endian 32-bit
    words (0 is one zero word). ``uniform(lo, hi)`` is ``lo + (hi - lo) * u``.
    Each double is ``Generator.random``'s: the top 53 bits of one output.
    """
    return [(v >> 11) * 2.0**-53 for _, v in zip(range(k), _stream(*_seed(entropy)))]


class Generator:
    """``numpy.random.default_rng(entropy)`` for ``random``, ``integers``, ``permutation`` and ``uniform``.

    Draws the same values as numpy's ``Generator`` from the same state, call
    for call, as Python ints and floats. The 32-bit draws share PCG64's
    buffer: a 64-bit output serves its low half first and keeps its high
    half for the next 32-bit draw, which ``uniform`` neither reads nor clears.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, entropy: list[int]) -> None:
        self._next64 = _stream(*_seed(entropy)).__next__
        self._half: int | None = None

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        v = self._next64()
        self._half = v >> 32
        return v & _M32

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), for spans hi - lo from 1 to 2^32.

        Lemire's multiply-and-reject ("Fast random integer generation in an
        interval", ACM TOMACS 2019) with numpy's threshold 2^32 mod span; a
        span of 1 draws nothing, and at a span of 2^32 the first draw is
        always kept, so it returns lo plus one raw 32-bit value.
        """
        span = hi - lo
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"integers spans 1 to 2**32 values, got [{lo}, {hi})")
        if span == 1:
            return lo
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return lo + (m >> 32)

    def permutation(self, x: int | list) -> list:
        """A shuffled ``range(x)``, or a shuffled copy of the list x.

        numpy's Fisher-Yates loop: for i from n - 1 down to 1, swap i with a
        j drawn from [0, i] by masking 32-bit draws to i's bit length and
        rejecting those above i.
        """
        out = list(range(x)) if isinstance(x, int) else list(x)
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def random(self) -> float:
        """A float in [0, 1): the top 53 bits of one 64-bit output, times 2^-53."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, a: float, b: float) -> float:
        """A float in [a, b): a + (b - a) * random()."""
        return a + (b - a) * self.random()
