"""numpy's ``default_rng(entropy).random(k)``, bit for bit, without numpy.

Every seeded draw on the scheduling path is a short list of integers fed to
numpy's default generator. numpy turns the list into a state in two steps,
both ported here: ``SeedSequence`` (NEP 19) hashes the entropy's 32-bit words
into a 4-word pool and expands the pool into four 64-bit words, and
``PCG64`` (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014) takes its
128-bit LCG state and increment from them. Each double in [0, 1) is the top
53 bits of one XSL-RR output. Importing numpy costs more than a whole
scheduled run, so the run path draws here; the ``random`` policy, the oracles
and the tests use numpy's ``Generator``.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
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


def draw(entropy: list[int], k: int) -> list[float]:
    """The k doubles of ``numpy.random.default_rng(entropy).random(k)``.

    Each entry of ``entropy`` is an int >= 0, split into little-endian 32-bit
    words (0 is one zero word). ``uniform(lo, hi)`` is ``lo + (hi - lo) * u``.
    """
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
    # pcg64 srandom: step from 0, add the seed, step again. Each output is
    # z = hi ^ lo rotated right by the top 6 bits; z doubled to 128 bits makes
    # the rotation a shift, and 11 more bits leave the top 53
    x = ((inc + seed) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(k):
        x = (x * _PCG_MULT + inc) & _M128
        z = (x >> 64 ^ x) & _M64
        out.append(((z << 64 | z) >> (x >> 122) + 11 & _M53) * 2.0**-53)
    return out
