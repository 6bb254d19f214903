import random

import numpy as np
import pytest

from edgesched.rng import Generator, draw

# one entry of each size class check_seed admits: 0, one word, two words, more
_ENTRY = (
    lambda r: 0,
    lambda r: r.randrange(1, 2**32),
    lambda r: r.randrange(2**32, 2**64),
    lambda r: r.randrange(2**64, 2**200),
)


def _entropies(seed: int, count: int):
    r = random.Random(seed)
    for i in range(count):
        # 2, 3 and 4 entries: sample_round_environment's [seed, t], the
        # policies' [seed, salt, t] and loss_proxy's [seed, 991, t, n]
        yield [r.choice(_ENTRY)(r) for _ in range(2 + i % 3)], r.randrange(61)


def test_draw_matches_numpy_bit_for_bit():
    cases = list(_entropies(2026, 2100))
    assert {len(e) for e, _ in cases} == {2, 3, 4}
    assert {k for _, k in cases} == set(range(61))
    for entropy, k in cases:
        assert draw(entropy, k) == np.random.default_rng(entropy).random(k).tolist(), (entropy, k)


def test_scaled_draw_is_numpy_uniform():
    # lo + (hi - lo) * u, as loss_proxy and sample_round_environment scale it
    r = random.Random(7)
    for entropy, _ in _entropies(11, 300):
        lo = r.uniform(-1e3, 1e3)
        hi = lo + r.choice([1e-9, 1.0, 2.0, 1e6])
        assert lo + (hi - lo) * draw(entropy, 1)[0] == np.random.default_rng(entropy).uniform(lo, hi)
        assert -1.0 + 2.0 * draw(entropy, 1)[0] == np.random.default_rng(entropy).uniform(-1.0, 1.0)


def test_draw_is_numpys_sequential_uniforms():
    # the delay policy's round-one ranking: N scalar uniform() calls are one random(N)
    for entropy, k in _entropies(5, 200):
        rng = np.random.default_rng(entropy)
        assert draw(entropy, k) == [float(rng.uniform()) for _ in range(k)]


def test_draw_rejects_negative_entropy():
    with pytest.raises(ValueError):
        draw([1, -1], 3)


# the spans integers() covers: one value (no draw), and Lemire's
# multiply-and-reject from 2 to 2^32, which keeps every raw draw at 2^32 and
# redraws about half of them at 2^31 + 1
_SPANS = (1, 2, 3, 7, 64, 1000, 2**31, 2**31 + 1, 2**32 - 1, 2**32)


def test_generator_matches_numpy_call_for_call():
    # the random policy's draws and draw()'s, interleaved so that each kind of
    # call meets the 32-bit buffer full and empty
    r = random.Random(31)
    entropies = [e for e, _ in _entropies(2031, 2100)]
    calls = {"integers": 0, "permutation(n)": 0, "permutation(list)": 0, "uniform": 0, "random": 0}
    for entropy in entropies:
        ours, theirs = Generator(entropy), np.random.default_rng(entropy)
        for _ in range(15):
            kind = r.choice(list(calls))
            calls[kind] += 1
            if kind == "integers":
                lo = r.randrange(-3, 4)
                hi = lo + r.choice(_SPANS)
                got, want = ours.integers(lo, hi), int(theirs.integers(lo, hi))
            elif kind == "permutation(n)":
                n = r.randrange(65)
                got, want = ours.permutation(n), theirs.permutation(n).tolist()
            elif kind == "permutation(list)":
                ids = r.sample(range(100), r.randrange(65))
                got, want = ours.permutation(ids), theirs.permutation(ids).tolist()
            elif kind == "uniform":
                got, want = ours.uniform(0.05, 1.0), float(theirs.uniform(0.05, 1.0))
            else:
                got, want = ours.random(), float(theirs.random())
            assert got == want and type(got) is type(want), (entropy, kind)
    assert min(calls.values()) > 5000


def _raw(entropy, k):
    """PCG64's first k 64-bit outputs from default_rng(entropy)'s state."""
    return [int(v) for v in np.random.PCG64(entropy).random_raw(k)]


def test_span_of_one_draws_nothing():
    for entropy, _ in _entropies(41, 200):
        raw = _raw(entropy, 2)
        rng = Generator(entropy)
        assert rng.integers(7, 8) == 7
        assert rng.integers(0, 2**32) == raw[0] & 0xFFFFFFFF
        assert rng.integers(-2, -1) == -2  # nor takes the buffered high half
        assert rng.integers(0, 2**32) == raw[0] >> 32
        assert rng.integers(0, 2**32) == raw[1] & 0xFFFFFFFF


def test_high_half_carries_from_integers_into_permutation():
    for entropy, _ in _entropies(43, 200):
        raw = _raw(entropy, 2)
        rng = Generator(entropy)
        assert rng.integers(0, 2**32) == raw[0] & 0xFFFFFFFF
        # permutation(2) draws one j in [0, 1], the low bit of the high half
        assert rng.permutation(2) == ([1, 0] if raw[0] >> 32 & 1 == 0 else [0, 1])
        assert rng.integers(0, 2**32) == raw[1] & 0xFFFFFFFF


def test_uniform_leaves_the_high_half_buffered():
    for entropy, _ in _entropies(47, 200):
        raw = _raw(entropy, 3)
        rng = Generator(entropy)
        assert rng.integers(0, 2**32) == raw[0] & 0xFFFFFFFF
        assert rng.uniform(0.0, 1.0) == (raw[1] >> 11) * 2.0**-53
        assert rng.integers(0, 2**32) == raw[0] >> 32
        assert rng.integers(0, 2**32) == raw[2] & 0xFFFFFFFF


def test_integers_rejects_spans_it_does_not_draw():
    rng = Generator([1, 2])
    for lo, hi in ((3, 3), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            rng.integers(lo, hi)
    with pytest.raises(ValueError):
        Generator([1, -1])
