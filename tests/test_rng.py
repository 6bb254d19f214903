import random

import numpy as np
import pytest

from edgesched.rng import draw

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
