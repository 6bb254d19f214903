"""Host-speed reference loop and the rescaling of wall-clock timings by it.

The loop is fixed pure-Python work of the kind the scheduler does: float
math, small dicts and tuples, and small containers built and dropped. It
imports nothing from edgesched, so a change to the program cannot change the
yardstick. Timing it right before and right after each short batch of rounds
(``harness.RoundTimer``) and dividing the batch's timings by the mean of the
two cancels host speed drift that moves both by the same factor.
"""

from __future__ import annotations

import math
import time

REF_ITERATIONS = 20_000
# reference-loop time that rescaled figures are expressed at; about what the
# loop takes on one idle core of a 2-vCPU x86-64 container
NOMINAL_REF_MS = 15.0


def reference_ms() -> float:
    """Wall time of the reference loop, in milliseconds.

    Each step does a little float math on a small dict of tuples, then
    builds a small list holding a float, a tuple and a dict; every 257 steps
    the batch is dropped. A pure arithmetic loop slows down more than the
    scheduler when the host slows, and a pure allocation loop less; the mix
    tracks paper, encoder and contended rounds more closely than either.
    """
    table = {k: (float(k), float(k) + 0.5) for k in range(16)}
    batch: list = []
    x = 0.5
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        key = int(x * 7.0) & 15
        a, b = table[key]
        table[key] = (b, a + x * 1e-3)
        x = math.sqrt(abs(a - b) + 1.0) * 0.5 + x * 0.25 - int(x)
        batch.append([x, (i, key), {"a": a}])
        if len(batch) > 256:
            batch = []
    elapsed = time.perf_counter() - start
    if x != x:  # consume the result; the loop never produces NaN
        raise AssertionError("reference loop diverged")
    return elapsed * 1e3


def rescale(raw: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """A raw timing expressed at the nominal host speed: raw * nominal / measured,
    where measured is the mean of the reference times before and after it."""
    return raw * NOMINAL_REF_MS / ((ref_before_ms + ref_after_ms) / 2.0)
