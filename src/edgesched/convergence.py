"""Contraction factor, interference error, balance bound, and the gap bound.

These evaluators are the analytical backbone of the scheduler: the per-round
balance bound couples segment count and uplink power into the virtual queue,
and the T-round optimality-gap bound is tracked as a running diagnostic. The
batch ``optimality_gap_bound`` is ``RunningGapBound`` observed round by round.
"""

from __future__ import annotations

import math
from typing import Sequence

from .config import ConvergenceParams


def interference_error(power_w: float, gain: float, interference_w: float, c: float) -> float:
    """Upload distortion term C / (p*h + I); decreasing and convex in p."""
    return c / (power_w * gain + interference_w)


def sigma(params: ConvergenceParams, n_segments: int, n_clusters: int, n_blocks: int) -> float:
    """Per-round contraction factor eta*xi - (beta*eta^2/2)*(1 + S^2/(N*L))."""
    s2 = n_segments**2 / (n_clusters * n_blocks)
    return params.eta * params.xi - 0.5 * params.beta * params.eta**2 * (1.0 + s2)


def sigma_positive_eta_threshold(params: ConvergenceParams, n_segments: int, n_clusters: int, n_blocks: int) -> float:
    """Largest learning rate with a positive contraction factor.

    sigma > 0 is a quadratic condition in eta; solving it gives
    eta < 2*xi / (beta * (1 + S^2/(N*L))).
    """
    return 2.0 * params.xi / (params.beta * (1.0 + n_segments**2 / (n_clusters * n_blocks)))


def gamma_round_from_error(
    n_segments: int, eps: float, params: ConvergenceParams, n_clusters: int, n_blocks: int
) -> float:
    """One-round balance bound (beta*eta^2/2N)(phi^2*S^2/L + eps + phi^2) at interference error eps."""
    phi2 = params.phi_bound**2
    return (
        params.beta
        * params.eta**2
        / (2.0 * n_clusters)
        * (phi2 * n_segments**2 / n_blocks + eps + phi2)
    )


def balance_power_threshold(
    params: ConvergenceParams, n_clusters: int, n_blocks: int, n_segments: int, gain: float, interference_w: float
) -> float:
    """Least uplink power p_S keeping the balance bound at most gamma_max at S segments.

    The bound stays at most gamma_max exactly when eps(p) is at most the error
    budget 2*N*gamma_max/(beta*eta^2) - phi^2*S^2/L - phi^2, so
    p_S = max(0, (C/budget - I)/h), or inf where the budget is at most 0.
    Every float operation here is monotone and the budget falls as S grows,
    so p_1 <= ... <= p_L, and the most segments the cap allows at power p is
    the number of thresholds at or below p.
    """
    return threshold_power(budget_share(params, n_clusters, n_blocks, n_segments), gain, interference_w)


def budget_share(params: ConvergenceParams, n_clusters: int, n_blocks: int, n_segments: int) -> float | None:
    """C/budget, the part of p_S the config fixes (the solvers keep it in ``solver_table``); None at budget <= 0."""
    phi2 = params.phi_bound**2
    budget = (
        2.0 * n_clusters * params.gamma_max / (params.beta * params.eta**2)
        - phi2 * n_segments**2 / n_blocks
        - phi2
    )
    return params.c_interference / budget if budget > 0.0 else None


def threshold_power(share: float | None, gain: float, interference_w: float) -> float:
    """p_S from its config part ``share`` (``budget_share``): max(0, (share - I)/h), inf at None."""
    return math.inf if share is None else max(0.0, (share - interference_w) / gain)


def optimality_gap_bound(
    segment_history: Sequence[int],
    error_history: Sequence[float],
    f0_gap: float,
    params: ConvergenceParams,
    n_clusters: int,
    n_blocks: int,
) -> float | None:
    """T-round optimality-gap bound, or None when any round fails to contract.

    bound = prod_t (1-2*sigma_t) * f0_gap
          + sum_t prod_{j>t} (1-sigma_j) * (beta*eta^2*phi^2/N)*(S_t^2/L + 1)
          + sum_t prod_{j>t} (1-sigma_j) * (eta/N)*eps_t

    The contraction factor must lie in (0, 1) every round; otherwise the bound
    is vacuous and None is returned. The value is that of a fresh
    ``RunningGapBound`` that observes the rounds in order.
    """
    if len(segment_history) == 0:
        raise ValueError("empty history")
    if len(segment_history) != len(error_history):
        raise ValueError("segment and error histories must have equal length")
    bound = RunningGapBound(f0_gap, params, n_clusters, n_blocks)
    for n_segments, eps in zip(segment_history, error_history):
        bound.observe(n_segments, eps)
    return bound.value


class RunningGapBound:
    """Incrementally maintained optimality-gap bound over an open-ended run.

    Each observed round multiplies the initial product by (1-2*sigma_t) and the
    accumulated sums by (1-sigma_t) before adding the round's own terms, which
    reproduces the suffix-product weighting without revisiting history. Once a
    round fails to contract the bound is vacuous for every later horizon.
    """

    def __init__(self, f0_gap: float, params: ConvergenceParams, n_clusters: int, n_blocks: int):
        self._params = params
        self._n = n_clusters
        self._blocks = n_blocks
        self._init_prod = f0_gap
        self._acc = 0.0
        self._divergent = False

    def observe(self, n_segments: int, eps: float) -> float | None:
        sg = sigma(self._params, n_segments, self._n, self._blocks)
        if self._divergent or not 0.0 < sg < 1.0:
            self._divergent = True
            return None
        p = self._params
        self._init_prod *= 1.0 - 2.0 * sg
        self._acc *= 1.0 - sg
        self._acc += p.beta * p.eta**2 * p.phi_bound**2 / self._n * (n_segments**2 / self._blocks + 1.0)
        self._acc += p.eta / self._n * eps
        return self._init_prod + self._acc

    @property
    def value(self) -> float | None:
        return None if self._divergent else self._init_prod + self._acc
