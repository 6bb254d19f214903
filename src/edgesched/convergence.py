"""Contraction factor, interference error, balance bound, and the gap bound.

These evaluators are the analytical backbone of the scheduler: the per-round
balance bound couples segment count and uplink power into the virtual queue,
and the T-round optimality-gap bound is tracked as a running diagnostic.
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


def gamma_round(
    n_segments: int,
    power_w: float,
    gain: float,
    interference_w: float,
    params: ConvergenceParams,
    n_clusters: int,
    n_blocks: int,
) -> float:
    """One-round balance bound (beta*eta^2/2N)(phi^2*S^2/L + eps(p) + phi^2)."""
    if n_segments < 1:
        raise ValueError(f"segment count must be >= 1, got {n_segments}")
    if power_w < 0:
        raise ValueError(f"power must be >= 0, got {power_w}")
    eps = interference_error(power_w, gain, interference_w, params.c_interference)
    return gamma_round_from_error(n_segments, eps, params, n_clusters, n_blocks)


def gamma_round_from_error(
    n_segments: int, eps: float, params: ConvergenceParams, n_clusters: int, n_blocks: int
) -> float:
    """Balance bound with a precomputed interference error term."""
    phi2 = params.phi_bound**2
    return (
        params.beta
        * params.eta**2
        / (2.0 * n_clusters)
        * (phi2 * n_segments**2 / n_blocks + eps + phi2)
    )


def balance_error_budget(params: ConvergenceParams, n_clusters: int, n_blocks: int, n_segments: int) -> float:
    """Interference error the balance cap leaves at S segments.

    2*N*gamma_max/(beta*eta^2) - phi^2*S^2/L - phi^2: the bound stays at most
    gamma_max exactly when eps(p) is at most this budget.
    """
    phi2 = params.phi_bound**2
    return (
        2.0 * n_clusters * params.gamma_max / (params.beta * params.eta**2)
        - phi2 * n_segments**2 / n_blocks
        - phi2
    )


def max_segments_within_gamma(
    eps: float, params: ConvergenceParams, n_clusters: int, n_blocks: int
) -> int:
    """Largest S, at most L, keeping the balance bound at most gamma_max for a given eps.

    Returns 0 when no segment count qualifies (the bound cap is unreachable).
    """
    phi2 = params.phi_bound**2
    slack = balance_error_budget(params, n_clusters, n_blocks, 0) - eps
    if slack <= 0:
        return 0
    s2 = n_blocks * slack / phi2
    if s2 < 1.0:
        return 0
    # at most L: no plan has more segments than blocks, and floor(inf) raises
    return math.floor(min(math.sqrt(s2) * (1 + 1e-12), n_blocks))


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
    is vacuous and None is returned.
    """
    if len(segment_history) == 0:
        raise ValueError("empty history")
    if len(segment_history) != len(error_history):
        raise ValueError("segment and error histories must have equal length")
    t_rounds = len(segment_history)
    sigmas = [sigma(params, s, n_clusters, n_blocks) for s in segment_history]
    if any(not 0.0 < sg < 1.0 for sg in sigmas):
        return None

    # suffix products prod_{j=t+1}^{T-1} (1 - sigma_j)
    weights = [1.0] * t_rounds
    for t in range(t_rounds - 2, -1, -1):
        weights[t] = weights[t + 1] * (1.0 - sigmas[t + 1])

    init = f0_gap
    for sg in sigmas:
        init *= 1.0 - 2.0 * sg

    task_coeff = params.beta * params.eta**2 * params.phi_bound**2 / n_clusters
    interf_coeff = params.eta / n_clusters
    task = 0.0
    interf = 0.0
    for t in range(t_rounds):
        task += weights[t] * task_coeff * (segment_history[t] ** 2 / n_blocks + 1.0)
        interf += weights[t] * interf_coeff * error_history[t]
    return init + task + interf


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
