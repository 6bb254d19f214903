"""Virtual queues and the drift-plus-penalty objective.

The queue accumulates per-round excess of the balance bound over its cap; the
scheduler minimizes V*tau(t) + sum_n Y_n*(S_n + p_n) each round. tau(t) is
the largest cluster delay, pipeline plus upload, where a cluster off the air
pays its pipeline only (``cluster_delays``).
"""

from __future__ import annotations

from typing import Sequence

from .comm import NOT_TRANSMITTING, uplink_delay
from .config import RoundEnvironment, SystemConfig
from .decision import SchedulingDecision
from .pipeline import pipeline_latency


def queue_update(values: tuple[float, ...], gamma_t: float, gamma_max: float) -> tuple[float, ...]:
    """Y <- max(Y + gamma_t - gamma_max, 0), applied to every cluster queue.

    The balance bound is system-wide, so every queue receives the same
    increment.
    """
    return tuple(max(y + gamma_t - gamma_max, 0.0) for y in values)


def cluster_delays(pipes: Sequence[float], ups: Sequence[float]) -> tuple[float, ...]:
    """Per-cluster pipeline plus upload delay; an upload of NOT_TRANSMITTING adds nothing."""
    return tuple(p if u == NOT_TRANSMITTING else p + u for p, u in zip(pipes, ups))


def delay_terms(
    decision: SchedulingDecision, cfg: SystemConfig, env: RoundEnvironment, latency=None
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Each cluster's pipeline latency, and its uplink delay or NOT_TRANSMITTING.

    ``latency(plan, cfg, env, n)`` gives a plan's pipeline latency; a caller
    that keeps the latencies of plans it has seen passes its own. The default
    is ``pipeline_latency``.
    """
    latency = latency or pipeline_latency
    n_clusters = cfg.n_clusters
    pipes = tuple(latency(decision.plans[n], cfg, env, n) for n in range(n_clusters))
    ups = tuple(uplink_delay(cfg, env, n, decision.assignment, decision.powers_w[n]) for n in range(n_clusters))
    return pipes, ups


def round_delay(decision: SchedulingDecision, cfg: SystemConfig, env: RoundEnvironment, latency=None) -> float:
    """tau(t) = max over clusters of pipeline + upload delay.

    Clusters that skip the upload this round contribute pipeline latency only.
    ``latency`` is as in ``delay_terms``.
    """
    return max(cluster_delays(*delay_terms(decision, cfg, env, latency)))


def drift_penalty_at(tau: float, decision: SchedulingDecision, queues: tuple[float, ...], v_factor: float) -> float:
    """V*tau + sum_n Y_n*(S_n + p_n) for the decision's already evaluated round delay tau."""
    penalty = sum(
        y * (plan.n_segments + p) for y, plan, p in zip(queues, decision.plans, decision.powers_w)
    )
    return v_factor * tau + penalty


def drift_penalty(
    decision: SchedulingDecision,
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
) -> float:
    """Drift-plus-penalty objective V*tau(t) + sum_n Y_n*(S_n + p_n)."""
    return drift_penalty_at(round_delay(decision, cfg, env), decision, queues, v_factor)
