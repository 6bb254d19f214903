"""Virtual queues and the drift-plus-penalty objective.

The queue accumulates per-round excess of the balance bound over its cap; the
scheduler minimizes V*tau(t) + sum_n Y_n*(S_n + p_n) each round.
"""

from __future__ import annotations

from .comm import uplink_delay
from .config import RoundEnvironment, SystemConfig
from .decision import SchedulingDecision
from .pipeline import pipeline_latency


def queue_update(values: tuple[float, ...], gamma_t: float, gamma_max: float) -> tuple[float, ...]:
    """Y <- max(Y + gamma_t - gamma_max, 0), applied to every cluster queue.

    The balance bound is system-wide, so every queue receives the same
    increment.
    """
    return tuple(max(y + gamma_t - gamma_max, 0.0) for y in values)


def round_delay(decision: SchedulingDecision, cfg: SystemConfig, env: RoundEnvironment) -> float:
    """tau(t) = max over clusters of pipeline + upload delay.

    Clusters that skip the upload this round contribute pipeline latency only.
    """
    pipes = [pipeline_latency(decision.plans[n], cfg, env, n) for n in range(cfg.n_clusters)]
    total = []
    for n in range(cfg.n_clusters):
        if decision.assignment.is_transmitting(n):
            total.append(pipes[n] + uplink_delay(cfg, env, n, decision.assignment, decision.powers_w[n]))
        else:
            total.append(pipes[n])
    return max(total)


def drift_penalty(
    decision: SchedulingDecision,
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
) -> float:
    """Drift-plus-penalty objective V*tau(t) + sum_n Y_n*(S_n + p_n)."""
    penalty = sum(
        y * (plan.n_segments + p) for y, plan, p in zip(queues, decision.plans, decision.powers_w)
    )
    return v_factor * round_delay(decision, cfg, env) + penalty
