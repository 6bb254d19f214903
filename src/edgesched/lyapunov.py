"""Virtual queues and the drift-plus-penalty objective.

The queue accumulates per-round excess of the balance bound over its cap; the
scheduler minimizes V*tau(t) + sum_n Y_n*(S_n + p_n) each round. tau(t) is
the largest cluster delay, pipeline plus upload, where a cluster off the air
pays its pipeline only (``cluster_delays``).
"""

from __future__ import annotations

from typing import Sequence

from .comm import NOT_TRANSMITTING
from .config import RoundEnvironment, SystemConfig
from .decision import SchedulingDecision, validate_decision


def queue_update(values: tuple[float, ...], gamma_t: float, gamma_max: float) -> tuple[float, ...]:
    """Y <- max(Y + gamma_t - gamma_max, 0), applied to every cluster queue.

    The balance bound is system-wide, so every queue receives the same
    increment.
    """
    return tuple(max(y + gamma_t - gamma_max, 0.0) for y in values)


def cluster_delays(pipes: Sequence[float], ups: Sequence[float]) -> tuple[float, ...]:
    """Per-cluster pipeline plus upload delay; an upload of NOT_TRANSMITTING adds nothing."""
    return tuple(p if u == NOT_TRANSMITTING else p + u for p, u in zip(pipes, ups))


def round_delay(decision: SchedulingDecision, cfg: SystemConfig, env: RoundEnvironment) -> float:
    """tau(t) = max over clusters of pipeline + upload delay, as ``validate_decision`` prices them.

    Clusters that skip the upload this round contribute pipeline latency only.
    Raises what the validator raises on an infeasible decision.
    """
    return max(cluster_delays(*validate_decision(decision, cfg, env)[:2]))


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
