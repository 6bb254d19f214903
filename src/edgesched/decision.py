"""Per-round scheduling decision, and the one pass that checks and prices it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .comm import NOT_TRANSMITTING, ChannelAssignment, uplink
from .config import RoundEnvironment, SystemConfig
from .errors import InfeasibleError, StalledLinkError
from .pipeline import ENERGY_BUDGET_SLACK, SegmentPlan, device_energy, pipeline_latency


@dataclass(frozen=True)
class SchedulingDecision:
    """One round's control: per-cluster plans, channel matching, head powers."""

    plans: tuple[SegmentPlan, ...]
    assignment: ChannelAssignment
    powers_w: tuple[float, ...]

    def segment_counts(self) -> tuple[int, ...]:
        return tuple(p.n_segments for p in self.plans)


def validate_decision(
    decision: SchedulingDecision, cfg: SystemConfig, env: RoundEnvironment
) -> tuple[tuple[float, ...], ...]:
    """Check an emitted decision against the constraints and price it, cluster by cluster.

    Covers block conservation, segment counts, matching structure, power
    boxes, memory, and the per-round energy budgets for heads and devices.
    Raises InfeasibleError naming the violated constraint, and
    StalledLinkError for a cluster on the air whose uplink rate is zero.
    Returns five per-cluster tuples: pipeline latency; upload delay, or
    NOT_TRANSMITTING off the air; upload energy (C8, 0 off the air);
    training energy, 2m * the sum of the scheduled devices' energies (C9);
    and hop energy, the sum of their D2D power times hop time.
    """
    n_clusters = cfg.n_clusters
    if len(decision.plans) != n_clusters or len(decision.powers_w) != n_clusters:
        raise InfeasibleError("C1", "decision does not cover every cluster")
    if decision.assignment.n_clusters != n_clusters or decision.assignment.n_channels != cfg.n_channels:
        raise InfeasibleError("C3", "assignment shape does not match the system")
    rows = []
    for n, plan in enumerate(decision.plans):
        cl = cfg.clusters[n]
        plan.validate(cl, cfg.model)  # C1, C7; C2 in pipeline_latency
        p = decision.powers_w[n]
        on_air = decision.assignment.is_transmitting(n)
        p_max = cl.uplink_power_max_w if on_air else 0.0  # {0} off the air
        if not 0.0 <= p <= p_max * (1 + 1e-12):
            raise InfeasibleError("C6", f"cluster {n} power {p} outside [0, {p_max}]")
        up, e_up = NOT_TRANSMITTING, 0.0
        if on_air:
            up, e_up = uplink(cfg, env, n).delay_and_energy(p)
            if math.isinf(up):
                raise StalledLinkError(f"stalled uplink: cluster {n} has zero rate at power {p}")
            if e_up > cl.uplink_energy_budget_j * (1 + ENERGY_BUDGET_SLACK):
                raise InfeasibleError("C8", f"cluster {n} upload energy {e_up} J exceeds budget")
        total = hop = 0.0
        for k in plan.scheduled:
            e_k = device_energy(plan.delta[k], plan.m, cfg, env, n, k)
            if e_k > cl.devices[k].energy_budget_j * (1 + ENERGY_BUDGET_SLACK):
                raise InfeasibleError("C9", f"cluster {n} device {k} energy {e_k} J exceeds budget")
            total += e_k
            hop += cl.devices[k].d2d_power_w * env.hop_s[n][k]
        rows.append((pipeline_latency(plan, cfg, env, n), up, e_up, 2 * plan.m * total, hop))
    return tuple(zip(*rows))
