"""Per-round scheduling decision and its feasibility validation."""

from __future__ import annotations

from dataclasses import dataclass

from .comm import ChannelAssignment, cu_transmit_energy
from .config import RoundEnvironment, SystemConfig
from .errors import InfeasibleError
from .pipeline import ENERGY_BUDGET_SLACK, SegmentPlan, device_energy


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
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Assert the structural and resource constraints of an emitted decision.

    Covers block conservation, segment counts, matching structure, power
    boxes, memory, and the per-round energy budgets for heads and devices.
    Raises InfeasibleError naming the violated constraint. Returns, for the
    evaluator, what the energy checks compute: each cluster's upload energy
    (C8), and each cluster's training energy 2m * sum of its scheduled
    devices' energies (C9), summed as ``pipeline_energy`` sums it.
    """
    n_clusters = cfg.n_clusters
    if len(decision.plans) != n_clusters or len(decision.powers_w) != n_clusters:
        raise InfeasibleError("C1", "decision does not cover every cluster")
    if decision.assignment.n_clusters != n_clusters or decision.assignment.n_channels != cfg.n_channels:
        raise InfeasibleError("C3", "assignment shape does not match the system")
    e_com = []
    e_pipe = []
    for n, plan in enumerate(decision.plans):
        plan.validate(cfg.clusters[n], cfg.model)  # C1, C2, C7
        p = decision.powers_w[n]
        p_max = cfg.clusters[n].uplink_power_max_w if decision.assignment.is_transmitting(n) else 0.0  # {0} off the air
        if not 0.0 <= p <= p_max * (1 + 1e-12):
            raise InfeasibleError("C6", f"cluster {n} power {p} outside [0, {p_max}]")
        e_up = cu_transmit_energy(cfg, env, n, decision.assignment, p)
        if e_up > cfg.clusters[n].uplink_energy_budget_j * (1 + ENERGY_BUDGET_SLACK):
            raise InfeasibleError("C8", f"cluster {n} upload energy {e_up} J exceeds budget")
        e_com.append(e_up)
        total = 0.0
        for k in plan.scheduled:
            e_k = device_energy(plan.delta[k], plan.m, cfg, env, n, k)
            if e_k > cfg.clusters[n].devices[k].energy_budget_j * (1 + ENERGY_BUDGET_SLACK):
                raise InfeasibleError("C9", f"cluster {n} device {k} energy {e_k} J exceeds budget")
            total += e_k
        e_pipe.append(2 * plan.m * total)
    return tuple(e_com), tuple(e_pipe)
