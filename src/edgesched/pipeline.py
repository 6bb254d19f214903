"""Cross-device pipeline latency/energy closed forms and an event-driven oracle.

The schedule model: the batch is cut into m chunks (micro-batches); each chunk
traverses the S scheduled stages in order; a stage processes one chunk at a
time and its occupancy per chunk is compute time plus the hop to the next
stage. The closed form prices this as (S+m-1) bottleneck slots minus the
bottleneck's hop (the final upload is not part of the pipeline). With a single
stage there is no hop at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Sequence

from .config import ClusterProfile, DeviceProfile, ModelSpec, RoundEnvironment, SystemConfig
from .errors import InfeasibleError


def micro_batch_size(batch_items: int, m: int) -> int:
    """Items per chunk: ceil(b/m). Requires 1 <= m <= b."""
    if m < 1:
        raise ValueError(f"micro-batch count must be >= 1, got {m}")
    if m > batch_items:
        raise ValueError(f"micro-batch count {m} exceeds batch size {batch_items}")
    return -(-batch_items // m)


@dataclass(frozen=True)
class SegmentPlan:
    """Block partition delta (one entry per device, zeros allowed) plus chunking."""

    delta: tuple[int, ...]
    m: int

    @cached_property
    def n_segments(self) -> int:
        return len(self.scheduled)

    @cached_property
    def scheduled(self) -> tuple[int, ...]:
        return tuple(k for k, d in enumerate(self.delta) if d > 0)

    def validate(self, cluster: ClusterProfile, model: ModelSpec) -> None:
        """Structural invariants: block conservation, chunk count, memory (C1, C7).
        The segment count needs no check: the length check gives S <= K, and
        conservation S >= 1 at L >= 1, which ``build_config`` guarantees; a hand-built
        L = 0 plan still fails C2 in ``validate_decision``, through the closed form."""
        if len(self.delta) != cluster.n_devices:
            raise InfeasibleError("C1", f"plan covers {len(self.delta)} devices, cluster has {cluster.n_devices}")
        if any(d < 0 or d != int(d) for d in self.delta):
            raise InfeasibleError("C1", f"block counts must be nonnegative integers, got {self.delta}")
        if sum(self.delta) != model.n_blocks:
            raise InfeasibleError("C1", f"blocks assigned {sum(self.delta)} != {model.n_blocks}")
        if not 1 <= self.m <= model.batch_items:
            raise InfeasibleError("C1", f"micro-batch count {self.m} outside [1, {model.batch_items}]")
        for k, (d, dev) in enumerate(zip(self.delta, cluster.devices)):
            if d > dev.block_cap:
                raise InfeasibleError("C7", f"device {k}: {d} blocks exceed its memory cap of {dev.block_cap}")


def chunk_work(micro_batch: int, model: ModelSpec) -> float:
    """FLOPs of one chunk through one block: b_hat*o_fwd + o_bwd."""
    return micro_batch * model.fwd_flops + model.bwd_flops


def stage_profile(
    delta: tuple[int, ...], m: int, cfg: SystemConfig, env: RoundEnvironment, n: int
) -> tuple[list[float], list[float]]:
    """Per-chunk compute and hop times of cluster n's scheduled devices, in order."""
    work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
    speeds, hop_s = env.speed[n], env.hop_s[n]
    times, hops = [], []
    for k, d in enumerate(delta):
        if d > 0:
            times.append(d * work / speeds[k])
            hops.append(hop_s[k])
    return times, hops


def pipeline_latency_from_times(stage_times: Sequence[float], hop_times: Sequence[float], m: int) -> float:
    """Closed form (S+m-1)*max(t_k + d_k) - d at the first bottleneck; S=1 has no hop. Only S = 0 (C2)
    is checked: callers build both lists together and bound m by ``micro_batch_size`` or the plan check."""
    s = len(stage_times)
    if s == 0:
        raise InfeasibleError("C2", "empty pipeline plan")
    if s == 1:
        return m * stage_times[0]
    occupancy = list(map(add, stage_times, hop_times))
    u = max(occupancy)
    return (s + m - 1) * u - hop_times[occupancy.index(u)]


def pipeline_latency(plan: SegmentPlan, cfg: SystemConfig, env: RoundEnvironment, n: int) -> float:
    """Closed-form pipeline latency of cluster n under the given plan."""
    times, hops = stage_profile(plan.delta, plan.m, cfg, env, n)
    return pipeline_latency_from_times(times, hops, plan.m)


def compute_energy(flops: float, dev: DeviceProfile, clock_hz: float) -> float:
    """Compute energy kappa * cycles * f^2 of ``flops`` FLOPs, cycles = flops/phi."""
    return dev.kappa * (flops / dev.flops_per_cycle) * clock_hz**2


#: Relative slack on the per-round energy budgets, C8 (head upload) and C9
#: (device): an energy of at most budget * (1 + ENERGY_BUDGET_SLACK) is within
#: budget, in the solvers and in ``decision.validate_decision`` alike.
ENERGY_BUDGET_SLACK = 1e-12


def device_energy(blocks: int, m: int, cfg: SystemConfig, env: RoundEnvironment, n: int, k: int) -> float:
    """Per-chunk energy of scheduled device k of cluster n: compute plus its hop.

    This is the per-device form the energy budgets bound; the reported
    training energy scales it with the chunk count.
    """
    work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
    return work_energy(blocks, work, cfg.clusters[n].devices[k], env.clock_hz[n][k], env.hop_s[n][k])


def work_energy(blocks: int, work: float, dev: DeviceProfile, clock_hz: float, hop_s: float) -> float:
    """``device_energy`` at chunk work ``work``, for callers that price many devices at one m."""
    return compute_energy(blocks * work, dev, clock_hz) + dev.d2d_power_w * hop_s


def event_sim_makespan(stage_times: Sequence[float], hop_times: Sequence[float], m: int) -> float:
    """Event-driven makespan oracle for the chunked pipeline.

    Simulates the occupancy recursion chunk by chunk: a chunk enters stage k
    when both the stage is free and the chunk has left stage k-1; occupancy is
    compute plus hop. Returns the instant the last chunk finishes computing at
    the last stage (its hop leaves the pipeline). Single-stage pipelines have
    no hops.
    """
    s = len(stage_times)
    if s == 0:
        raise ValueError("empty pipeline")
    if len(hop_times) != s:
        raise ValueError("stage_times and hop_times must have equal length")
    if m < 1:
        raise ValueError(f"chunk count must be >= 1, got {m}")
    if s == 1:
        return m * stage_times[0]
    occupancy = [t + d for t, d in zip(stage_times, hop_times)]
    free_at = [0.0] * s  # when each stage finishes its current chunk
    done = 0.0
    for _ in range(m):
        leave_prev = 0.0
        for k in range(s):
            start = max(free_at[k], leave_prev)
            end = start + occupancy[k]
            free_at[k] = end
            leave_prev = end
        done = free_at[s - 1] - hop_times[s - 1]
    return done
