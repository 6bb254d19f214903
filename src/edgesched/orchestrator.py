"""Round coordination: the Lyapunov scheduler, baseline policies, simulation.

One simulated round: sample the environment, let the active policy produce a
decision, validate and price it (delays and energies), evaluate the balance
bound, update the virtual queues once, and append everything to the trace.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

from .config import RoundEnvironment, SystemConfig, sample_round_environment
from .convergence import RunningGapBound, gamma_round_from_error, interference_error
from .decision import SchedulingDecision, validate_decision
from .errors import InfeasibleError, SimulationAborted
from .lyapunov import cluster_delays, drift_penalty_at, queue_update
from .pipeline import SegmentPlan
from .res_solver import _ranked_assignment, allocate_resources
from .rng import Generator, draw
from .seg_solver import optimal_micro_batches, schedule_segments

TRACE_SCHEMA_VERSION = 1

POLICIES = ("lyapunov", "random", "loss", "delay", "uniform")

_POLICY_SALT = {"random": 101, "loss": 102, "delay": 103, "uniform": 104}


def optimize_round(
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
) -> SchedulingDecision:
    """One round of the drift-plus-penalty scheduler, solved once at the round's queues.

    Each cluster's segments are scheduled at its full head power P_max, where
    the balance cap allows the most segments; the resource solver then
    matches channels and sets each power, no lower than the C11 floor of the
    cluster's chosen segment count, which P_max meets.
    """
    plans = tuple(
        schedule_segments(cfg, env, n, queues, v_factor, cl.uplink_power_max_w) for n, cl in enumerate(cfg.clusters)
    )
    assignment, powers = allocate_resources(cfg, env, queues, v_factor, tuple(p.n_segments for p in plans))
    return SchedulingDecision(plans=plans, assignment=assignment, powers_w=powers)


# ---------------------------------------------------------------------------
# Baseline policies
# ---------------------------------------------------------------------------


def _policy_rng(cfg: SystemConfig, policy: str, t: int) -> Generator:
    return Generator([cfg.rng_seed, _POLICY_SALT[policy], t])


def loss_proxy(cfg: SystemConfig, t: int, n: int) -> float:
    """Synthetic per-cluster training-loss stand-in: decaying plus seeded noise.

    The noise is numpy's ``default_rng([rng_seed, 991, t, n]).uniform(-1, 1)``,
    lo + (hi - lo) * u, drawn without numpy.
    """
    noise = cfg.loss_proxy_noise * (-1.0 + 2.0 * draw([cfg.rng_seed, 991, t, n], 1)[0])
    return cfg.loss_proxy_scale * math.exp(-t / cfg.loss_proxy_tau0) * (1.0 + noise)


def _capable_devices(cfg: SystemConfig, n: int) -> list[int]:
    cl = cfg.clusters[n]
    return [k for k, d in enumerate(cl.devices) if d.block_cap >= 1]


def uniform_partition(cfg: SystemConfig, n: int, device_ids: list[int] | None = None) -> tuple[int, ...]:
    """Spread the blocks as evenly as memory allows over the given devices."""
    cl = cfg.clusters[n]
    ids = device_ids if device_ids is not None else _capable_devices(cfg, n)
    if sum(cl.devices[k].block_cap for k in ids) < cfg.model.n_blocks:
        raise InfeasibleError("C7", f"cluster {n}: memory cannot host all blocks")
    delta = [0] * cl.n_devices
    rem = cfg.model.n_blocks
    for i, k in enumerate(ids):
        want = -(-rem // (len(ids) - i))
        delta[k] = min(want, cl.devices[k].block_cap)
        rem -= delta[k]
    i = 0
    while rem > 0:
        k = ids[i % len(ids)]
        if delta[k] < cl.devices[k].block_cap:
            delta[k] += 1
            rem -= 1
        i += 1
    return tuple(delta)


def _random_plan(cfg: SystemConfig, n: int, rng: Generator) -> SegmentPlan:
    cl = cfg.clusters[n]
    ids = _capable_devices(cfg, n)
    for _ in range(200):
        s = rng.integers(1, len(ids) + 1)
        chosen = rng.permutation(ids)[:s]
        if sum(cl.devices[k].block_cap for k in chosen) < cfg.model.n_blocks:
            continue
        delta = [0] * cl.n_devices
        rem = cfg.model.n_blocks
        for k in chosen:  # ensure every chosen device holds >= 1 block
            delta[k] = 1
            rem -= 1
        while rem > 0:
            k = chosen[rng.integers(0, len(chosen))]
            if delta[k] < cl.devices[k].block_cap:
                delta[k] += 1
                rem -= 1
        m = rng.integers(1, cfg.model.batch_items + 1)
        if s <= cfg.model.n_blocks:  # more chosen devices than blocks breaks conservation
            return SegmentPlan(delta=tuple(delta), m=m)
    # fall back to the deterministic uniform spread
    return SegmentPlan(delta=uniform_partition(cfg, n), m=1)


def baseline_decision(
    policy: str,
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    t: int,
    prev_round_delay: tuple[float, ...] | None,
) -> SchedulingDecision:
    """Non-optimizing reference policies.

    random: random cluster selection, channels, feasible partition, chunk
    count, and powers. loss: clusters ranked by the synthetic loss proxy
    (highest first) get channels; uniform spread, single chunk, full power.
    delay: same plans, clusters ranked by previous-round delay (fastest
    first; falls back to the random ranking on round one). uniform: fixed
    uniform spread, but chunk count and resources still optimized (the
    balance cap is not enforced for this ablation).
    """
    n_clusters = cfg.n_clusters
    if policy == "random":
        rng = _policy_rng(cfg, policy, t)
        order = rng.permutation(n_clusters)
        assignment = _ranked_assignment(cfg, order)
        plans = tuple(_random_plan(cfg, n, rng) for n in range(n_clusters))
        powers = tuple(
            rng.uniform(0.05, 1.0) * cfg.clusters[n].uplink_power_max_w
            if assignment.is_transmitting(n)
            else 0.0
            for n in range(n_clusters)
        )
        return SchedulingDecision(plans=plans, assignment=assignment, powers_w=powers)

    if policy in ("loss", "delay"):
        if policy == "loss":
            scores = [(-loss_proxy(cfg, t, n), n) for n in range(n_clusters)]
        elif prev_round_delay is None:  # _policy_rng(...)'s first N uniform(0, 1) draws
            scores = list(zip(draw([cfg.rng_seed, _POLICY_SALT[policy], t], n_clusters), range(n_clusters)))
        else:
            scores = [(prev_round_delay[n], n) for n in range(n_clusters)]
        order = [n for _, n in sorted(scores)]
        assignment = _ranked_assignment(cfg, order)
        plans = tuple(SegmentPlan(delta=uniform_partition(cfg, n), m=1) for n in range(n_clusters))
        powers = tuple(
            cfg.clusters[n].uplink_power_max_w if assignment.is_transmitting(n) else 0.0
            for n in range(n_clusters)
        )
        return SchedulingDecision(plans=plans, assignment=assignment, powers_w=powers)

    if policy == "uniform":
        deltas = [uniform_partition(cfg, n) for n in range(n_clusters)]
        plans = tuple(
            SegmentPlan(
                delta=deltas[n],
                m=optimal_micro_batches(deltas[n], cfg, env, n, cfg.convergence.v_factor, sum(queues)),
            )
            for n in range(n_clusters)
        )
        assignment, powers = allocate_resources(
            cfg,
            env,
            queues,
            cfg.convergence.v_factor,
            tuple(p.n_segments for p in plans),
            enforce_balance=False,
        )
        return SchedulingDecision(plans=plans, assignment=assignment, powers_w=powers)

    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


# ---------------------------------------------------------------------------
# Metrics and trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundMetrics:
    """Everything evaluated for one round; the trace record mirrors the fields."""

    round_index: int
    tau_pipe_s: tuple[float, ...]
    tau_up_s: tuple[float, ...]  # inf marks a cluster that skipped the upload
    tau_round_s: float
    e_pipe_j: tuple[float, ...]
    e_com_j: tuple[float, ...]
    e_sch_j: tuple[float, ...]
    gamma_t: float
    queue_after: tuple[float, ...]
    drift_penalty_value: float
    gap_bound: float | None
    n_segments: tuple[int, ...]
    micro_batches: tuple[int, ...]
    delta: tuple[tuple[int, ...], ...]
    power_w: tuple[float, ...]
    channel: tuple[int | None, ...]

    def to_record(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "t": self.round_index,
            "tau_pipe_s": list(self.tau_pipe_s),
            "tau_up_s": [None if math.isinf(x) else x for x in self.tau_up_s],
            "tau_round_s": self.tau_round_s,
            "e_pipe_j": list(self.e_pipe_j),
            "e_com_j": list(self.e_com_j),
            "e_sch_j": list(self.e_sch_j),
            "gamma_t": self.gamma_t,
            "queue_y": list(self.queue_after),
            "drift_penalty": self.drift_penalty_value,
            "gap_bound": self.gap_bound,
            "S": list(self.n_segments),
            "m": list(self.micro_batches),
            "delta": [list(d) for d in self.delta],
            "p_cu_w": list(self.power_w),
            "channel": list(self.channel),
        }


@dataclass
class TraceLog:
    """Per-round records of one simulation plus derived summary figures."""

    policy: str
    seed: int
    gamma_max: float
    rounds: list[RoundMetrics] = field(default_factory=list)

    def summary(self) -> dict:
        n = len(self.rounds)
        taus = [r.tau_round_s for r in self.rounds]
        gammas = [r.gamma_t for r in self.rounds]
        final_q = self.rounds[-1].queue_after if self.rounds else ()
        return {
            "policy": self.policy,
            "seed": self.seed,
            "rounds": n,
            "avg_tau_s": sum(taus) / n if n else 0.0,
            "cum_tau_s": sum(taus),
            "avg_gamma": sum(gammas) / n if n else 0.0,
            "gamma_max": self.gamma_max,
            "max_queue_over_t": max(final_q) / n if n and final_q else 0.0,
        }

    def write_jsonl(self, path: str) -> None:
        lines = [json.dumps(r.to_record(), sort_keys=True) for r in self.rounds]
        _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))

    def write_summary_csv(self, path: str) -> None:
        s = self.summary()
        rows = ["metric,value"] + [f"{k},{s[k]}" for k in sorted(s)]
        _atomic_write(path, "\n".join(rows) + "\n")


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def evaluate_round(
    decision: SchedulingDecision,
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    bound: RunningGapBound,
    costs: tuple[tuple[float, ...], ...],
) -> RoundMetrics:
    """Evaluate a validated decision and apply the single real queue update.

    ``costs`` holds the per-cluster delays and energies ``validate_decision``
    returns for the decision. The updated queues are the metrics' ``queue_after``.
    """
    n_clusters = cfg.n_clusters
    pipes, ups, e_com, e_pipe, e_sch = costs
    tau = max(cluster_delays(pipes, ups))
    s_max = max(plan.n_segments for plan in decision.plans)
    eps_max = max(
        interference_error(p, env.uplink_gain[n], env.uplink_interference_w[n], cfg.convergence.c_interference)
        for n, p in enumerate(decision.powers_w)
    )
    gamma_t = gamma_round_from_error(s_max, eps_max, cfg.convergence, n_clusters, cfg.model.n_blocks)
    dp = drift_penalty_at(tau, decision, queues, cfg.convergence.v_factor)
    gap = bound.observe(s_max, eps_max)
    return RoundMetrics(
        round_index=env.round_index,
        tau_pipe_s=pipes,
        tau_up_s=ups,
        tau_round_s=tau,
        e_pipe_j=e_pipe,
        e_com_j=e_com,
        e_sch_j=e_sch,
        gamma_t=gamma_t,
        queue_after=queue_update(queues, gamma_t, cfg.convergence.gamma_max),
        drift_penalty_value=dp,
        gap_bound=gap,
        n_segments=decision.segment_counts(),
        micro_batches=tuple(p.m for p in decision.plans),
        delta=tuple(p.delta for p in decision.plans),
        power_w=decision.powers_w,
        channel=decision.assignment.assigned,
    )


def run_simulation(cfg: SystemConfig, rounds: int, policy: str = "lyapunov") -> TraceLog:
    """Simulate T rounds of {sample, decide, evaluate, queue update}.

    Fully deterministic in (config, seed, policy, rounds). More than three
    consecutive infeasible rounds abort the run, and so does a run of at least
    one round that keeps none.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    trace = TraceLog(policy=policy, seed=cfg.rng_seed, gamma_max=cfg.convergence.gamma_max)
    queues: tuple[float, ...] = (0.0,) * cfg.n_clusters
    bound = RunningGapBound(cfg.convergence.f0_gap, cfg.convergence, cfg.n_clusters, cfg.model.n_blocks)
    prev_totals: tuple[float, ...] | None = None
    consecutive_failures = 0
    last_error: InfeasibleError | None = None
    for t in range(1, rounds + 1):
        env = sample_round_environment(cfg, t)
        try:
            if policy == "lyapunov":
                decision = optimize_round(cfg, env, queues, cfg.convergence.v_factor)
            else:
                decision = baseline_decision(policy, cfg, env, queues, t, prev_totals)
            costs = validate_decision(decision, cfg, env)
        except InfeasibleError as exc:
            last_error = exc
            consecutive_failures += 1
            if consecutive_failures > 3:
                raise SimulationAborted(
                    f"policy {policy!r} infeasible for {consecutive_failures} consecutive rounds "
                    f"(last at t={t}: {exc})"
                ) from exc
            continue
        consecutive_failures = 0
        metrics = evaluate_round(decision, cfg, env, queues, bound, costs)
        queues = metrics.queue_after
        prev_totals = cluster_delays(metrics.tau_pipe_s, metrics.tau_up_s)
        trace.rounds.append(metrics)
    if rounds and not trace.rounds:
        raise SimulationAborted(
            f"policy {policy!r} infeasible in all {rounds} rounds (last at t={rounds}: {last_error})"
        ) from last_error
    return trace
