"""Per-cluster segment scheduling: block partition and micro-batch count.

Minimizes the intra-cluster objective

    V * pipeline_latency(delta, m) + S * sum(queue values)

by an exact joint search: a branch-and-bound search over block compositions
at every micro-batch count that starts a constant-ceil(b/m) run. Within a run
the chunk size is fixed, so at any partition the latency grows with m and the
energy budgets bind alike; the joint optimum therefore lies at a run start.
Constraints: block conservation, segment count at most the device count,
per-device memory, per-device round energy, and the balance-bound cap at the
cluster's current uplink power.
"""

from __future__ import annotations

import math

from .comm import device_d2d_delay
from .config import RoundEnvironment, SystemConfig
from .convergence import interference_error, max_segments_within_gamma
from .errors import InfeasibleError
from .pipeline import SegmentPlan, micro_batch_size, pipeline_latency_from_times


def _device_geometry(cfg: SystemConfig, env: RoundEnvironment, n: int) -> list[dict]:
    """Round-resolved per-device coefficients: speed, hop time/energy, caps."""
    cluster = cfg.clusters[n]
    out = []
    for k, dev in enumerate(cluster.devices):
        speed = env.compute_speed(cluster, n, k)
        hop = device_d2d_delay(cfg, env, n, k)
        out.append(
            {
                "speed": speed,
                "hop": hop,
                "hop_energy": dev.d2d_power_w * hop,
                "kappa_f2_over_phi": dev.kappa * env.clock_hz[n][k] ** 2 / dev.flops_per_cycle,
                "mem_cap": dev.block_cap,
                "energy_budget": dev.energy_budget_j,
            }
        )
    return out


def _chunk_work(b_hat: int, cfg: SystemConfig) -> float:
    return b_hat * cfg.model.fwd_flops + cfg.model.bwd_flops


def cluster_objective(
    delta: tuple[int, ...],
    m: int,
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    v_factor: float,
    queue_sum: float,
) -> float:
    """V * pipeline latency + S * queue_sum for one cluster's plan."""
    geo = _device_geometry(cfg, env, n)
    b_hat = micro_batch_size(cfg.model.batch_items, m)
    work = _chunk_work(b_hat, cfg)
    times, hops = [], []
    for k, d in enumerate(delta):
        if d > 0:
            times.append(d * work / geo[k]["speed"])
            hops.append(geo[k]["hop"])
    latency = pipeline_latency_from_times(times, hops, m)
    s = len(times)
    return v_factor * latency + s * queue_sum


def _micro_batch_run_starts(batch_items: int) -> list[int]:
    """First m of every constant-ceil(b/m) run; the objective grows within a run."""
    starts = []
    m = 1
    while m <= batch_items:
        starts.append(m)
        v = -(-batch_items // m)
        if v == 1:
            break
        m = (batch_items - 1) // (v - 1) + 1
    return starts


def _feasible_energy_at_m(delta: tuple[int, ...], m: int, geo: list[dict], cfg: SystemConfig) -> bool:
    b_hat = micro_batch_size(cfg.model.batch_items, m)
    work = _chunk_work(b_hat, cfg)
    for k, d in enumerate(delta):
        if d == 0:
            continue
        e = d * work * geo[k]["kappa_f2_over_phi"] + geo[k]["hop_energy"]
        if e > geo[k]["energy_budget"] * (1 + 1e-12):
            return False
    return True


def optimal_micro_batches(
    delta: tuple[int, ...],
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    v_factor: float,
    queue_sum: float,
) -> int:
    """Exact integer argmin over m in [1, b] at a fixed partition.

    Only the ceil(b/m) run starts are candidates: within a run the latency is
    strictly increasing in m and energy feasibility does not change, so run
    starts dominate. Ties take the smallest m. Raises when no m satisfies the
    energy budgets.
    """
    if not any(d > 0 for d in delta):
        raise InfeasibleError("C2", "no scheduled device")
    geo = _device_geometry(cfg, env, n)
    best_m = None
    best_obj = math.inf
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        if not _feasible_energy_at_m(delta, m, geo, cfg):
            continue
        obj = cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum)
        if obj < best_obj:
            best_obj, best_m = obj, m
    if best_m is None:
        raise InfeasibleError("C9'", f"cluster {n}: no micro-batch count satisfies the device energy budgets")
    return best_m


def _partition_caps(m: int, geo: list[dict], cfg: SystemConfig) -> list[int]:
    """Per-device block caps from memory and the round energy budget at this m."""
    b_hat = micro_batch_size(cfg.model.batch_items, m)
    work = _chunk_work(b_hat, cfg)
    caps = []
    for g in geo:
        cap = min(g["mem_cap"], cfg.model.n_blocks)
        headroom = g["energy_budget"] - g["hop_energy"]
        if headroom < 0:
            cap = 0
        else:
            per_block = work * g["kappa_f2_over_phi"]
            if per_block > 0:
                cap = min(cap, int(headroom / per_block * (1 + 1e-12)))
        caps.append(cap)
    return caps


def optimal_partition(
    m: int,
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    v_factor: float,
    queue_sum: float,
    cu_power_w: float,
    enforce_balance: bool = True,
    *,
    cutoff: float = math.inf,
) -> tuple[tuple[int, ...], int] | None:
    """Exact branch-and-bound argmin over integer block compositions at fixed m.

    Searches devices in index order with ascending block counts, so among
    equal-objective optima the first one found is the (smaller S, then
    lexicographically smallest delta) representative; strict-improvement
    replacement keeps it. Pruning uses remaining capacity, the segment cap
    from the balance bound, and a latency lower bound from the current
    bottleneck and from spreading the remaining blocks over the remaining
    devices at their summed speed.

    Plans whose objective exceeds ``cutoff`` are pruned (ties survive); when
    no plan reaches a finite cutoff the result is None. At the default cutoff
    an instance without a feasible composition raises instead.
    """
    geo = _device_geometry(cfg, env, n)
    n_dev = len(geo)
    l_blocks = cfg.model.n_blocks
    caps = _partition_caps(m, geo, cfg)

    s_cap = _segment_cap(cfg, env, n, cu_power_w, enforce_balance)

    # feasibility of the cap set as a whole
    sorted_caps = sorted(caps, reverse=True)
    if sum(sorted_caps) < l_blocks:
        mem_only = sum(min(g["mem_cap"], l_blocks) for g in geo)
        raise InfeasibleError("C7" if mem_only < l_blocks else "C9'", f"cluster {n}: device caps cannot host {l_blocks} blocks")
    need = 0
    acc = 0
    for c in sorted_caps:
        if acc >= l_blocks:
            break
        acc += c
        need += 1
    if need > s_cap:
        raise InfeasibleError("C11" if s_cap < n_dev else "C2", f"cluster {n}: {need} segments needed, at most {s_cap} allowed")

    b_hat = micro_batch_size(cfg.model.batch_items, m)
    work = _chunk_work(b_hat, cfg)
    speeds = [g["speed"] for g in geo]
    hops = [g["hop"] for g in geo]
    hop_ub = max(hops) if hops else 0.0

    # suffix aggregates over the devices i.. that can take a block
    suffix_cap = [0] * (n_dev + 1)
    suffix_max_cap = [0] * (n_dev + 1)
    suffix_speed = [0.0] * (n_dev + 1)
    suffix_min_hop = [math.inf] * (n_dev + 1)
    for i in range(n_dev - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + caps[i]
        suffix_max_cap[i] = max(suffix_max_cap[i + 1], caps[i])
        suffix_speed[i] = suffix_speed[i + 1] + (speeds[i] if caps[i] > 0 else 0.0)
        suffix_min_hop[i] = min(suffix_min_hop[i + 1], hops[i]) if caps[i] > 0 else suffix_min_hop[i + 1]

    best: dict = {"key": None, "bound": cutoff}
    delta = [0] * n_dev

    def dfs(i: int, rem: int, s_cur: int, u_max: float, times: list[float], hop_list: list[float]):
        if rem > suffix_cap[i]:
            return
        if i == n_dev:
            if rem != 0 or s_cur == 0:
                return
            obj = v_factor * pipeline_latency_from_times(times, hop_list, m) + s_cur * queue_sum
            if obj > best["bound"]:
                return
            key = (obj, s_cur, tuple(delta))
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["bound"] = obj
            return
        # lower bound on the objective of any completion
        s_lb, u_lb = s_cur, u_max
        if rem > 0:
            s_lb += -(-rem // suffix_max_cap[i])
            u_lb = max(u_lb, (rem * work / suffix_speed[i] + suffix_min_hop[i]) * (1 - 1e-12))
        if s_lb > s_cap:
            return
        lat_lb = (s_lb + m - 1) * u_lb - hop_ub if s_lb > 1 else m * max(0.0, u_lb - hop_ub)
        if v_factor * max(lat_lb, 0.0) + s_lb * queue_sum > best["bound"]:
            return
        hi = min(caps[i], rem)
        for d in range(0, hi + 1):
            if d > 0 and s_cur + 1 > s_cap:
                break
            delta[i] = d
            if d == 0:
                dfs(i + 1, rem, s_cur, u_max, times, hop_list)
            else:
                t = d * work / speeds[i]
                times.append(t)
                hop_list.append(hops[i])
                dfs(i + 1, rem - d, s_cur + 1, max(u_max, t + hops[i]), times, hop_list)
                times.pop()
                hop_list.pop()
            delta[i] = 0

    dfs(0, l_blocks, 0, 0.0, [], [])
    if best["key"] is None:
        if math.isinf(cutoff):
            raise InfeasibleError("C1", f"cluster {n}: no feasible block composition")
        return None
    _, s, found = best["key"]
    return found, s


def _segment_cap(
    cfg: SystemConfig, env: RoundEnvironment, n: int, cu_power_w: float, enforce_balance: bool
) -> int:
    if not enforce_balance:
        return cfg.clusters[n].n_devices
    eps = interference_error(
        cu_power_w, env.uplink_gain[n], env.uplink_interference_w[n], cfg.convergence.c_interference
    )
    s_gamma = max_segments_within_gamma(eps, cfg.convergence, cfg.n_clusters, cfg.model.n_blocks)
    if s_gamma == 0:
        raise InfeasibleError("C11", f"cluster {n}: balance cap unreachable at power {cu_power_w}")
    return min(cfg.clusters[n].n_devices, s_gamma)


def schedule_segments(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    queues: tuple[float, ...],
    v_factor: float,
    cu_power_w: float,
    enforce_balance: bool = True,
) -> SegmentPlan:
    """Exact joint argmin over (partition, micro-batches) for cluster n.

    Runs the partition search at every ceil(b/m) run start in ascending m,
    passing the best objective so far as its cutoff, and keeps the least
    (objective, S, delta, m), the oracle's tie-break. When every m is
    infeasible, the error raised at m = 1 names the blocker.
    """
    queue_sum = sum(queues)
    best_key = None
    first_error = None
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        cutoff = math.inf if best_key is None else best_key[0]
        try:
            found = optimal_partition(
                m, cfg, env, n, v_factor, queue_sum, cu_power_w, enforce_balance, cutoff=cutoff
            )
        except InfeasibleError as exc:
            first_error = first_error or exc
            continue
        if found is None:
            continue
        delta, s = found
        key = (cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum), s, delta, m)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        raise first_error

    best_plan = SegmentPlan(delta=best_key[2], m=best_key[3])
    best_plan.validate(cfg.clusters[n], cfg.model)
    if not _feasible_energy_at_m(best_plan.delta, best_plan.m, _device_geometry(cfg, env, n), cfg):
        raise InfeasibleError("C9'", f"cluster {n}: joint optimum violates an energy budget")
    return best_plan
