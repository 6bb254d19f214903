"""Per-cluster segment scheduling: block partition and micro-batch count.

Minimizes the intra-cluster objective

    V * pipeline_latency(delta, m) + S * sum(queue values)

by alternating two exact coordinate solves: an integer micro-batch search
(convexity of the continuous relaxation plus the ceil(b/m) run structure) and
a branch-and-bound search over block compositions. Constraints: block
conservation, segment count at most the device count, per-device memory,
per-device round energy, and the balance-bound cap at the cluster's current
uplink power.
"""

from __future__ import annotations

import math

from .comm import device_d2d_delay
from .config import RoundEnvironment, SystemConfig
from .convergence import interference_error, max_segments_within_gamma
from .errors import InfeasibleError
from .pipeline import SegmentPlan, micro_batch_size, pipeline_latency_from_times

_REL_TOL = 1e-9
_MAX_ALTERNATIONS = 50


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
                "mem_cap": int(dev.mem_budget_bytes // dev.mem_per_block_bytes),
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


def continuous_micro_batch_opt(fwd_time: float, base_time: float, n_segments: int) -> float:
    """Stationary point sqrt((S-1)*A/B) of the relaxed (S+m-1)*(A/m + B).

    ``fwd_time`` is the bottleneck's full-batch forward time A and
    ``base_time`` its per-chunk residual B (backward compute plus hop).
    """
    if n_segments <= 1 or fwd_time <= 0:
        return 1.0
    if base_time <= 0:
        return math.inf
    return math.sqrt((n_segments - 1) * fwd_time / base_time)


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

    Candidates are the ceil(b/m) run starts (within a run the latency is
    strictly increasing in m, so run starts dominate), the floor/ceil of every
    scheduled device's continuous stationary point, and the endpoints. Ties
    take the smallest m. Raises when no m satisfies the energy budgets.
    """
    if not any(d > 0 for d in delta):
        raise InfeasibleError("C2", "no scheduled device")
    geo = _device_geometry(cfg, env, n)
    b = cfg.model.batch_items
    s = sum(1 for d in delta if d > 0)

    candidates = set(_micro_batch_run_starts(b))
    candidates.update((1, b))
    for k, d in enumerate(delta):
        if d == 0:
            continue
        fwd = d * b * cfg.model.fwd_flops / geo[k]["speed"]
        base = d * cfg.model.bwd_flops / geo[k]["speed"] + geo[k]["hop"]
        m_tilde = continuous_micro_batch_opt(fwd, base, s)
        if math.isfinite(m_tilde):
            candidates.add(max(1, min(b, math.floor(m_tilde))))
            candidates.add(max(1, min(b, math.ceil(m_tilde))))

    best_m = None
    best_obj = math.inf
    for m in sorted(candidates):
        if not 1 <= m <= b:
            continue
        if not _feasible_energy_at_m(delta, m, geo, cfg):
            continue
        obj = cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum)
        if obj < best_obj - 0.0:
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
) -> tuple[tuple[int, ...], int]:
    """Exact branch-and-bound argmin over integer block compositions at fixed m.

    Searches devices in index order with ascending block counts, so among
    equal-objective optima the first one found is the (smaller S, then
    lexicographically smallest delta) representative; strict-improvement
    replacement keeps it. Pruning uses remaining capacity, the segment cap
    from the balance bound, and a latency lower bound at the current
    bottleneck.
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
    block_time = [work / g["speed"] for g in geo]
    hops = [g["hop"] for g in geo]
    hop_ub = max(hops) if hops else 0.0

    suffix_cap = [0] * (n_dev + 1)
    suffix_max_cap = [0] * (n_dev + 1)
    for i in range(n_dev - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + caps[i]
        suffix_max_cap[i] = max(suffix_max_cap[i + 1], caps[i])

    best: dict = {"key": None, "delta": None, "s": None}
    delta = [0] * n_dev

    def objective(times: list[float], hop_list: list[float], s: int) -> float:
        return v_factor * pipeline_latency_from_times(times, hop_list, m) + s * queue_sum

    def dfs(i: int, rem: int, s_cur: int, u_max: float, times: list[float], hop_list: list[float]):
        if rem > suffix_cap[i]:
            return
        if i == n_dev:
            if rem != 0 or s_cur == 0:
                return
            obj = objective(times, hop_list, s_cur)
            key = (obj, s_cur, tuple(delta))
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["delta"] = tuple(delta)
                best["s"] = s_cur
            return
        # lower bound pruning on the latency of any completion
        if best["key"] is not None and s_cur >= 1:
            extra = 0 if rem == 0 else -(-rem // max(1, suffix_max_cap[i]))
            s_lb = s_cur + (extra if rem > 0 else 0)
            if s_lb > s_cap:
                return
            lat_lb = (s_lb + m - 1) * u_max - hop_ub if s_lb > 1 else m * max(0.0, u_max - hop_ub)
            if v_factor * max(lat_lb, 0.0) + s_lb * queue_sum > best["key"][0]:
                return
        hi = min(caps[i], rem)
        for d in range(0, hi + 1):
            if d > 0 and s_cur + 1 > s_cap:
                break
            delta[i] = d
            if d == 0:
                dfs(i + 1, rem, s_cur, u_max, times, hop_list)
            else:
                t = d * block_time[i]
                times.append(t)
                hop_list.append(hops[i])
                dfs(i + 1, rem - d, s_cur + 1, max(u_max, t + hops[i]), times, hop_list)
                times.pop()
                hop_list.pop()
            delta[i] = 0

    dfs(0, l_blocks, 0, 0.0, [], [])
    if best["delta"] is None:
        raise InfeasibleError("C1", f"cluster {n}: no feasible block composition")
    return best["delta"], best["s"]


def _spread_over(geo: list[dict], chosen: list[int], l_blocks: int) -> tuple[int, ...] | None:
    """Even spread of the blocks over the chosen devices, or None if caps forbid."""
    if sum(geo[k]["mem_cap"] for k in chosen) < l_blocks:
        return None
    delta = [0] * len(geo)
    rem = l_blocks
    for idx, k in enumerate(chosen):
        share = min(geo[k]["mem_cap"], -(-rem // (len(chosen) - idx)))
        delta[k] = share
        rem -= share
    k_iter = 0
    while rem > 0:  # distribute leftovers to devices with headroom
        k = chosen[k_iter % len(chosen)]
        if delta[k] < geo[k]["mem_cap"]:
            delta[k] += 1
            rem -= 1
        k_iter += 1
    return tuple(delta)


def _initial_partitions(cfg: SystemConfig, env: RoundEnvironment, n: int, s_cap: int) -> list[tuple[int, ...]]:
    """Alternation seeds: the single-segment plan and a balanced wide spread.

    The two extremes of the segment-count range; the alternation repairs and
    refines each, and the best converged plan wins. Seeding both ends avoids
    the single-chunk trap where splitting only pays at higher chunk counts.
    """
    geo = _device_geometry(cfg, env, n)
    l_blocks = cfg.model.n_blocks
    seeds: list[tuple[int, ...]] = []
    holders = [k for k, g in enumerate(geo) if g["mem_cap"] >= l_blocks]
    if holders:
        k = max(holders, key=lambda i: geo[i]["speed"])
        delta = [0] * len(geo)
        delta[k] = l_blocks
        seeds.append(tuple(delta))
    capable = sorted(
        (k for k, g in enumerate(geo) if g["mem_cap"] > 0), key=lambda i: -geo[i]["speed"]
    )
    wide = _spread_over(geo, capable[: max(1, min(len(capable), s_cap, l_blocks))], l_blocks)
    if wide is not None and wide not in seeds:
        seeds.append(wide)
    if not seeds:
        raise InfeasibleError("C7", f"cluster {n}: memory cannot host {l_blocks} blocks")
    return seeds


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
    """Alternating optimization over (partition, micro-batches) for cluster n.

    Alternates the two exact coordinate solves from both a single-segment and
    a wide balanced seed until the objective moves by less than 1e-9 relative
    (or 50 rounds per seed), and returns the best plan seen. The objective
    sequence within each alternation is nonincreasing because each coordinate
    solve is exact.
    """
    queue_sum = sum(queues)
    s_cap = _segment_cap(cfg, env, n, cu_power_w, enforce_balance)
    geo = _device_geometry(cfg, env, n)

    best_key = None
    best_plan = None

    def consider(d: tuple[int, ...], mm: int):
        nonlocal best_key, best_plan
        obj = cluster_objective(d, mm, cfg, env, n, v_factor, queue_sum)
        key = (obj, sum(1 for x in d if x > 0), d, mm)
        if best_key is None or key < best_key:
            best_key, best_plan = key, SegmentPlan(delta=d, m=mm)
        return obj

    feasible_seed = False
    for delta in _initial_partitions(cfg, env, n, s_cap):
        try:
            m = optimal_micro_batches(delta, cfg, env, n, v_factor, queue_sum)
        except InfeasibleError:
            continue
        feasible_seed = True
        if sum(1 for x in delta if x > 0) <= s_cap:
            prev = consider(delta, m)
        else:
            prev = math.inf
        for _ in range(_MAX_ALTERNATIONS):
            delta, _ = optimal_partition(m, cfg, env, n, v_factor, queue_sum, cu_power_w, enforce_balance)
            consider(delta, m)
            m = optimal_micro_batches(delta, cfg, env, n, v_factor, queue_sum)
            obj = consider(delta, m)
            if abs(obj - prev) < _REL_TOL * max(1.0, abs(prev)):
                break
            prev = obj

    if not feasible_seed:
        # no seed admits any chunk count: let the partition solver name the blocker
        delta, _ = optimal_partition(1, cfg, env, n, v_factor, queue_sum, cu_power_w, enforce_balance)
        m = optimal_micro_batches(delta, cfg, env, n, v_factor, queue_sum)
        consider(delta, m)

    assert best_plan is not None
    best_plan.validate(cfg.clusters[n], cfg.model)
    if not _feasible_energy_at_m(best_plan.delta, best_plan.m, geo, cfg):
        raise InfeasibleError("C9'", f"cluster {n}: converged plan violates an energy budget")
    return best_plan
