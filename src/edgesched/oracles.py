"""Brute-force reference solvers for tests and acceptance checks.

These deliberately re-derive every quantity inline (rates, latency, energy,
balance bound) instead of importing the production evaluators, so that a bug
in one path cannot hide in the other. They are exhaustive, guarded against
intractable sizes, and never called by the production scheduler. The
assignment and power-grid oracles load numpy, from the test extra, when
called; the module itself imports without it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .config import RoundEnvironment, SystemConfig
from .errors import OracleGuardError

if TYPE_CHECKING:
    import numpy as np

_SEG_GUARD = {"devices": 6, "blocks": 12, "batch": 64}
_PAIR_GUARD = {"devices": 64, "blocks": 128, "batch": 64}
_ASSIGN_GUARD = 6
_GRID_GUARD = 5_000_000


def _oracle_latency(times: list[float], hops: list[float], m: int) -> float:
    s = len(times)
    if s == 1:
        return m * times[0]
    u = [t + d for t, d in zip(times, hops)]
    j = max(range(s), key=lambda i: (u[i], -i))  # first index attaining the max
    return (s + m - 1) * u[j] - hops[j]


def _device_terms(cfg: SystemConfig, env: RoundEnvironment, n: int) -> tuple[list[float], ...]:
    """Per-device speed, hop time, hop energy, kappa*f^2/phi, memory cap and energy budget of cluster n."""
    cluster = cfg.clusters[n]
    model = cfg.model
    ln2 = math.log(2.0)
    n0 = cfg.noise_density_w_per_hz
    speeds, hops, hop_energy, kf2phi, mem_cap, e_budget = [], [], [], [], [], []
    for k, dev in enumerate(cluster.devices):
        speeds.append(dev.flops_per_cycle * env.clock_hz[n][k])
        sinr = dev.d2d_power_w * env.d2d_gain[n][k] / (
            env.d2d_interference_w[n] + cluster.d2d_bandwidth_hz * n0
        )
        rate = cluster.d2d_bandwidth_hz * math.log(1.0 + sinr) / ln2
        hop = (model.act_seg_bits + model.grad_seg_bits) / rate
        hops.append(hop)
        hop_energy.append(dev.d2d_power_w * hop)
        kf2phi.append(dev.kappa * env.clock_hz[n][k] ** 2 / dev.flops_per_cycle)
        mem_cap.append(int(dev.mem_budget_bytes // dev.mem_per_block_bytes))
        e_budget.append(dev.energy_budget_j)
    return speeds, hops, hop_energy, kf2phi, mem_cap, e_budget


def _allowed_segments(cfg: SystemConfig, env: RoundEnvironment, n: int, cu_power_w: float) -> set[int]:
    """C11: S segments need the head power at or above p_S = max(0, (C/budget(S) - I)/h)."""
    params = cfg.convergence
    phi2 = params.phi_bound**2
    gain, interference = env.uplink_gain[n], env.uplink_interference_w[n]
    allowed = set()
    for s in range(1, cfg.clusters[n].n_devices + 1):
        budget = (
            2.0 * cfg.n_clusters * params.gamma_max / (params.beta * params.eta**2)
            - phi2 * s**2 / cfg.model.n_blocks
            - phi2
        )
        if budget > 0.0 and cu_power_w >= max(0.0, (params.c_interference / budget - interference) / gain):
            allowed.add(s)
    return allowed


def brute_force_segment_plan(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    queues: tuple[float, ...],
    v_factor: float,
    cu_power_w: float,
) -> tuple[tuple[int, ...], int, int, float]:
    """Exhaustive (delta, S, m) optimum for one cluster.

    Returns (delta, n_segments, m, objective); ties resolved by smallest
    objective, then smallest S, then lexicographically smallest delta, then
    smallest m. Guarded to small instances.
    """
    model = cfg.model
    k_dev = cfg.clusters[n].n_devices
    if k_dev > _SEG_GUARD["devices"] or model.n_blocks > _SEG_GUARD["blocks"] or model.batch_items > _SEG_GUARD["batch"]:
        raise OracleGuardError(
            f"segment-plan oracle guard: need K<={_SEG_GUARD['devices']}, L<={_SEG_GUARD['blocks']}, "
            f"b<={_SEG_GUARD['batch']}"
        )
    speeds, hops, hop_energy, kf2phi, mem_cap, e_budget = _device_terms(cfg, env, n)
    allowed = _allowed_segments(cfg, env, n, cu_power_w)

    best: tuple | None = None

    def all_compositions(i: int, rem: int, current: list[int]):
        if i == k_dev:
            if rem == 0:
                yield tuple(current)
            return
        for d in range(0, min(mem_cap[i], rem) + 1):
            current.append(d)
            yield from all_compositions(i + 1, rem - d, current)
            current.pop()

    queue_sum = sum(queues)
    for delta in all_compositions(0, model.n_blocks, []):
        scheduled = [k for k, d in enumerate(delta) if d > 0]
        s = len(scheduled)
        if s not in allowed:
            continue
        for m in range(1, model.batch_items + 1):
            b_hat = -(-model.batch_items // m)
            work = b_hat * model.fwd_flops + model.bwd_flops
            ok = True
            for k in scheduled:
                if delta[k] * work * kf2phi[k] + hop_energy[k] > e_budget[k] * (1 + 1e-12):
                    ok = False
                    break
            if not ok:
                continue
            times = [delta[k] * work / speeds[k] for k in scheduled]
            hop_list = [hops[k] for k in scheduled]
            obj = v_factor * _oracle_latency(times, hop_list, m) + s * queue_sum
            key = (obj, s, delta, m)
            if best is None or key < best:
                best = key
    if best is None:
        raise OracleGuardError("segment-plan oracle: instance is infeasible")
    obj, s, delta, m = best
    return delta, s, m, obj


def _most_held(caps: list[int], skip: int) -> list[list[int]]:
    """most[i][t]: the most blocks t of the devices i, i+1, ..., ``skip`` left out, can hold (a DP, no sort)."""
    k_dev = len(caps)
    most = [[0] * (k_dev + 1) for _ in range(k_dev + 1)]
    for i in range(k_dev - 1, -1, -1):
        for t in range(1, k_dev + 1):
            take = most[i + 1][t - 1] + (0 if i == skip else caps[i])
            most[i][t] = max(most[i + 1][t], take)
    return most


def pair_scan_partition(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    m: int,
    v_factor: float,
    queue_sum: float,
    s_cap: int,
) -> tuple[tuple[int, ...], int, float] | None:
    """Exact (delta, S, objective) at micro-batch count m over plans of at most s_cap stages.

    Visits every first bottleneck (j, d), device j holding d blocks at
    occupancy u = d*work/speed_j + hop_j, and rebuilds the other devices'
    caps from scratch: the blocks that keep device k's occupancy below u
    (k < j) or at most u (k > j), within its memory and its energy budget.
    The fewest devices that hold the other L-d blocks come from ``_most_held``
    (d = L is the one-stage plan). Among the pairs at the least (objective,
    S), each one's smallest delta is built device by device, taking the
    fewest blocks that leave the rest a cover, and the least of those deltas
    is returned; ties are broken as ``brute_force_segment_plan`` breaks them.
    None when no plan exists. Polynomial, guarded to K <= 64 and L <= 128.
    """
    model = cfg.model
    k_dev, l_blocks = cfg.clusters[n].n_devices, model.n_blocks
    if k_dev > _PAIR_GUARD["devices"] or l_blocks > _PAIR_GUARD["blocks"]:
        raise OracleGuardError(f"pair-scan oracle guard: need K<={_PAIR_GUARD['devices']}, L<={_PAIR_GUARD['blocks']}")
    speeds, hops, hop_energy, kf2phi, mem_cap, e_budget = _device_terms(cfg, env, n)
    work = -(-model.batch_items // m) * model.fwd_flops + model.bwd_flops
    caps = []
    for k in range(k_dev):
        held = 0
        while held < min(mem_cap[k], l_blocks) and (held + 1) * work * kf2phi[k] + hop_energy[k] <= e_budget[k] * (1 + 1e-12):
            held += 1
        caps.append(held)

    def occupancy(k: int, d: int) -> float:
        return d * work / speeds[k] + hops[k]

    best_key, tied = None, []
    for j in range(k_dev):
        for d in range(1, caps[j] + 1):
            u = occupancy(j, d)
            under = [
                sum(1 for x in range(1, caps[k] + 1) if (occupancy(k, x) < u if k < j else occupancy(k, x) <= u))
                for k in range(k_dev)
            ]
            most = _most_held(under, j)
            s = 1 + next((t for t in range(k_dev + 1) if most[0][t] >= l_blocks - d), math.inf)
            if s > s_cap:
                continue
            obj = v_factor * (m * (d * work / speeds[j]) if s == 1 else (s + m - 1) * u - hops[j]) + s * queue_sum
            if best_key is None or (obj, s) < best_key:
                best_key, tied = (obj, s), []
            if (obj, s) == best_key:
                tied.append((j, d, under, most))
    if best_key is None:
        return None

    deltas = []
    for j, d, under, most in tied:
        delta, blocks, slots = [0] * k_dev, l_blocks - d, best_key[1] - 1
        delta[j] = d
        for i in range(k_dev):
            if i == j:
                continue
            # the fewest blocks on device i that leave the devices after it a cover in the slots left
            x = next(x for x in range(under[i] + 1) if slots - (x > 0) >= 0 and blocks - x <= most[i + 1][slots - (x > 0)])
            delta[i], blocks, slots = x, blocks - x, slots - (x > 0)
        deltas.append(tuple(delta))
    delta = min(deltas)
    scheduled = [k for k in range(k_dev) if delta[k]]
    times = [delta[k] * work / speeds[k] for k in scheduled]
    obj = v_factor * _oracle_latency(times, [hops[k] for k in scheduled], m) + len(scheduled) * queue_sum
    return delta, len(scheduled), obj


def pair_scan_segment_plan(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    queues: tuple[float, ...],
    v_factor: float,
    cu_power_w: float,
) -> tuple[tuple[int, ...], int, int, float]:
    """(delta, S, m, objective) of ``pair_scan_partition`` at every m in [1, b], at the C11 segment cap.

    Returns what ``brute_force_segment_plan`` returns, ties broken alike, on
    clusters of up to 64 devices, 128 blocks and a batch of 64.
    """
    if cfg.model.batch_items > _PAIR_GUARD["batch"]:
        raise OracleGuardError(f"pair-scan oracle guard: need b<={_PAIR_GUARD['batch']}")
    allowed = _allowed_segments(cfg, env, n, cu_power_w)
    s_cap = next(s for s in range(1, cfg.clusters[n].n_devices + 2) if s not in allowed) - 1
    best = None
    for m in range(1, cfg.model.batch_items + 1):
        found = pair_scan_partition(cfg, env, n, m, v_factor, sum(queues), s_cap)
        if found is not None:
            delta, s, obj = found
            if best is None or (obj, s, delta, m) < best:
                best = (obj, s, delta, m)
    if best is None:
        raise OracleGuardError("pair-scan oracle: instance is infeasible")
    obj, s, delta, m = best
    return delta, s, m, obj


def brute_force_assignment(cost: np.ndarray) -> tuple[tuple[int | None, ...], float]:
    """Exhaustive minimum-cost matching with virtual-channel exclusions.

    Exactly min(N, J) clusters are placed on distinct real channels; the rest
    sit out at zero cost. Candidates are ranked on their exact totals, so two
    assignments tie only when their costs sum to the same real number; ties
    break lexicographically, with excluded clusters ordered after any real
    channel. The returned total is the exact one rounded to a float.
    """
    import numpy as np

    cost = np.asarray(cost, dtype=float)
    n_clusters, n_channels = cost.shape
    if n_clusters > _ASSIGN_GUARD or n_channels > _ASSIGN_GUARD:
        raise OracleGuardError(f"assignment oracle guard: need N, J <= {_ASSIGN_GUARD}")
    n_tx = min(n_clusters, n_channels)
    best_key: tuple | None = None
    best_assigned: tuple[int | None, ...] | None = None
    best_total = math.inf
    for chosen in itertools.combinations(range(n_clusters), n_tx):
        for channels in itertools.permutations(range(n_channels), n_tx):
            picked = [float(cost[c, j]) for c, j in zip(chosen, channels)]
            total = math.fsum(picked)
            exact = sum(map(Fraction, picked)) if math.isfinite(total) else total
            assigned: list[int | None] = [None] * n_clusters
            for c, j in zip(chosen, channels):
                assigned[c] = j
            key = (exact, tuple(n_channels if a is None else a for a in assigned))
            if best_key is None or key < best_key:
                best_key = key
                best_assigned = tuple(assigned)
                best_total = total
    assert best_assigned is not None
    return best_assigned, best_total


def grid_search_power(
    bandwidth: float,
    gain: float,
    interference: float,
    noise_density: float,
    payload_bits: float,
    param_bits: float,
    p_max: float,
    e_max: float,
    y_n: float,
    v_factor: float,
    eps_cap: float,
    c_interference: float,
    points: int,
) -> tuple[float, float]:
    """Dense grid argmin of V*payload/(B*f(p)) + Y*p over feasible p.

    Feasibility uses the true nonlinear constraints: upload energy within
    budget and interference error within eps_cap. Returns (p, objective).
    """
    import numpy as np

    if not 2 <= points <= _GRID_GUARD:
        raise OracleGuardError(f"grid oracle guard: need 2 <= points <= {_GRID_GUARD}")
    p = np.linspace(0.0, p_max, points)
    noise_floor = interference + bandwidth * noise_density
    f = np.log2(1.0 + p * gain / noise_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        delay = payload_bits / (bandwidth * f)
        energy = p * param_bits / (bandwidth * f)
        eps = c_interference / (p * gain + interference)
        obj = v_factor * delay + y_n * p
    energy[p == 0.0] = 0.0
    feasible = (energy <= e_max * (1 + 1e-12)) & (eps <= eps_cap * (1 + 1e-12)) & np.isfinite(obj)
    if not feasible.any():
        raise OracleGuardError("grid oracle: no feasible power on the grid")
    idx = int(np.flatnonzero(feasible)[np.argmin(obj[feasible])])
    return float(p[idx]), float(obj[idx])
