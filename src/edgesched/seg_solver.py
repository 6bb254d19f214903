"""Per-cluster segment scheduling: block partition and micro-batch count.

Minimizes the intra-cluster objective

    V * pipeline_latency(delta, m) + S * sum(queue values)

by an exact joint search: an exact partition solve at every micro-batch count
that starts a constant-ceil(b/m) run. Within a run the chunk size is fixed, so
at any partition the latency grows with m and the energy budgets bind alike;
the joint optimum therefore lies at a run start. Constraints: block
conservation, segment count at most the device count, per-device memory,
per-device round energy, and the balance-bound cap at the cluster's current
uplink power. Device speeds and hop times are the round's, read from the
``RoundEnvironment``; memory caps and energy budgets come from the config.
Every plan is scored by ``cluster_objective`` and every energy budget is
checked with ``pipeline.device_energy``.

Blocks are identical in cost, so at a fixed m a plan's objective depends only
on its segment count S and its first bottleneck, a device j holding d blocks.
The partition solve enumerates the O(K*L) candidate bottlenecks (j, d) and,
for each, covers the other blocks with the fewest devices whose occupancy
stays under the bottleneck's: the identical-block case of 1-D chain
partitioning (Pinar & Aykanat, "Fast optimal load balancing algorithms for 1D
partitioning", JPDC 2004).

The same early exit works one level up. Each segment count S has a floor on
the objective of every S-stage plan, from its least bottleneck: the larger of
the least one-block occupancy and the load spread over the S fastest
devices. A partition solve whose floors all lie strictly above its best
one-stage plan or its cutoff skips the bottleneck scan, and once a plan
exists, a run start whose lower bound, built from memory caps and these
floors, lies strictly above the best objective is not searched at all: no
plan there can win, not even on a tie. On the shipped table2 scenario this
leaves 22 of the 270 partition solves of six rounds.

What depends on (config, round environment, cluster) alone is kept for the
round in the cluster's ``round_state.ClusterRound``, which ``optimize_round``
shares across its block-coordinate descent sweeps: the memory caps, each run
start's block caps, its C7/C9' pre-check, its bottleneck candidates and its
floor inputs, the run-start bound's round-constant parts, the balance cap
per head power and the check of each final plan. The queue sum, the cutoff
and the balance cap are applied on every call.

Block-coordinate descent calls the solver once per sweep, and between sweeps
only the queue sum q and the balance cap move. Under a cap of one stage every
candidate has S = 1, so the queue term S*q is the same for all of them and
the answer is a lookup in the round's sorted table of one-stage plans. A
call whose cap allows two or more stages always searches: a table over those
counts would trade the search's prunes for a full scan of every run start,
and no multi-sweep workload of the benchmark has such a cap.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, takewhile

from .config import RoundEnvironment, SystemConfig
from .convergence import interference_error, max_segments_within_gamma
from .errors import InfeasibleError
from .pipeline import (
    SegmentPlan,
    compute_energy,
    device_energy,
    micro_batch_size,
    pipeline_latency_from_times,
    stage_profile,
)
from .round_state import ClusterRound


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
    times, hops = stage_profile(delta, m, cfg, env, n)
    return v_factor * pipeline_latency_from_times(times, hops, m) + len(times) * queue_sum


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


def _feasible_energy_at_m(delta: tuple[int, ...], m: int, cfg: SystemConfig, env: RoundEnvironment, n: int) -> bool:
    devices = cfg.clusters[n].devices
    return all(
        device_energy(d, m, cfg, env, n, k) <= devices[k].energy_budget_j * (1 + 1e-12)
        for k, d in enumerate(delta)
        if d > 0
    )


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
    best_m = None
    best_obj = math.inf
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        if not _feasible_energy_at_m(delta, m, cfg, env, n):
            continue
        obj = cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum)
        if obj < best_obj:
            best_obj, best_m = obj, m
    if best_m is None:
        raise InfeasibleError("C9'", f"cluster {n}: no micro-batch count satisfies the device energy budgets")
    return best_m


def _partition_caps(m: int, cfg: SystemConfig, env: RoundEnvironment, n: int, mem_caps: list[int]) -> list[int]:
    """Per-device block caps from the memory caps and the round energy budget at this m."""
    work = _chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg)
    caps = []
    for dev, cap, clock, hop in zip(cfg.clusters[n].devices, mem_caps, env.clock_hz[n], env.hop_s[n]):
        headroom = dev.energy_budget_j - dev.d2d_power_w * hop
        if headroom < 0:
            cap = 0
        else:
            per_block = compute_energy(work, dev, clock)
            if per_block > 0:
                cap = int(min(cap, headroom / per_block * (1 + 1e-12)))  # int(inf) would raise
        caps.append(cap)
    return caps


def _cap_cover(m: int, cfg: SystemConfig, env: RoundEnvironment, n: int, mem_caps: list[int]) -> tuple[list[int], int]:
    """Block caps at run start m and the fewest devices whose caps hold the L blocks.

    Raises C7 when memory alone cannot host the blocks, and C9' when the
    energy budgets cut the caps below them.
    """
    l_blocks = cfg.model.n_blocks
    caps = _partition_caps(m, cfg, env, n, mem_caps)
    need = _fewest_cover(l_blocks, caps)
    if math.isinf(need):
        raise InfeasibleError(
            "C7" if sum(mem_caps) < l_blocks else "C9'", f"cluster {n}: device caps cannot host {l_blocks} blocks"
        )
    return caps, need


def _bottleneck_pairs(
    caps: list[int], work: float, speeds: tuple[float, ...], hops: tuple[float, ...], l_blocks: int
) -> tuple[list[list[float]], list[tuple[float, int, int]]]:
    """Occupancy of each device k at d = 1..caps[k] blocks, ascending in d, and
    the candidate bottlenecks (u, j, d) with d < L in ascending order; the
    occupancy expression is the one ``_bottleneck`` compares."""
    occ = [[d * work / speeds[k] + hops[k] for d in range(1, cap + 1)] for k, cap in enumerate(caps)]
    pairs = sorted((occ[j][d - 1], j, d) for j, cap in enumerate(caps) for d in range(1, min(cap, l_blocks - 1) + 1))
    return occ, pairs


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
    s_cap: int | None = None,
    state: ClusterRound | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """Exact argmin over integer block compositions at fixed m.

    A one-stage plan puts all L blocks on one device. Any other plan has a
    first bottleneck: the first device j, in index order, whose occupancy
    u = d*work/speed_j + hop_j is maximal, and its objective is
    V*((S+m-1)*u - hop_j) + S*queue_sum. So every pair (j, d) is a candidate:
    each other device k takes at most as many blocks as keep its occupancy
    below u (k < j, strictly, so that j stays first) or at most u (k > j), and
    the fewest such devices that cover the other L-d blocks give S. Pairs are
    scanned in ascending u until a lower bound on every later pair exceeds
    the best plan. Among equal (objective, S) the lexicographically smallest
    delta wins, the oracle's tie-break.

    Before the scan, ``_stage_count_floor`` prices every segment count the
    caps and the balance cap allow. When that floor lies strictly above the
    best one-stage plan, or above a finite cutoff, no plan of two or more
    stages can win or tie, and the occupancy lists are not built, the pairs
    not sorted and the scan not run.

    Plans whose objective exceeds ``cutoff`` are dropped (ties survive); when
    no plan reaches a finite cutoff the result is None. At the default cutoff
    an instance without a feasible composition raises instead. ``speed_j``
    and ``hop_j`` are the round's ``env.speed[n][j]`` and ``env.hop_s[n][j]``.

    ``s_cap`` is the balance cap on S that ``_segment_cap`` gives for these
    arguments; a caller that solves several m for one cluster passes it in,
    and when it is None it is computed here. ``state`` is cluster n's
    ``ClusterRound``: it keeps this m's caps, their C7/C9' pre-check, the
    floor's inputs and the sorted candidate pairs for the round. When it is
    None a fresh one is built.
    """
    n_dev = cfg.clusters[n].n_devices
    l_blocks = cfg.model.n_blocks
    if state is None:
        state = ClusterRound(cfg, env, n)
    if s_cap is None:
        s_cap = _segment_cap(cfg, env, n, cu_power_w, enforce_balance)

    # feasibility of the cap set as a whole
    caps, need = state.memo(("caps", m), _cap_cover, m, cfg, env, n, state.mem_caps)
    if need > s_cap:
        raise InfeasibleError("C11" if s_cap < n_dev else "C2", f"cluster {n}: {need} segments needed, at most {s_cap} allowed")

    b_hat = micro_batch_size(cfg.model.batch_items, m)
    work = _chunk_work(b_hat, cfg)
    speeds = env.speed[n]
    hops = env.hop_s[n]

    best = None  # (objective, S, delta)
    for a, delta in _one_stage_plans(m, caps, cfg, env, n, v_factor):
        key = (a + queue_sum, 1, delta)
        if key[0] <= cutoff and (best is None or key < best):
            best = key

    # plans of two or more stages are scanned only when their floor reaches
    # the best one-stage plan or, while there is none, the cutoff
    s_lo = max(2, need)
    if s_cap >= 2 and _stage_count_floor(
        state.memo(("live", m), _live_stages, env, n, caps, l_blocks), v_factor, queue_sum, s_lo, s_cap
    )(m, work) <= (cutoff if best is None else best[0]):
        occ, pairs = state.memo(("pairs", m), _bottleneck_pairs, caps, work, speeds, hops, l_blocks)
        hop_max = max(hops)
        for u, j, d in pairs:
            limit = cutoff if best is None else best[0]
            # every later pair has u' >= u, S >= s_lo and hop_j <= min(hop_max, u')
            lower = v_factor * max((s_lo + m - 1) * u - hop_max, (s_lo + m - 2) * u) * (1 - 1e-12) + s_lo * queue_sum
            if lower > limit:
                break
            caps_u = [bisect_left(o, u) for o in occ[:j]] + [0] + [bisect_right(o, u) for o in occ[j + 1 :]]
            s = 1 + _fewest_cover(l_blocks - d, caps_u)
            if s > s_cap:
                continue
            obj = v_factor * ((s + m - 1) * u - hops[j]) + s * queue_sum
            if obj > limit or (best is not None and (obj, s) > best[:2]):
                continue
            key = (obj, s, _lexmin_cover(l_blocks - d, s - 1, caps_u, j, d))
            if best is None or key < best:
                best = key

    if best is None:
        if math.isinf(cutoff):
            raise InfeasibleError("C1", f"cluster {n}: no feasible block composition")
        return None
    _, s, found = best
    return found, s


def _one_stage_plans(m: int, caps: list[int], cfg: SystemConfig, env: RoundEnvironment, n: int, v_factor: float):
    """(a, delta) of every plan at run start m that puts all L blocks on one
    device whose cap in ``caps`` holds them; a = V * its latency, the plan's
    objective less the queue sum."""
    l_blocks = cfg.model.n_blocks
    work = _chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg)
    for j, cap in enumerate(caps):
        if cap >= l_blocks:
            t = l_blocks * work / env.speed[n][j]
            a = v_factor * pipeline_latency_from_times([t], [env.hop_s[n][j]], m)
            yield a, tuple(l_blocks if k == j else 0 for k in range(len(caps)))


def _fewest_cover(blocks: int, caps: list[int]) -> float:
    """Fewest devices whose caps sum to at least ``blocks``; inf when none do."""
    reach = list(accumulate(sorted(caps, reverse=True)))
    return bisect_left(reach, blocks) + 1 if reach[-1] >= blocks else math.inf


def _lexmin_cover(blocks: int, slots: int, caps: list[int], j: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest delta with d blocks on j and ``blocks`` on at most ``slots`` others."""
    delta = [0] * len(caps)
    delta[j] = d
    for i in range(len(caps)):
        if blocks == 0:
            break
        if i == j:
            continue
        later = sorted(caps[i + 1 :], reverse=True)
        if blocks <= sum(later[:slots]):  # the devices after i can take them all
            continue
        delta[i] = max(1, blocks - sum(later[: slots - 1]))
        blocks -= delta[i]
        slots -= 1
    return tuple(delta)


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


def _live_stages(env: RoundEnvironment, n: int, caps: list[int], l_blocks: int):
    """Speeds and hops of the devices with a positive cap in ``caps``, and, for
    each S, L over the sum of the S fastest of those speeds."""
    live = [k for k, cap in enumerate(caps) if cap]
    speeds = [env.speed[n][k] for k in live]
    loads = [l_blocks / fastest for fastest in accumulate(sorted(speeds, reverse=True))]
    return speeds, [env.hop_s[n][k] for k in live], loads


def _stage_count_floor(live: tuple, v_factor: float, queue_sum: float, s_lo: int, s_cap: int):
    """Least objective any plan of S stages, s_lo <= S <= s_cap, can reach, as a function of (m, work).

    ``work`` is the chunk work at run start m. ``live`` is ``_live_stages``
    of the block caps: only devices with a positive cap can be stages. A
    plan's bottleneck occupancy U is at least the least one-block occupancy,
    and at least L*work/(sum of the S fastest speeds) + the least hop,
    because each stage k holds at most (U - hop_k)*speed_k/work blocks. The
    bottleneck's hop is at most the longest hop and at most U, so the
    objective is at least V*max((S+m-1)*U - hop_max, (S+m-2)*U) +
    S*queue_sum. The (1 - 1e-12) slacks absorb float rounding. The floor is
    inf when no S in the range has enough devices.
    """
    speeds, hops, loads = live
    s_hi = min(s_cap, len(speeds))
    if s_hi < s_lo:
        return lambda m, work: math.inf
    hop_min, hop_max = min(hops), max(hops)
    counts = list(zip(range(s_lo, s_hi + 1), loads[s_lo - 1 :]))

    def floor(m: int, work: float) -> float:
        one_block = min([work / speed + hop for speed, hop in zip(speeds, hops)])
        least = math.inf
        # max and min written out as comparisons, which run faster and pick
        # the operand max and min would
        for s, load in counts:
            u = (load * work + hop_min) * (1 - 1e-12)
            if not u > one_block:
                u = one_block
            pipelined, held = (s + m - 1) * u - hop_max, (s + m - 2) * u
            obj = v_factor * (held if held > pipelined else pipelined) * (1 - 1e-12) + s * queue_sum
            if obj < least:
                least = obj
        return least

    return floor


def _memory_stages(cfg: SystemConfig, env: RoundEnvironment, n: int, mem_caps: list[int]):
    """The round-constant parts of ``_run_start_bound``: the speed of the
    fastest device whose memory holds all L blocks (None when there is none),
    the least segment count memory allows, at least 2, and ``_live_stages``
    of the memory caps."""
    l_blocks = cfg.model.n_blocks
    s_fast = max((speed for speed, cap in zip(env.speed[n], mem_caps) if cap == l_blocks), default=None)
    return s_fast, max(2, _fewest_cover(l_blocks, mem_caps)), _live_stages(env, n, mem_caps, l_blocks)


def _run_start_bound(state: ClusterRound, v_factor: float, queue_sum: float, s_cap: int):
    """Lower bound, as a function of m, on the objective of every plan at run start m, for the state's cluster.

    Built from memory caps alone, so it holds for every plan of at most
    ``s_cap`` stages that the energy caps allow. It is the smaller of two
    terms:

    - one stage: the fastest device that can hold all L blocks, priced with
      the float expression ``optimal_partition`` uses, so it needs no slack;
    - S >= 2 stages: ``_stage_count_floor`` over every S from the least
      segment count s_lo memory allows up to ``s_cap``, on the devices memory
      lets hold a block; inf when s_cap < s_lo.

    Everything that does not depend on m is computed here, once, and what
    does not depend on the queues or ``s_cap`` either is kept in ``state``
    for the round. Needs a cluster whose memory caps can host the L blocks.
    """
    cfg = state.cfg
    l_blocks = cfg.model.n_blocks
    s_fast, s_lo, live = state.memo("memory", _memory_stages, cfg, state.env, state.n, state.mem_caps)
    many = _stage_count_floor(live, v_factor, queue_sum, s_lo, s_cap)

    def bound(m: int) -> float:
        work = _chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg)
        one = math.inf if s_fast is None else v_factor * (m * (l_blocks * work / s_fast)) + queue_sum
        return min(one, many(m, work))

    return bound


def _checked_plan(delta: tuple[int, ...], m: int, cfg: SystemConfig, env: RoundEnvironment, n: int) -> SegmentPlan:
    """The plan (delta, m), after the structural checks and the energy budgets."""
    plan = SegmentPlan(delta=delta, m=m)
    plan.validate(cfg.clusters[n], cfg.model)
    if not _feasible_energy_at_m(delta, m, cfg, env, n):
        raise InfeasibleError("C9'", f"cluster {n}: joint optimum violates an energy budget")
    return plan


def _one_stage_table(state: ClusterRound, v_factor: float) -> list[tuple]:
    """Every one-stage plan (a, delta, m) of the state's cluster over all run
    starts, sorted, with a = V * its latency, its objective less the queue
    sum. A run start whose caps raise has no plans: under a balance cap of
    one stage the search raises there."""
    cfg, env, n = state.cfg, state.env, state.n
    table = []
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        try:
            caps, _ = state.memo(("caps", m), _cap_cover, m, cfg, env, n, state.mem_caps)
        except InfeasibleError:
            continue
        table += [(a, delta, m) for a, delta in _one_stage_plans(m, caps, cfg, env, n, v_factor)]
    return sorted(table)


def schedule_segments(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    queues: tuple[float, ...],
    v_factor: float,
    cu_power_w: float,
    enforce_balance: bool = True,
    *,
    state: ClusterRound | None = None,
) -> SegmentPlan:
    """Exact joint argmin over (partition, micro-batches) for cluster n.

    Runs the partition search at every ceil(b/m) run start in ascending m,
    passing the best objective so far as its cutoff, and keeps the least
    (objective, S, delta, m), the oracle's tie-break. Once a plan exists, a
    run start whose ``_run_start_bound`` (every segment count up to the
    balance cap priced by ``_stage_count_floor``) lies strictly above the best
    objective is skipped: every plan there is worse, so its search could only
    have returned None or raised an error that is ignored once a plan exists.
    Ties are never skipped. When every m is infeasible, the error raised at
    m = 1 names the blocker.

    The balance cap does not depend on m, so it is computed once, before the
    run starts; when it is unreachable, its C11 error is the one every run
    start would raise.

    ``state`` is cluster n's ``ClusterRound`` for this round; a caller that
    solves the round several times, at other queues or powers, passes the
    same one each time. It keeps the balance cap per power, each run start's
    caps and bottleneck candidates, the bound's round-constant parts and the
    check of each final plan. Without it a fresh one is built.

    Under a balance cap of one stage, ``_one_stage_table`` (kept in the state
    per v_factor) answers instead of the search: it prices each plan a + q
    with the floats ``cluster_objective`` computes, so the least (a + q,
    delta, m) is the search's own key, and as a + q does not fall as a
    rises, the plans that tie on it are a prefix of the table. When the
    table is empty every run start raises, and the search names the error.
    """
    if state is None:
        state = ClusterRound(cfg, env, n)
    queue_sum = sum(queues)
    s_cap = state.memo(("s_cap", cu_power_w, enforce_balance), _segment_cap, cfg, env, n, cu_power_w, enforce_balance)
    table = state.memo(("one-stage", v_factor), _one_stage_table, state, v_factor) if s_cap == 1 else None
    if table:
        least = table[0][0] + queue_sum
        _, delta, m = min(takewhile(lambda plan: plan[0] + queue_sum == least, table), key=lambda plan: plan[1:])
        return state.memo(("plan", delta, m), _checked_plan, delta, m, cfg, env, n)
    best_key = None
    first_error = None
    bound = None
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        if best_key is not None:
            # built once a plan exists, which proves memory can host the blocks
            if bound is None:
                bound = _run_start_bound(state, v_factor, queue_sum, s_cap)
            if bound(m) > best_key[0]:
                continue
        cutoff = math.inf if best_key is None else best_key[0]
        try:
            found = optimal_partition(
                m, cfg, env, n, v_factor, queue_sum, cu_power_w, enforce_balance,
                cutoff=cutoff, s_cap=s_cap, state=state,
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
    return state.memo(("plan", best_key[2], best_key[3]), _checked_plan, best_key[2], best_key[3], cfg, env, n)
