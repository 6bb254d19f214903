"""Per-cluster segment scheduling: block partition and micro-batch count.

Minimizes the intra-cluster objective

    V * pipeline_latency(delta, m) + S * sum(queue values)

by an exact joint search: an exact partition solve at every micro-batch count
that starts a constant-ceil(b/m) run. Within a run the chunk size is fixed, so
at any partition the latency grows with m and the energy budgets bind alike;
the joint optimum therefore lies at a run start. Constraints: block
conservation, segment count at most the device count, per-device memory,
per-device round energy, and the balance cap (C11): S segments when the
cluster's uplink power is at least the round's threshold p_S
(``convergence.balance_power_threshold``), which is also power control's
floor at S. Device speeds and hop times are the round's, read from the
``RoundEnvironment``; memory caps and energy budgets come from the config.
Every plan is scored by ``cluster_objective``. The energy budgets bind,
through ``_over_budget`` (C9 as ``validate_decision`` checks it), in
``_cap_cover``'s per-device block caps, the m = 1 incumbent and
``optimal_micro_batches``.

Blocks are identical in cost, so at a fixed m a plan's objective depends only
on its segment count S and its first bottleneck, a device j holding d blocks.
``optimal_partition`` sweeps the O(K*L) device occupancies once, in ascending
order, with each device's count so far as its block cap (the monotone probes
of Pinar & Aykanat, "Fast optimal load balancing algorithms for 1D
partitioning", JPDC 2004). It rejects most candidate bottlenecks in O(1), as
Nicol's probes do ("Rectilinear partitioning of irregular data parallel
computations", JPDC 1994), and stops at an occupancy past which no plan can
reach the best.

The same early exit works one level up (branch and bound: Land & Doig,
Econometrica 1960). ``schedule_segments`` searches the run starts best-first,
in ascending lower bound (``_run_start_bound``, from memory caps and a floor
per segment count), after an incumbent, m = 1's best one-stage plan, until
one's bound lies strictly above the best objective. Six table2 rounds price
52 and search 0 of their 270 run starts; 12 rounds of the benchmark's encoder
cluster, which forms no incumbent, price 72 and search 22 of 180.

The balance cap does not depend on m, so ``schedule_segments`` reads it once
per call (``_segment_cap``). What no round changes is kept per config, in its
``solver_table``, a ``SolverTable`` built on the first solve: the run starts
and their chunk work, the memory caps and the least segment count they
allow, and the config part of every threshold. Nothing else is kept between
calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import accumulate, islice

from .config import DeviceProfile, RoundEnvironment, SystemConfig
from .convergence import budget_share, threshold_power
from .errors import InfeasibleError
from .pipeline import (
    ENERGY_BUDGET_SLACK,
    SegmentPlan,
    chunk_work,
    micro_batch_size,
    pipeline_latency_from_times,
    stage_profile,
    work_energy,
)


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


def _micro_batch_run_starts(batch_items: int) -> tuple[int, ...]:
    """First m of every constant-ceil(b/m) run; the objective grows within a run."""
    starts = []
    m = 1
    while m <= batch_items:
        starts.append(m)
        v = -(-batch_items // m)
        if v == 1:
            break
        m = (batch_items - 1) // (v - 1) + 1
    return tuple(starts)


class SolverTable:
    """What the solvers read of a config that no round changes: the run ``starts``;
    the chunk ``work`` at each micro-batch size ceil(b/m); per cluster, its
    memory caps min(cap, L), the devices whose cap is L, and s_lo, the fewest
    stages (at least 2) that memory lets hold L; and ``shares``, C/budget_S for
    S = 1..L (``budget_share``)."""

    __slots__ = ("starts", "work", "clusters", "shares")

    def __init__(self, cfg: SystemConfig):
        model, l_blocks = cfg.model, cfg.model.n_blocks
        self.starts = _micro_batch_run_starts(model.batch_items)
        self.work = {c: chunk_work(c, model) for c in (micro_batch_size(model.batch_items, m) for m in self.starts)}
        caps = [tuple(min(dev.block_cap, l_blocks) for dev in cl.devices) for cl in cfg.clusters]
        wholes = [tuple(k for k, cap in enumerate(c) if cap == l_blocks) for c in caps]
        self.clusters = [(c, w, 2 if w else max(2, _fewest_cover(l_blocks, c))) for c, w in zip(caps, wholes)]
        self.shares = tuple(budget_share(cfg.convergence, cfg.n_clusters, l_blocks, s) for s in range(1, l_blocks + 1))


def _feasible_energy_at_m(delta: tuple[int, ...], m: int, cfg: SystemConfig, env: RoundEnvironment, n: int) -> bool:
    work, devices = cfg.solver_table.work[micro_batch_size(cfg.model.batch_items, m)], cfg.clusters[n].devices
    return not any(_over_budget(d, work, devices[k], env.clock_hz[n][k], env.hop_s[n][k]) for k, d in enumerate(delta) if d > 0)


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
    starts dominate. Ties take the smallest m. Raises C9' when no m satisfies
    the energy budgets, and C2 from the closed form on an all-zero delta.
    """
    best_m = None
    best_obj = math.inf
    for m in cfg.solver_table.starts:
        if not _feasible_energy_at_m(delta, m, cfg, env, n):
            continue
        obj = cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum)
        if obj < best_obj:
            best_obj, best_m = obj, m
    if best_m is None:
        raise InfeasibleError("C9'", f"cluster {n}: no micro-batch count satisfies the device energy budgets")
    return best_m


def _over_budget(blocks: int, work: float, dev: DeviceProfile, clock_hz: float, hop_s: float) -> bool:
    """C9 failed as ``validate_decision`` checks it: energy above the budget times (1 + ENERGY_BUDGET_SLACK)."""
    return work_energy(blocks, work, dev, clock_hz, hop_s) > dev.energy_budget_j * (1 + ENERGY_BUDGET_SLACK)


def _one_stage_objective(v_factor: float, m: int, l_blocks: int, work: float, speed: float, queue_sum: float) -> float:
    """``cluster_objective`` of all L blocks on one device of speed ``speed``, as the same float expression."""
    return v_factor * (m * (l_blocks * work / speed)) + queue_sum


def _cap_cover(m: int, cfg: SystemConfig, env: RoundEnvironment, n: int) -> tuple[list[int], int]:
    """Per-device block caps at micro-batch count m, and the fewest devices
    whose caps hold the L blocks.

    A device's cap is the most blocks, up to its memory cap and L, not
    ``_over_budget``: energy grows with the block count, so the cap is
    bisected when the largest count fails. Raises C7 when memory alone cannot
    host the blocks, and C9' when the energy budgets cut the caps below them.
    """
    l_blocks, table = cfg.model.n_blocks, cfg.solver_table
    work, clocks, hops = table.work[micro_batch_size(cfg.model.batch_items, m)], env.clock_hz[n], env.hop_s[n]
    mem_caps = table.clusters[n][0]
    caps = []
    for k, (dev, cap) in enumerate(zip(cfg.clusters[n].devices, mem_caps)):
        if _over_budget(cap, work, dev, clocks[k], hops[k]):
            cap = bisect_left(range(1, cap), True, key=lambda d: _over_budget(d, work, dev, clocks[k], hops[k]))
        caps.append(cap)
    need = _fewest_cover(l_blocks, caps)
    if math.isinf(need):
        raise InfeasibleError(
            "C7" if sum(mem_caps) < l_blocks else "C9'",
            f"cluster {n}: device caps cannot host {l_blocks} blocks",
        )
    return caps, need


def optimal_partition(
    m: int,
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    v_factor: float,
    queue_sum: float,
    s_cap: int,
    *,
    cutoff: float = math.inf,
    floor: float = -math.inf,
) -> tuple[tuple[int, ...], int] | None:
    """Exact argmin over integer block compositions at fixed m.

    A one-stage plan puts all L blocks on one device. Any other plan has a
    first bottleneck: the first device j, in index order, whose occupancy
    u = d*work/speed_j + hop_j is maximal, and its objective is
    V*((S+m-1)*u - hop_j) + S*queue_sum. So every pair (j, d) is a candidate:
    each other device k takes at most as many blocks as keep its occupancy
    below u (k < j, strictly, so that j stays first) or at most u (k > j), and
    the fewest such devices that cover the other L-d blocks give S. The pairs
    come from one sweep of the occupancies in ascending (u, -k): at one u the
    devices after j come before it, so each device's count of the events
    before (j, d) is its cap there. Before a pair copies those caps and
    counts its cover, it is rejected in O(1) when S_min = 1 + ceil((L-d)/most)
    exceeds ``s_cap`` or its objective already lies strictly above the bar;
    ``most``, the largest count before the pair's event, bounds every cap
    beside j, so no cover takes fewer stages. At V >= 0 and queue_sum >= 0
    the float objective grows with S, so this drops no tie. The pair at event
    index i reaches at most i+1 blocks, so the first L-1 events are only
    counted. The sweep stops past ``u_stop``, the ``_stop_occupancy`` of the
    bar at s_lo stages, read once per bar. The scan keeps the least
    (objective, S), the bar, and the (j, d, caps) of every plan at it,
    one-stage plans included; the lexicographically smallest of their
    deltas, the oracle's tie-break, is built last.

    ``floor`` must lie at or below the objective of every plan of two or
    more stages, as ``_run_start_bound``'s many-stage term does; when it lies
    strictly above the bar, none of them can win or tie, and the sweep is not
    run. The default never skips it.

    Plans whose objective exceeds ``cutoff`` are dropped (ties survive); when
    no plan reaches a finite cutoff the result is None. At the default cutoff
    an instance without a feasible composition raises instead. ``speed_j``
    and ``hop_j`` are the round's ``env.speed[n][j]`` and ``env.hop_s[n][j]``.

    ``s_cap`` is the most segments a plan may use: the device count, or less
    under the balance cap, as ``_segment_cap`` gives it.
    """
    l_blocks, work = cfg.model.n_blocks, cfg.solver_table.work[micro_batch_size(cfg.model.batch_items, m)]
    speeds, hops = env.speed[n], env.hop_s[n]

    # feasibility of the cap set as a whole
    caps, need = _cap_cover(m, cfg, env, n)
    if need > s_cap:
        raise InfeasibleError("C11" if s_cap < len(caps) else "C2", f"cluster {n}: {need} segments needed, at most {s_cap} allowed")

    bar = (cutoff, math.inf)  # least (objective, S) so far; the cutoff while there is none
    ties = []  # (j, d, caps) of every plan at the bar
    # one-stage plans: all L blocks on one device whose cap holds them
    for j, cap in enumerate(caps):
        if cap >= l_blocks:
            key = (_one_stage_objective(v_factor, m, l_blocks, work, speeds[j], queue_sum), 1)
            if key < bar:
                bar, ties = key, []
            if key == bar:
                ties.append((j, l_blocks, caps))

    # plans of two or more stages are scanned unless their floor lies above the bar
    if s_cap >= 2 and not floor > bar[0]:
        s_lo, hop_max = max(2, need), max(hops)
        u_stop = _stop_occupancy(v_factor, queue_sum, s_lo, m, hop_max, bar[0])
        # no device beside a bottleneck holds L blocks, so no event has d = L
        events = sorted(
            (u, -k, k, d) for k, cap in enumerate(caps) for d in range(1, min(cap, l_blocks - 1) + 1)
            if (u := d * work / speeds[k] + hops[k]) <= u_stop  # u_stop only falls: the rest is never scanned
        )
        cnt = [0] * len(caps)  # each device's events so far: its cap at the next pair
        # no pair among the first L - 1 events reaches L blocks
        for _, _, k, _ in events[: l_blocks - 1]:
            cnt[k] += 1
        top = max(cnt)  # the largest count
        for u, _, j, d in events[l_blocks - 1 :]:
            if u > u_stop:
                break
            most = top  # before j's event: at least every cap beside j
            cnt[j] += 1
            if cnt[j] > top:
                top = cnt[j]
            rest = l_blocks - d
            s = 1 - (-rest // most)  # no cover takes fewer stages; the key grows with S
            if s > s_cap or v_factor * ((s + m - 1) * u - hops[j]) + s * queue_sum > bar[0]:
                continue
            caps_u = cnt[:]
            caps_u[j] = 0
            s = 1 + _fewest_cover(rest, caps_u)
            if s > s_cap:
                continue
            key = (v_factor * ((s + m - 1) * u - hops[j]) + s * queue_sum, s)
            if key < bar:
                bar, ties, u_stop = key, [], _stop_occupancy(v_factor, queue_sum, s_lo, m, hop_max, key[0])
            if key == bar:
                ties.append((j, d, caps_u))

    if not ties:
        if math.isinf(cutoff):
            raise InfeasibleError("C1", f"cluster {n}: no feasible block composition")
        return None
    return min(_lexmin_cover(l_blocks - d, bar[1] - 1, caps_u, j, d) for j, d, caps_u in ties), bar[1]


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


def _segment_cap(cfg: SystemConfig, env: RoundEnvironment, n: int, cu_power_w: float) -> int:
    """Most segments cluster n may use at head power cu_power_w: the count of
    S = 1, 2, ... up to its device count and L whose balance threshold p_S
    (C11) is at or below the power. The thresholds rise with S, so the first
    one above it is bisected. Raises C11 when p_1 is above it, or at NaN."""
    shares, gain, interference_w = cfg.solver_table.shares, env.uplink_gain[n], env.uplink_interference_w[n]
    s_max = min(cfg.clusters[n].n_devices, cfg.model.n_blocks)
    s_cap = bisect_left(range(1, s_max + 1), True, key=lambda s: not threshold_power(shares[s - 1], gain, interference_w) <= cu_power_w)
    if s_cap == 0:
        raise InfeasibleError("C11", f"cluster {n}: balance cap unreachable at power {cu_power_w}")
    return s_cap


def _no_floor(m: int, work: float, bar: float = math.inf) -> float:
    """``_stage_count_floor`` of a range of segment counts that no plan can take."""
    return math.inf


_no_floor.counts = ()


def _whole_block_load(l_blocks: int, fastest: list[float]) -> float:
    """The L-th least ratio d/speed, d >= 1, over the speeds ``fastest``.

    Each device first counts its ratios at or below the fractional load
    L/sum(fastest): its share floor(load*speed), fixed against the float test
    d/speed <= load. The counts sum to less than L unless rounding or an even
    split reaches L; the answer is then the short-th least of the next ratios
    (d + j)/speed, or, at short <= 0, the (1 - short)-th greatest of the
    counted ones.
    """
    load = l_blocks / sum(fastest)
    held = []
    for speed in fastest:
        d = int(load * speed)
        while d and d / speed > load:
            d -= 1
        while (d + 1) / speed <= load:
            d += 1
        held.append(d)
    short = l_blocks - sum(held)
    steps = range(1, short + 1) if short > 0 else range(short, 1)
    return sorted([(d + j) / speed for d, speed in zip(held, fastest) for j in steps if d + j > 0])[short - 1]


def _stage_count_floor(
    env: RoundEnvironment, n: int, caps: list[int], l_blocks: int, v_factor: float, queue_sum: float, s_lo: int, s_cap: int
):
    """Least objective any plan of S stages, s_lo <= S <= s_cap, can reach, as a function of (m, work, bar).

    ``work`` is the chunk work at run start m. Only devices of cluster n with
    a positive cap in ``caps`` can be stages. A plan's bottleneck occupancy U
    is at least load_S*work + the least hop, where load_S is the whole-block
    load of the S fastest devices (``_whole_block_load``): each stage k holds
    d_k blocks with d_k/speed_k <= (U - hop_k)/work, so no S stages hold L
    blocks below it. The bottleneck's hop is at most the longest hop, so the
    objective is at least V*((S+m-1)*U - hop_max) + S*queue_sum. The
    (1 - 1e-12) slacks absorb float rounding. The floor is inf when no S
    in the range has enough devices. ``_stop_occupancy`` is its inverse in U.

    Each S starts at its fractional load L/(sum of the S fastest speeds),
    which lies at or below its whole-block load but for rounding; a refined
    S takes the larger of the two, so refining never lowers a term. A call
    refines the S whose term sets the floor, one at a time, while that term
    lies at or below ``bar``, and keeps each refined load for later calls.
    So the floor it returns equals the fully refined one whenever either lies
    at or below ``bar``, and lies above ``bar`` otherwise; at the default bar
    it is the fully refined floor. The floor carries what it prices, for
    ``_run_start_bound``'s ``later``: ``counts``, the pairs (S, load) with
    each S's load as refined so far, none for the inf floor, and
    ``hop_range``, (hop_min, hop_max).
    """
    if s_cap < s_lo:
        return _no_floor
    held = [(speed, hop) for speed, hop, cap in zip(env.speed[n], env.hop_s[n], caps) if cap]
    s_hi = min(s_cap, len(held))
    if s_hi < s_lo:
        return _no_floor
    speeds, hops = zip(*held)
    hop_min, hop_max = min(hops), max(hops)
    # L over the sum of the S fastest speeds, for each S, until its term is refined
    fastest = sorted(speeds, reverse=True)
    counts = [(s, l_blocks / total) for s, total in zip(range(s_lo, s_hi + 1), islice(accumulate(fastest), s_lo - 1, None))]
    whole = [False] * (s_hi + 1)  # whole[S]: load_S is the whole-block load

    def floor(m: int, work: float, bar: float = math.inf) -> float:
        while True:
            least, at = math.inf, s_lo
            for s, load in counts:
                u = (load * work + hop_min) * (1 - 1e-12)
                obj = v_factor * ((s + m - 1) * u - hop_max) * (1 - 1e-12) + s * queue_sum
                if obj < least:
                    least, at = obj, s
            if least > bar or whole[at]:
                return least
            counts[at - s_lo] = at, max(counts[at - s_lo][1], _whole_block_load(l_blocks, fastest[:at]))
            whole[at] = True

    floor.counts, floor.hop_range = counts, (hop_min, hop_max)
    return floor


def _stop_occupancy(v_factor: float, queue_sum: float, s: int, m: int, hop_max: float, obj: float) -> float:
    """Occupancy U past which ``_stage_count_floor``'s term at S = s exceeds obj:
    ((obj - s*queue_sum)/V + hop_max)/(s+m-1), widened by (1 + 1e-9) and a
    1e-12 share of s*queue_sum, no lower than the float term's crossing. inf
    at V = 0."""
    room = (obj - s * queue_sum * (1 - 1e-12)) / (v_factor * (1 - 1e-12)) if v_factor else math.inf
    return (room + hop_max) / (s + m - 1) * (1 + 1e-9)


def _run_start_bound(cfg: SystemConfig, env: RoundEnvironment, n: int, v_factor: float, queue_sum: float, s_cap: int):
    """Lower bounds, as functions of m, on the objective of every plan of cluster n at run start m: ``(bound, later)``.

    Built from memory caps alone, so they hold for every plan of at most
    ``s_cap`` stages that the energy caps allow, which are at most the memory
    caps (the ``solver_table``'s). ``bound(m)`` is the pair (the smaller of
    two terms, the second):

    - one stage: the fastest device that can hold all L blocks, priced with
      the float expression ``optimal_partition`` uses, so it needs no slack;
    - S >= 2 stages: ``_stage_count_floor`` over every S from the least
      segment count s_lo memory allows up to ``s_cap``, on the devices memory
      lets hold a block; inf when s_cap < s_lo.

    ``later(m)`` never falls as m grows and lies at or below ``bound(m')[0]`` at
    every run start m' >= m. It is the least of lines a + c*m with c >= 0,
    one per term of ``bound``, made linear by m*ceil(b/m) >= b, so that
    m*work >= b*o_fwd + m*o_bwd, and by work >= o_fwd + o_bwd:

    - one stage: V*(L/s_fast)*(b*o_fwd + m*o_bwd) + q;
    - S stages: U >= load_S*work + hop_min, as in the floor, at the
      fractional loads its counts hold before any call, so
      V*(load_S*(b*o_fwd + (S-1)*(o_fwd+o_bwd) + m*o_bwd) + (S+m-1)*hop_min
      - hop_max) + S*q.

    A (1 - 1e-9) slack keeps float rounding from lifting it above a bound;
    a line below 0 lies below every bound anyway. Everything that does not
    depend on m is computed here, once. Both are inf at every m when the
    memory caps cannot host the L blocks.
    """
    l_blocks, table = cfg.model.n_blocks, cfg.solver_table
    mem_caps, whole, s_lo = table.clusters[n]
    s_fast = max([env.speed[n][k] for k in whole]) if whole else None
    many = _stage_count_floor(env, n, mem_caps, l_blocks, v_factor, queue_sum, s_lo, s_cap)
    batch_items, model, works = cfg.model.batch_items, cfg.model, table.work

    def bound(m: int) -> tuple[float, float]:
        work = works[micro_batch_size(batch_items, m)]
        one = math.inf if s_fast is None else _one_stage_objective(v_factor, m, l_blocks, work, s_fast, queue_sum)
        least = many(m, work, one)
        return least if least < one else one, least

    fwd, bwd = batch_items * model.fwd_flops, model.bwd_flops  # b*o_fwd, o_bwd
    lines = [] if s_fast is None else [(v_factor * (l_blocks / s_fast * fwd) + queue_sum, v_factor * (l_blocks / s_fast * bwd))]
    if many.counts:
        hop_min, hop_max = many.hop_range
        least_work = chunk_work(1, model)  # no chunk does less work
        lines += [
            (v_factor * (load * (fwd + (s - 1) * least_work) + (s - 1) * hop_min - hop_max) + s * queue_sum, v_factor * (load * bwd + hop_min))
            for s, load in many.counts
        ]

    def later(m: int) -> float:
        least = math.inf
        for a, c in lines:
            line = a + c * m
            if line < least:
                least = line
        return least * (1 - 1e-9)

    return bound, later


def schedule_segments(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    queues: tuple[float, ...],
    v_factor: float,
    cu_power_w: float,
) -> SegmentPlan:
    """Exact joint argmin over (partition, micro-batches) for cluster n.

    The incumbent comes first: m = 1's best one-stage plan over the devices
    whose memory holds L and that are not ``_over_budget``, fastest first,
    until one costs strictly more than the best (a tie goes to the later
    device, whose delta is the lesser). So m = 1 is bounded by its many-stage
    floor alone; a larger m keeps its one-stage term, as energy falls with m.

    Then the partition search runs at the ceil(b/m) run starts best-first, in
    ascending (bound, m) of ``_run_start_bound``'s ``bound`` (every segment
    count up to the balance cap priced by ``_stage_count_floor``), each at the
    best objective so far as its cutoff and at the bound's many-stage floor,
    keeping the least (objective, S, delta, m), the oracle's tie-break. The
    run starts are walked in ascending m and priced only when reached: the
    least priced one is searched once its bound is at or below ``later`` of
    the next unpriced one, which no bound from there on lies below, so the
    order is that of sorting every bound. The search stops when the least
    priced bound and that ``later`` both lie strictly above the best
    objective: every plan left is worse. Ties are never skipped, so the order
    cannot change the plan. When no m has a plan, nothing was ruled out, and
    the error raised at m = 1 names the blocker.

    The balance cap at ``cu_power_w`` does not depend on m, so it is read
    once, before the run starts; when it is unreachable, its C11 error is
    raised before any search.
    """
    queue_sum = sum(queues)
    s_cap = _segment_cap(cfg, env, n, cu_power_w)
    bound, later = _run_start_bound(cfg, env, n, v_factor, queue_sum, s_cap)
    table = cfg.solver_table
    starts = table.starts
    priced = []  # ascending (bound, m, floor) of the run starts priced and not yet searched
    walked, after = 0, -math.inf  # run starts priced, and later() of the next; m = 1 is priced unasked
    best_key = error = None
    l_blocks, devices, work = cfg.model.n_blocks, cfg.clusters[n].devices, table.work[cfg.model.batch_items]
    for speed, j in sorted([(env.speed[n][k], k) for k in table.clusters[n][1]], reverse=True):
        obj = _one_stage_objective(v_factor, 1, l_blocks, work, speed, queue_sum)
        if best_key is not None and obj > best_key[0]:
            break  # so is every slower device's
        if not _over_budget(l_blocks, work, devices[j], env.clock_hz[n][j], env.hop_s[n][j]):
            key = (obj, 1, tuple(l_blocks * (k == j) for k in range(len(devices))), 1)  # on a tie, the last device's delta is least
            if best_key is None or key < best_key:
                best_key = key
    while True:
        cutoff = math.inf if best_key is None else best_key[0]
        if priced and priced[0][0] <= after:  # no unpriced run start comes before it
            lower, m, floor = priced.pop(0)
            if lower > cutoff:  # so is every later bound
                break
        elif walked == len(starts) or after > cutoff:  # every bound left lies above the cutoff
            break
        else:
            m = starts[walked]
            lower, floor = bound(m)
            insort(priced, (floor if m == 1 else lower, m, floor))  # m = 1's one-stage plans are the incumbent's
            walked += 1
            after = later(starts[walked]) if walked < len(starts) else math.inf
            continue
        try:
            found = optimal_partition(m, cfg, env, n, v_factor, queue_sum, s_cap, cutoff=cutoff, floor=floor)
        except InfeasibleError as exc:
            if m == 1:
                error = exc
            continue
        if found is None:
            continue
        delta, s = found
        key = (cluster_objective(delta, m, cfg, env, n, v_factor, queue_sum), s, delta, m)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        raise error
    _, _, delta, m = best_key
    return SegmentPlan(delta=delta, m=m)
