"""Inter-cluster resource allocation: channel matching and uplink power control.

The per-cluster power objective V*tau_up(p) + Y*p is convex on p > 0 (the
delay is the reciprocal of a concave rate), and the energy budget (C8) and the
balance cap (C11) each bound the power to one side, C11 at the round's
threshold p_S for S segments (``convergence.balance_power_threshold``, the
thresholds the segment solver reads its cap from). A convex function of one
variable is minimized on a box by its stationary point clamped to the box,
and that point has a closed form through Lambert's W
(``_stationary_power``), so power control evaluates no derivative. Channels
are identical, so matching ranks the clusters by cost and the surplus ones
sit out a round, after every cluster whose power box is empty.

Scipy is loaded only by the Hungarian test reference, ``_lexmin_assignment``,
and numpy only by it and ``matching_costs``, the oracle's input.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .comm import ChannelAssignment, Uplink, uplink
from .config import RoundEnvironment, SystemConfig
from .convergence import threshold_power
from .errors import InfeasibleError
from .pipeline import ENERGY_BUDGET_SLACK

if TYPE_CHECKING:
    import numpy as np

_BISECT_ITERS = 200
_LN2 = math.log(2.0)


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment``, imported on the first call.

    The scheduler never calls it, so importing edgesched does not load scipy.
    A plain module function, not a lazy attribute, so that callers and
    wrappers can replace it in this module's namespace.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


_problem = uplink  # the name the tests import the uplink model by


def _energy_power_ceiling(prob: Uplink) -> float:
    """Largest power satisfying the upload-energy budget (C8 as a box).

    The upload energy increases from its p->0 limit theta*ln2*(I+B*N0)/(B*h);
    when even that limit exceeds the budget no positive power can transmit.
    Otherwise, when the budget binds, the boundary is bisected from [0, P_max]
    to its float fixed point (at most 200 steps), returning the feasible end.
    """
    e_limit = prob.param_bits * _LN2 * prob.noise_floor / (prob.bandwidth * prob.gain)
    if e_limit > prob.e_max * (1 + ENERGY_BUDGET_SLACK):
        raise InfeasibleError("C8", "upload-energy budget excludes every positive power")
    if prob.upload_energy(prob.p_max) <= prob.e_max:
        return prob.p_max
    lo, hi = 0.0, prob.p_max
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if prob.upload_energy(mid) <= prob.e_max:
            lo = mid
        else:
            hi = mid
    return lo


def _stationary_power(prob: Uplink, v_factor: float, y_n: float) -> float:
    """The power where the objective's derivative vanishes, in closed form.

    With t = ln(1 + p*h/N) and N = I + B*N0, the derivative
    -V*payload*f'(p)/(B*f(p)^2) + y_n vanishes where t^2 * e^t = A =
    V*payload*h*ln2/(N*B*y_n), the equation of Lambert's W
    (t = 2*W(sqrt(A)/2)). In s = ln t it is 2s + e^s = ln A, convex and
    increasing in s, so Newton steps from an upper bound on the root (ln A / 2,
    or ln ln A once ln A >= 2) descend to it without overshooting; they stop
    when a step no longer moves s down. Then p = N*expm1(t)/h.

    The objective only falls when y_n <= 0 or A overflows, so the point is
    inf; it only rises when A underflows to 0, so the point is 0.
    """
    if y_n <= 0.0:
        return math.inf
    a = v_factor * prob.payload * prob.gain * _LN2 / (prob.noise_floor * prob.bandwidth * y_n)
    if a == math.inf:
        return math.inf
    if a == 0.0:
        return 0.0
    log_a = math.log(a)
    s = 0.5 * log_a if log_a < 2.0 else math.log(log_a)
    for _ in range(_BISECT_ITERS):
        t = math.exp(s)
        s_next = s - (2.0 * s + t - log_a) / (2.0 + t)
        if not s_next < s:
            break
        s = s_next
    return prob.noise_floor * math.expm1(math.exp(s)) / prob.gain


def _objective(prob: Uplink, v_factor: float, y_n: float, p: float) -> float:
    return v_factor * prob.delay(p) + y_n * p


def power_control(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    y_n: float,
    v_factor: float,
    n_segments: int,
    enforce_balance: bool = True,
) -> float:
    """Optimal uplink power of cluster n in [0, P_max] under C8 and C11.

    The balance cap gives a power floor and the energy budget a ceiling; the
    convex objective is minimized over [max(floor, 1e-12 P_max), ceiling] by
    its closed-form stationary power clamped to that box.

    The floor is the C11 threshold p_S at S = ``n_segments``, in [1, L].
    """
    prob = uplink(cfg, env, n)
    p_floor = 0.0
    if enforce_balance:
        l_blocks = cfg.model.n_blocks
        if not 1 <= n_segments <= l_blocks:
            raise InfeasibleError("C1", f"cluster {n}: segment count {n_segments} outside [1, {l_blocks}]")
        p_floor = threshold_power(cfg.solver_table.shares[n_segments - 1], env.uplink_gain[n], env.uplink_interference_w[n])
        if math.isinf(p_floor):
            raise InfeasibleError("C11", f"cluster {n}: balance cap unreachable at any power (S={n_segments})")
    if p_floor > prob.p_max * (1 + 1e-12):
        raise InfeasibleError(
            "C11'", f"cluster {n}: balance cap needs power {p_floor:.6g} W > P_max {prob.p_max} W"
        )
    p_ceil = _energy_power_ceiling(prob)
    if p_floor > p_ceil * (1 + 1e-12):
        raise InfeasibleError("C8", f"cluster {n}: energy budget caps power below the balance floor")
    lo = max(p_floor, 1e-12 * prob.p_max)
    return min(max(_stationary_power(prob, v_factor, y_n), lo), p_ceil)


def _lexmin_assignment(cost: np.ndarray) -> list[int]:
    """Minimum-cost perfect matching, lexicographically smallest among optima.
    The reference the matching tests compare against; the scheduler ranks.

    Rows are fixed in order to their smallest workable column, re-solving the
    reduced problem to confirm the total stays optimal.
    """
    import numpy as np

    d = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    best_total = float(cost[rows, cols].sum())
    scale = max(1.0, abs(best_total))
    chosen: list[int] = []
    remaining_total = best_total
    for n in range(d):
        for j in range(d):
            if j in chosen:
                continue
            sub_rows = [r for r in range(n + 1, d)]
            sub_cols = [c for c in range(d) if c not in chosen and c != j]
            if sub_rows:
                sub = cost[np.ix_(sub_rows, sub_cols)]
                r2, c2 = linear_sum_assignment(sub)
                rest = float(sub[r2, c2].sum())
            else:
                rest = 0.0
            if cost[n, j] + rest <= remaining_total + 1e-12 * scale:
                chosen.append(j)
                remaining_total = remaining_total - float(cost[n, j])
                break
        assert len(chosen) == n + 1
    return chosen


def _cluster_costs(
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
    powers: tuple[float, ...],
) -> list[float]:
    """Cost of letting each cluster n transmit at its power p_n: V*tau_up(p_n) + Y_n*p_n; +inf at p_n = None."""
    return [math.inf if p is None else _objective(uplink(cfg, env, n), v_factor, queues[n], p) for n, p in enumerate(powers)]


def matching_costs(
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
    candidate_powers: tuple[float, ...],
) -> np.ndarray:
    """Cost of placing cluster n on channel j. Every row is constant, since
    channels are identical; the N x J form is kept as the oracle's input."""
    import numpy as np

    costs = _cluster_costs(cfg, env, queues, v_factor, candidate_powers)
    return np.tile(np.array(costs)[:, None], (1, cfg.n_channels))


def _ranked_assignment(cfg: SystemConfig, order: list[int]) -> ChannelAssignment:
    """Greedy channels-by-rank: the first min(N, J) clusters in order transmit."""
    channel = {n: j for j, n in enumerate(order[: cfg.n_channels])}
    return ChannelAssignment(n_channels=cfg.n_channels, assigned=tuple(channel.get(n) for n in range(cfg.n_clusters)))


def channel_assignment(
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
    candidate_powers: tuple[float, ...],
) -> ChannelAssignment:
    """Minimum-cost matching, lex tie-break: the min(N, J) cheapest clusters by
    (cost, index) transmit, on channels 0, 1, ... in cluster order."""
    costs = _cluster_costs(cfg, env, queues, v_factor, candidate_powers)
    ranked = sorted(range(cfg.n_clusters), key=costs.__getitem__)
    return _ranked_assignment(cfg, sorted(ranked[: cfg.n_channels]))


def allocate_resources(
    cfg: SystemConfig,
    env: RoundEnvironment,
    queues: tuple[float, ...],
    v_factor: float,
    segment_counts: tuple[int, ...],
    enforce_balance: bool = True,
) -> tuple[ChannelAssignment, tuple[float, ...]]:
    """Channel matching and uplink powers for one round, in a single pass.

    The power sub-problems have no cross-cluster coupling, so each cluster's
    optimal power is solved first; the matching is then priced at those
    powers, and clusters left without a channel transmit at zero power. A
    cluster whose power box is empty (C8) costs +inf and ranks last; its C8
    is raised only when fewer than min(N, J) clusters can transmit.
    """
    candidates, blocked = [], {}
    for n in range(cfg.n_clusters):
        try:
            candidates.append(power_control(cfg, env, n, queues[n], v_factor, segment_counts[n], enforce_balance=enforce_balance))
        except InfeasibleError as exc:
            if exc.constraint != "C8":
                raise
            candidates.append(None)
            blocked[n] = exc
    assignment = channel_assignment(cfg, env, queues, v_factor, tuple(candidates))
    for n, exc in blocked.items():
        if assignment.is_transmitting(n):
            raise exc
    powers = tuple(candidates[n] if assignment.is_transmitting(n) else 0.0 for n in range(cfg.n_clusters))
    return assignment, powers
