"""Oracle spot checks: production solvers against edgesched's brute-force oracles.

Each check rebuilds the real state of a round of the checked pass (its
environment, the queues before it, its segment counts) and compares the
solver the scheduler uses with the exhaustive oracle, within the oracle's
tractability guard. Checks whose round or preceding round is missing from
the trace are not run; the missing rounds already count as failed.
"""

from __future__ import annotations

import math

from edgesched.config import sample_round_environment
from edgesched.errors import InfeasibleError, OracleGuardError
from edgesched.oracles import brute_force_assignment, brute_force_segment_plan, grid_search_power
from edgesched.pipeline import event_sim_makespan
from edgesched.res_solver import channel_assignment, matching_costs, power_control
from edgesched.seg_solver import cluster_objective, schedule_segments

import checks

OBJ_TOL = 1e-9  # segment objective: the solver is exact
POWER_TOL = 1e-3  # power objective against a 1e6-point grid, far above its resolution
FEAS_TOL = 1e-9  # the solver's power against the recomputed constraints
GRID_POINTS = 1_000_000


def _queues_before(records: dict[int, dict], t: int, n_clusters: int) -> tuple[float, ...]:
    return tuple(records[t - 1]["queue_y"]) if t > 1 else (0.0,) * n_clusters


def _spread(rounds: int, count: int) -> list[int]:
    """``count`` round indices spread over 1..rounds."""
    return sorted({1 + (rounds - 1) * i // max(1, count - 1) for i in range(count)})


def segment_plan(cfg, records, t: int, n: int) -> str:
    """schedule_segments at the round's queues and full power vs exhaustive search."""
    env = sample_round_environment(cfg, t)
    queues = _queues_before(records, t, cfg.n_clusters)
    v, power = cfg.convergence.v_factor, cfg.clusters[n].uplink_power_max_w
    try:
        plan = schedule_segments(cfg, env, n, queues, v, power)
    except InfeasibleError as exc:
        plan, solver_error = None, exc
    try:
        _, _, _, oracle_obj = brute_force_segment_plan(cfg, env, n, queues, v, power)
    except OracleGuardError:
        return "" if plan is None else f"t={t} n={n}: solver found a plan the oracle calls infeasible"
    if plan is None:
        return f"t={t} n={n}: solver infeasible ({solver_error}) but the oracle found a plan"
    obj = cluster_objective(plan.delta, plan.m, cfg, env, n, v, sum(queues))
    if abs(obj - oracle_obj) > OBJ_TOL * max(1.0, abs(oracle_obj)):
        return f"t={t} n={n}: segment objective {obj} != oracle {oracle_obj}"
    return ""


def assignment(cfg, records, t: int) -> str:
    """Channel matching at the round's candidate powers vs factorial enumeration."""
    env = sample_round_environment(cfg, t)
    queues = _queues_before(records, t, cfg.n_clusters)
    v = cfg.convergence.v_factor
    segments = records[t]["S"]
    powers = tuple(power_control(cfg, env, n, queues[n], v, segments[n]) for n in range(cfg.n_clusters))
    solved = channel_assignment(cfg, env, queues, v, powers).assigned
    oracle, _ = brute_force_assignment(matching_costs(cfg, env, queues, v, powers))
    return "" if solved == oracle else f"t={t}: matching {solved} != oracle {oracle}"


def power(cfg, doc, records, t: int, n: int) -> str:
    """power_control vs a dense grid over the true energy and balance constraints.

    The solver's power must itself meet the budget and the balance floor,
    recomputed here from the document, and its objective must equal the
    grid's optimum to within ``POWER_TOL``, both ways.
    """
    env = sample_round_environment(cfg, t)
    queues = _queues_before(records, t, cfg.n_clusters)
    v, s, conv = cfg.convergence.v_factor, records[t]["S"][n], doc["convergence"]
    cl = doc["clusters"][n]
    model = doc["model"]
    n0 = checks.noise_density(doc)
    gain, interference = env.uplink_gain[n], env.uplink_interference_w[n]
    eps_cap = (
        2.0 * len(doc["clusters"]) * conv["gamma_max_bound"] / (conv["beta"] * conv["eta"] ** 2)
        - conv["phi"] ** 2 * s**2 / model["L"]
        - conv["phi"] ** 2
    )
    try:
        p = power_control(cfg, env, n, queues[n], v, s)
    except InfeasibleError:
        p = None
    try:
        _, grid_obj = grid_search_power(
            cl["B_up_hz"], gain, interference, n0,
            model["z_enc_bits"] + model["theta_enc_bits"], model["theta_enc_bits"],
            cl["P_n_max_w"], cl["E_n_max_j"], queues[n], v, eps_cap, conv["C"], GRID_POINTS,
        )
    except OracleGuardError:
        grid_obj = None
    if p is None:
        return "" if grid_obj is None else f"t={t} n={n}: power control infeasible but the grid found a power"
    if grid_obj is None:
        return f"t={t} n={n}: power control returned {p} W but no grid power is feasible"
    if not 0.0 < p <= cl["P_n_max_w"] * (1 + FEAS_TOL):
        return f"t={t} n={n}: power {p} W outside (0, {cl['P_n_max_w']}]"
    rate = cl["B_up_hz"] * math.log2(1.0 + p * gain / (interference + cl["B_up_hz"] * n0))
    energy = p * model["theta_enc_bits"] / rate
    error = conv["C"] / (p * gain + interference)
    if energy > cl["E_n_max_j"] * (1 + FEAS_TOL):
        return f"t={t} n={n}: upload energy {energy} J over the budget {cl['E_n_max_j']} J"
    if error > eps_cap * (1 + FEAS_TOL):
        return f"t={t} n={n}: interference error {error} over the balance cap {eps_cap}"
    obj = v * (model["z_enc_bits"] + model["theta_enc_bits"]) / rate + queues[n] * p
    if abs(obj - grid_obj) > POWER_TOL * abs(grid_obj):
        return f"t={t} n={n}: power objective {obj} differs from the grid's {grid_obj}"
    return ""


def event_sim(doc, records, t: int) -> str:
    """Closed-form pipeline latency dominates the event simulator on every cluster."""
    env = checks.draw_environment(doc, t)
    rec = records[t]
    for n in range(len(doc["clusters"])):
        times, hops = checks.stage_times(doc, env, n, rec["delta"][n], rec["m"][n])
        closed = checks.closed_form_latency(times, hops, rec["m"][n])
        sim = event_sim_makespan(times, hops, rec["m"][n])
        if closed < sim - 1e-12 * max(1.0, sim):
            return f"t={t} n={n}: closed form {closed} below event simulation {sim}"
    return ""


def run_spot_checks(workload: str, cfg, doc: dict, trace: list[dict], rounds: int):
    """Run the workload's spot checks on one policy's trace records.

    Returns (checks attempted, checks failed, messages).
    """
    records = {r["t"]: r for r in trace}
    spots = [t for t in _spread(rounds, 2) if t in records and (t == 1 or t - 1 in records)]
    plan: list = []
    if workload in ("paper", "contended"):
        plan += [lambda t=t: segment_plan(cfg, records, t, 0) for t in spots]
    if workload == "paper":
        plan += [lambda t=t: assignment(cfg, records, t) for t in spots]
    if workload == "contended":
        plan += [
            lambda t=t, n=n: power(cfg, doc, records, t, n)
            for t in spots
            for n in range(cfg.n_clusters)
            if records[t]["channel"][n] is not None
        ][:4]
    if workload == "encoder":
        plan += [lambda t=t: event_sim(doc, records, t) for t in records]
    messages = [m for m in (check() for check in plan) if m]
    return len(plan), len(messages), messages


def closed_form_below_event_sim(doc: dict, trace: list[dict]) -> list[str]:
    """The event-simulator comparison on every round, reported but not failed.

    On plans whose bottleneck hop is longer than the last stage's hop the
    closed form subtracts the larger hop and falls below the simulator (found
    on paper and baselines; never on encoder, where the check is gated).
    """
    records = {r["t"]: r for r in trace}
    return [m for m in (event_sim(doc, records, t) for t in records) if m]
