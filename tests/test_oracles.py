import math

import numpy as np
import pytest

from edgesched.config import build_config, sample_round_environment
from edgesched.errors import InfeasibleError, OracleGuardError
from edgesched.oracles import (
    brute_force_assignment,
    brute_force_segment_plan,
    grid_search_power,
    pair_scan_partition,
    pair_scan_segment_plan,
)
from edgesched.res_solver import power_control
from edgesched.seg_solver import cluster_objective, optimal_micro_batches, schedule_segments

from conftest import balance_thresholds, minimal_doc, random_system_doc


def test_segment_oracle_guards_are_hard_errors(table2_cfg):
    import dataclasses

    env = sample_round_environment(table2_cfg, 1)
    big = dataclasses.replace(table2_cfg, model=dataclasses.replace(table2_cfg.model, n_blocks=13))
    with pytest.raises(OracleGuardError):
        brute_force_segment_plan(big, env, 0, (0.0,) * 3, 10.0, 0.5)
    wide = dataclasses.replace(table2_cfg, model=dataclasses.replace(table2_cfg.model, batch_items=65))
    with pytest.raises(OracleGuardError):
        brute_force_segment_plan(wide, env, 0, (0.0,) * 3, 10.0, 0.5)


def test_segment_oracle_single_device():
    doc = minimal_doc()
    doc["model"] = {"L": 5, "b": 16}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    delta, s, m, obj = brute_force_segment_plan(cfg, env, 0, (0.0,), 10.0, 0.5)
    assert delta == (5,) and s == 1
    assert m == optimal_micro_batches((5,), cfg, env, 0, 10.0, 0.0)
    assert obj == pytest.approx(cluster_objective(delta, m, cfg, env, 0, 10.0, 0.0), rel=1e-12)


def test_segment_oracle_infeasible_verdict_matches_solver():
    doc = minimal_doc()
    doc["convergence"] = {"gamma_max_bound": 1e-9}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    with pytest.raises(OracleGuardError):
        brute_force_segment_plan(cfg, env, 0, (0.0,), 10.0, 0.5)
    with pytest.raises(InfeasibleError):
        schedule_segments(cfg, env, 0, (0.0,), 10.0, 0.5)


def test_segment_oracle_and_solver_agree_around_every_balance_threshold():
    # the oracle writes C11 inline as p >= max(0, (C/budget(S) - I)/h); at
    # each threshold p_S, and at the floats just below and just above it, it
    # must allow the segment counts the solver allows: both infeasible, or
    # the same plan. Balance caps are set from the round's channel so that
    # p_1 falls anywhere in [0, P_max]; a small phi spreads later thresholds
    # over the same range
    rng = np.random.default_rng(45)
    infeasible = solved = multi = 0
    for _ in range(60):
        doc = random_system_doc(rng, max_devices=4, max_blocks=6, max_batch=8)
        conv = doc["convergence"]
        conv["C"] = float(10 ** rng.uniform(-2, 0))
        conv["phi"] = float(10 ** rng.uniform(-2, 0.3))
        t = int(rng.integers(1, 5))
        cfg = build_config(doc)
        env = sample_round_environment(cfg, t)
        p_1 = float(rng.uniform(0.0, 1.0)) * cfg.clusters[0].uplink_power_max_w
        budget = conv["C"] / (env.uplink_interference_w[0] + env.uplink_gain[0] * p_1) + conv["phi"] ** 2 / cfg.model.n_blocks
        conv["gamma_max_bound"] = (budget + conv["phi"] ** 2) * conv["beta"] * conv["eta"] ** 2 / 2
        cfg = build_config(doc)
        env = sample_round_environment(cfg, t)
        v, queues = cfg.convergence.v_factor, (float(rng.choice([0.0, 1e-3])),)
        thresholds = balance_thresholds(
            cfg.convergence, cfg.n_clusters, cfg.model.n_blocks, env.uplink_gain[0], env.uplink_interference_w[0]
        )
        for p_s in thresholds[: cfg.clusters[0].n_devices]:
            if math.isinf(p_s):
                break
            for power in (math.nextafter(p_s, -math.inf), p_s, math.nextafter(p_s, math.inf)):
                try:
                    plan = schedule_segments(cfg, env, 0, queues, v, power)
                except InfeasibleError:
                    with pytest.raises(OracleGuardError):
                        brute_force_segment_plan(cfg, env, 0, queues, v, power)
                    infeasible += 1
                    continue
                delta, s, m, _ = brute_force_segment_plan(cfg, env, 0, queues, v, power)
                assert (plan.delta, plan.m) == (delta, m)
                solved += 1
                multi += s > 1
    assert infeasible > 30 and solved > 100 and multi > 10


def test_pair_scan_oracle_equals_the_brute_force():
    # the pair-scan oracle visits every first bottleneck with caps rebuilt from
    # scratch and counts covers by a DP; wherever the brute force runs, both
    # give the same plan, m, objective and infeasibility verdict. Half the
    # clusters have devices of one type, whose plans tie; small energy
    # budgets bind at some chunk counts, and head powers below P_max put some
    # under the balance cap
    rng = np.random.default_rng(31)
    solved = infeasible = multi = 0
    for i in range(300):
        doc = random_system_doc(rng, max_devices=6, max_blocks=10, max_batch=8)
        for dev in doc["clusters"][0]["devices"]:
            dev["gamma_max_bytes"] = float(rng.uniform(2.5e8, 2.5e8 * (doc["model"]["L"] + 1)))
            if i % 2:
                dev.update(phi_flops_per_cycle=16.0, f_hz=4e8, p_dd_w=0.1)
            if rng.random() < 0.3:
                dev["E_k_max_j"] = float(np.exp(rng.uniform(np.log(1e-3), np.log(3e-2))))
        cfg = build_config(doc)
        env = sample_round_environment(cfg, int(rng.integers(1, 4)))
        queues, v, power = (float(rng.choice([0.0, 1e-3, 1.0])),), cfg.convergence.v_factor, float(rng.uniform(0.0, 0.5))
        try:
            want = brute_force_segment_plan(cfg, env, 0, queues, v, power)
        except OracleGuardError:
            with pytest.raises(OracleGuardError):
                pair_scan_segment_plan(cfg, env, 0, queues, v, power)
            infeasible += 1
            continue
        assert pair_scan_segment_plan(cfg, env, 0, queues, v, power) == want
        solved += 1
        multi += want[1] > 1
    assert solved > 200 and infeasible > 50 and multi > 60


def test_pair_scan_oracle_guards_are_hard_errors():
    doc = minimal_doc()
    doc["clusters"][0]["devices"] = [{}] * 65
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    with pytest.raises(OracleGuardError):
        pair_scan_partition(cfg, env, 0, 1, 10.0, 0.0, 65)
    doc = minimal_doc()
    doc["model"] = {"L": 129}
    cfg = build_config(doc)
    with pytest.raises(OracleGuardError):
        pair_scan_partition(cfg, sample_round_environment(cfg, 1), 0, 1, 10.0, 0.0, 1)
    doc["model"] = {"L": 128, "b": 65}
    cfg = build_config(doc)
    with pytest.raises(OracleGuardError):
        pair_scan_segment_plan(cfg, sample_round_environment(cfg, 1), 0, (0.0,), 10.0, 0.5)


def test_assignment_oracle_basics():
    a, total = brute_force_assignment(np.array([[3.0]]))
    assert a == (0,) and total == 3.0
    ident = np.array([[0.0, 9.0], [9.0, 0.0]])
    a, total = brute_force_assignment(ident)
    assert a == (0, 1) and total == 0.0
    rng = np.random.default_rng(1)
    cost = rng.uniform(0, 1, size=(3, 4))
    a, total = brute_force_assignment(cost)
    recomputed = sum(cost[n, j] for n, j in enumerate(a) if j is not None)
    assert total == pytest.approx(recomputed)
    # verify optimality against a manual scan of all injective maps
    import itertools

    best = min(
        sum(cost[n, p[n]] for n in range(3)) for p in itertools.permutations(range(4), 3)
    )
    assert total == pytest.approx(best)


def test_assignment_oracle_ties_do_not_depend_on_summation_order():
    # (0, 1, 2, None) and (None, 0, 1, 2) use the same three costs; summed left
    # to right, their totals differ in the last bit (16.521439952559987 vs
    # 16.52143995255999) and the later assignment won
    cost = np.tile([[7.523063771164595], [4.179900144313395], [4.818476037081999], [7.523063771164595]], (1, 3))
    a, total = brute_force_assignment(cost)
    assert a == (0, 1, 2, None)
    assert total == math.fsum([7.523063771164595, 4.179900144313395, 4.818476037081999])


def test_assignment_oracle_ranks_on_exact_totals():
    # clusters {0, 1} cost exactly 2e16 + 2 and {0, 3} exactly 2e16, but both
    # totals round to the same double; only the cheaper set may win
    cost = np.tile([[1e16], [1e16 + 2], [1e16 + 2], [1e16]], (1, 2))
    a, total = brute_force_assignment(cost)
    assert a == (0, None, None, 1)
    assert total == 2e16


def test_assignment_oracle_guard():
    with pytest.raises(OracleGuardError):
        brute_force_assignment(np.zeros((7, 3)))


def test_grid_power_linear_objective_hits_boundary():
    # zero queue weight: objective decreasing in p, optimum at p_max
    p, obj = grid_search_power(5e5, 0.98, 0.07, 10 ** (-20.4), 1e6, 5e5, 0.5, 10.0, 0.0, 10.0, 1e9, 0.0559, 10_001)
    assert p == pytest.approx(0.5)


def test_grid_power_interior_within_spacing(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    y, v, s = 30.0, 10.0, 1
    p_star = power_control(table2_cfg, env, 0, y, v, s)
    params = table2_cfg.convergence
    cap = (
        2 * 3 * params.gamma_max / (params.beta * params.eta**2)
        - params.phi_bound**2 * s**2 / table2_cfg.model.n_blocks
        - params.phi_bound**2
    )
    cl = table2_cfg.clusters[0]
    points = 200_001
    pg, og = grid_search_power(
        cl.uplink_bandwidth_hz,
        env.uplink_gain[0],
        env.uplink_interference_w[0],
        table2_cfg.noise_density_w_per_hz,
        table2_cfg.model.uplink_payload_bits,
        table2_cfg.model.enc_param_bits,
        cl.uplink_power_max_w,
        cl.uplink_energy_budget_j,
        y,
        v,
        cap,
        params.c_interference,
        points,
    )
    spacing = cl.uplink_power_max_w / (points - 1)
    assert abs(pg - p_star) <= spacing * (1 + 1e-9)


def test_grid_power_all_infeasible_matches_power_control(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    cl = table2_cfg.clusters[0]
    with pytest.raises(OracleGuardError):
        grid_search_power(
            cl.uplink_bandwidth_hz,
            env.uplink_gain[0],
            env.uplink_interference_w[0],
            table2_cfg.noise_density_w_per_hz,
            table2_cfg.model.uplink_payload_bits,
            table2_cfg.model.enc_param_bits,
            cl.uplink_power_max_w,
            cl.uplink_energy_budget_j,
            0.0,
            10.0,
            -1.0,  # unreachable balance cap
            table2_cfg.convergence.c_interference,
            10_001,
        )
    with pytest.raises(InfeasibleError):
        power_control(table2_cfg, env, 0, 0.0, 10.0, 6)


def test_grid_power_guard():
    with pytest.raises(OracleGuardError):
        grid_search_power(5e5, 1.0, 0.07, 1e-20, 1e6, 5e5, 0.5, 10.0, 0.0, 1.0, 1.0, 0.05, 1)
    with pytest.raises(OracleGuardError):
        grid_search_power(5e5, 1.0, 0.07, 1e-20, 1e6, 5e5, 0.5, 10.0, 0.0, 1.0, 1.0, 0.05, 10_000_001)
