import dataclasses
import itertools
import json
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from edgesched.comm import device_d2d_delay
from edgesched.config import build_config, sample_round_environment
from edgesched.decision import validate_decision
from edgesched.errors import InfeasibleError, OracleGuardError
from edgesched.oracles import brute_force_segment_plan, pair_scan_partition, pair_scan_segment_plan
from edgesched.orchestrator import optimize_round, run_simulation
from edgesched.pipeline import (
    ENERGY_BUDGET_SLACK,
    SegmentPlan,
    chunk_work,
    device_energy,
    micro_batch_size,
    pipeline_latency_from_times,
)
from edgesched.seg_solver import (
    _cap_cover,
    _fewest_cover,
    _lexmin_cover,
    _micro_batch_run_starts,
    _run_start_bound,
    _segment_cap,
    _stage_count_floor,
    _stop_occupancy,
    _whole_block_load,
    cluster_objective,
    optimal_micro_batches,
    optimal_partition,
    schedule_segments,
)
from edgesched.res_solver import power_control

from conftest import HOMOGENEOUS, balance_thresholds, minimal_doc, random_system, random_system_doc, workload_doc


def _partition(m, cfg, env, n, v, queue_sum, power, **kwargs):
    """optimal_partition under the balance cap at head power ``power``, as schedule_segments calls it."""
    return optimal_partition(m, cfg, env, n, v, queue_sum, _segment_cap(cfg, env, n, power), **kwargs)


def _enumerate_m(delta, cfg, env, n, v, queue_sum):
    """Full-enumeration reference for the micro-batch sub-solve."""
    from edgesched.seg_solver import _feasible_energy_at_m

    best = None
    for m in range(1, cfg.model.batch_items + 1):
        if not _feasible_energy_at_m(delta, m, cfg, env, n):
            continue
        obj = cluster_objective(delta, m, cfg, env, n, v, queue_sum)
        if best is None or obj < best[0]:
            best = (obj, m)
    return best


def test_single_segment_prefers_one_chunk(homogeneous_cfg):
    env = sample_round_environment(homogeneous_cfg, 1)
    delta = (6, 0, 0, 0, 0, 0)
    assert optimal_micro_batches(delta, homogeneous_cfg, env, 0, 10.0, 0.0) == 1


def test_micro_batch_solve_skips_run_starts_over_the_energy_budget():
    # a chunk's energy falls with m, so a budget between the energies at m = 1
    # and m = 2 rules out only m = 1, and one below m = b's rules out every m
    doc = minimal_doc()
    doc["model"] = {"L": 4, "b": 16}
    device = doc["clusters"][0]["devices"][0]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    energy = [device_energy(4, m, cfg, env, 0, 0) for m in (1, 2, 16)]
    assert energy[0] > energy[1] > energy[2]
    assert optimal_micro_batches((4,), cfg, env, 0, 10.0, 0.0) == 1
    device["E_k_max_j"] = (energy[0] + energy[1]) / 2
    cfg = build_config(doc)
    assert optimal_micro_batches((4,), cfg, sample_round_environment(cfg, 1), 0, 10.0, 0.0) == 2
    device["E_k_max_j"] = energy[2] / 2
    cfg = build_config(doc)
    with pytest.raises(InfeasibleError, match="C9'"):
        optimal_micro_batches((4,), cfg, sample_round_environment(cfg, 1), 0, 10.0, 0.0)


def test_energy_caps_admit_every_plan_the_validator_admits():
    # one homogeneous device, with budgets within a few ulps of the energy
    # of all L blocks at m = b: the validator's C9 admits that plan at every
    # budget, so the block caps must hold all L blocks there, and the round
    # must be kept
    with open(HOMOGENEOUS, encoding="utf-8") as fh:
        doc = json.load(fh)
    device = doc["clusters"][0]["devices"][0]
    doc["clusters"][0]["devices"] = [device]
    cfg = build_config(doc)
    l_blocks, b = cfg.model.n_blocks, cfg.model.batch_items
    energy = device_energy(l_blocks, b, cfg, sample_round_environment(cfg, 1), 0, 0)
    for i in range(14):
        device["E_k_max_j"] = energy * (1 + i * 5e-14) / (1 + 1e-12)
        cfg = build_config(doc)
        env = sample_round_environment(cfg, 1)
        decision = optimize_round(cfg, env, (0.0,), cfg.convergence.v_factor)
        assert decision.plans == (SegmentPlan(delta=(l_blocks,), m=b),)
        validate_decision(decision, cfg, env)
        assert [r.round_index for r in run_simulation(cfg, 1, "lyapunov").rounds] == [1]


def test_micro_batch_solve_of_an_all_zero_partition_fails_c2(table2_cfg):
    # the closed form prices the first run start and finds no stage
    env = sample_round_environment(table2_cfg, 1)
    with pytest.raises(InfeasibleError, match="empty pipeline plan") as err:
        optimal_micro_batches((0,) * 6, table2_cfg, env, 0, 10.0, 0.0)
    assert err.value.constraint == "C2"


def test_micro_batch_solve_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(120):
        cfg = random_system(rng)
        env = sample_round_environment(cfg, 1)
        k = cfg.clusters[0].n_devices
        # a random scheduled subset with a random spread
        delta = [0] * k
        rem = cfg.model.n_blocks
        order = list(rng.permutation(k))
        for idx, dev in enumerate(order):
            if rem == 0:
                break
            take = rem if idx == len(order) - 1 else int(rng.integers(0, rem + 1))
            delta[dev] = min(take, cfg.clusters[0].devices[dev].block_cap)
            rem -= delta[dev]
        if rem or not any(delta):
            continue
        v = cfg.convergence.v_factor
        q = float(rng.uniform(0, 2))
        ref = _enumerate_m(tuple(delta), cfg, env, 0, v, q)
        try:
            m_star = optimal_micro_batches(tuple(delta), cfg, env, 0, v, q)
        except InfeasibleError:
            assert ref is None
            continue
        assert ref is not None
        obj = cluster_objective(tuple(delta), m_star, cfg, env, 0, v, q)
        assert obj == pytest.approx(ref[0], rel=1e-12)
        checked += 1
    assert checked > 60


def test_partition_single_device_forced():
    doc = minimal_doc()
    doc["model"] = {"L": 4}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    delta, s = _partition(2, cfg, env, 0, 10.0, 0.0, 0.5)
    assert delta == (4,) and s == 1


def test_partition_excludes_memory_starved_device(homogeneous_cfg):
    cfg = homogeneous_cfg
    starved = dataclasses.replace(cfg.clusters[0].devices[0], mem_budget_bytes=1e7, mem_per_block_bytes=2.5e8)
    cluster = dataclasses.replace(cfg.clusters[0], devices=(starved,) + cfg.clusters[0].devices[1:])
    cfg2 = dataclasses.replace(cfg, clusters=(cluster,))
    env = sample_round_environment(cfg2, 1)
    for m in (1, 4, 16):
        delta, _ = _partition(m, cfg2, env, 0, 10.0, 0.0, 0.5)
        assert delta[0] == 0
    plan = schedule_segments(cfg2, env, 0, (0.0,), 10.0, 0.5)
    assert plan.delta[0] == 0


def test_partition_matches_exhaustive_on_homogeneous_cluster():
    doc = minimal_doc()
    doc["model"] = {"L": 12, "b": 32}
    doc["clusters"][0]["devices"] = [{"phi_flops_per_cycle": 16, "f_hz": 4.5e8} for _ in range(6)]
    doc["convergence"] = {"gamma_max_bound": 1.0}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    for m in (1, 4, 9):
        delta, s = _partition(m, cfg, env, 0, 10.0, 0.3, 0.5)
        # exhaustive reference over all compositions
        best = None
        k = 6

        def rec(i, rem, cur):
            nonlocal best
            if i == k:
                if rem == 0 and any(cur):
                    obj = cluster_objective(tuple(cur), m, cfg, env, 0, 10.0, 0.3)
                    key = (obj, sum(1 for x in cur if x > 0), tuple(cur))
                    if best is None or key < best:
                        best = key
                return
            for d in range(0, min(6, rem) + 1):
                cur.append(d)
                rec(i + 1, rem - d, cur)
                cur.pop()

        rec(0, 12, [])
        assert cluster_objective(delta, m, cfg, env, 0, 10.0, 0.3) == pytest.approx(best[0], rel=1e-12)
        assert (delta, s) == (best[2], best[1])
        # homogeneous: the optimum spread is balanced
        positive = [d for d in delta if d > 0]
        assert max(positive) - min(positive) <= 1


def test_schedule_segments_respects_constraints(table2_cfg):
    env = sample_round_environment(table2_cfg, 3)
    plan = schedule_segments(table2_cfg, env, 0, (0.5, 0.5, 0.5), 10.0, 0.5)
    plan.validate(table2_cfg.clusters[0], table2_cfg.model)  # C1, C2, C7
    assert sum(plan.delta) == table2_cfg.model.n_blocks
    assert 1 <= plan.n_segments <= 6


def test_schedule_segments_interior_optimum_on_homogeneous(homogeneous_cfg):
    # even splits over a homogeneous cluster admit an interior optimum; the
    # solver must beat both the no-split and the max-split corner plans
    cfg = homogeneous_cfg
    env = sample_round_environment(cfg, 1)
    plan = schedule_segments(cfg, env, 0, (0.0,), cfg.convergence.v_factor, 0.5)
    v, q = cfg.convergence.v_factor, 0.0
    obj = cluster_objective(plan.delta, plan.m, cfg, env, 0, v, q)
    corner1 = cluster_objective((6, 0, 0, 0, 0, 0), 1, cfg, env, 0, v, q)
    corner2 = cluster_objective((1, 1, 1, 1, 1, 1), cfg.model.batch_items, cfg, env, 0, v, q)
    assert 1 < plan.n_segments < 6
    assert obj < corner1 and obj < corner2


def test_heterogeneous_plan_favors_fast_devices():
    # cluster with strong speed spread and tight memory so splitting is forced
    doc = minimal_doc()
    doc["model"] = {"L": 12, "b": 64}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": phi, "f_hz": 4e8, "gamma_max_bytes": 1.0e9, "gamma0_bytes": 2.5e8}
        for phi in (6, 10, 14, 18, 22, 26)
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    plan = schedule_segments(cfg, env, 0, (0.0,), 10.0, 0.5)
    speeds = [cfg.clusters[0].devices[k].flops_per_cycle * env.clock_hz[0][k] for k in range(6)]
    for a in range(6):
        for b in range(6):
            if speeds[a] > speeds[b] and plan.delta[b] > 0:
                assert plan.delta[a] >= plan.delta[b] - 1  # blocks track speed
    # stage+hop spread no worse than the uniform spread
    from edgesched.pipeline import stage_profile

    times, hops = stage_profile(plan.delta, plan.m, cfg, env, 0)
    u = [t + d for t, d in zip(times, hops)]
    uniform = [2 * (micro_batch_size(cfg.model.batch_items, plan.m) * 2e6 + 2e6) / speeds[k] + hops[0] for k in range(6)]
    assert max(u) - min(u) <= max(uniform) - min(uniform) + 1e-12


def test_schedule_segments_matches_oracle_battery():
    rng = np.random.default_rng(321)
    obj_match = tie_match = total = 0
    for _ in range(80):
        cfg = random_system(rng)
        env = sample_round_environment(cfg, 1)
        queues = (float(rng.uniform(0, 2.0)),)
        power = float(rng.uniform(0.05, 0.5))
        v = cfg.convergence.v_factor
        try:
            od, _, om, oobj = brute_force_segment_plan(cfg, env, 0, queues, v, power)
        except Exception:
            with pytest.raises(InfeasibleError):
                schedule_segments(cfg, env, 0, queues, v, power)
            continue
        plan = schedule_segments(cfg, env, 0, queues, v, power)
        total += 1
        pobj = cluster_objective(plan.delta, plan.m, cfg, env, 0, v, sum(queues))
        if abs(pobj - oobj) <= 1e-9 * max(1.0, abs(oobj)):
            obj_match += 1
            if plan.delta == od and plan.m == om:
                tie_match += 1
    assert total >= 50
    assert obj_match == total
    assert tie_match == total


def test_joint_search_finds_plan_where_memory_rules_out_seeds():
    # no device holds all 8 blocks and the balance cap allows two segments, so
    # only the slow high-memory device can pair with a fast one
    doc = minimal_doc()
    doc["model"] = {"L": 8, "b": 16}
    doc["convergence"] = {"gamma_max_bound": 9e-5}
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": phi, "f_hz": 4e8, "gamma_max_bytes": mem, "gamma0_bytes": 2.5e8}
        for phi, mem in ((30, 5e8), (25, 5e8), (10, 1.5e9))
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    plan = schedule_segments(cfg, env, 0, (0.0,), 10.0, 0.5)
    od, _, om, _ = brute_force_segment_plan(cfg, env, 0, (0.0,), 10.0, 0.5)
    assert (plan.delta, plan.m) == (od, om) == ((0, 2, 6), 2)


@pytest.mark.parametrize("t", [12, 18])
def test_table2_plan_matches_oracle(table2_cfg, t):
    env = sample_round_environment(table2_cfg, t)
    queues = (0.0, 0.0, 0.0)
    v = table2_cfg.convergence.v_factor
    plan = schedule_segments(table2_cfg, env, 1, queues, v, 0.5)
    od, _, om, _ = brute_force_segment_plan(table2_cfg, env, 1, queues, v, 0.5)
    assert (plan.delta, plan.m) == (od, om)


def test_partition_cutoff_keeps_ties_and_prunes_worse_plans(homogeneous_cfg):
    env = sample_round_environment(homogeneous_cfg, 1)
    args = (homogeneous_cfg, env, 0, 10.0, 0.0, 0.5)
    delta, s = _partition(4, *args)
    obj = cluster_objective(delta, 4, homogeneous_cfg, env, 0, 10.0, 0.0)
    assert _partition(4, *args, cutoff=obj) == (delta, s)
    assert _partition(4, *args, cutoff=obj * (1 - 1e-9)) is None


def test_infeasibility_reports_name_constraints():
    # memory cannot host the blocks anywhere
    doc = minimal_doc()
    doc["model"] = {"L": 8}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 5e8, "gamma0_bytes": 2.5e8}]  # cap 2
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    with pytest.raises(InfeasibleError, match="C7"):
        schedule_segments(cfg, env, 0, (0.0,), 10.0, 0.5)
    # balance cap unreachable: tiny gamma_max
    doc2 = minimal_doc()
    doc2["convergence"] = {"gamma_max_bound": 1e-9}
    cfg2 = build_config(doc2)
    env2 = sample_round_environment(cfg2, 1)
    with pytest.raises(InfeasibleError, match="C11") as unreachable:
        schedule_segments(cfg2, env2, 0, (0.0,), 10.0, 0.5)
    assert str(unreachable.value) == "infeasible: C11 (cluster 0: balance cap unreachable at power 0.5)"
    # energy budget excludes every chunk count
    doc3 = minimal_doc()
    doc3["model"] = {"L": 2, "b": 8}
    doc3["clusters"][0]["devices"] = [{"E_k_max_j": 1e-9, "kappa": 1e-20}]
    cfg3 = build_config(doc3)
    env3 = sample_round_environment(cfg3, 1)
    with pytest.raises(InfeasibleError, match="C9'|C7"):
        schedule_segments(cfg3, env3, 0, (0.0,), 10.0, 0.5)


def test_twelve_block_plan_beats_corner_plans(homogeneous_cfg):
    import dataclasses

    cfg = dataclasses.replace(
        homogeneous_cfg, model=dataclasses.replace(homogeneous_cfg.model, n_blocks=12)
    )
    env = sample_round_environment(cfg, 1)
    plan = schedule_segments(cfg, env, 0, (0.0,), cfg.convergence.v_factor, 0.5)
    v = cfg.convergence.v_factor
    obj = cluster_objective(plan.delta, plan.m, cfg, env, 0, v, 0.0)
    no_split = cluster_objective((12, 0, 0, 0, 0, 0), 1, cfg, env, 0, v, 0.0)
    max_split = cluster_objective((2, 2, 2, 2, 2, 2), cfg.model.batch_items, cfg, env, 0, v, 0.0)
    assert obj < no_split and obj < max_split


def test_partition_respects_binding_energy_cap():
    # one device's switched-capacitance scale makes its per-block energy bind
    doc = minimal_doc()
    doc["model"] = {"L": 6, "b": 32}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": 16, "f_hz": 4e8, "kappa": 3e-24, "E_k_max_j": 2.0},
        {"phi_flops_per_cycle": 16, "f_hz": 4e8, "kappa": 1e-27, "E_k_max_j": 5.0},
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    from edgesched.pipeline import SegmentPlan, device_energy

    for m in (1, 4, 16):
        delta, _ = _partition(m, cfg, env, 0, 10.0, 0.0, 0.5)
        plan = SegmentPlan(delta=delta, m=m)
        for k in plan.scheduled:
            budget = cfg.clusters[0].devices[k].energy_budget_j
            assert device_energy(plan.delta[k], plan.m, cfg, env, 0, k) <= budget * (1 + 1e-9)
        # the expensive device must carry fewer blocks than its memory allows
        work = micro_batch_size(cfg.model.batch_items, plan.m) * 2e6 + 2e6
        cap0 = int((2.0 - 0.085 * device_energy_hop(cfg, env)) / (3e-24 * work / 16 * (4e8) ** 2))
        assert delta[0] <= cap0


def device_energy_hop(cfg, env):
    return device_d2d_delay(cfg, 0, 0, env.d2d_gain[0][0], env.d2d_interference_w[0])


def test_queue_pressure_shrinks_segment_count(homogeneous_cfg):
    cfg = homogeneous_cfg
    env = sample_round_environment(cfg, 1)
    relaxed = schedule_segments(cfg, env, 0, (0.0,), 10.0, 0.5)
    pressured = schedule_segments(cfg, env, 0, (50.0,), 10.0, 0.5)
    assert pressured.n_segments <= relaxed.n_segments
    assert pressured.n_segments == 1  # the segment penalty dominates at Y=50


def _binding_energy_doc(rng: np.random.Generator) -> dict:
    """Random cluster within the oracle guard whose energy budgets cap blocks.

    Budgets of a few mJ sit near the per-block compute energy and the hop
    energy, so the energy cap binds at some chunk counts and rules some
    devices out entirely; D2D gains, powers and payloads vary the hops, which
    stay short enough that about half of the optima are pipelined.
    """
    k = int(rng.integers(1, 7))
    devices = [
        {
            "phi_flops_per_cycle": float(rng.uniform(5, 30)),
            "f_hz": float(rng.uniform(1e8, 8e8)),
            "p_dd_w": float(rng.uniform(0.03, 0.18)),
            "gamma_max_bytes": float(rng.uniform(2.5e8, 1.75e9)),
            "gamma0_bytes": 2.5e8,
            "E_k_max_j": float(np.exp(rng.uniform(np.log(1e-3), np.log(3e-2)))),
            "kappa": 1e-27,
        }
        for _ in range(k)
    ]
    return {
        "rng_seed": int(rng.integers(0, 10**6)),
        "J": 1,
        "model": {
            "L": int(rng.integers(2, 13)),
            "b": int(rng.integers(1, 65)),
            "o_fwd_flops": float(rng.uniform(5e5, 5e6)),
            "o_bwd_flops": float(rng.uniform(5e5, 5e6)),
            "z_seg_bits": float(rng.uniform(5e3, 8e4)),
            "g_seg_bits": float(rng.uniform(5e3, 8e4)),
        },
        "convergence": {"gamma_max_bound": float(rng.choice([3e-4, 1.0])), "V": 10.0},
        "clusters": [{"h_dd_db": [-40, -25], "devices": devices}],
    }


def test_schedule_segments_equals_oracle_under_binding_energy_caps():
    rng = np.random.default_rng(2025)
    solved = infeasible = pipelined = 0
    while solved < 300:
        cfg = build_config(_binding_energy_doc(rng))
        env = sample_round_environment(cfg, int(rng.integers(1, 5)))
        queues = (float(rng.choice([0.0, rng.uniform(0, 0.05)])),)
        power = float(rng.uniform(0.05, 0.5))
        v = cfg.convergence.v_factor
        try:
            od, _, om, _ = brute_force_segment_plan(cfg, env, 0, queues, v, power)
        except OracleGuardError:
            with pytest.raises(InfeasibleError):
                schedule_segments(cfg, env, 0, queues, v, power)
            infeasible += 1
            continue
        plan = schedule_segments(cfg, env, 0, queues, v, power)
        assert (plan.delta, plan.m) == (od, om)
        solved += 1
        pipelined += plan.n_segments > 1
    assert infeasible > 0 and pipelined >= 100


def test_partition_breaks_exact_occupancy_ties_like_the_oracle():
    # identical devices at a fixed clock and a fixed D2D gain: every device has
    # the same occupancy at the same block count, so each candidate bottleneck
    # ties with every other device's and the strict bound before it decides;
    # 3-block memory caps force S >= 3, so the blocks beside the bottleneck can
    # be spread in several ways and only the smallest delta may come back
    doc = minimal_doc()
    doc["model"] = {"L": 7, "b": 12}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["h_dd_db"] = -30
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": 16, "f_hz": 4e8, "gamma_max_bytes": 7.5e8, "gamma0_bytes": 2.5e8} for _ in range(5)
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    assert len({device_d2d_delay(cfg, 0, k, env.d2d_gain[0][k], env.d2d_interference_w[0]) for k in range(5)}) == 1
    for q in (0.0, 0.05, 1.0):
        for m in _micro_batch_run_starts(cfg.model.batch_items):
            best = None
            for delta in itertools.product(range(4), repeat=5):
                if sum(delta) != 7:
                    continue
                key = (cluster_objective(delta, m, cfg, env, 0, 10.0, q), sum(1 for d in delta if d > 0), delta)
                best = key if best is None or key < best else best
            assert _partition(m, cfg, env, 0, 10.0, q, 0.5) == (best[2], best[1])
        plan = schedule_segments(cfg, env, 0, (q,), 10.0, 0.5)
        od, _, om, _ = brute_force_segment_plan(cfg, env, 0, (q,), 10.0, 0.5)
        assert (plan.delta, plan.m) == (od, om)


def test_partition_prices_tied_occupancies_at_the_first_device():
    # dyadic speeds and hops make occupancies of devices with different hops
    # tie exactly; the first tied device is the bottleneck whose hop the
    # closed form subtracts, so the solver must price the tie at that device
    doc = minimal_doc()
    doc["model"] = {"L": 6, "b": 4, "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 1.0e9, "gamma0_bytes": 2.5e8} for _ in range(4)]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    # (speed, hop): at one item per chunk a block takes 1 s or 0.5 s, so the
    # occupancies 1.5, 2.5, 3.5 recur on devices whose hops are 0.5 and 1.0;
    # 4-block memory caps, and energy budgets far above the round's energies
    devices = [(2.0**22, 1.0), (2.0**21, 0.5), (2.0**22, 0.25), (2.0**21, 0.5)]
    for order in (devices, devices[::-1], devices[1:] + devices[:1]):
        env_o = dataclasses.replace(
            env, speed=(tuple(sp for sp, _ in order),), hop_s=(tuple(hop for _, hop in order),)
        )
        for m in (1, 2, 3, 4):
            for q in (0.0, 0.3, 5.0):
                best = None
                for delta in itertools.product(range(5), repeat=4):
                    if sum(delta) == 6:
                        s = sum(1 for d in delta if d > 0)
                        key = (cluster_objective(delta, m, cfg, env_o, 0, 1.0, q), s, delta)
                        best = key if best is None or key < best else best
                got = _partition(m, cfg, env_o, 0, 1.0, q, 0.5)
                assert got == (best[2], best[1])


def _strained_system(rng):
    """A random single-cluster system, often with one budget cut until it binds or excludes every plan."""
    doc = random_system_doc(rng)
    devices = doc["clusters"][0]["devices"]
    cluster = doc["clusters"][0]
    cut = rng.integers(0, 6)
    if cut == 0:  # memory: one block per device, more blocks than devices (C7)
        for dev in devices:
            dev["gamma_max_bytes"] = 2.5e8
        doc["model"]["L"] = int(rng.integers(len(devices), 9))
    elif cut == 1:  # device energy (C9')
        for dev in devices:
            dev["E_k_max_j"] = float(10 ** rng.uniform(-6, -2))
    elif cut == 2:  # balance cap (C11)
        doc["convergence"]["gamma_max_bound"] = float(10 ** rng.uniform(-9, -5))
    elif cut == 3:  # head power below the balance floor (C11')
        cluster["P_n_max_w"] = float(10 ** rng.uniform(-4, -1))
    elif cut == 4:  # upload energy (C8)
        cluster["E_n_max_j"] = float(10 ** rng.uniform(-9, -3))
    return build_config(doc)


def test_strained_systems_name_every_constraint():
    # a segment solve at P_max and a power solve at a drawn segment count, on
    # systems with one budget cut: every failure is an InfeasibleError, and
    # together they name each constraint a cut can bind
    rng = np.random.default_rng(15)
    constraints = set()
    solved = 0
    for _ in range(300):
        cfg = _strained_system(rng)
        env = sample_round_environment(cfg, int(rng.integers(1, 5)))
        v = cfg.convergence.v_factor
        q = float(rng.choice([0.0, 1e-3, 1.0, 50.0]))
        s = int(rng.integers(1, cfg.clusters[0].n_devices + 1))
        for solve, args in (
            (schedule_segments, (cfg, env, 0, (q,), v, cfg.clusters[0].uplink_power_max_w)),
            (power_control, (cfg, env, 0, q, v, s)),
        ):
            try:
                solve(*args)
                solved += 1
            except InfeasibleError as exc:
                constraints.add(exc.constraint)
    assert {"C7", "C9'", "C11", "C11'", "C8"} <= constraints
    assert solved > 250


def _unpruned_scan(cfg, env, n, queues, v, power):
    """schedule_segments without its run-start skip: every run start at an infinite cutoff."""
    best = first_error = None
    for m in _micro_batch_run_starts(cfg.model.batch_items):
        try:
            delta, s = _partition(m, cfg, env, n, v, sum(queues), power, cutoff=math.inf)
        except InfeasibleError as exc:
            first_error = first_error or exc
            continue
        key = (cluster_objective(delta, m, cfg, env, n, v, sum(queues)), s, delta, m)
        best = key if best is None or key < best else best
    if best is None:
        raise first_error
    return best[2], best[3]


def _skip_battery():
    """(cfg, env, n, power) cases: paper, encoder and contended shapes, then binding energy caps."""
    for name, rounds in (("paper", 4), ("encoder", 2), ("contended", 2)):
        cfg = build_config(workload_doc(name, 1))
        for t in range(1, rounds + 1):
            env = sample_round_environment(cfg, t)
            for n, cluster in enumerate(cfg.clusters):
                yield cfg, env, n, cluster.uplink_power_max_w
    rng = np.random.default_rng(77)
    for _ in range(150):
        cfg = build_config(_binding_energy_doc(rng))
        yield cfg, sample_round_environment(cfg, int(rng.integers(1, 5))), 0, float(rng.uniform(0.05, 0.5))


def test_run_start_skip_equals_unpruned_scan(monkeypatch):
    from edgesched import seg_solver

    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return optimal_partition(m, *args, **kwargs)

    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    solved = failed = starts = 0
    for cfg, env, n, power in _skip_battery():
        for q in (0.0, 1e-3, 1.0):
            queues = (q,) + (0.0,) * (cfg.n_clusters - 1)
            v = cfg.convergence.v_factor
            starts += len(_micro_batch_run_starts(cfg.model.batch_items))
            try:
                want = _unpruned_scan(cfg, env, n, queues, v, power)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as got:
                    schedule_segments(cfg, env, n, queues, v, power)
                assert (got.value.constraint, str(got.value)) == (exc.constraint, str(exc))
                failed += 1
                continue
            plan = schedule_segments(cfg, env, n, queues, v, power)
            assert (plan.delta, plan.m) == want
            solved += 1
    assert solved > 300 and failed > 0
    assert starts - len(calls) > starts // 4  # the skip fired


def _memory_battery():
    """300 (cfg, env, memory caps, every memory-feasible composition, queue) cases, K <= 5, L <= 8."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 300:
        doc = random_system_doc(rng, max_devices=5, max_blocks=8, max_batch=16)
        for dev in doc["clusters"][0]["devices"]:  # memory caps of 1 to 8 blocks
            dev["gamma_max_bytes"] = float(rng.uniform(2.5e8, 2.2e9))
        cfg = build_config(doc)
        if rng.random() < 0.3:  # a device that memory rules out
            starved = dataclasses.replace(cfg.clusters[0].devices[0], mem_budget_bytes=1e7)
            cluster = dataclasses.replace(cfg.clusters[0], devices=(starved,) + cfg.clusters[0].devices[1:])
            cfg = dataclasses.replace(cfg, clusters=(cluster,))
        env = sample_round_environment(cfg, 1)
        caps = [min(dev.block_cap, cfg.model.n_blocks) for dev in cfg.clusters[0].devices]
        plans = [d for d in itertools.product(*(range(c + 1) for c in caps)) if sum(d) == cfg.model.n_blocks]
        if not plans:
            continue
        yield cfg, env, caps, plans, float(rng.choice([0.0, 1e-3, 1.0]))
        checked += 1


def test_run_start_bound_is_below_every_composition():
    tight = 0
    for cfg, env, _, plans, q in _memory_battery():
        v = cfg.convergence.v_factor
        bound, _ = _run_start_bound(cfg, env, 0, v, q, cfg.clusters[0].n_devices)
        for m in _micro_batch_run_starts(cfg.model.batch_items):
            lower, floor = bound(m)
            objs = [(cluster_objective(delta, m, cfg, env, 0, v, q), sum(map(bool, delta))) for delta in plans]
            best = min(obj for obj, _ in objs)
            assert lower <= min(best, floor)
            assert floor <= min([obj for obj, s in objs if s > 1], default=math.inf)
            tight += lower == best
    assert tight > 0


def test_stage_count_floor_is_below_every_composition_of_that_size():
    pipelined = 0
    for cfg, env, caps, plans, q in _memory_battery():
        v = cfg.convergence.v_factor
        s_lo = max(2, min(sum(1 for d in delta if d > 0) for delta in plans))
        for m in _micro_batch_run_starts(cfg.model.batch_items):
            work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
            objs = {}
            for delta in plans:
                s = sum(1 for d in delta if d > 0)
                objs.setdefault(s, []).append(cluster_objective(delta, m, cfg, env, 0, v, q))
            for s in range(s_lo, cfg.clusters[0].n_devices + 1):
                floor = _stage_count_floor(env, 0, caps, cfg.model.n_blocks, v, q, s, s)(m, work)
                assert floor <= min(objs.get(s, [math.inf]))
                pipelined += s in objs
    assert pipelined > 0


def test_stage_count_floor_is_tight_on_even_splits():
    # identical devices at a fixed clock and D2D gain, with L a multiple of K:
    # the even split reaches the floor's bottleneck exactly, so float
    # rounding alone decides the order, and only the slack keeps the floor
    # at or below the plan
    rng = np.random.default_rng(5)
    for _ in range(200):
        k, per = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        doc = minimal_doc()
        doc["model"] = {
            "L": k * per,
            "b": int(rng.integers(1, 17)),
            "o_fwd_flops": float(rng.uniform(5e5, 5e6)),
            "o_bwd_flops": float(rng.uniform(5e5, 5e6)),
        }
        doc["convergence"] = {"gamma_max_bound": 1.0}
        doc["clusters"][0]["h_dd_db"] = -30
        device = {"phi_flops_per_cycle": float(rng.uniform(5, 30)), "f_hz": float(rng.uniform(1e8, 8e8))}
        doc["clusters"][0]["devices"] = [dict(device, gamma_max_bytes=2.5e8 * per, gamma0_bytes=2.5e8)] * k
        cfg = build_config(doc)
        env = sample_round_environment(cfg, 1)
        floor = _stage_count_floor(env, 0, [per] * k, cfg.model.n_blocks, 10.0, 0.0, k, k)
        for m in _micro_batch_run_starts(cfg.model.batch_items):
            obj = cluster_objective((per,) * k, m, cfg, env, 0, 10.0, 0.0)
            assert obj * (1 - 1e-9) <= floor(m, chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)) <= obj


def _brute_whole_block_load(l_blocks, speeds):
    """The L-th least of every ratio d/speed, d = 1..L, over ``speeds``."""
    return sorted(d / speed for speed in speeds for d in range(1, l_blocks + 1))[l_blocks - 1]


def _block_ratio_cases():
    """(L, speeds) cases: two pinned even splits, then random speeds; exact
    ties, at dyadic and at non-dyadic speeds; and speeds that are integer
    multiples of one, so that many ratios coincide and even splits land
    exactly on the fractional load."""
    # 24 blocks split 20 + 4 at speeds 5:1, and 10 + 10 + 4 at 5:5:2: the
    # share floor(load*speed) is one above the float count on a fast device
    # and one below it on the slow one, and without the fix-up against the
    # float test the answer comes out one float below the 24th ratio
    yield 24, [31207187013.70501, 6241437402.741002]
    yield 24, [31546725486.005043, 31546725486.005043, 12618690194.402018]
    rng = np.random.default_rng(39)
    for i in range(3000):
        s, l_blocks = int(rng.integers(1, 11)), int(rng.integers(1, 65))
        kind = i % 4
        if kind == 0:
            speeds = [float(10 ** rng.uniform(7, 11)) for _ in range(s)]
        elif kind == 1:
            speeds = [2.0 ** int(rng.integers(20, 26)) for _ in range(s)]
        elif kind == 2:
            speeds = [float(rng.uniform(1e8, 1e10))] * s
            l_blocks = s * int(rng.integers(1, 7)) if rng.random() < 0.5 else l_blocks
        else:
            base = float(rng.uniform(1e8, 1e10))
            speeds = [base * int(rng.integers(1, 5)) for _ in range(s)]
        yield l_blocks, speeds


def test_whole_block_load_is_the_l_th_least_block_ratio():
    fixed = even = 0
    for l_blocks, speeds in _block_ratio_cases():
        fastest = sorted(speeds, reverse=True)
        assert _whole_block_load(l_blocks, fastest) == _brute_whole_block_load(l_blocks, fastest)
        load = l_blocks / sum(fastest)
        # the share floor(load*speed) misses the float test d/speed <= load
        fixed += any(int(load * speed) != sum(1 for d in range(1, l_blocks + 1) if d / speed <= load) for speed in fastest)
        even += _brute_whole_block_load(l_blocks, fastest) <= load
    assert fixed > 25 and even > 300


def _whole_block_floor(env, caps, l_blocks, v, q, s_lo, s_cap, m, work):
    """``_stage_count_floor`` with every S priced at its brute-force whole-block
    load, or at its fractional load where rounding puts that higher."""
    speeds = [speed for speed, cap in zip(env.speed[0], caps) if cap]
    hops = [hop for hop, cap in zip(env.hop_s[0], caps) if cap]
    fastest = sorted(speeds, reverse=True)
    totals = list(itertools.accumulate(fastest))
    least = math.inf
    for s in range(s_lo, min(s_cap, len(speeds)) + 1):
        load = max(l_blocks / totals[s - 1], _brute_whole_block_load(l_blocks, fastest[:s]))
        u = (load * work + min(hops)) * (1 - 1e-12)
        least = min(least, v * ((s + m - 1) * u - max(hops)) * (1 - 1e-12) + s * q)
    return least


def _identical_device_cases(rng):
    """(cfg, env, v, q, s_cap) cases of 2 to 6 identical devices at a fixed
    clock and D2D gain, with L a multiple of the device count, so that many
    stage counts split L evenly and rounding alone can put the fractional
    load above the whole-block one"""
    for _ in range(300):
        k, per = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        doc = minimal_doc()
        doc["model"] = {"L": k * per, "b": int(rng.integers(1, 17)), "o_fwd_flops": float(rng.uniform(5e5, 5e6)), "o_bwd_flops": float(rng.uniform(5e5, 5e6))}
        doc["convergence"] = {"gamma_max_bound": 1.0}
        doc["clusters"][0]["h_dd_db"] = -30
        device = {"phi_flops_per_cycle": float(rng.uniform(5, 30)), "f_hz": float(rng.uniform(1e8, 8e8))}
        doc["clusters"][0]["devices"] = [dict(device, gamma_max_bytes=2.5e8 * k * per, gamma0_bytes=2.5e8)] * k
        cfg = build_config(doc)
        yield cfg, sample_round_environment(cfg, 1), 10.0, float(rng.choice([0.0, 1e-3])), k


def test_lazily_refined_floor_equals_the_fully_refined_one_at_or_below_the_bar():
    # on later's cases and on identical devices, one floor per case, called
    # at every run start in turn with rising bars: one float below and at the
    # floor of fractional loads, at random, 1e-9 and one float below the fully
    # refined floor, at and 1e-9 above it, and at inf. Loads it refined for an
    # earlier call stay refined. Whenever the lazy floor or the fully refined
    # one lies at or below the bar they are equal, and otherwise both lie
    # above it
    rng = np.random.default_rng(40)
    checked = raised = lazy = 0
    for cfg, env, v, q, s_cap in itertools.chain(_later_cases(), _identical_device_cases(rng)):
        l_blocks = cfg.model.n_blocks
        caps = [min(dev.block_cap, l_blocks) for dev in cfg.clusters[0].devices]
        s_lo = max(2, _fewest_cover(l_blocks, caps))
        if s_lo > min(s_cap, sum(1 for cap in caps if cap)):
            continue
        floor = _stage_count_floor(env, 0, caps, l_blocks, v, q, s_lo, s_cap)
        fractional = _stage_count_floor(env, 0, caps, l_blocks, v, q, s_lo, s_cap)
        for m in _micro_batch_run_starts(cfg.model.batch_items):
            work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
            full = _whole_block_floor(env, caps, l_blocks, v, q, s_lo, s_cap, m, work)
            assert _stage_count_floor(env, 0, caps, l_blocks, v, q, s_lo, s_cap)(m, work) == full
            least = fractional(m, work, -math.inf)  # every load still fractional
            bars = [math.nextafter(least, -math.inf), least, full * float(10 ** rng.uniform(-1, 0.1)), full * (1 - 1e-9)]
            bars += [math.nextafter(full, -math.inf), full, full * (1 + 1e-9), math.inf]
            for bar in bars:
                got = floor(m, work, bar)
                if got <= bar or full <= bar:
                    assert got == full
                else:
                    assert got > bar and full > bar
                    lazy += got < full
                checked += 1
            raised += full > least
    assert checked > 20000 and raised > 1000 and lazy > 500


def _energy_cut_cases():
    """(cfg, env, n, power) cases of the paper and encoder shapes whose energy
    budgets cut one to three devices of a cluster to 0 to L-1 blocks at
    m = 1, so the energy caps drop devices or blocks that the memory caps
    keep. Chunks shrink as m grows, so the cut eases at later run starts"""
    rng = np.random.default_rng(40)
    for name, rounds in (("paper", 4), ("encoder", 2)):
        cfg = build_config(workload_doc(name, 1))
        l_blocks = cfg.model.n_blocks
        for t in range(1, rounds + 1):
            env = sample_round_environment(cfg, t)
            for n, cluster in enumerate(cfg.clusters):
                for _ in range(4):
                    devices = list(cluster.devices)
                    for k in rng.choice(len(devices), size=int(rng.integers(1, 4)), replace=False):
                        d = int(rng.integers(0, l_blocks))
                        budget = 0.5 * (device_energy(d, 1, cfg, env, n, k) + device_energy(d + 1, 1, cfg, env, n, k))
                        devices[k] = dataclasses.replace(devices[k], energy_budget_j=budget)
                    clusters = list(cfg.clusters)
                    clusters[n] = dataclasses.replace(cluster, devices=tuple(devices))
                    yield dataclasses.replace(cfg, clusters=tuple(clusters)), env, n, cluster.uplink_power_max_w


def _partition_outcome(m, cfg, env, n, v, q, power, cutoff, **kwargs):
    try:
        return _partition(m, cfg, env, n, v, q, power, cutoff=cutoff, **kwargs)
    except InfeasibleError as exc:
        return exc.constraint, str(exc)


def test_partition_floor_skip_equals_the_full_scan(monkeypatch):
    # a floor of -inf never skips the bottleneck sweep; the run start's floor,
    # from memory caps, may skip only sweeps that would return None or a
    # strictly worse plan. On the energy-cut cases the memory caps let more
    # devices and blocks in than the energy caps do, so that floor lies at or
    # below the one the energy caps would give, and strictly below it on many
    from edgesched import seg_solver

    sweeps = []

    def sweep(*args):  # runs once at the top of every sweep
        sweeps.append(True)
        return _stop_occupancy(*args)

    monkeypatch.setattr(seg_solver, "_stop_occupancy", sweep)
    rng = np.random.default_rng(4)
    cases = list(_skip_battery()) + [
        (cfg, sample_round_environment(cfg, 1), 0, float(rng.uniform(0.05, 0.5)))
        for cfg in (random_system(rng, max_devices=6, max_blocks=12) for _ in range(100))
    ]
    cut = list(_energy_cut_cases())
    fired = searched = weaker = 0
    for i, (cfg, env, n, power) in enumerate(cases + cut):
        v, l_blocks = cfg.convergence.v_factor, cfg.model.n_blocks
        try:
            s_cap = _segment_cap(cfg, env, n, power)
        except InfeasibleError:
            continue
        for q in (0.0, 1e-3, 1.0):
            bound, _ = _run_start_bound(cfg, env, n, v, q, s_cap)
            for m in _micro_batch_run_starts(cfg.model.batch_items):
                floor = bound(m)[1]
                full = _partition_outcome(m, cfg, env, n, v, q, power, math.inf)
                cutoffs = [math.inf]
                if not isinstance(full[0], str):
                    obj = cluster_objective(full[0], m, cfg, env, n, v, q)
                    cutoffs += [obj, math.nextafter(obj, math.inf), obj * (1 + 1e-9), obj * (1 - 1e-9)]
                for cutoff in cutoffs:
                    sweeps.clear()
                    want = _partition_outcome(m, cfg, env, n, v, q, power, cutoff)
                    swept = bool(sweeps)
                    sweeps.clear()
                    assert _partition_outcome(m, cfg, env, n, v, q, power, cutoff, floor=floor) == want
                    fired += swept and not sweeps
                    searched += 1
                if i >= len(cases):  # the floor the energy caps would give
                    work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
                    try:
                        caps, need = _cap_cover(m, cfg, env, n)
                    except InfeasibleError:
                        continue
                    energy = _stage_count_floor(env, n, caps, l_blocks, v, q, max(2, need), s_cap)(m, work)
                    assert floor <= energy
                    weaker += floor < energy
    assert searched > 5000 and fired > searched // 10
    assert len(cut) == 56 and weaker > 1000


def test_run_start_skip_keeps_an_exact_tie():
    # dyadic speeds and hops: the best two-stage plan at m = 1 and the
    # one-stage plan at m = 2 both cost exactly 2 s. The one-stage term of the
    # run-start bound is exact, so at m = 2 it equals the cutoff; that run
    # start must still be searched, because its plan wins the tie on S. The
    # fast device's energy budget holds its two blocks at m = 2 but not at m = 1
    doc = minimal_doc()
    doc["model"] = {"L": 2, "b": 2, "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": mem, "gamma0_bytes": 2.5e8} for mem in (5e8, 2.5e8, 2.5e8)]
    cfg = build_config(doc)
    env = dataclasses.replace(sample_round_environment(cfg, 1), speed=((2.0**22,) * 3,), hop_s=((0.5,) * 3,))
    budget = 0.5 * (device_energy(2, 1, cfg, env, 0, 0) + device_energy(2, 2, cfg, env, 0, 0))
    fast = dataclasses.replace(cfg.clusters[0].devices[0], energy_budget_j=budget)
    cluster = dataclasses.replace(cfg.clusters[0], devices=(fast,) + cfg.clusters[0].devices[1:])
    cfg = dataclasses.replace(cfg, clusters=(cluster,))
    pipelined = cluster_objective((0, 1, 1), 1, cfg, env, 0, 1.0, 0.0)
    assert pipelined == cluster_objective((2, 0, 0), 2, cfg, env, 0, 1.0, 0.0) == 2.0
    plan = schedule_segments(cfg, env, 0, (0.0,), 1.0, 0.5)
    assert (plan.delta, plan.m) == _unpruned_scan(cfg, env, 0, (0.0,), 1.0, 0.5) == ((2, 0, 0), 2)


def _schedule_outcome(solve, cfg, env, queues, v, power):
    """(delta, m) of a plan, or (constraint, message) of the error raised."""
    try:
        found = solve(cfg, env, 0, queues, v, power)
    except InfeasibleError as exc:
        return exc.constraint, str(exc)
    return found if isinstance(found, tuple) else (found.delta, found.m)


def test_best_first_search_equals_unpruned_scan_on_wide_encoder_shapes():
    # the roundbench encoder cluster widened to K=32 devices and L=64 blocks
    # with 12-block memory caps, the shape the pair-scan oracle also pins. A
    # balance bound of 1e-4 caps the plan at about 7 stages at P_max, and at
    # 5 stages at p_5, below the 6 that memory needs, which raises C11
    solved = failed = 0
    for gamma_max in (1.0, 1e-4):
        doc = workload_doc("encoder", 1)
        doc["convergence"]["gamma_max_bound"] = gamma_max
        devices = doc["clusters"][0]["devices"]
        doc["clusters"][0]["devices"] = [dict(devices[i % len(devices)], gamma_max_bytes=12 * 2.5e8) for i in range(32)]
        doc["model"]["L"] = 64
        cfg = build_config(doc)
        v = cfg.convergence.v_factor
        for t in (1, 2, 3):
            env = sample_round_environment(cfg, t)
            powers = [cfg.clusters[0].uplink_power_max_w]
            if gamma_max < 1:
                powers.append(balance_thresholds(cfg.convergence, 1, 64, env.uplink_gain[0], env.uplink_interference_w[0])[4])
            for q in (0.0, 1e-3, 1.0):
                for power in powers:
                    want = _schedule_outcome(_unpruned_scan, cfg, env, (q,), v, power)
                    assert _schedule_outcome(schedule_segments, cfg, env, (q,), v, power) == want
                    failed += isinstance(want[0], str)
                    solved += not isinstance(want[0], str)
    assert solved == 18 and failed == 9


def test_no_plan_raises_the_error_of_m_1_though_another_run_start_is_searched_first():
    # four devices with 2-block memory caps and L = 4, and a balance bound
    # that allows 2 stages. The budgets hold one block per device at m = 2
    # but none at m = 1, whose chunk is 9/5 as costly: m = 1 raises C9'
    # (the caps cannot host the blocks) and m = 2 raises C11 (4 stages
    # needed). Chunks dominate the hops, so memory prices m = 2 below m = 1
    # and the best-first search reaches it first
    doc = minimal_doc()
    doc["model"] = {"L": 4, "b": 2, "o_fwd_flops": 2.0**30, "o_bwd_flops": 2.0**28}
    doc["convergence"] = {"gamma_max_bound": 1.5e-4}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 5e8, "gamma0_bytes": 2.5e8}] * 4
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    devices = tuple(
        dataclasses.replace(dev, energy_budget_j=0.5 * (device_energy(1, 2, cfg, env, 0, k) + device_energy(2, 2, cfg, env, 0, k)))
        for k, dev in enumerate(cfg.clusters[0].devices)
    )
    cfg = dataclasses.replace(cfg, clusters=(dataclasses.replace(cfg.clusters[0], devices=devices),))
    v, power = cfg.convergence.v_factor, cfg.clusters[0].uplink_power_max_w
    s_cap = _segment_cap(cfg, env, 0, power)
    assert s_cap == 2
    bound, _ = _run_start_bound(cfg, env, 0, v, 0.0, s_cap)
    assert _micro_batch_run_starts(2) == (1, 2) and bound(2)[0] < bound(1)[0]
    for m, constraint in ((1, "C9'"), (2, "C11")):
        with pytest.raises(InfeasibleError) as exc:
            optimal_partition(m, cfg, env, 0, v, 0.0, s_cap)
        assert exc.value.constraint == constraint
    with pytest.raises(InfeasibleError) as exc:
        schedule_segments(cfg, env, 0, (0.0,), v, power)
    assert (exc.value.constraint, str(exc.value)) == ("C9'", "infeasible: C9' (cluster 0: device caps cannot host 4 blocks)")


def test_segment_cap_and_power_floor_agree_at_every_threshold():
    # C11 is one threshold p_S per segment count, p_1 <= ... <= p_L: the
    # segment cap at head power p counts the thresholds at or below p, and
    # power_control's floor at S segments is p_S. So at p_S and the next float
    # up the cap allows S stages and just below p_S it does not, and a power
    # that power_control clamps to its floor, p_1 included, leaves a segment
    # solve at that power a plan instead of a C11 error. The balance cap is
    # set from the round's channel so that p_1 falls anywhere in [0, P_max].
    # Below p_1 the cap is unreachable, and the partition search raises the
    # cap's C11 error at every run start
    rng = np.random.default_rng(21)
    probes = clamped = plans = unreachable = 0
    for _ in range(300):
        doc = random_system_doc(rng)
        conv = doc["convergence"]
        conv["C"] = float(10 ** rng.uniform(-2, 0))
        conv["phi"] = float(rng.uniform(0.5, 2.0))
        t = int(rng.integers(1, 5))
        cfg = build_config(doc)
        env = sample_round_environment(cfg, t)
        p_1 = float(rng.uniform(0.0, 1.0)) * cfg.clusters[0].uplink_power_max_w
        # an error budget of eps(p_1) + phi^2/L at S = 1 puts the first threshold at about p_1
        eps = conv["C"] / (env.uplink_interference_w[0] + env.uplink_gain[0] * p_1)
        budget = eps + conv["phi"] ** 2 / cfg.model.n_blocks
        conv["gamma_max_bound"] = (budget + conv["phi"] ** 2) * conv["beta"] * conv["eta"] ** 2 / 2
        cfg = build_config(doc)
        env = sample_round_environment(cfg, t)
        v = cfg.convergence.v_factor
        thresholds = balance_thresholds(
            cfg.convergence, cfg.n_clusters, cfg.model.n_blocks, env.uplink_gain[0], env.uplink_interference_w[0]
        )
        for s, p_s in enumerate(thresholds[: cfg.clusters[0].n_devices], start=1):
            if math.isinf(p_s):
                break
            for power in (p_s, math.nextafter(p_s, math.inf)):
                assert _segment_cap(cfg, env, 0, power) >= s
            if p_s > 0.0:
                try:
                    assert _segment_cap(cfg, env, 0, math.nextafter(p_s, 0.0)) < s
                except InfeasibleError as exc:
                    assert s == 1 and exc.constraint == "C11"
            probes += 1
            try:
                power = power_control(cfg, env, 0, 1e18, v, s)
            except InfeasibleError:
                continue
            clamped += power == p_s
            assert _segment_cap(cfg, env, 0, power) >= s
        if math.isinf(thresholds[0]):
            continue
        try:
            schedule_segments(cfg, env, 0, (0.0,), v, thresholds[0])
            plans += 1
        except InfeasibleError as exc:
            assert "balance cap unreachable" not in str(exc)  # C11 may still bind on a count memory needs
        if thresholds[0] > 0.0:
            below = math.nextafter(thresholds[0], 0.0)
            with pytest.raises(InfeasibleError) as want:
                _segment_cap(cfg, env, 0, below)
            for m in _micro_batch_run_starts(cfg.model.batch_items):
                assert _partition_outcome(m, cfg, env, 0, v, 0.0, below, math.inf) == ("C11", str(want.value))
            unreachable += 1
    assert probes > 300 and clamped > 250 and plans > 150 and unreachable > 250


def test_segment_cap_at_a_nan_power_is_unreachable():
    # no threshold is at or below NaN; configs keep P_n_max_w finite and > 0
    cfg = random_system(np.random.default_rng(3))
    env = sample_round_environment(cfg, 1)
    with pytest.raises(InfeasibleError, match="balance cap unreachable") as exc:
        _segment_cap(cfg, env, 0, math.nan)
    assert exc.value.constraint == "C11"


def _per_pair_partition(m, cfg, env, n, v, queue_sum, s_cap, cutoff, seen=None):
    """Reference: the bottleneck scan that rebuilds every pair's caps by
    bisection and builds the lexmin delta of every pair that ties or beats the
    best so far, without the stage-count floor. Returns (delta, S), None or the
    error's constraint. ``seen``, when given, counts the scanned pairs whose
    occupancy u ties with devices on both sides of j ("straddle"), and those
    where a device after j reaches u at d = L ("cap_l")."""
    l_blocks = cfg.model.n_blocks
    work = chunk_work(micro_batch_size(cfg.model.batch_items, m), cfg.model)
    speeds, hops = env.speed[n], env.hop_s[n]
    try:
        caps, need = _cap_cover(m, cfg, env, n)
    except InfeasibleError as exc:
        return exc.constraint
    if need > s_cap:
        return "C11" if s_cap < len(caps) else "C2"
    best = None  # (objective, S, delta)
    for j, cap in enumerate(caps):
        if cap >= l_blocks:
            obj = v * pipeline_latency_from_times([l_blocks * work / speeds[j]], [hops[j]], m) + queue_sum
            key = (obj, 1, tuple(l_blocks if k == j else 0 for k in range(len(caps))))
            if obj <= cutoff and (best is None or key < best):
                best = key
    occ = [[d * work / speeds[k] + hops[k] for d in range(1, cap + 1)] for k, cap in enumerate(caps)]
    pairs = sorted((occ[j][d - 1], j, d) for j, cap in enumerate(caps) for d in range(1, min(cap, l_blocks - 1) + 1))
    s_lo, hop_max = max(2, need), max(hops)
    for u, j, d in pairs:
        limit = cutoff if best is None else best[0]
        lower = v * max((s_lo + m - 1) * u - hop_max, (s_lo + m - 2) * u) * (1 - 1e-12) + s_lo * queue_sum
        if lower > limit:
            break
        if seen is not None:
            at_u = [(k, e) for k, o in enumerate(occ) if k != j for e, x in enumerate(o, 1) if x == u]
            seen["straddle"] += any(k < j for k, _ in at_u) and any(k > j for k, _ in at_u)
            seen["cap_l"] += any(k > j and e == l_blocks for k, e in at_u)
        caps_u = [bisect_left(o, u) for o in occ[:j]] + [0] + [bisect_right(o, u) for o in occ[j + 1 :]]
        s = 1 + _fewest_cover(l_blocks - d, caps_u)
        if s > s_cap:
            continue
        obj = v * ((s + m - 1) * u - hops[j]) + s * queue_sum
        if obj > limit or (best is not None and (obj, s) > best[:2]):
            continue
        key = (obj, s, _lexmin_cover(l_blocks - d, s - 1, caps_u, j, d))
        if best is None or key < best:
            best = key
    if best is None:
        return "C1" if math.isinf(cutoff) else None
    return best[2], best[1]


def _tied_system(rng):
    """A random cluster of up to 12 devices and 24 blocks, memory caps of L on
    about a third of the devices. Most draws get dyadic speeds and hops, so
    occupancies tie exactly across devices. Zero hops next to a 16 s one let
    the scan reach a device's d = L occupancy: below it lies that device's
    one-stage plan, which otherwise ends the scan first."""
    k, l_blocks = int(rng.integers(2, 13)), int(rng.integers(2, 25))
    doc = minimal_doc()
    doc["model"] = {"L": l_blocks, "b": int(rng.integers(1, 9)), "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    caps = [l_blocks if rng.random() < 0.35 else int(rng.integers(1, l_blocks + 1)) for _ in range(k)]
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 2.5e8 * cap, "gamma0_bytes": 2.5e8} for cap in caps]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, int(rng.integers(1, 4)))
    if rng.random() < 0.8:
        speed = tuple(2.0 ** int(rng.integers(20, 25)) for _ in range(k))
        hop = tuple(float(rng.choice([0.0, 0.0, 0.25, 1.0, 16.0])) for _ in range(k))
        env = dataclasses.replace(env, speed=(speed,), hop_s=(hop,))
    return cfg, env


def test_partition_sweep_equals_the_per_pair_scan():
    # the sweep's running counts must give every pair the caps that bisecting
    # each device's occupancies gave, and the deferred tie-break the delta the
    # eager one did. The reference counts the pairs it scans whose occupancy u
    # ties with devices on both sides of j, and those where a device after j
    # reaches u at d = L: the reference counts that occupancy toward its cap,
    # the sweep leaves it out
    seen = {"straddle": 0, "cap_l": 0}
    rng = np.random.default_rng(25)
    calls = plans = 0
    for _ in range(120):
        cfg, env = _tied_system(rng)
        v = float(rng.choice([0.01, 1.0, 10.0]))
        for q in (0.0, float(rng.uniform(0.0, 1.0))):
            for m in _micro_batch_run_starts(cfg.model.batch_items)[:3]:
                s_cap = int(rng.integers(1, cfg.clusters[0].n_devices + 1))
                cutoffs = [math.inf, float(10 ** rng.uniform(-1, 2))]
                full = _per_pair_partition(m, cfg, env, 0, v, q, s_cap, math.inf)
                if isinstance(full, tuple):
                    obj = cluster_objective(full[0], m, cfg, env, 0, v, q)
                    cutoffs += [obj, math.nextafter(obj, -math.inf)]
                    plans += 1
                for cutoff in cutoffs:
                    want = _per_pair_partition(m, cfg, env, 0, v, q, s_cap, cutoff, seen)
                    try:
                        got = optimal_partition(m, cfg, env, 0, v, q, s_cap, cutoff=cutoff)
                    except InfeasibleError as exc:
                        got = exc.constraint
                    assert got == want
                    calls += 1
    assert calls > 2000 and plans > 400 and seen["straddle"] > 1000 and seen["cap_l"] > 20


def test_deferred_tie_break_takes_the_least_delta_of_a_later_pair():
    # dyadic speeds and hops, one item per chunk: device k holding d blocks has
    # occupancy d*t_k + hop_k with t = (1, 1, 0.5) s and hops (0.25, 1.25,
    # 0.25) s. The plans (1, 0, 3) and (0, 1, 3) both cost 2*u - hop_j = 3.25 s
    # on two stages, but the first one's bottleneck (u = 1.75 at device 2) is
    # scanned before the second one's (u = 2.25 at device 1), whose delta is
    # the lexicographically smaller
    doc = minimal_doc()
    doc["model"] = {"L": 4, "b": 1, "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": cap * 2.5e8, "gamma0_bytes": 2.5e8} for cap in (2, 2, 3)]
    cfg = build_config(doc)
    env = dataclasses.replace(
        sample_round_environment(cfg, 1), speed=((2.0**21, 2.0**21, 2.0**22),), hop_s=((0.25, 1.25, 0.25),)
    )
    assert cluster_objective((1, 0, 3), 1, cfg, env, 0, 1.0, 0.0) == cluster_objective((0, 1, 3), 1, cfg, env, 0, 1.0, 0.0) == 3.25
    for q in (0.0, 0.5):
        keys = sorted(
            (cluster_objective(delta, 1, cfg, env, 0, 1.0, q), sum(1 for d in delta if d > 0), delta)
            for delta in itertools.product(range(3), range(3), range(4))
            if sum(delta) == 4
        )
        assert [key[2] for key in keys if key[:2] == keys[0][:2]] == [(0, 1, 3), (1, 0, 3)]
        assert optimal_partition(1, cfg, env, 0, 1.0, q, 3) == (keys[0][2], keys[0][1]) == ((0, 1, 3), 2)
        assert schedule_segments(cfg, env, 0, (q,), 1.0, 0.5).delta == (0, 1, 3)


def _encoder_shaped_system(rng):
    """A cluster of 8 to 16 devices and 12 to 32 blocks whose memory caps stay
    under L/2, so every plan has at least three stages. Devices come in a few
    types; (phi, f) = (8, 8e8) and (16, 4e8) give the same speed, and the
    fixed D2D gain gives devices of one D2D power the same hop, so
    occupancies tie within and across types."""
    k, l_blocks = int(rng.integers(8, 17)), int(rng.integers(12, 33))
    doc = minimal_doc()
    doc["model"] = {"L": l_blocks, "b": int(rng.integers(1, 9)), "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    types = [(8, 8e8), (16, 4e8), (16, 8e8)]
    devices = []
    for _ in range(k):
        phi, f_hz = types[int(rng.integers(len(types)))]
        cap = int(rng.integers(-(-l_blocks // k), (l_blocks - 1) // 2 + 1))
        devices.append(
            {
                "phi_flops_per_cycle": phi,
                "f_hz": f_hz,
                "p_dd_w": float(rng.choice([0.07, 0.1])),
                "gamma_max_bytes": 2.5e8 * cap,
                "gamma0_bytes": 2.5e8,
            }
        )
    doc["clusters"][0]["devices"] = devices
    cfg = build_config(doc)
    return cfg, sample_round_environment(cfg, 1)


def test_partition_and_schedule_equal_the_pair_scan_oracle_on_encoder_shapes():
    # the oracle rebuilds every pair's caps, counts covers by a DP and takes
    # the least delta over the tied pairs; a plan that puts different block
    # counts on two devices of the same speed, hop and cap has a tie (swap
    # them), so the solver's tie-break is checked there. V = 0, which no
    # config allows, prices plans by S alone and must not stop the sweep
    rng = np.random.default_rng(29)
    partitions = deep = tied = plans = 0
    for _ in range(24):
        cfg, env = _encoder_shaped_system(rng)
        k = cfg.clusters[0].n_devices
        for q in (0.0, float(rng.choice([1e-3, 0.5]))):
            v = float(rng.choice([0.0, 0.01, 1.0, 10.0]))
            for m in _micro_batch_run_starts(cfg.model.batch_items)[:2]:
                for s_cap in (int(rng.integers(3, k)), k):
                    want = pair_scan_partition(cfg, env, 0, m, v, q, s_cap)
                    try:
                        got = optimal_partition(m, cfg, env, 0, v, q, s_cap)
                    except InfeasibleError:
                        got = None
                    assert got == (None if want is None else want[:2])
                    if want is None:
                        continue
                    partitions += 1
                    deep += want[1] >= 3
                    caps, _ = _cap_cover(m, cfg, env, 0)
                    kinds = [(env.speed[0][i], env.hop_s[0][i], caps[i]) for i in range(k)]
                    tied += any(kinds[a] == kinds[b] and want[0][a] != want[0][b] for a in range(k) for b in range(a))
            delta, _, m, _ = pair_scan_segment_plan(cfg, env, 0, (q,), v, cfg.clusters[0].uplink_power_max_w)
            plan = schedule_segments(cfg, env, 0, (q,), v, cfg.clusters[0].uplink_power_max_w)
            assert (plan.delta, plan.m) == (delta, m)
            plans += 1
    assert partitions > 150 and deep == partitions and tied > 25 and plans == 48


def test_pretest_keeps_a_pair_whose_least_stage_count_ties_the_bar():
    # dyadic instance at m = 2: one item per chunk of 2^20 flops, speeds
    # (2^22, 2^21, 2^21) flop/s, so blocks take (0.25, 0.5, 0.5) s; hops
    # (0.25, 1, 0.25) s, from spectral efficiencies log2(1 + 15) = 4 and
    # log2(1 + 1) = 1 over 2^16 bits at 2^16 Hz; caps (2, 2, 3), L = 5, V = 1,
    # queue_sum = 0.5. The scan sets the bar at (6.0, 2) with (2, 0, 3), whose
    # first bottleneck is device 2 at u = 1.75: 3*1.75 - 0.25 + 2*0.5. The
    # later pair (j, d) = (1, 2) at u = 2.0 is alone at its occupancy; the
    # largest running count below it is device 2's 3, so its least stage count
    # 1 + ceil(3/3) = 2 is its true S, and its objective 3*2 - 1 + 1 = 6.0
    # equals the bar exactly. Only if it stays in the ties does the
    # lexicographically smaller (0, 2, 3) win
    doc = minimal_doc()
    doc["N0_w_per_hz"] = 1e-300
    doc["model"] = {"L": 5, "b": 2, "o_fwd_flops": 2.0**19, "o_bwd_flops": 2.0**19, "z_seg_bits": 2.0**15, "g_seg_bits": 2.0**15}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0].update(B_dd_hz=2.0**16, h_dd_db=0.0, I_dd_w=2.0**-5)
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": phi, "f_hz": 2.0**21, "p_dd_w": p_dd, "P_k_max_w": 0.5, "gamma_max_bytes": cap * 2.5e8, "gamma0_bytes": 2.5e8}
        for phi, p_dd, cap in ((2.0, 15 * 2.0**-5, 2), (1.0, 2.0**-5, 2), (1.0, 15 * 2.0**-5, 3))
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    assert env.speed[0] == (2.0**22, 2.0**21, 2.0**21) and env.hop_s[0] == (0.25, 1.0, 0.25)
    assert _cap_cover(2, cfg, env, 0)[0] == [2, 2, 3]
    devices = ((0.25, 0.25, 2), (0.5, 1.0, 2), (0.5, 0.25, 3))  # (block time, hop, cap)
    assert [sum(d * t + hop == 2.0 for d in range(1, cap + 1)) for t, hop, cap in devices] == [0, 1, 0]
    assert [sum(d * t + hop < 2.0 for d in range(1, cap + 1)) for t, hop, cap in devices] == [2, 1, 3]
    assert cluster_objective((2, 0, 3), 2, cfg, env, 0, 1.0, 0.5) == cluster_objective((0, 2, 3), 2, cfg, env, 0, 1.0, 0.5) == 6.0
    want = pair_scan_partition(cfg, env, 0, 2, 1.0, 0.5, 3)
    assert want == ((0, 2, 3), 2, 6.0)
    assert optimal_partition(2, cfg, env, 0, 1.0, 0.5, 3) == want[:2]


def test_fewest_cover_runs_for_a_third_of_the_pairs_it_did(monkeypatch):
    # 12 lyapunov rounds of the roundbench encoder shape (K=10, L=16), seed 1:
    # pricing every candidate bottleneck from the running counts first, the
    # cover count ran 1,760 times when every scanned pair counted its cover
    from edgesched import seg_solver

    calls = []
    fewest = seg_solver._fewest_cover

    def counted(*args):
        calls.append(args)
        return fewest(*args)

    monkeypatch.setattr(seg_solver, "_fewest_cover", counted)
    trace = run_simulation(build_config(workload_doc("encoder", 1)), 12, "lyapunov")
    assert len(trace.rounds) == 12
    assert len(calls) <= 1760 // 3


def test_best_first_search_runs_under_two_partition_searches_per_encoder_solve(monkeypatch):
    # 12 lyapunov rounds of the roundbench encoder shape, seed 1: searching
    # the run starts in ascending bound finds the best m first or second, and
    # its objective rules out the rest. In ascending m it took 49 searches,
    # and 36 with fractional loads in the stage-count floor, which let m = 2
    # through though it never wins
    from edgesched import seg_solver

    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return optimal_partition(m, *args, **kwargs)

    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    trace = run_simulation(build_config(workload_doc("encoder", 1)), 12, "lyapunov")
    assert len(trace.rounds) == 12
    assert len(calls) == 22


def test_stop_occupancy_inverts_the_stage_count_floor_term():
    # one float past the stop occupancy, the S-stage term of the floor, priced
    # as _stage_count_floor prices it, lies strictly above obj; and the stop
    # lies within (1 + 2e-9) of the exact, slack-free crossing of
    # V*((S+m-1)*U - hop_max) + S*q = obj
    rng = np.random.default_rng(24)
    checked = 0
    for v in (1e-3, 1.0, 10.0, 1e3):
        for q in (0.0, 1e-3, 1.0):
            for _ in range(400):
                s, m, hop_max = int(rng.integers(2, 13)), int(rng.integers(1, 65)), float(rng.uniform(0, 0.5))
                objs = [s * q + (s * q + v) * 10 ** rng.uniform(-2, 2)] + ([s * q] if q else [])
                for obj in objs:
                    occ = _stop_occupancy(v, q, s, m, hop_max, obj)
                    u = math.nextafter(occ, math.inf)
                    assert v * ((s + m - 1) * u - hop_max) * (1 - 1e-12) + s * q > obj
                    if obj > s * q:
                        room = (obj - s * q) / v
                        assert occ <= (1 + 2e-9) * ((room + hop_max) / (s + m - 1))
                    checked += 1
    assert checked == 8000
    assert _stop_occupancy(0.0, 1.0, 2, 1, 0.1, 5.0) == math.inf


def _floor_traffic(monkeypatch, cfg, rounds):
    """Counts over lyapunov rounds: solves, stage-count floor builds,
    partition searches, and the searches that ran no sweep."""
    from edgesched import orchestrator, seg_solver

    counts = dict.fromkeys(("solves", "builds", "calls", "skipped"), 0)
    swept = []  # the current partition search's sweeps

    def solve(*args):
        counts["solves"] += 1
        return schedule_segments(*args)

    def floor(*args):
        counts["builds"] += 1
        return _stage_count_floor(*args)

    def sweep(*args):  # runs once at the top of every sweep
        swept.append(True)
        return _stop_occupancy(*args)

    def search(*args, **kwargs):
        counts["calls"] += 1
        swept.clear()
        try:
            return optimal_partition(*args, **kwargs)
        finally:
            counts["skipped"] += not swept

    monkeypatch.setattr(orchestrator, "schedule_segments", solve)
    monkeypatch.setattr(seg_solver, "_stage_count_floor", floor)
    monkeypatch.setattr(seg_solver, "_stop_occupancy", sweep)
    monkeypatch.setattr(seg_solver, "optimal_partition", search)
    assert len(run_simulation(cfg, rounds, "lyapunov").rounds) == rounds
    return counts


def test_stage_count_floor_is_built_once_per_solve(monkeypatch, table2_cfg, homogeneous_cfg):
    # the run-start bound builds the one floor of a solve and every partition
    # search reads it. On paper the m = 1 incumbent leaves 16 searches, and
    # each of them sweeps: a search that would only confirm the incumbent is
    # not run
    paper = _floor_traffic(monkeypatch, build_config(workload_doc("paper", 1)), 96)
    assert (paper["solves"], paper["builds"], paper["calls"], paper["skipped"]) == (288, 288, 16, 0)
    for cfg in (build_config(workload_doc("encoder", 1)), homogeneous_cfg):
        traffic = _floor_traffic(monkeypatch, cfg, 12)
        assert traffic["builds"] == traffic["solves"] == 12
    # the module docstring: six table2 rounds search none of their 270 run starts
    table2 = _floor_traffic(monkeypatch, table2_cfg, 6)
    assert (table2["calls"], table2["solves"] * len(_micro_batch_run_starts(table2_cfg.model.batch_items))) == (0, 270)


def test_partition_equals_the_pair_scan_oracle_on_the_wide_encoder_shape():
    # the encoder cluster widened to K=32 devices and L=64 blocks with 12-block
    # memory caps, rounds 1 and 2, and round 1 again with the fastest three
    # devices of every ten cut to 6 blocks at m = 1 by their energy budgets.
    # At a cutoff equal to the optimum the plan survives; one float below, no
    # plan reaches it
    doc = workload_doc("encoder", 1)
    devices = doc["clusters"][0]["devices"]
    doc["clusters"][0]["devices"] = [dict(devices[i % len(devices)], gamma_max_bytes=12 * 2.5e8) for i in range(32)]
    doc["model"]["L"] = 64
    cfg = build_config(doc)
    cases = [(cfg, sample_round_environment(cfg, t), q) for t in (1, 2) for q in (0.0, 1e-3)]
    env = cases[0][1]
    cut = tuple(
        dataclasses.replace(dev, energy_budget_j=0.5 * (device_energy(6, 1, cfg, env, 0, k) + device_energy(7, 1, cfg, env, 0, k)))
        if k % 10 >= 7 else dev
        for k, dev in enumerate(cfg.clusters[0].devices)
    )
    cut_cfg = dataclasses.replace(cfg, clusters=(dataclasses.replace(cfg.clusters[0], devices=cut),))
    assert min(_cap_cover(1, cut_cfg, env, 0)[0]) == 6
    cases.append((cut_cfg, env, 1e-3))
    stages = set()
    for case_cfg, case_env, q in cases:
        v = case_cfg.convergence.v_factor
        s_cap = _segment_cap(case_cfg, case_env, 0, case_cfg.clusters[0].uplink_power_max_w)
        for m in (1, 4):
            want = pair_scan_partition(case_cfg, case_env, 0, m, v, q, s_cap)
            assert optimal_partition(m, case_cfg, case_env, 0, v, q, s_cap) == want[:2]
            obj = cluster_objective(want[0], m, case_cfg, case_env, 0, v, q)
            assert optimal_partition(m, case_cfg, case_env, 0, v, q, s_cap, cutoff=obj) == want[:2]
            below = math.nextafter(obj, -math.inf)
            assert optimal_partition(m, case_cfg, case_env, 0, v, q, s_cap, cutoff=below) is None
            stages.add(want[1])
    assert stages == {6, 7, 11}


def _later_cases():
    """(cfg, env, v, q, s_cap) cases for the run-start bounds: the memory battery
    at its own V and at V = 0, then 300 systems, half with energy-cut caps and
    each with a drawn segment cap, whose hops are redrawn between 1e-5 and 1 s,
    so that hop_max > (S+m-1)*hop_min and an S-stage line of ``later``
    subtracts more than it adds"""
    for cfg, env, _, _, q in _memory_battery():
        for v in (cfg.convergence.v_factor, 0.0):
            yield cfg, env, v, q, cfg.clusters[0].n_devices
    rng = np.random.default_rng(38)
    for _ in range(300):
        if rng.random() < 0.5:
            doc = _binding_energy_doc(rng)
        else:
            doc = random_system_doc(rng, max_devices=6, max_blocks=12, max_batch=64)
        cfg = build_config(doc)
        if rng.random() < 0.3:  # a device that memory rules out
            starved = dataclasses.replace(cfg.clusters[0].devices[0], mem_budget_bytes=1e7)
            cfg = dataclasses.replace(cfg, clusters=(dataclasses.replace(cfg.clusters[0], devices=(starved,) + cfg.clusters[0].devices[1:]),))
        hops = tuple(float(10 ** rng.uniform(-5, 0)) for _ in cfg.clusters[0].devices)
        env = dataclasses.replace(sample_round_environment(cfg, 1), hop_s=(hops,))
        s_cap = int(rng.integers(1, cfg.clusters[0].n_devices + 1))
        for v in (cfg.convergence.v_factor, 0.0):
            for q in (0.0, 1e-3, 1.0):
                yield cfg, env, v, q, s_cap


def test_later_never_falls_and_lies_at_or_below_every_later_bound():
    checked = tight = wide = 0
    for cfg, env, v, q, s_cap in _later_cases():
        bound, later = _run_start_bound(cfg, env, 0, v, q, s_cap)
        starts = _micro_batch_run_starts(cfg.model.batch_items)
        bounds = [bound(m)[0] for m in starts]
        laters = [later(m) for m in starts]
        for i, lower in enumerate(laters):
            assert lower <= min(bounds[i:])
            assert i == 0 or laters[i - 1] <= lower
            tight += v > 0 and math.isfinite(lower) and lower >= bounds[i] * (1 - 1e-8)
        checked += 1
        hops = [hop for hop, dev in zip(env.hop_s[0], cfg.clusters[0].devices) if dev.block_cap]
        wide += v > 0 and len(hops) > 1 and max(hops) > (len(hops) + starts[-1] - 1) * min(hops)
    assert checked == 2400 and tight > 1000 and wide > 500


def test_walk_prices_few_run_starts_and_searches_the_same_ones(monkeypatch):
    # 96 lyapunov rounds of the roundbench paper and encoder shapes, seed 1:
    # pricing every run start and sorting them by the same bounds makes the
    # same 16 and 165 partition searches over the same 288 and 96 solves,
    # and prices 15 run starts each. On paper the m = 1 incumbent rules out
    # every run start but 16; on encoder no device holds all 16 blocks, so
    # no incumbent forms
    from edgesched import orchestrator, seg_solver

    def traffic(name):
        counts = dict.fromkeys(("solves", "priced", "searches"), 0)

        def solve(*args):
            counts["solves"] += 1
            return schedule_segments(*args)

        def bounds(*args):
            bound, later = _run_start_bound(*args)

            def priced(m):
                counts["priced"] += 1
                return bound(m)

            return priced, later

        def search(*args, **kwargs):
            counts["searches"] += 1
            return optimal_partition(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "schedule_segments", solve)
        monkeypatch.setattr(seg_solver, "_run_start_bound", bounds)
        monkeypatch.setattr(seg_solver, "optimal_partition", search)
        assert len(run_simulation(build_config(workload_doc(name, 1)), 96, "lyapunov").rounds) == 96
        return counts

    paper = traffic("paper")
    assert (paper["solves"], paper["searches"]) == (288, 16) and paper["priced"] <= 3 * 288
    encoder = traffic("encoder")
    assert (encoder["solves"], encoder["searches"]) == (96, 165) and encoder["priced"] <= 7 * 96


def test_walk_keeps_a_run_start_whose_later_ties_the_best_at_v_0():
    # the exact-tie system of test_run_start_skip_keeps_an_exact_tie at V = 0
    # and q = 0: every plan costs 0, so every bound and ``later`` is 0. m = 1
    # is searched first and finds a two-stage plan; m = 2, whose later equals
    # that objective, must still be priced and searched, because its
    # one-stage plan wins the tie on S
    doc = minimal_doc()
    doc["model"] = {"L": 2, "b": 2, "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": mem, "gamma0_bytes": 2.5e8} for mem in (5e8, 2.5e8, 2.5e8)]
    cfg = build_config(doc)
    env = dataclasses.replace(sample_round_environment(cfg, 1), speed=((2.0**22,) * 3,), hop_s=((0.5,) * 3,))
    budget = 0.5 * (device_energy(2, 1, cfg, env, 0, 0) + device_energy(2, 2, cfg, env, 0, 0))
    fast = dataclasses.replace(cfg.clusters[0].devices[0], energy_budget_j=budget)
    cfg = dataclasses.replace(cfg, clusters=(dataclasses.replace(cfg.clusters[0], devices=(fast,) + cfg.clusters[0].devices[1:]),))
    bound, later = _run_start_bound(cfg, env, 0, 0.0, 0.0, 3)
    assert bound(1)[0] == bound(2)[0] == later(2) == 0.0
    assert optimal_partition(1, cfg, env, 0, 0.0, 0.0, 3) == ((0, 1, 1), 2)
    plan = schedule_segments(cfg, env, 0, (0.0,), 0.0, 0.5)
    assert (plan.delta, plan.m) == _unpruned_scan(cfg, env, 0, (0.0,), 0.0, 0.5) == ((2, 0, 0), 2)


def _with_device(cfg, k, **fields):
    devices = list(cfg.clusters[0].devices)
    devices[k] = dataclasses.replace(devices[k], **fields)
    return dataclasses.replace(cfg, clusters=(dataclasses.replace(cfg.clusters[0], devices=tuple(devices)),))


def _incumbent_system(phis_and_mems, h_dd_db, bwd_flops):
    """One cluster of L = 4 blocks and b = 8 items at a fixed clock and D2D gain:
    devices of equal phi have exactly equal speeds and hops, and a 1 GB memory
    budget holds all four blocks."""
    doc = minimal_doc()
    doc["model"] = {"L": 4, "b": 8, "o_bwd_flops": bwd_flops}
    doc["convergence"] = {"gamma_max_bound": 1.0}
    doc["clusters"][0]["h_dd_db"] = h_dd_db
    doc["clusters"][0]["devices"] = [
        {"phi_flops_per_cycle": phi, "f_hz": 4e8, "gamma_max_bytes": mem, "gamma0_bytes": 2.5e8, "E_k_max_j": 50.0}
        for phi, mem in phis_and_mems
    ]
    cfg = build_config(doc)
    return cfg, sample_round_environment(cfg, 1)


def _cut_to_m_2(cfg, env, k):
    """cfg with device k's budget between its L-block energies at m = 1 and m = 2."""
    l_blocks = cfg.model.n_blocks
    return _with_device(cfg, k, energy_budget_j=0.5 * (device_energy(l_blocks, 1, cfg, env, 0, k) + device_energy(l_blocks, 2, cfg, env, 0, k)))


def test_schedule_segments_equals_the_oracle_on_systems_built_for_the_incumbent(monkeypatch):
    # schedule_segments starts its walk from m = 1's best one-stage plan and
    # prices m = 1 by its many-stage floor alone. Each system below tests one
    # part of that against the exhaustive oracle, at V = 10 and at V = 0
    from edgesched import seg_solver

    searched = []
    search = seg_solver.optimal_partition

    def counted(m, *args, **kwargs):
        searched.append(m)
        return search(m, *args, **kwargs)

    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    equal = [(16, 1e9), (16, 5e8), (16, 1e9), (16, 5e8)]  # devices 0 and 2 hold L
    cfg, env = _incumbent_system(equal, -60, 2.0**20)
    fast, fast_env = _incumbent_system([(30, 1e9), (10, 1e9), (12, 5e8)], -60, 2.0**20)
    heavy, heavy_env = _incumbent_system([(8, 1e9), (64, 5e8), (64, 5e8)], -10, 2.0**32)
    slack_budget = device_energy(4, 1, cfg, env, 0, 2) * (1 + 5e-13) / (1 + ENERGY_BUDGET_SLACK)
    assert slack_budget < device_energy(4, 1, cfg, env, 0, 2) < slack_budget * (1 + ENERGY_BUDGET_SLACK)
    systems = [
        # equal speeds: the tie goes to the last device that holds L
        ("equal", cfg, env, (0, 0, 4, 0), 1),
        # the last holder fits only from m = 2 on: at V > 0 the first holder
        # wins at m = 1; at V = 0 every one-stage plan costs S*q, and the
        # last holder's plan at m = 2 wins on its delta
        ("equal, last cut", _cut_to_m_2(cfg, env, 2), env, (4, 0, 0, 0), 1),
        # the last holder's m = 1 energy lies above its budget but within the
        # budget times (1 + ENERGY_BUDGET_SLACK): it is admitted and wins the tie
        ("equal, last within slack", _with_device(cfg, 2, energy_budget_j=slack_budget), env, (0, 0, 4, 0), 1),
        # unequal speeds: the fastest holder wins at V > 0; at V = 0 the
        # slower one, visited after it at the same objective, wins the tie
        ("unequal", fast, fast_env, (4, 0, 0), 1),
        # the fastest device fails its budget at m = 1 and fits at m = 2, where
        # its one-stage plan beats the incumbent on the slower device 1
        ("fastest cut", _cut_to_m_2(fast, fast_env, 0), fast_env, (4, 0, 0), 2),
        # only a slow device holds L, beside two fast ones, with short hops and
        # a heavy backward pass, which every chunk repeats: the many-stage
        # floor at m = 1 lies below the incumbent, so m = 1 is searched, and a
        # pipelined plan wins there
        ("pipelined", heavy, heavy_env, None, 1),
    ]
    for name, case_cfg, case_env, want_delta, want_m in systems:
        for v in (10.0, 0.0):
            for q in (0.0, 0.05):
                searched.clear()
                plan = schedule_segments(case_cfg, case_env, 0, (q,), v, 0.5)
                od, _, om, _ = brute_force_segment_plan(case_cfg, case_env, 0, (q,), v, 0.5)
                assert (plan.delta, plan.m) == (od, om), name
                if v == 0.0:
                    assert plan.n_segments == 1
                    if name == "equal, last cut":
                        assert (plan.delta, plan.m) == ((0, 0, 4, 0), 2)
                elif want_delta is None:
                    assert plan.n_segments > 1 and plan.m == want_m and 1 in searched
                else:
                    assert (plan.delta, plan.m) == (want_delta, want_m), name


def test_more_memory_energy_or_head_power_never_raises_the_objective():
    # a metamorphic relation: doubling one device's memory cap or energy
    # budget, or raising the head power (and so the segment cap), only adds
    # plans, so the optimum's objective cannot rise and a feasible cluster
    # stays feasible. On systems with energy-cut caps at q > 0, and on two
    # rounds of the encoder cluster widened to K=32, L=64 at a head power
    # whose balance cap allows 6 stages, raised to P_max
    def objective(cfg, env, v, q, power):
        try:
            plan = schedule_segments(cfg, env, 0, (q,), v, power)
        except InfeasibleError:
            return math.inf
        return cluster_objective(plan.delta, plan.m, cfg, env, 0, v, q)

    rng = np.random.default_rng(22)
    cases = []
    for _ in range(150):
        cfg = build_config(_binding_energy_doc(rng))
        cases.append((cfg, sample_round_environment(cfg, int(rng.integers(1, 5))), float(rng.uniform(0.05, 0.5)), float(rng.choice([1e-3, 1.0]))))
    doc = workload_doc("encoder", 1)
    doc["convergence"]["gamma_max_bound"] = 1e-4
    devices = doc["clusters"][0]["devices"]
    doc["clusters"][0]["devices"] = [dict(devices[i % len(devices)], gamma_max_bytes=12 * 2.5e8) for i in range(32)]
    doc["model"]["L"] = 64
    wide = build_config(doc)
    for t in (1, 2):
        env = sample_round_environment(wide, t)
        cases.append((wide, env, balance_thresholds(wide.convergence, 1, 64, env.uplink_gain[0], env.uplink_interference_w[0])[5], 1e-3))
    lowered = 0
    bases = []
    for cfg, env, power, q in cases:
        v = cfg.convergence.v_factor
        base = objective(cfg, env, v, q, power)
        bases.append(base)
        k = int(rng.integers(cfg.clusters[0].n_devices))
        dev = cfg.clusters[0].devices[k]
        raised = [
            objective(_with_device(cfg, k, mem_budget_bytes=2 * dev.mem_budget_bytes), env, v, q, power),
            objective(_with_device(cfg, k, energy_budget_j=2 * dev.energy_budget_j), env, v, q, power),
            objective(cfg, env, v, q, max(2 * power, cfg.clusters[0].uplink_power_max_w)),
        ]
        assert all(obj <= base for obj in raised)
        lowered += any(obj < base for obj in raised)
    assert math.isfinite(bases[-1]) and math.isfinite(bases[-2]) and lowered > 30


def test_adding_a_device_never_raises_the_objective():
    # a metamorphic relation: every plan of a cluster stays feasible, with the
    # same stages in the same order, when a device is appended to it, so the
    # optimum's objective cannot rise. The device goes last in the one
    # cluster, so the environment's draws for the others stay the same. On
    # systems with energy-cut caps and with memory caps alone, at q > 0 and
    # q = 0, and on two rounds of the encoder cluster widened to K=32, L=64
    # at a head power whose balance cap allows 6 stages
    def optimum(doc, t, q, power):
        cfg = build_config(doc)
        env = sample_round_environment(cfg, t)
        try:
            plan = schedule_segments(cfg, env, 0, (q,), cfg.convergence.v_factor, power)
        except InfeasibleError:
            return env, math.inf
        return env, cluster_objective(plan.delta, plan.m, cfg, env, 0, cfg.convergence.v_factor, q)

    rng = np.random.default_rng(23)
    cases = []
    for i in range(300):
        doc = _binding_energy_doc(rng) if i % 2 else random_system_doc(rng, max_devices=6, max_blocks=12, max_batch=64)
        cases.append((doc, int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.5)), float(rng.choice([0.0, 1e-3, 1.0]))))
    wide = workload_doc("encoder", 1)
    wide["convergence"]["gamma_max_bound"] = 1e-4
    devices = wide["clusters"][0]["devices"]
    wide["clusters"][0]["devices"] = [dict(devices[i % len(devices)], gamma_max_bytes=12 * 2.5e8) for i in range(32)]
    wide["model"]["L"] = 64
    wide_cfg = build_config(wide)
    for t in (1, 2):
        env = sample_round_environment(wide_cfg, t)
        cases.append((wide, t, balance_thresholds(wide_cfg.convergence, 1, 64, env.uplink_gain[0], env.uplink_interference_w[0])[5], 1e-3))
    lowered = finite = 0
    for doc, t, power, q in cases:
        env, base = optimum(doc, t, q, power)
        devices = doc["clusters"][0]["devices"]
        extra = dict(devices[int(rng.integers(len(devices)))], phi_flops_per_cycle=float(rng.uniform(5, 30)))
        extra.update(gamma_max_bytes=2.5e8 * int(rng.integers(1, 2 * doc["model"]["L"] + 1)), E_k_max_j=extra["E_k_max_j"] * float(10 ** rng.uniform(-1, 1)))
        grown_env, grown = optimum(dict(doc, clusters=[dict(doc["clusters"][0], devices=devices + [extra])]), t, q, power)
        assert grown_env.speed[0][:-1] == env.speed[0] and grown_env.hop_s[0][:-1] == env.hop_s[0]
        assert grown <= base
        lowered += grown < base
        finite += math.isfinite(base)
    assert finite > 200 and lowered > 50
