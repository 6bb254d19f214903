import math

import numpy as np
import pytest

from edgesched.comm import ChannelAssignment, device_d2d_delay
from edgesched.config import build_config, sample_round_environment
from edgesched.decision import SchedulingDecision, validate_decision
from edgesched.errors import InfeasibleError
from edgesched.pipeline import (
    SegmentPlan,
    chunk_work,
    event_sim_makespan,
    micro_batch_size,
    pipeline_latency,
    pipeline_latency_from_times,
    stage_profile,
)

from conftest import minimal_doc


def test_micro_batch_size_values():
    assert micro_batch_size(64, 1) == 64
    assert micro_batch_size(64, 16) == 4
    assert micro_batch_size(64, 3) == 22  # ceiling rule
    assert micro_batch_size(7, 7) == 1
    with pytest.raises(ValueError):
        micro_batch_size(64, 65)
    with pytest.raises(ValueError):
        micro_batch_size(64, 0)


def test_stage_time_values(table2_cfg):
    model = table2_cfg.model  # o_fwd = o_bwd = 2e6, b = 64
    # b_hat=8, o=o'=2e6 -> one chunk through one block is 8*2e6+2e6 FLOPs
    assert chunk_work(8, model) == 1.8e7
    # a stage per scheduled device, delta*work/speed each, with its hop; m=8 gives b_hat=8
    env = sample_round_environment(table2_cfg, 1)
    delta = (2, 0, 1, 0, 0, 3)
    times, hops = stage_profile(delta, 8, table2_cfg, env, 0)
    assert times == [d * 1.8e7 / env.speed[0][k] for k, d in enumerate(delta) if d]
    assert hops == [env.hop_s[0][k] for k, d in enumerate(delta) if d]


def test_latency_single_stage_and_closed_form():
    assert pipeline_latency_from_times([0.25], [0.04], 1) == pytest.approx(0.25)
    assert pipeline_latency_from_times([0.25], [0.04], 5) == pytest.approx(5 * 0.25)
    # equal stages t, equal hops d, S=3, m=4: 6*(t+d) - d
    t, d = 0.2, 0.05
    assert pipeline_latency_from_times([t] * 3, [d] * 3, 4) == pytest.approx(6 * (t + d) - d, rel=1e-12)


def test_latency_subtracts_bottleneck_hop():
    times = [0.1, 0.4, 0.2]
    hops = [0.05, 0.01, 0.02]
    m = 3
    u = [a + b for a, b in zip(times, hops)]
    j = u.index(max(u))
    assert pipeline_latency_from_times(times, hops, m) == pytest.approx((3 + m - 1) * u[j] - hops[j], rel=1e-12)
    # stages 0 and 1 tie at occupancy 0.4: the first one's hop is subtracted
    assert pipeline_latency_from_times([0.3, 0.2], [0.1, 0.2], m) == pytest.approx(4 * 0.4 - 0.1, rel=1e-12)


def test_closed_form_dominates_event_sim():
    rng = np.random.default_rng(99)
    for _ in range(300):
        s = int(rng.integers(1, 7))
        m = int(rng.integers(1, 17))
        times = [float(rng.uniform(0.002, 0.5)) for _ in range(s)]
        hop = float(rng.uniform(0.001, 0.02))
        hops = [hop * float(rng.uniform(0.97, 1.03)) for _ in range(s)]
        cf = pipeline_latency_from_times(times, hops, m)
        sim = event_sim_makespan(times, hops, m)
        assert cf >= sim - 1e-12 * max(1.0, sim)


def test_event_sim_cases():
    # equal occupancies: simulator equals the closed form exactly
    t, d, s, m = 0.07, 0.013, 4, 9
    assert event_sim_makespan([t] * s, [d] * s, m) == pytest.approx(
        pipeline_latency_from_times([t] * s, [d] * s, m), rel=1e-12
    )
    # single stage: no hops at all
    assert event_sim_makespan([0.3], [0.12], 7) == pytest.approx(7 * 0.3, rel=1e-12)
    # explicit recursion value: identical chunks give sum + (m-1)*max - last hop
    times, hops, m = [0.1, 0.2], [0.01, 0.03], 5
    u = [0.11, 0.23]
    expected = sum(u) + (m - 1) * max(u) - hops[-1]
    assert event_sim_makespan(times, hops, m) == pytest.approx(expected, rel=1e-12)


def test_plan_validation_errors(table2_cfg):
    import dataclasses

    cluster = table2_cfg.clusters[0]
    model = table2_cfg.model  # L = 6
    with pytest.raises(InfeasibleError, match="C1"):
        SegmentPlan(delta=(1, 1, 1, 1, 1, 0), m=1).validate(cluster, model)  # sums to 5
    with pytest.raises(InfeasibleError, match="C1"):
        SegmentPlan(delta=(6, 0, 0, 0, 0, 0), m=100).validate(cluster, model)  # m > b
    with pytest.raises(InfeasibleError, match="covers 5 devices, cluster has 6"):
        SegmentPlan(delta=(2, 2, 2, 0, 0), m=1).validate(cluster, model)
    for delta in ((4, 3, -1, 0, 0, 0), (2.5, 3.5, 0, 0, 0, 0)):  # each sums to 6
        with pytest.raises(InfeasibleError, match="nonnegative integers"):
            SegmentPlan(delta=delta, m=1).validate(cluster, model)
    tight = dataclasses.replace(
        cluster, devices=tuple(dataclasses.replace(d, mem_budget_bytes=2.5e8) for d in cluster.devices)
    )
    with pytest.raises(InfeasibleError, match="C7"):
        SegmentPlan(delta=(0, 0, 0, 0, 0, 6), m=1).validate(tight, model)


def test_plan_properties():
    plan = SegmentPlan(delta=(0, 2, 0, 4), m=3)
    assert plan.n_segments == 2
    assert plan.scheduled == (1, 3)


def test_pipeline_latency_monotonicity(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    base = SegmentPlan(delta=(1, 1, 1, 1, 1, 1), m=4)
    lat = pipeline_latency(base, table2_cfg, env, 0)
    # more blocks on any device cannot speed things up
    heavier = SegmentPlan(delta=(2, 1, 1, 1, 1, 1), m=4)
    assert pipeline_latency(heavier, table2_cfg, env, 0) >= lat
    # faster devices (smaller stage times) cannot slow things down
    times = [0.1, 0.25, 0.07]
    hops = [0.01, 0.02, 0.015]
    slow = pipeline_latency_from_times(times, hops, 5)
    fast = pipeline_latency_from_times([t / 2 for t in times], hops, 5)
    assert fast <= slow


def _priced_off_air(plans, cfg, env):
    # validate_decision's training and hop energies, every cluster off the air
    off = ChannelAssignment(n_channels=cfg.n_channels, assigned=(None,) * cfg.n_clusters)
    decision = SchedulingDecision(plans=tuple(plans), assignment=off, powers_w=(0.0,) * cfg.n_clusters)
    _, _, _, e_pipe, e_sch = validate_decision(decision, cfg, env)
    return e_pipe, e_sch


def test_pipeline_energy_forms():
    doc = minimal_doc()
    doc["model"] = {"L": 2, "b": 16, "o_fwd_flops": 1e6, "o_bwd_flops": 5e5}
    doc["clusters"][0]["devices"][0] = {
        "phi_flops_per_cycle": 10,
        "f_hz": 2e8,
        "p_dd_w": 0.08,
        "kappa": 1e-27,
    }
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    plan1 = SegmentPlan(delta=(2,), m=1)
    hop = device_d2d_delay(cfg, 0, 0, env.d2d_gain[0][0], env.d2d_interference_w[0])
    work = 2 * (16 * 1e6 + 5e5)
    e_comp = 1e-27 * work / 10 * (2e8) ** 2
    e_hop = 0.08 * hop
    assert _priced_off_air([plan1], cfg, env)[0][0] == pytest.approx(2 * 1 * (e_comp + e_hop), rel=1e-12)
    # linear in m at fixed chunk size: compare m vs 2m with the same b_hat
    doc["model"]["b"] = 8
    cfg2 = build_config(doc)
    env2 = sample_round_environment(cfg2, 1)
    e2 = _priced_off_air([SegmentPlan(delta=(2,), m=2)], cfg2, env2)[0][0]  # b_hat = 4
    e4 = _priced_off_air([SegmentPlan(delta=(2,), m=4)], cfg2, env2)[0][0]  # b_hat = 2
    work2 = 2 * (4 * 1e6 + 5e5)
    work4 = 2 * (2 * 1e6 + 5e5)
    hop2 = device_d2d_delay(cfg2, 0, 0, env2.d2d_gain[0][0], env2.d2d_interference_w[0])
    expected2 = 2 * 2 * (1e-27 * work2 / 10 * (2e8) ** 2 + 0.08 * hop2)
    expected4 = 2 * 4 * (1e-27 * work4 / 10 * (2e8) ** 2 + 0.08 * hop2)
    assert e2 == pytest.approx(expected2, rel=1e-12)
    assert e4 == pytest.approx(expected4, rel=1e-12)


def test_pipeline_energy_table2_instance(table2_cfg):
    env = sample_round_environment(table2_cfg, 2)
    plans = [SegmentPlan(delta=(1,) * cl.n_devices, m=8) for cl in table2_cfg.clusters]
    total = hop_total = 0.0
    b_hat = micro_batch_size(table2_cfg.model.batch_items, 8)
    for k, dev in enumerate(table2_cfg.clusters[0].devices):
        work = 1 * (b_hat * 2e6 + 2e6)
        total += dev.kappa * work / dev.flops_per_cycle * env.clock_hz[0][k] ** 2
        hop_total += dev.d2d_power_w * device_d2d_delay(table2_cfg, 0, k, env.d2d_gain[0][k], env.d2d_interference_w[0])
    e_pipe, e_sch = _priced_off_air(plans, table2_cfg, env)
    assert e_pipe[0] == pytest.approx(2 * 8 * (total + hop_total), rel=1e-12)
    assert e_sch[0] == pytest.approx(hop_total, rel=1e-12)


def test_relaxed_chunk_objective_is_convex_with_integer_minimizer_adjacent():
    # (S+m-1)*(A/m+B) on the continuous relaxation: integer argmin is floor or
    # ceil of the stationary point sqrt((S-1)A/B)
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = int(rng.integers(2, 7))
        a = float(rng.uniform(0.01, 5.0))
        b_coef = float(rng.uniform(0.001, 1.0))
        f = lambda m: (s + m - 1) * (a / m + b_coef)
        m_star = math.sqrt((s - 1) * a / b_coef)
        ints = list(range(1, 200))
        vals = [f(m) for m in ints]
        m_int = ints[int(np.argmin(vals))]
        lo, hi = max(1, math.floor(m_star)), math.ceil(m_star)
        assert m_int in (lo, hi)
        # strict convexity on a sample triple
        m1, m2 = 3.0, 11.0
        assert f(0.5 * (m1 + m2)) < 0.5 * (f(m1) + f(m2)) + 1e-12


def test_empty_plan_rejected():
    with pytest.raises(InfeasibleError):
        pipeline_latency_from_times([], [], 1)


@pytest.mark.parametrize(
    "times, hops, m, message",
    [
        ([], [], 1, "empty pipeline"),
        ([0.1, 0.2], [0.01], 2, "equal length"),
        ([0.1, 0.2], [0.01, 0.02, 0.03], 2, "equal length"),
        ([0.1, 0.2], [0.01, 0.02], 0, "chunk count must be >= 1"),
    ],
)
def test_event_sim_rejects_malformed_input(times, hops, m, message):
    with pytest.raises(ValueError, match=message):
        event_sim_makespan(times, hops, m)
