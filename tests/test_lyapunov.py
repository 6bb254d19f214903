import math

import numpy as np
import pytest

from edgesched.comm import ChannelAssignment, cluster_uplink_rate
from edgesched.config import sample_round_environment
from edgesched.decision import SchedulingDecision
from edgesched.errors import InfeasibleError
from edgesched.lyapunov import drift_penalty, queue_update, round_delay
from edgesched.pipeline import SegmentPlan, pipeline_latency


def test_queue_update_cases():
    assert queue_update((0.0,), 5e-5, 5e-5) == (0.0,)
    assert queue_update((5.0,), 1.0, 8.0) == (0.0,)  # floors at zero
    assert queue_update((1.0,), 0.3, 0.1) == (pytest.approx(1.2),)
    assert queue_update((1.0, 2.0), 0.3, 0.1) == (pytest.approx(1.2), pytest.approx(2.2))


def test_queue_zero_when_bound_respected():
    y = (0.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        gamma = float(rng.uniform(0.0, 1.0)) * 1e-4
        y = queue_update(y, gamma, 1e-4)
    assert y == (0.0, 0.0)


def test_mean_rate_stability_under_average_slack():
    # time-average gamma <= gamma_max - delta keeps Y(t)/t -> 0
    rng = np.random.default_rng(42)
    gamma_max = 1.0
    y = (0.0,)
    t_rounds = 10_000
    history = []
    for t in range(1, t_rounds + 1):
        gamma = float(rng.uniform(0.2, 1.6))  # mean 0.9 = gamma_max - 0.1
        history.append(gamma)
        y = queue_update(y, gamma, gamma_max)
    assert np.mean(history) < gamma_max - 0.05
    assert y[0] / t_rounds < 0.01 * gamma_max


def _decision(cfg, plans, assigned, powers):
    return SchedulingDecision(
        plans=tuple(plans),
        assignment=ChannelAssignment(n_channels=cfg.n_channels, assigned=tuple(assigned)),
        powers_w=tuple(powers),
    )


def _uniform_plans(cfg, m=4):
    return [SegmentPlan(delta=(1,) * cl.n_devices, m=m) for cl in cfg.clusters]


def test_round_delay_single_and_max(table2_cfg, homogeneous_cfg):
    env_h = sample_round_environment(homogeneous_cfg, 1)
    d_h = _decision(homogeneous_cfg, _uniform_plans(homogeneous_cfg), (0,), (0.5,))
    pipe = pipeline_latency(d_h.plans[0], homogeneous_cfg, env_h, 0)
    rate = cluster_uplink_rate(homogeneous_cfg.clusters[0], env_h, 0, 0.5, homogeneous_cfg.noise_density_w_per_hz)
    up = homogeneous_cfg.model.uplink_payload_bits / rate
    assert round_delay(d_h, homogeneous_cfg, env_h) == pytest.approx(pipe + up, rel=1e-12)

    env = sample_round_environment(table2_cfg, 1)
    d = _decision(table2_cfg, _uniform_plans(table2_cfg), (0, 1, 2), (0.5, 0.5, 0.5))
    per_cluster = []
    for n in range(3):
        rate_n = cluster_uplink_rate(table2_cfg.clusters[n], env, n, 0.5, table2_cfg.noise_density_w_per_hz)
        per_cluster.append(
            pipeline_latency(d.plans[n], table2_cfg, env, n) + table2_cfg.model.uplink_payload_bits / rate_n
        )
    assert round_delay(d, table2_cfg, env) == pytest.approx(max(per_cluster), rel=1e-12)


def test_round_delay_skips_upload_for_virtual_clusters(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    d = _decision(table2_cfg, _uniform_plans(table2_cfg), (0, None, 1), (0.5, 0.0, 0.5))
    pipes = [pipeline_latency(d.plans[n], table2_cfg, env, n) for n in range(3)]
    totals = []
    for n in range(3):
        if n == 1:
            totals.append(pipes[n])
        else:
            rate_n = cluster_uplink_rate(table2_cfg.clusters[n], env, n, 0.5, table2_cfg.noise_density_w_per_hz)
            totals.append(pipes[n] + table2_cfg.model.uplink_payload_bits / rate_n)
    assert round_delay(d, table2_cfg, env) == pytest.approx(max(totals), rel=1e-12)


def test_round_delay_and_drift_penalty_reject_an_infeasible_decision(table2_cfg):
    # both price the decision through validate_decision: a power off the air breaks C6
    env = sample_round_environment(table2_cfg, 1)
    d = _decision(table2_cfg, _uniform_plans(table2_cfg), (0, None, 1), (0.5, 0.5, 0.5))
    with pytest.raises(InfeasibleError, match="C6"):
        round_delay(d, table2_cfg, env)
    with pytest.raises(InfeasibleError, match="C6"):
        drift_penalty(d, table2_cfg, env, (0.0,) * 3, 7.0)


def test_drift_penalty_degenerate_weights(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    d = _decision(table2_cfg, _uniform_plans(table2_cfg), (0, 1, 2), (0.5, 0.4, 0.3))
    tau = round_delay(d, table2_cfg, env)
    queues = (2.0, 1.0, 0.5)
    # V = 0: pure queue-weighted penalty
    expected_penalty = sum(y * (6 + p) for y, p in zip(queues, d.powers_w))
    assert drift_penalty(d, table2_cfg, env, queues, 0.0) == pytest.approx(expected_penalty, rel=1e-12)
    # zero queues: V * tau only
    assert drift_penalty(d, table2_cfg, env, (0.0,) * 3, 7.0) == pytest.approx(7.0 * tau, rel=1e-12)
    composite = drift_penalty(d, table2_cfg, env, queues, 7.0)
    assert composite == pytest.approx(7.0 * tau + expected_penalty, rel=1e-12)


def test_lambda_finite_difference_in_m(homogeneous_cfg):
    # moving m -> m+1 changes Lambda = V*pipeline_latency + S*sum(Y) by the
    # independently computed closed-form step
    cfg = homogeneous_cfg
    env = sample_round_environment(cfg, 1)
    queues = (0.25,)
    v = 5.0
    speed = 16.0 * 4.5e8
    sinr = 0.085 * 10 ** (-30 / 10) / (5e-10 + 5e5 * cfg.noise_density_w_per_hz)
    hop = (3.5e4 + 3.5e4) / (5e5 * math.log2(1 + sinr))

    def closed_lambda(m):
        b_hat = -(-64 // m)
        t = 2 * (b_hat * 2e6 + 2e6) / speed
        s = 3
        return v * ((s + m - 1) * (t + hop) - hop) + s * sum(queues)

    for m in (2, 3, 7):
        lat1 = pipeline_latency(SegmentPlan(delta=(2, 2, 2, 0, 0, 0), m=m), cfg, env, 0)
        lat2 = pipeline_latency(SegmentPlan(delta=(2, 2, 2, 0, 0, 0), m=m + 1), cfg, env, 0)
        got = v * (lat2 - lat1)  # the segment term S*sum(Y) does not depend on m
        assert got == pytest.approx(closed_lambda(m + 1) - closed_lambda(m), rel=1e-9)
