import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from edgesched import comm, orchestrator, pipeline, res_solver, seg_solver
from edgesched.config import build_config, load_config, sample_round_environment
from edgesched.decision import validate_decision
from edgesched.errors import SimulationAborted
from edgesched.lyapunov import drift_penalty
from edgesched.oracles import brute_force_segment_plan, grid_search_power
from edgesched.orchestrator import (
    POLICIES,
    baseline_decision,
    loss_proxy,
    optimize_round,
    run_simulation,
    system_gamma,
    uniform_partition,
)
from edgesched.res_solver import _objective, _problem
from conftest import BINDING, TABLE2, minimal_doc


def test_minimal_system_decision_matches_brute_force():
    # N = K = J = 1: the decision is forced up to (m, p); check both
    doc = minimal_doc()
    doc["model"] = {"L": 3, "b": 16}
    doc["convergence"] = {"gamma_max_bound": 1e-4, "V": 10.0}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    queues = (0.7,)
    decision = optimize_round(cfg, env, queues, 10.0)
    od, _, om, oobj = brute_force_segment_plan(cfg, env, 0, queues, 10.0, decision.powers_w[0])
    assert decision.plans[0].delta == od
    assert decision.plans[0].m == om
    prob = _problem(cfg, env, 0)
    params = cfg.convergence
    cap = (
        2 * params.gamma_max / (params.beta * params.eta**2)
        - params.phi_bound**2 / cfg.model.n_blocks
        - params.phi_bound**2
    )
    pg, og = grid_search_power(
        prob.bandwidth,
        prob.gain,
        env.uplink_interference_w[0],
        cfg.noise_density_w_per_hz,
        prob.payload,
        prob.param_bits,
        prob.p_max,
        prob.e_max,
        queues[0],
        10.0,
        cap,
        params.c_interference,
        100_001,
    )
    assert _objective(prob, 10.0, queues[0], decision.powers_w[0]) <= og * (1 + 1e-3)


def test_round_determinism(table2_cfg):
    env = sample_round_environment(table2_cfg, 4)
    d1 = optimize_round(table2_cfg, env, (0.0,) * 3, 10.0)
    d2 = optimize_round(table2_cfg, env, (0.0,) * 3, 10.0)
    assert d1 == d2


def test_control_factor_monotone_tradeoff(table2_cfg):
    # avg delay nonincreasing and avg backlog nondecreasing as V grows
    taus, backlogs = [], []
    for v in (0.01, 10.0, 100.0):
        cfg = dataclasses.replace(
            table2_cfg, convergence=dataclasses.replace(table2_cfg.convergence, v_factor=v)
        )
        trace = run_simulation(cfg, 25, "lyapunov")
        s = trace.summary()
        taus.append(s["avg_tau_s"])
        backlogs.append(s["max_queue_over_t"])
    assert taus[0] >= taus[1] - 1e-12 and taus[1] >= taus[2] - 1e-12
    assert backlogs[0] <= backlogs[1] + 1e-12 and backlogs[1] <= backlogs[2] + 1e-12


def test_every_emitted_decision_validates(table2_cfg):
    for policy in POLICIES:
        trace = run_simulation(table2_cfg, 4, policy)
        assert len(trace.rounds) == 4
        # re-drive one round by hand and validate the emitted decision
    env = sample_round_environment(table2_cfg, 1)
    d = optimize_round(table2_cfg, env, (0.0,) * 3, 10.0)
    validate_decision(d, table2_cfg, env)


def test_zero_rounds_empty_trace(table2_cfg):
    trace = run_simulation(table2_cfg, 0, "lyapunov")
    assert trace.rounds == []
    s = trace.summary()
    assert s["rounds"] == 0 and s["avg_tau_s"] == 0.0


def test_system_gamma_uses_worst_cluster(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    d = optimize_round(table2_cfg, env, (0.0,) * 3, 10.0)
    from edgesched.convergence import gamma_round_from_error, interference_error

    s_max = max(p.n_segments for p in d.plans)
    eps_max = max(
        interference_error(
            d.powers_w[n], env.uplink_gain[n], env.uplink_interference_w[n], table2_cfg.convergence.c_interference
        )
        for n in range(3)
    )
    assert system_gamma(d, table2_cfg, env) == pytest.approx(
        gamma_round_from_error(s_max, eps_max, table2_cfg.convergence, 3, 6), rel=1e-12
    )


def test_best_seen_decision_objective_never_worse_than_first_sweep(table2_cfg):
    env = sample_round_environment(table2_cfg, 6)
    queues = (0.1, 0.4, 0.9)
    d = optimize_round(table2_cfg, env, queues, 10.0)
    # a first-sweep reference: maximize-power seg solve + allocation once
    from edgesched.res_solver import allocate_resources
    from edgesched.seg_solver import schedule_segments
    from edgesched.decision import SchedulingDecision

    plans = tuple(schedule_segments(table2_cfg, env, n, queues, 10.0, 0.5) for n in range(3))
    assignment, powers = allocate_resources(
        table2_cfg, env, queues, 10.0, tuple(p.n_segments for p in plans)
    )
    ref = SchedulingDecision(plans=plans, assignment=assignment, powers_w=powers, round_index=6)
    assert drift_penalty(d, table2_cfg, env, queues, 10.0) <= drift_penalty(
        ref, table2_cfg, env, queues, 10.0
    ) * (1 + 1e-12)


def test_loss_proxy_deterministic_and_decaying(table2_cfg):
    a = loss_proxy(table2_cfg, 5, 0)
    b = loss_proxy(table2_cfg, 5, 0)
    assert a == b
    early = np.mean([loss_proxy(table2_cfg, 2, n) for n in range(3)])
    late = np.mean([loss_proxy(table2_cfg, 400, n) for n in range(3)])
    assert late < early


def test_uniform_partition_exact_split(table2_cfg):
    delta = uniform_partition(table2_cfg, 0)
    assert delta == (1, 1, 1, 1, 1, 1)  # K divides L
    doc = minimal_doc()
    doc["model"] = {"L": 7}
    doc["clusters"][0]["devices"] = [{} for _ in range(3)]
    cfg = build_config(doc)
    delta = uniform_partition(cfg, 0)
    assert sum(delta) == 7 and max(delta) - min(delta) <= 1


def test_baselines_reproducible_and_valid(table2_cfg):
    env = sample_round_environment(table2_cfg, 9)
    for policy in ("random", "loss", "delay", "uniform"):
        d1 = baseline_decision(policy, table2_cfg, env, (0.0,) * 3, 9, None)
        d2 = baseline_decision(policy, table2_cfg, env, (0.0,) * 3, 9, None)
        assert d1 == d2
        validate_decision(d1, table2_cfg, env)
    # delay policy uses the ranking once history exists
    d3 = baseline_decision("delay", table2_cfg, env, (0.0,) * 3, 9, (3.0, 1.0, 2.0))
    assert d3.assignment.assigned[1] == 0  # fastest cluster ranked first


def test_trace_records_and_byte_determinism(table2_cfg, tmp_path):
    t1 = run_simulation(table2_cfg, 3, "lyapunov")
    t2 = run_simulation(table2_cfg, 3, "lyapunov")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    t1.write_jsonl(str(p1))
    t2.write_jsonl(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    t1.write_summary_csv(str(tmp_path / "s1.csv"))
    t2.write_summary_csv(str(tmp_path / "s2.csv"))
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    import json

    rec = json.loads(p1.read_text().splitlines()[0])
    for key in ("schema_version", "t", "tau_pipe_s", "tau_up_s", "tau_round_s", "gamma_t", "queue_y", "S", "m", "delta", "p_cu_w", "channel", "gap_bound", "drift_penalty", "e_pipe_j", "e_com_j", "e_sch_j"):
        assert key in rec
    assert rec["schema_version"] == 1


def test_gap_bound_tracked_in_trace(table2_cfg):
    trace = run_simulation(table2_cfg, 5, "lyapunov")
    bounds = [r.gap_bound for r in trace.rounds]
    assert all(b is not None and math.isfinite(b) for b in bounds)
    # cross-check the last value against the standalone evaluator
    from edgesched.convergence import interference_error, optimality_gap_bound

    segs = [max(r.n_segments) for r in trace.rounds]
    eps = []
    for r in trace.rounds:
        env = sample_round_environment(table2_cfg, r.round_index)
        eps.append(
            max(
                interference_error(
                    r.power_w[n], env.uplink_gain[n], env.uplink_interference_w[n], table2_cfg.convergence.c_interference
                )
                for n in range(3)
            )
        )
    standalone = optimality_gap_bound(
        segs, eps, table2_cfg.convergence.f0_gap, table2_cfg.convergence, 3, table2_cfg.model.n_blocks
    )
    assert bounds[-1] == pytest.approx(standalone, rel=1e-12)


def test_persistent_infeasibility_aborts():
    doc = minimal_doc()
    doc["convergence"] = {"gamma_max_bound": 1e-9}  # balance cap unreachable
    cfg = build_config(doc)
    # 10 rounds trip the consecutive-failure limit; 3 rounds end with none kept
    for rounds in (10, 3):
        with pytest.raises(SimulationAborted, match="C11"):
            run_simulation(cfg, rounds, "lyapunov")


def _count_calls(monkeypatch, original) -> list:
    """Record every call of ``original`` through any edgesched module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "edgesched":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("policy", ["lyapunov", "loss"])
def test_hop_times_computed_once_per_device_and_round(policy, monkeypatch):
    # fresh configs: a config keeps the hop times of a fixed D2D channel once
    # computed. table2 has 18 devices, and its D2D channels are fixed, so the
    # hops are computed once per device and config; with a drawn D2D gain they
    # are computed once per device and round
    calls = _count_calls(monkeypatch, comm.device_d2d_delay)
    run_simulation(load_config(TABLE2), 6, policy)
    assert len(calls) == 18
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    for cluster in doc["clusters"]:
        cluster["h_dd_db"] = [-31.0, -29.0]
    calls.clear()
    run_simulation(build_config(doc), 6, policy)
    assert len(calls) == 6 * 18


def test_device_energy_evaluated_once_per_scheduled_device_and_round(table2_cfg, monkeypatch):
    # the validator's C9 check computes it and the evaluator reuses the sums
    calls = _count_calls(monkeypatch, pipeline.device_energy)
    trace = run_simulation(table2_cfg, 6, "loss")
    assert len(trace.rounds) == 6
    assert len(calls) == sum(sum(r.n_segments) for r in trace.rounds)


def test_round_evaluated_once_per_cluster(table2_cfg, monkeypatch):
    # a baseline decides without the closed forms, so every call is the evaluator's
    pipes = _count_calls(monkeypatch, pipeline.pipeline_latency)
    ups = _count_calls(monkeypatch, comm.uplink_delay)
    run_simulation(table2_cfg, 6, "loss")
    assert len(pipes) == 6 * 3  # table2 has 3 clusters
    assert len(ups) == 6 * 3


def test_upload_energy_evaluated_once_per_cluster_and_round(table2_cfg, monkeypatch):
    # the validator's C8 check computes it and the evaluator reuses that value
    calls = _count_calls(monkeypatch, comm.cu_transmit_energy)
    trace = run_simulation(table2_cfg, 6, "loss")
    assert len(trace.rounds) == 6
    assert len(calls) == 6 * 3  # table2 has 3 clusters


def test_run_starts_ruled_out_by_the_bound_are_not_searched(table2_cfg, monkeypatch):
    # 45 run starts per round on table2 (3 clusters, 15 each); most lie
    # strictly above the best plan's objective by the run-start bound alone
    calls = _count_calls(monkeypatch, seg_solver.optimal_partition)
    run_simulation(table2_cfg, 6, "lyapunov")
    assert len(calls) <= 90


def test_segment_counts_priced_in_the_bound_leave_few_searches(table2_cfg, monkeypatch):
    # pricing every segment count, not only the fewest, in the run-start bound
    # leaves about one partition search per cluster and round on table2
    calls = _count_calls(monkeypatch, seg_solver.optimal_partition)
    run_simulation(table2_cfg, 6, "lyapunov")
    assert len(calls) <= 30


def test_segment_cap_computed_once_per_schedule_segments(monkeypatch):
    # binding runs every BCD sweep: 6 clusters x 20 sweeps x 4 rounds = 480
    # schedule_segments calls; the balance cap does not depend on m, and a
    # round computes it once per cluster and head power
    caps = _count_calls(monkeypatch, seg_solver._segment_cap)
    schedules = _count_calls(monkeypatch, seg_solver.schedule_segments)
    run_simulation(load_config(BINDING), 4, "lyapunov")
    keys = [(env.round_index, n, power, enforce) for _, env, n, power, enforce in caps]
    assert len(set(keys)) == len(keys) < len(schedules) <= 480


def test_round_constants_derived_once_per_round_on_binding(monkeypatch):
    # 4 rounds of 20 sweeps over 6 clusters: each run start's block caps, the
    # power sub-problem, its energy ceiling and each balance floor are derived
    # once per round and cluster, not once per sweep
    partition_caps = _count_calls(monkeypatch, seg_solver._partition_caps)
    problems = _count_calls(monkeypatch, res_solver._problem)
    ceilings = _count_calls(monkeypatch, res_solver._energy_power_ceiling)
    floors = _count_calls(monkeypatch, res_solver._balance_power_floor)
    sweeps = _count_calls(monkeypatch, res_solver.allocate_resources)
    trace = run_simulation(load_config(BINDING), 4, "lyapunov")
    assert len(trace.rounds) == 4 and len(sweeps) == 80
    caps_keys = [(env.round_index, n, m) for m, _, env, n, _ in partition_caps]
    problem_keys = [(env.round_index, n) for _, env, n in problems]
    floor_keys = [(env.round_index, n, s) for _, env, n, s in floors]
    assert 0 < len(caps_keys) == len(set(caps_keys)) <= 4 * 6 * 3  # b = 4 has run starts 1, 2, 4
    assert len(problem_keys) == len(set(problem_keys)) == 4 * 6
    assert 0 < len(ceilings) <= len(problem_keys)
    assert 0 < len(floor_keys) == len(set(floor_keys))


def _record_sweeps(monkeypatch) -> list:
    """For every optimal_partition call, the ordinal of the schedule_segments
    call it runs in, among that cluster's calls of that round."""
    calls, ordinals, current = {}, [], []
    schedule, partition = seg_solver.schedule_segments, seg_solver.optimal_partition

    def tracked(cfg, env, n, *args, **kwargs):
        key = (env.round_index, n)
        calls[key] = calls.get(key, 0) + 1
        current.append(calls[key])
        try:
            return schedule(cfg, env, n, *args, **kwargs)
        finally:
            current.pop()

    def counted(*args, **kwargs):
        ordinals.append(current[-1])
        return partition(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "schedule_segments", tracked)
    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    return ordinals


def test_segment_solves_answered_from_the_one_stage_table_on_binding(monkeypatch):
    # 4 rounds of up to 20 sweeps over 6 clusters, each under a balance cap of
    # one stage: every segment solve of every sweep, the first included, is
    # answered from the round's table of one-stage plans without a partition
    # search, and every plan's pipeline latency is computed once per round,
    # not once per sweep
    ordinals = _record_sweeps(monkeypatch)
    solves = _count_calls(monkeypatch, orchestrator.schedule_segments)
    latencies = []

    def latency(plan, cfg, env, n):
        latencies.append((env.round_index, n, plan))
        return pipeline.pipeline_latency(plan, cfg, env, n)

    monkeypatch.setattr(orchestrator, "pipeline_latency", latency)
    trace = run_simulation(load_config(BINDING), 4, "lyapunov")
    assert len(trace.rounds) == 4
    assert ordinals == []
    assert len(solves) > 4 * 6 * 2  # more than two sweeps a round
    assert 4 * 6 <= len(latencies) == len(set(latencies)) < 4 * 6 * 20


def test_one_sweep_rounds_search_as_before_on_table2(table2_cfg, monkeypatch):
    # table2's queues stay 0, so each round runs one sweep, and its balance cap
    # of three stages sends every segment solve to the search
    ordinals = _record_sweeps(monkeypatch)
    run_simulation(table2_cfg, 6, "lyapunov")
    assert ordinals == [1] * 22  # the partition searches of the search alone


def _table2_on_64_channels():
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["J"] = 64
    return build_config(doc)


@pytest.mark.parametrize(
    "system, policy",
    [("binding", "lyapunov"), ("binding", "uniform"), ("table2-J64", "lyapunov")],
)
def test_channels_are_ranked_without_a_hungarian_solve(system, policy, monkeypatch):
    # binding runs 6 clusters on 3 channels, so three clusters sit out each round
    cfg = load_config(BINDING) if system == "binding" else _table2_on_64_channels()
    calls = _count_calls(monkeypatch, res_solver.linear_sum_assignment)
    trace = run_simulation(cfg, 4, policy)
    assert len(calls) == 0
    assert trace.rounds
    for r in trace.rounds:
        assert [c for c in r.channel if c is not None] == [0, 1, 2]


def test_queue_growth_under_uncontrolled_baseline(table2_cfg):
    # baselines ignore the balance cap; with S = 6 the bound overshoots and the
    # queues must grow, while the scheduler keeps them at zero
    t_base = run_simulation(table2_cfg, 30, "loss")
    t_sched = run_simulation(table2_cfg, 30, "lyapunov")
    assert max(t_base.rounds[-1].queue_after) > 0
    assert max(t_sched.rounds[-1].queue_after) == 0.0
