import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from edgesched import comm, convergence, orchestrator, pipeline, res_solver, seg_solver
from edgesched.convergence import RunningGapBound, gamma_round_from_error, interference_error
from edgesched.config import build_config, load_config, sample_round_environment
from edgesched.decision import validate_decision
from edgesched.errors import InfeasibleError, SimulationAborted
from edgesched.oracles import brute_force_segment_plan, grid_search_power
from edgesched.orchestrator import (
    POLICIES,
    baseline_decision,
    loss_proxy,
    optimize_round,
    evaluate_round,
    run_simulation,
    uniform_partition,
)
from edgesched.res_solver import _objective, _problem
from conftest import BINDING, TABLE2, minimal_doc, workload_doc


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


def test_power_on_a_cluster_with_no_channel_violates_c6():
    # off the air the power box is {0}: a phantom power there would lower the
    # round's upload error and so the balance bound evaluate_round prices
    cfg = load_config(BINDING)
    env = sample_round_environment(cfg, 1)
    d = optimize_round(cfg, env, (0.0,) * cfg.n_clusters, cfg.convergence.v_factor)
    off = [n for n in range(cfg.n_clusters) if not d.assignment.is_transmitting(n)]
    assert off and all(d.powers_w[n] == 0.0 for n in off)
    validate_decision(d, cfg, env)
    for n in off:
        powers = list(d.powers_w)
        powers[n] = cfg.clusters[n].uplink_power_max_w
        with pytest.raises(InfeasibleError, match=f"cluster {n} power") as exc:
            validate_decision(dataclasses.replace(d, powers_w=tuple(powers)), cfg, env)
        assert exc.value.constraint == "C6"


def test_zero_rounds_empty_trace(table2_cfg):
    trace = run_simulation(table2_cfg, 0, "lyapunov")
    assert trace.rounds == []
    s = trace.summary()
    assert s["rounds"] == 0 and s["avg_tau_s"] == 0.0


def test_round_gamma_uses_worst_cluster():
    # the balance bound of a round pairs the largest segment count with the
    # largest upload error, which may come from different clusters; on binding
    # the clusters off the air (p = 0) carry the largest error
    cfg = load_config(BINDING)
    env = sample_round_environment(cfg, 1)
    queues = (0.0,) * cfg.n_clusters
    d = optimize_round(cfg, env, queues, cfg.convergence.v_factor)
    costs = validate_decision(d, cfg, env)
    bound = RunningGapBound(cfg.convergence.f0_gap, cfg.convergence, cfg.n_clusters, cfg.model.n_blocks)
    metrics = evaluate_round(d, cfg, env, queues, bound, costs)
    errors = [
        interference_error(d.powers_w[n], env.uplink_gain[n], env.uplink_interference_w[n], cfg.convergence.c_interference)
        for n in range(cfg.n_clusters)
    ]
    assert 0.0 in d.powers_w
    s_max, eps_max = max(p.n_segments for p in d.plans), max(errors)
    assert metrics.gamma_t == gamma_round_from_error(s_max, eps_max, cfg.convergence, cfg.n_clusters, cfg.model.n_blocks)
    assert metrics.gamma_t > gamma_round_from_error(s_max, min(errors), cfg.convergence, cfg.n_clusters, cfg.model.n_blocks)


def test_lyapunov_round_is_one_pass_at_full_power(monkeypatch):
    # every lyapunov round schedules each cluster's segments once, at the
    # round's queues and its P_max, and allocates channels and powers once,
    # at the same queues; binding's queues are positive after round 1
    cfg = load_config(BINDING)
    schedules = _count_calls(monkeypatch, seg_solver.schedule_segments)
    allocations = _count_calls(monkeypatch, res_solver.allocate_resources)
    trace = run_simulation(cfg, 4, "lyapunov")
    assert len(trace.rounds) == 4 and max(trace.rounds[-1].queue_after) > 0.0
    queues = [(0.0,) * cfg.n_clusters] + [r.queue_after for r in trace.rounds[:-1]]
    assert [(env.round_index, n, q, v, p) for _, env, n, q, v, p in schedules] == [
        (t, n, queues[t - 1], cfg.convergence.v_factor, cl.uplink_power_max_w)
        for t in range(1, 5)
        for n, cl in enumerate(cfg.clusters)
    ]
    assert [(env.round_index, q) for _, env, q, *_ in allocations] == [(t, queues[t - 1]) for t in range(1, 5)]


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


def test_uniform_partition_names_c7_when_memory_cannot_host_the_blocks():
    # three devices of two blocks each cannot hold seven blocks, and neither
    # can a subset of devices whose caps fall short of L
    doc = minimal_doc()
    doc["model"] = {"L": 7}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 5e8, "gamma0_bytes": 2.5e8} for _ in range(3)]
    with pytest.raises(InfeasibleError) as short:
        uniform_partition(build_config(doc), 0)
    assert str(short.value) == "infeasible: C7 (cluster 0: memory cannot host all blocks)"
    doc["clusters"][0]["devices"].append({"gamma_max_bytes": 2.5e9, "gamma0_bytes": 2.5e8})
    cfg = build_config(doc)
    assert uniform_partition(cfg, 0) == (2, 2, 2, 1)
    with pytest.raises(InfeasibleError, match="C7"):
        uniform_partition(cfg, 0, [0, 1, 2])


def test_uniform_partition_over_no_devices_names_c7(table2_cfg):
    # no devices hold no memory, so the memory check names C7
    with pytest.raises(InfeasibleError) as err:
        uniform_partition(table2_cfg, 0, [])
    assert str(err.value) == "infeasible: C7 (cluster 0: memory cannot host all blocks)"


def test_uniform_partition_tops_up_devices_below_their_share():
    # caps (5, 1) and L = 5: the even split (3, 2) does not fit device 1, and
    # the block it cannot take goes back to device 0
    doc = minimal_doc()
    doc["model"] = {"L": 5}
    doc["clusters"][0]["devices"] = [
        {"gamma_max_bytes": 1.25e9, "gamma0_bytes": 2.5e8},
        {"gamma_max_bytes": 2.5e8, "gamma0_bytes": 2.5e8},
    ]
    assert uniform_partition(build_config(doc), 0) == (4, 1)


def _one_block_devices_doc():
    """One cluster of four one-block devices and L = 2: a random plan of one
    stage cannot hold the blocks, and one of three or four stages breaks C1."""
    doc = minimal_doc()
    doc["model"] = {"L": 2, "b": 16}
    doc["clusters"][0]["devices"] = [{"gamma_max_bytes": 2.5e8, "gamma0_bytes": 2.5e8} for _ in range(4)]
    return doc


class _RecordingRng:
    """A policy generator that logs every ``integers`` draw as (lo, hi, value)."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def integers(self, lo, hi):
        value = self._rng.integers(lo, hi)
        self._log.append((lo, hi, int(value)))
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_random_policy_redraws_plans_that_break_a_constraint(monkeypatch, tmp_path):
    cfg = build_config(_one_block_devices_doc())
    policy_rng = orchestrator._policy_rng
    log = []
    monkeypatch.setattr(orchestrator, "_policy_rng", lambda *args: _RecordingRng(policy_rng(*args), log))
    retried = set()
    for t in range(1, 13):
        env = sample_round_environment(cfg, t)
        del log[:]
        decision = baseline_decision("random", cfg, env, (0.0,), t, None)
        validate_decision(decision, cfg, env)
        stage_draws = [s for lo, hi, s in log if (lo, hi) == (1, 5)]  # segment counts drawn
        assert stage_draws[-1] == decision.plans[0].n_segments == 2
        retried.update(stage_draws[:-1])
    assert 1 in retried and retried & {3, 4}  # too little memory, and more stages than blocks
    monkeypatch.undo()
    runs = []
    for i in range(2):
        trace = run_simulation(cfg, 12, "random")
        assert len(trace.rounds) == 12
        trace.write_jsonl(str(tmp_path / f"trace{i}.jsonl"))
        runs.append((tmp_path / f"trace{i}.jsonl").read_bytes())
    assert runs[0] == runs[1]


class _EveryDeviceRng:
    """A policy generator whose every plan draw schedules all devices."""

    def integers(self, lo, hi):
        return hi - 1

    def permutation(self, ids):
        return list(ids)


def test_random_policy_falls_back_to_the_uniform_split():
    # four one-block stages for two blocks break C1 on all 200 draws. No
    # memory layout does this for certain: a draw of min(K, L) stages always
    # holds the blocks when the whole cluster does
    cfg = build_config(_one_block_devices_doc())
    plan = orchestrator._random_plan(cfg, 0, _EveryDeviceRng())
    assert uniform_partition(cfg, 0) == (1, 1, 0, 0)
    assert plan == pipeline.SegmentPlan(delta=(1, 1, 0, 0), m=1)
    plan.validate(cfg.clusters[0], cfg.model)


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


@pytest.mark.parametrize("policy", ["lyapunov", "loss", "random"])
def test_device_energy_evaluated_once_per_scheduled_device_and_round(policy, table2_cfg, monkeypatch):
    # the validator's C9 check computes it and the evaluator reuses the sums;
    # the random policy's plan draw does not check its own plan: the validator
    # does. The segment solver's block caps price C9 with it too, before any
    # plan exists, so its calls are not counted here
    solver_binding = seg_solver.device_energy
    calls = _count_calls(monkeypatch, pipeline.device_energy)
    monkeypatch.setattr(seg_solver, "device_energy", solver_binding)
    checked = []
    validate = pipeline.SegmentPlan.validate

    def counted(plan, cluster, model):
        checked.append(plan)
        return validate(plan, cluster, model)

    monkeypatch.setattr(pipeline.SegmentPlan, "validate", counted)
    trace = run_simulation(table2_cfg, 6, policy)
    assert len(trace.rounds) == 6
    assert len(calls) == sum(sum(r.n_segments) for r in trace.rounds)
    assert len(checked) == 6 * 3  # once per cluster and round; table2 has 3 clusters


def test_unknown_policy_and_negative_rounds_are_rejected(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    with pytest.raises(ValueError, match="unknown policy 'bogus'"):
        run_simulation(table2_cfg, 0, "bogus")  # before any round
    with pytest.raises(ValueError, match="rounds must be >= 0, got -1"):
        run_simulation(table2_cfg, -1, "loss")
    for policy in ("bogus", "lyapunov"):  # the scheduler is no baseline
        with pytest.raises(ValueError, match=f"unknown policy {policy!r}"):
            baseline_decision(policy, table2_cfg, env, (0.0,) * 3, 1, None)


def test_atomic_write_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "summary.csv"
    path.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(orchestrator.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        orchestrator._atomic_write(str(path), "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]  # the temp file is gone


def test_round_evaluated_once_per_cluster(table2_cfg, monkeypatch):
    # a baseline decides without the closed forms, so every call is the
    # validator's, which prices each cluster once for the evaluator
    pipes = _count_calls(monkeypatch, pipeline.pipeline_latency)
    links = _count_calls(monkeypatch, comm.uplink)
    run_simulation(table2_cfg, 6, "loss")
    assert len(pipes) == 6 * 3  # table2 has 3 clusters, all on the air under loss
    assert len(links) == 6 * 3


def test_upload_energy_evaluated_once_per_cluster_and_round(table2_cfg, monkeypatch):
    # the validator's C8 check prices it with the delay, from one efficiency
    # on the uplink it built, and the evaluator reuses that value; delay and
    # upload_energy go through delay_and_energy too, so this counts them all
    links = _count_calls(monkeypatch, comm.uplink)
    priced = []
    delay_and_energy = comm.Uplink.delay_and_energy

    def counted(link, p):
        priced.append(p)
        return delay_and_energy(link, p)

    monkeypatch.setattr(comm.Uplink, "delay_and_energy", counted)
    trace = run_simulation(table2_cfg, 6, "loss")
    assert len(trace.rounds) == 6
    assert len(links) == len(priced) == 6 * 3  # table2 has 3 clusters, all on the air


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


def _table2_1024_blocks():
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["model"]["L"] = 1024
    for cl in doc["clusters"]:
        cl["devices"] = [dict(dev, gamma_max_bytes=2.56e11) for dev in cl["devices"][:2]]
    return build_config(doc)


@pytest.mark.parametrize("system, rounds", [("binding", 4), ("table2", 6), ("table2-L1024", 3), ("encoder", 12)])
def test_lyapunov_round_evaluates_at_most_k_plus_one_thresholds_per_cluster(system, rounds, table2_cfg, monkeypatch):
    # the segment cap counts p_1, p_2, ... up to min(K, L) and stops at the
    # first threshold above the head power, and power control reads its one
    # floor p_S, however many partition searches the round runs. Building all
    # of p_1..p_L instead would evaluate 1024 per cluster and round at L = 1024.
    # The roundbench encoder cluster (K=10, L=16) searches several run starts
    # in some solves; table2's solves search one each
    if system == "encoder":
        cfg = build_config(workload_doc("encoder", 1))
    else:
        cfg = table2_cfg if system == "table2" else load_config(BINDING) if system == "binding" else _table2_1024_blocks()
    thresholds = _count_calls(monkeypatch, convergence.balance_power_threshold)
    searches = _count_calls(monkeypatch, seg_solver.optimal_partition)
    per_round = []
    one_round = orchestrator.optimize_round

    def counted_round(*args):
        before = len(thresholds)
        decision = one_round(*args)
        per_round.append(len(thresholds) - before)
        return decision

    monkeypatch.setattr(orchestrator, "optimize_round", counted_round)
    trace = run_simulation(cfg, rounds, "lyapunov")
    assert len(trace.rounds) == len(per_round) == rounds
    assert max(per_round) <= sum(min(cl.n_devices, cfg.model.n_blocks) + 1 for cl in cfg.clusters)
    if system == "encoder":
        assert len(searches) > rounds * cfg.n_clusters  # some segment solves search several run starts


def test_one_sweep_rounds_search_as_before_on_table2(table2_cfg, monkeypatch):
    # table2's queues stay 0, and its balance cap of three stages sends every
    # segment solve to the search. With whole-block loads in the stage-count
    # floor, the first run start searched rules out the rest: one search per
    # solve
    searches = _count_calls(monkeypatch, seg_solver.optimal_partition)
    run_simulation(table2_cfg, 6, "lyapunov")
    assert len(searches) == 18


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
