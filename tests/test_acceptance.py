"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not calibrated elsewhere.
"""

import csv
import dataclasses
import math
import time

import numpy as np

from edgesched.cli import main
from edgesched.config import build_config, sample_round_environment
from edgesched.convergence import (
    interference_error,
    optimality_gap_bound,
    sigma,
    sigma_positive_eta_threshold,
)
from edgesched.oracles import brute_force_assignment, brute_force_segment_plan, grid_search_power
from edgesched.orchestrator import optimize_round, run_simulation
from edgesched.pipeline import event_sim_makespan, pipeline_latency_from_times
from edgesched.res_solver import _lexmin_assignment, _objective, _problem, power_control
from edgesched.seg_solver import cluster_objective, schedule_segments
from edgesched.errors import InfeasibleError, OracleGuardError

from conftest import HOMOGENEOUS, TABLE2, random_system
from test_convergence import params as conv_params


def _verdict(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_pipeline_model_soundness():
    """Closed form dominates the event simulator; equality under equal slots."""
    rng = np.random.default_rng(20240810)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        s = int(rng.integers(1, 7))
        m = int(rng.integers(1, 17))
        times = [float(rng.uniform(0.002, 0.5)) for _ in range(s)]
        payload = float(rng.uniform(2e4, 2e5))
        hops = []
        for _ in range(s):
            p = float(rng.uniform(0.07, 0.1))
            sinr = p * 1e-3 / (5e-10 + 5e5 * 10 ** (-20.4))
            hops.append(payload / (5e5 * math.log2(1 + sinr)))
        cf = pipeline_latency_from_times(times, hops, m)
        sim = event_sim_makespan(times, hops, m)
        if cf < sim - 1e-12 * max(1.0, sim):
            violations += 1
    equal_fail = 0
    for _ in range(200):
        s = int(rng.integers(2, 7))
        m = int(rng.integers(1, 17))
        u = float(rng.uniform(0.01, 0.5))
        d = float(rng.uniform(0.001, min(0.009, u / 2)))
        cf = pipeline_latency_from_times([u - d] * s, [d] * s, m)
        sim = event_sim_makespan([u - d] * s, [d] * s, m)
        if abs(cf - sim) > 1e-9 * max(1.0, abs(cf)):
            equal_fail += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "CRITERION 1 pipeline-model soundness",
        violations == 0 and equal_fail == 0 and elapsed < 5.0,
        f"violations={violations}, equal-case failures={equal_fail}, {elapsed:.2f}s",
    )


def test_criterion_2_segment_solver_optimality():
    """The joint search equals brute force: objective always, tie-break >= 95%."""
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    total = obj_match = tie_match = 0
    while total < 200:
        cfg = random_system(rng, max_devices=4, max_blocks=8, max_batch=32)
        env = sample_round_environment(cfg, 1)
        queues = (float(rng.uniform(0, 2.0)),)
        power = float(rng.uniform(0.05, 0.5))
        v = cfg.convergence.v_factor
        try:
            od, _, om, oobj = brute_force_segment_plan(cfg, env, 0, queues, v, power)
        except Exception:
            continue
        plan = schedule_segments(cfg, env, 0, queues, v, power)
        total += 1
        pobj = cluster_objective(plan.delta, plan.m, cfg, env, 0, v, sum(queues))
        if abs(pobj - oobj) <= 1e-9 * max(1.0, abs(oobj)):
            obj_match += 1
            if plan.delta == od and plan.m == om:
                tie_match += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "CRITERION 2 segment-solver optimality",
        obj_match == total and tie_match >= 0.95 * total and elapsed < 60.0,
        f"objective {obj_match}/{total}, tie-break {tie_match}/{total}, {elapsed:.1f}s",
    )


def test_criterion_3_matching_optimality():
    """Hungarian matching equals factorial enumeration on 500 cost matrices."""
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    match = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        j = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, j))
        oa, ot = brute_force_assignment(cost)
        d = max(n, j)
        padded = np.zeros((d, d))
        padded[:n, :j] = cost
        cols = _lexmin_assignment(padded)
        pa = tuple((c if c < j else None) for c in cols[:n])
        pt = sum(cost[i, c] for i, c in enumerate(pa) if c is not None)
        if pa == oa and abs(pt - ot) <= 1e-9:
            match += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "CRITERION 3 matching optimality",
        match == 500 and elapsed < 10.0,
        f"{match}/500, {elapsed:.1f}s",
    )


def test_criterion_4_power_control_optimality():
    """Power control within 1e-3 of a 1e6-point grid; true constraints hold."""
    rng = np.random.default_rng(31337)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        doc = {
            "rng_seed": int(rng.integers(0, 10**6)),
            "J": 1,
            "model": {
                "z_enc_bits": float(rng.uniform(1e5, 2e6)),
                "theta_enc_bits": float(rng.uniform(1e5, 2e6)),
            },
            "convergence": {
                "beta": 1.0,
                "eta": 0.01,
                "xi": 1.0,
                "phi": 1.0,
                "C": float(rng.uniform(0.005, 0.1)),
                "gamma_max_bound": float(rng.uniform(1.5e-5, 1e-3)),
                "V": float(rng.choice([0.01, 1.0, 10.0, 100.0])),
            },
            "clusters": [
                {
                    "B_up_hz": float(rng.uniform(2e5, 1e6)),
                    "P_n_max_w": float(rng.uniform(0.1, 1.0)),
                    "E_n_max_j": float(rng.uniform(0.05, 10.0)),
                    "h_up_db": float(rng.uniform(-3, 0)),
                    "I_up_w": float(rng.uniform(0.01, 0.1)),
                    "devices": [{}],
                }
            ],
        }
        cfg = build_config(doc)
        env = sample_round_environment(cfg, 1)
        y = float(rng.uniform(0, 50.0)) if rng.uniform() < 0.7 else 0.0
        v = cfg.convergence.v_factor
        s = int(rng.integers(1, 4))
        p = cfg.convergence
        cap = 2 * p.gamma_max / (p.beta * p.eta**2) - p.phi_bound**2 * s**2 / cfg.model.n_blocks - p.phi_bound**2
        try:
            p_star = power_control(cfg, env, 0, y, v, s)
        except InfeasibleError:
            continue
        cl = cfg.clusters[0]
        try:
            pg, og = grid_search_power(
                cl.uplink_bandwidth_hz,
                env.uplink_gain[0],
                env.uplink_interference_w[0],
                cfg.noise_density_w_per_hz,
                cfg.model.uplink_payload_bits,
                cfg.model.enc_param_bits,
                cl.uplink_power_max_w,
                cl.uplink_energy_budget_j,
                y,
                v,
                cap,
                p.c_interference,
                1_000_000,
            )
        except OracleGuardError:
            # feasible window narrower than the grid spacing: not resolvable
            continue
        prob = _problem(cfg, env, 0)
        rel = (_objective(prob, v, y, p_star) - og) / max(abs(og), 1e-300)
        worst = max(worst, rel)
        assert prob.upload_energy(p_star) <= cl.uplink_energy_budget_j * (1 + 1e-6)
        eps = p.c_interference / (p_star * env.uplink_gain[0] + env.uplink_interference_w[0])
        assert eps <= cap * (1 + 1e-6)
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "CRITERION 4 power-control optimality",
        worst <= 1e-3 and elapsed < 60.0,
        f"worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_queue_stability(table2_cfg):
    """200-round scheduler run: average balance bound and queue growth capped."""
    trace = run_simulation(table2_cfg, 200, "lyapunov")
    s = trace.summary()
    gamma_max = table2_cfg.convergence.gamma_max
    avg_gamma = s["avg_gamma"]
    max_y_over_t = max(trace.rounds[-1].queue_after) / 200
    _verdict(
        "CRITERION 5 queue stability",
        avg_gamma <= 1.1 * gamma_max and max_y_over_t <= 0.01 * gamma_max,
        f"avg_gamma={avg_gamma:.3e} (cap {1.1 * gamma_max:.3e}), Y/T={max_y_over_t:.3e}",
    )


def test_criterion_6_interior_optimum_and_scheduler_proximity(homogeneous_cfg, tmp_path):
    """Uniform-split sweep has an interior argmin; scheduler lands within one cell."""
    rc = main(["sweep", HOMOGENEOUS, "--grid", "S=1..6,m=1..16", "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "sweep.csv").open()))
    m_vals = [int(x) for x in rows[0][1:]]
    best = None
    for r in rows[1:]:
        s = int(r[0])
        for j, cell in enumerate(r[1:]):
            if cell:
                v = float(cell)
                if best is None or v < best[0]:
                    best = (v, s, m_vals[j])
    _, s_star, m_star = best
    k = homogeneous_cfg.clusters[0].n_devices
    b = homogeneous_cfg.model.batch_items
    env = sample_round_environment(homogeneous_cfg, 1)
    decision = optimize_round(homogeneous_cfg, env, (0.0,), homogeneous_cfg.convergence.v_factor)
    s_sched = decision.plans[0].n_segments
    m_sched = decision.plans[0].m
    interior = s_star not in (1, k) and m_star not in (1, b)
    close = abs(s_sched - s_star) <= 1 and abs(m_sched - m_star) <= 1
    _verdict(
        "CRITERION 6 interior optimum",
        interior and close,
        f"grid argmin (S={s_star}, m={m_star}), scheduler (S={s_sched}, m={m_sched})",
    )


def test_criterion_7_policy_ordering(table2_cfg):
    """Scheduler strictly beats every baseline on every seed; >=10% vs loss."""
    ok = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        cfg = dataclasses.replace(table2_cfg, rng_seed=seed)
        cum = {}
        for policy in ("lyapunov", "random", "loss", "delay"):
            cum[policy] = run_simulation(cfg, 200, policy).summary()["cum_tau_s"]
        beats = all(cum["lyapunov"] < cum[p] for p in ("random", "loss", "delay"))
        margin = 1.0 - cum["lyapunov"] / cum["loss"]
        ok = ok and beats and margin >= 0.10
        details.append(f"seed {seed}: margin vs loss {margin:.1%}, beats all {beats}")
    _verdict("CRITERION 7 policy ordering", ok, "; ".join(details))


def test_criterion_8_gap_bound_evaluator():
    """Bound finite, monotone in power, threshold exact, geometric-series match."""
    p = conv_params(eta=0.04)
    n, l = 3, 6
    rng = np.random.default_rng(6)
    finite_ok = monotone_ok = True
    for _ in range(100):
        t_rounds = int(rng.integers(1, 15))
        segs = [int(rng.integers(1, 4)) for _ in range(t_rounds)]
        powers = [float(rng.uniform(0.05, 0.5)) for _ in range(t_rounds)]
        eps = [interference_error(q, 0.98, 0.07, 0.0559) for q in powers]
        base = optimality_gap_bound(segs, eps, 1.0, p, n, l)
        finite_ok = finite_ok and base is not None and math.isfinite(base)
        bumped_eps = [interference_error(q * 1.5, 0.98, 0.07, 0.0559) for q in powers]
        bumped = optimality_gap_bound(segs, bumped_eps, 1.0, p, n, l)
        monotone_ok = monotone_ok and bumped <= base + 1e-15

    threshold_ok = True
    for s, nn, ll in [(1, 1, 6), (3, 3, 6), (5, 2, 12), (2, 4, 8)]:
        thr = sigma_positive_eta_threshold(conv_params(), s, nn, ll)
        expected = 2 * 1.0 / (1.0 * (1 + s**2 / (nn * ll)))
        threshold_ok = threshold_ok and abs(thr - expected) < 1e-15
        threshold_ok = threshold_ok and sigma(conv_params(eta=thr * 0.999), s, nn, ll) > 0
        threshold_ok = threshold_ok and sigma(conv_params(eta=thr * 1.001), s, nn, ll) < 0

    series_ok = True
    p1 = conv_params(eta=0.05)
    sg = sigma(p1, 1, 1, 6)
    for t_rounds in (1, 3, 10, 40):
        c = p1.beta * p1.eta**2 * p1.phi_bound**2 / 1 * (1 / 6 + 1)
        closed = (1 - 2 * sg) ** t_rounds * 2.0 + c * (1 - (1 - sg) ** t_rounds) / sg
        got = optimality_gap_bound([1] * t_rounds, [0.0] * t_rounds, 2.0, p1, 1, 6)
        series_ok = series_ok and abs(got - closed) <= 1e-12 * max(1.0, abs(closed))

    _verdict(
        "CRITERION 8 gap-bound evaluator",
        finite_ok and monotone_ok and threshold_ok and series_ok,
        f"finite={finite_ok}, monotone={monotone_ok}, threshold={threshold_ok}, series={series_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Identical invocations produce byte-identical trace and summary files."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", TABLE2, "--rounds", "5", "--out", str(out1)]) == 0
    assert main(["run", TABLE2, "--rounds", "5", "--out", str(out2)]) == 0
    same_trace = (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    same_summary = (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    _verdict("CRITERION 9 determinism", same_trace and same_summary)
