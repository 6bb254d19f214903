import dataclasses
import math

import numpy as np
import pytest

from edgesched import res_solver
from edgesched.config import build_config, load_config, sample_round_environment
from edgesched.convergence import balance_power_threshold
from edgesched.errors import InfeasibleError
from edgesched.oracles import brute_force_assignment, grid_search_power
from edgesched.res_solver import (
    _energy_power_ceiling,
    _lexmin_assignment,
    _objective,
    _problem,
    _stationary_power,
    allocate_resources,
    channel_assignment,
    matching_costs,
    power_control,
)

from conftest import BINDING, minimal_doc


def _power_doc(rng):
    return {
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


def _derivative(prob, v, y, p):
    """d/dp of V*tau_up(p) + y*p: -V*payload*f'(p)/(B*f(p)^2) + y, f the spectral efficiency."""
    f = math.log2(1.0 + p * prob.gain / prob.noise_floor)
    if f <= 0.0:
        return -math.inf
    f_grad = prob.gain / ((prob.noise_floor + p * prob.gain) * math.log(2.0))
    return -v * prob.payload * f_grad / (prob.bandwidth * f * f) + y


def _eps_cap(cfg, n_segments):
    p = cfg.convergence
    phi2 = p.phi_bound**2
    return 2.0 * cfg.n_clusters * p.gamma_max / (p.beta * p.eta**2) - phi2 * n_segments**2 / cfg.model.n_blocks - phi2


def test_power_full_when_unconstrained(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    for n in range(3):
        p = power_control(table2_cfg, env, n, 0.0, 10.0, 1)
        assert p == pytest.approx(table2_cfg.clusters[n].uplink_power_max_w, rel=1e-9)


def test_power_floor_when_queue_dominates(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    n, s = 0, 3
    p = power_control(table2_cfg, env, n, 1e9, 10.0, s)
    cap = _eps_cap(table2_cfg, s)
    floor = (table2_cfg.convergence.c_interference / cap - env.uplink_interference_w[n]) / env.uplink_gain[n]
    assert p == pytest.approx(floor, rel=1e-6)


def test_power_infeasible_when_balance_unreachable(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    with pytest.raises(InfeasibleError, match="C11"):
        power_control(table2_cfg, env, 0, 0.0, 10.0, 6)  # S=6 pushes eps_cap below zero


def _check_power_against_grid(enforce_balance):
    # without the balance cap (the uniform policy's path) only the energy budget bounds the power
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 30:
        cfg = build_config(_power_doc(rng))
        env = sample_round_environment(cfg, 1)
        y = float(rng.uniform(0, 50.0)) if rng.uniform() < 0.7 else 0.0
        v = cfg.convergence.v_factor
        s = int(rng.integers(1, 4))
        cap = _eps_cap(cfg, s) if enforce_balance else math.inf
        try:
            p_star = power_control(cfg, env, 0, y, v, s, enforce_balance=enforce_balance)
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
                cfg.convergence.c_interference,
                200_001,
            )
        except Exception:
            continue
        prob = _problem(cfg, env, 0)
        got = _objective(prob, v, y, p_star)
        assert got <= og * (1 + 1e-3)
        # true constraints hold within 1e-6 relative slack
        assert prob.upload_energy(p_star) <= cl.uplink_energy_budget_j * (1 + 1e-6)
        eps = cfg.convergence.c_interference / (p_star * env.uplink_gain[0] + env.uplink_interference_w[0])
        assert eps <= cap * (1 + 1e-6)
        checked += 1


def test_power_matches_grid_search_battery():
    _check_power_against_grid(enforce_balance=True)


def test_power_without_balance_matches_grid_search_battery():
    _check_power_against_grid(enforce_balance=False)


def test_power_objective_convex_gradient_brackets_optimum(table2_cfg):
    # bisection certificate: the true gradient changes sign across the optimum
    env = sample_round_environment(table2_cfg, 1)
    prob = _problem(table2_cfg, env, 0)
    y, v = 30.0, 10.0
    p_star = power_control(table2_cfg, env, 0, y, v, 1)
    if 1e-6 < p_star < prob.p_max * (1 - 1e-6):
        assert _derivative(prob, v, y, p_star * 0.9) < 0
        assert _derivative(prob, v, y, min(p_star * 1.1, prob.p_max)) > 0


def test_forced_single_assignment(homogeneous_cfg):
    env = sample_round_environment(homogeneous_cfg, 1)
    a = channel_assignment(homogeneous_cfg, env, (0.0,), 10.0, (0.5,))
    assert a.assigned == (0,)


def _constant_row_costs(rng, n: int, kind: str) -> list[float]:
    """Per-cluster costs: random, exact ties and repeats, or near-ties at a relative gap."""
    if kind == "random":
        return [float(c) for c in rng.uniform(0, 10, size=n)]
    pool = rng.uniform(0, 10, size=2)
    base = rng.choice(pool, size=n)
    if kind == "ties":
        return [float(c) for c in base]
    rel = float(kind)
    return [float(c * (1 + rel * k)) for c, k in zip(base, rng.integers(-2, 3, size=n))]


def test_matching_matches_enumeration_on_random_costs():
    # with V = 0 and unit powers, cluster n's cost V*tau + Y_n*p is exactly Y_n
    rng = np.random.default_rng(42)
    systems = {}
    for kind in ["random", "ties", "1e-15", "1e-13", "1e-11"] * 200:
        n = int(rng.integers(2, 7))
        j = int(rng.integers(1, 7))
        if (n, j) not in systems:
            doc = minimal_doc()
            doc["J"] = j
            doc["clusters"] = [{"devices": [{}]} for _ in range(n)]
            cfg = build_config(doc)
            systems[n, j] = cfg, sample_round_environment(cfg, 1)
        cfg, env = systems[n, j]
        costs = _constant_row_costs(rng, n, kind)
        solved = channel_assignment(cfg, env, tuple(costs), 0.0, (1.0,) * n).assigned
        oracle, _ = brute_force_assignment(np.tile(np.array(costs)[:, None], (1, j)))
        assert solved == oracle, (costs, j)


def test_matching_excludes_most_expensive_cluster():
    # N=3 clusters, J=2 channels: the excluded cluster is the costliest one
    doc = minimal_doc()
    doc["J"] = 2
    doc["clusters"] = [
        {"B_up_hz": b, "h_up_db": -0.1, "I_up_w": 0.07, "devices": [{}]}
        for b in (6e5, 2e5, 4e5)  # cluster 1 has the slowest uplink
    ]
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    a = channel_assignment(cfg, env, (0.0, 0.0, 0.0), 10.0, (0.5, 0.5, 0.5))
    assert a.assigned[1] is None
    assert sorted(x for x in a.assigned if x is not None) == [0, 1]
    cost = matching_costs(cfg, env, (0.0, 0.0, 0.0), 10.0, (0.5, 0.5, 0.5))
    oa, _ = brute_force_assignment(cost)
    assert a.assigned == oa


def test_permuted_identity_cost_recovers_identity():
    cost = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    cols = _lexmin_assignment(cost)
    assert cols == [0, 1, 2]


def test_hungarian_reference_solves_through_the_module_name(monkeypatch):
    # the benchmark counts calls of res_solver.linear_sum_assignment by
    # replacing that name; a reference that reached scipy another way would
    # leave the counter silently at 0
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    want = _lexmin_assignment(cost)
    solve = res_solver.linear_sum_assignment
    calls = []

    def counted(c):
        calls.append(c.shape)
        return solve(c)

    monkeypatch.setattr(res_solver, "linear_sum_assignment", counted)
    assert _lexmin_assignment(cost) == want == [1, 0, 2]
    assert calls


def test_assignment_structural_invariants(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    a = channel_assignment(table2_cfg, env, (0.0,) * 3, 10.0, (0.5, 0.5, 0.5))
    m = a.matrix()
    assert set(np.unique(m)) <= {0, 1}
    assert (m.sum(axis=0) <= 1).all()  # each channel at most one cluster
    assert (m.sum(axis=1) <= 1).all()
    assert m.sum() == min(table2_cfg.n_clusters, table2_cfg.n_channels)


def test_allocate_resources_single_cluster(homogeneous_cfg):
    env = sample_round_environment(homogeneous_cfg, 1)
    assignment, powers = allocate_resources(homogeneous_cfg, env, (0.0,), 10.0, (3,))
    assert assignment.assigned == (0,)
    assert powers[0] == pytest.approx(homogeneous_cfg.clusters[0].uplink_power_max_w, rel=1e-9)


def test_allocate_resources_power_boxes_and_zeroing(table2_cfg):
    import dataclasses

    cfg = dataclasses.replace(table2_cfg, n_channels=2)
    env = sample_round_environment(cfg, 1)
    assignment, powers = allocate_resources(cfg, env, (0.0,) * 3, 10.0, (2, 2, 2))
    n_tx = sum(1 for n in range(3) if assignment.is_transmitting(n))
    assert n_tx == 2
    for n in range(3):
        assert 0.0 <= powers[n] <= cfg.clusters[n].uplink_power_max_w + 1e-12
        if not assignment.is_transmitting(n):
            assert powers[n] == 0.0


def test_allocate_matches_joint_brute_force_small():
    # joint optimum over assignments x a dense power grid on a 2-cluster system
    doc = minimal_doc()
    doc["J"] = 1
    doc["clusters"] = [
        {"B_up_hz": 4e5, "h_up_db": -0.1, "I_up_w": 0.06, "P_n_max_w": 0.5, "devices": [{}]},
        {"B_up_hz": 6e5, "h_up_db": -0.5, "I_up_w": 0.08, "P_n_max_w": 0.4, "devices": [{}]},
    ]
    doc["convergence"] = {"gamma_max_bound": 1.0, "V": 10.0}
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    queues = (3.0, 1.0)
    assignment, powers = allocate_resources(cfg, env, queues, 10.0, (1, 1))

    def upsilon(assigned, pw):
        delays = [
            _problem(cfg, env, n).delay(pw[n]) for n in range(2) if assigned[n] is not None
        ]
        head = max(delays) if delays else 0.0
        return 10.0 * head + sum(q * p for q, p in zip(queues, pw))

    best = math.inf
    grid = np.linspace(1e-4, 1.0, 4000)
    for tx in (0, 1):
        pmax = cfg.clusters[tx].uplink_power_max_w
        for frac in grid:
            pw = [0.0, 0.0]
            pw[tx] = frac * pmax
            assigned = [None, None]
            assigned[tx] = 0
            best = min(best, upsilon(assigned, pw))
    got = upsilon(assignment.assigned, powers)
    assert got <= best * (1 + 1e-3)


def _full_bisect(keep_lo, lo, hi):
    # reference loop: all 200 steps, with no fixed-point stop
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if keep_lo(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _full_energy_power_ceiling(prob):
    if prob.upload_energy(prob.p_max) <= prob.e_max:
        return prob.p_max
    return _full_bisect(lambda q: prob.upload_energy(q) <= prob.e_max, 0.0, prob.p_max)[0]


def _binding_energy_budget(cfg, env, rng):
    """cfg with cluster 0's energy budget drawn where it binds inside (0, P_max)."""
    prob = _problem(cfg, env, 0)
    e_limit = prob.param_bits * math.log(2.0) * prob.noise_floor / (prob.bandwidth * prob.gain)
    e_max = float(rng.uniform(e_limit, prob.upload_energy(prob.p_max)))
    cluster = dataclasses.replace(cfg.clusters[0], uplink_energy_budget_j=e_max)
    return dataclasses.replace(cfg, clusters=(cluster,) + cfg.clusters[1:])


def test_energy_ceiling_fixed_point_stop_is_exact_when_budget_binds():
    rng = np.random.default_rng(77)
    for _ in range(300):
        cfg = build_config(_power_doc(rng))
        env = sample_round_environment(cfg, 1)
        prob = _problem(_binding_energy_budget(cfg, env, rng), env, 0)
        ceiling = _energy_power_ceiling(prob)
        assert ceiling == _full_energy_power_ceiling(prob)
        assert ceiling < prob.p_max


def _threshold(cfg, env, n, n_segments):
    """The C11 power floor p_S of cluster n in this round."""
    return balance_power_threshold(
        cfg.convergence, cfg.n_clusters, cfg.model.n_blocks, n_segments, env.uplink_gain[n], env.uplink_interference_w[n]
    )


class _BisectionReference:
    """Checks power_control against 200 halvings of the true derivative on its box."""

    def __init__(self):
        self.interior = 0

    def check(self, cfg, env, n, y, v, n_segments, enforce_balance):
        try:
            got = power_control(cfg, env, n, y, v, n_segments, enforce_balance)
        except InfeasibleError:
            return
        prob = _problem(cfg, env, n)
        floor = _threshold(cfg, env, n, n_segments) if enforce_balance else 0.0
        lo, ceiling = max(floor, 1e-12 * prob.p_max), _energy_power_ceiling(prob)
        if _derivative(prob, v, y, lo) >= 0.0:
            want = lo
        elif _derivative(prob, v, y, ceiling) <= 0.0:
            want = ceiling
        else:
            want = 0.5 * sum(_full_bisect(lambda q: _derivative(prob, v, y, q) < 0.0, lo, ceiling))
            self.interior += 1
        want = min(want, ceiling)
        assert min(lo, ceiling) <= got <= ceiling
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert _objective(prob, v, y, got) == pytest.approx(_objective(prob, v, y, want), rel=1e-13, abs=0.0)


# The two tests below keep their names from the seeded derivative bracket the
# closed form replaced; both check power_control against the full-box bisection.


def test_seeded_power_equals_the_full_bracket_on_random_problems():
    # 1,000 random clusters, 20 (queue, V, S, balance) draws each; a third of
    # the clusters get an energy budget that binds inside (0, P_max)
    rng = np.random.default_rng(2024)
    reference = _BisectionReference()
    floors = ceilings = 0
    for _ in range(1000):
        cfg = build_config(_power_doc(rng))
        env = sample_round_environment(cfg, 1)
        if rng.uniform() < 1 / 3:
            cfg = _binding_energy_budget(cfg, env, rng)
        prob = _problem(cfg, env, 0)
        try:
            ceilings += _energy_power_ceiling(prob) < prob.p_max
        except InfeasibleError:
            continue
        for _ in range(20):
            y = 0.0 if rng.uniform() < 0.1 else float(10 ** rng.uniform(-6, 3))
            v = float(10 ** rng.uniform(-3, 2))
            s = int(rng.integers(1, 4))
            enforce_balance = bool(rng.uniform() < 0.7)
            if enforce_balance:
                floors += 0.0 < _threshold(cfg, env, 0, s) < math.inf
            reference.check(cfg, env, 0, y, v, s, enforce_balance)
    assert floors > 500 and ceilings > 200
    assert reference.interior > 5000


def test_seeded_power_covers_low_snr_on_binding():
    # without the balance cap, queues of 0.1-10 put the binding clusters at
    # signal-to-noise ratios of 0.002-0.03, where 1 + p*h/N rounds in steps
    # far coarser than the ulps of p
    cfg = load_config(BINDING)
    reference = _BisectionReference()
    snr = []
    for t in (1, 2, 3):
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            prob = _problem(cfg, env, n)
            for y in np.logspace(-1, 1, 11):
                args = (cfg, env, n, float(y), cfg.convergence.v_factor, 1, False)
                reference.check(*args)
                snr.append(power_control(*args) * prob.gain / prob.noise_floor)
    assert 0.002 < min(snr) and max(snr) < 0.03
    assert reference.interior == 198


def _budget_bound_table2(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    cfg = _binding_energy_budget(table2_cfg, env, np.random.default_rng(5))
    return cfg, env, _problem(cfg, env, 0)


def test_power_at_zero_queue_is_the_energy_ceiling(table2_cfg):
    cfg, env, prob = _budget_bound_table2(table2_cfg)
    ceiling = _energy_power_ceiling(prob)
    assert ceiling < prob.p_max
    assert _stationary_power(prob, 10.0, 0.0) == math.inf
    assert power_control(cfg, env, 0, 0.0, 10.0, 1) == ceiling


def test_power_is_the_energy_ceiling_when_the_stationary_equation_overflows(table2_cfg):
    # the smallest positive queue makes A = V*payload*h*ln2/(N*B*y) overflow
    cfg, env, prob = _budget_bound_table2(table2_cfg)
    assert _stationary_power(prob, 10.0, 5e-324) == math.inf
    assert power_control(cfg, env, 0, 5e-324, 10.0, 1) == _energy_power_ceiling(prob)


def test_power_is_the_box_floor_when_the_stationary_equation_underflows(table2_cfg):
    # V = 5e-324 against a queue of 1e300 makes A underflow to 0
    env = sample_round_environment(table2_cfg, 1)
    for n in range(table2_cfg.n_clusters):
        prob = _problem(table2_cfg, env, n)
        assert _stationary_power(prob, 5e-324, 1e300) == 0.0
        for s in (1, 3):  # table2's C11 floor is 0 at S = 1 and positive at S = 3
            floor = max(_threshold(table2_cfg, env, n, s), 1e-12 * prob.p_max)
            assert power_control(table2_cfg, env, n, 1e300, 5e-324, s) == floor
        assert power_control(table2_cfg, env, n, 1e300, 5e-324, 3, enforce_balance=False) == 1e-12 * prob.p_max


def test_power_is_the_balance_floor_when_it_exceeds_the_stationary_power(table2_cfg):
    env = sample_round_environment(table2_cfg, 1)
    v, y = table2_cfg.convergence.v_factor, 1e3
    for n in range(table2_cfg.n_clusters):
        floor = _threshold(table2_cfg, env, n, 3)
        assert 0.0 < _stationary_power(_problem(table2_cfg, env, n), v, y) < floor
        assert power_control(table2_cfg, env, n, y, v, 3) == floor


def test_power_matches_grid_search_at_low_snr_on_binding():
    # criterion 4's grid check at the binding clusters' signal-to-noise
    # ratios of 0.002-0.03, without the balance cap
    cfg = load_config(BINDING)
    v = cfg.convergence.v_factor
    for t in (1, 2, 3):
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            cl = cfg.clusters[n]
            prob = _problem(cfg, env, n)
            for y in (0.1, 1.0, 10.0):
                p_star = power_control(cfg, env, n, y, v, 1, enforce_balance=False)
                _, og = grid_search_power(
                    cl.uplink_bandwidth_hz,
                    env.uplink_gain[n],
                    env.uplink_interference_w[n],
                    cfg.noise_density_w_per_hz,
                    cfg.model.uplink_payload_bits,
                    cfg.model.enc_param_bits,
                    cl.uplink_power_max_w,
                    cl.uplink_energy_budget_j,
                    y,
                    v,
                    math.inf,
                    cfg.convergence.c_interference,
                    1_000_000,
                )
                assert _objective(prob, v, y, p_star) <= og * (1 + 1e-3)
