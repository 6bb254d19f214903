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
    _bisect_increasing,
    _energy_power_ceiling,
    _lexmin_assignment,
    _objective,
    _problem,
    allocate_resources,
    channel_assignment,
    matching_costs,
    _true_derivative,
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
    from edgesched.res_solver import _true_derivative

    if 1e-6 < p_star < prob.p_max * (1 - 1e-6):
        assert _true_derivative(prob, v, y, p_star * 0.9) < 0
        assert _true_derivative(prob, v, y, min(p_star * 1.1, prob.p_max)) > 0


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


def _full_bisect_increasing(fun, lo, hi):
    if fun(lo) >= 0.0:
        return lo
    if fun(hi) <= 0.0:
        return hi
    lo, hi = _full_bisect(lambda q: fun(q) < 0.0, lo, hi)
    return 0.5 * (lo + hi)


def _full_energy_power_ceiling(prob):
    if prob.upload_energy(prob.p_max) <= prob.e_max:
        return prob.p_max
    return _full_bisect(lambda q: prob.upload_energy(q) <= prob.e_max, 0.0, prob.p_max)[0]


def _assert_power_bisections_exact(monkeypatch, cfg, rounds, queues, n_segments):
    """Every bisection power_control runs equals the 200-step loop bit for bit.

    Returns how many of those bisections ended strictly inside their bracket.
    """
    calls = []

    def recording(fun, lo, hi):
        calls.append((fun, lo, hi))
        return _bisect_increasing(fun, lo, hi)

    monkeypatch.setattr(res_solver, "_bisect_increasing", recording)
    for t in rounds:
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            prob = _problem(cfg, env, n)
            assert _energy_power_ceiling(prob) == _full_energy_power_ceiling(prob)
            for y in queues:
                for enforce_balance in (True, False):
                    try:
                        power_control(cfg, env, n, y, cfg.convergence.v_factor, n_segments, enforce_balance)
                    except InfeasibleError:
                        pass
    interior = 0
    for fun, lo, hi in calls:
        got = _bisect_increasing(fun, lo, hi)
        assert got == _full_bisect_increasing(fun, lo, hi)
        interior += lo < got < hi
    return interior


def test_power_bisection_fixed_point_stop_is_exact_on_binding(monkeypatch):
    queues = [0.0] + [10.0**e for e in range(-7, 2)]
    assert _assert_power_bisections_exact(monkeypatch, load_config(BINDING), (1, 2, 3), queues, 1) > 50


def test_power_bisection_fixed_point_stop_is_exact_on_table2(monkeypatch, table2_cfg):
    queues = [0.0] + [10.0**e for e in range(-2, 5)]
    for s in (1, 2, 3):
        assert _assert_power_bisections_exact(monkeypatch, table2_cfg, (1, 2), queues, s) > 0


def test_energy_ceiling_fixed_point_stop_is_exact_when_budget_binds():
    rng = np.random.default_rng(77)
    binding = 0
    for _ in range(300):
        cfg = build_config(_power_doc(rng))
        prob = _problem(cfg, sample_round_environment(cfg, 1), 0)
        e_limit = prob.param_bits * math.log(2.0) * prob.noise_floor / (prob.bandwidth * prob.gain)
        e_top = prob.upload_energy(prob.p_max)
        prob = dataclasses.replace(prob, e_max=float(rng.uniform(e_limit, e_top)))
        ceiling = _energy_power_ceiling(prob)
        assert ceiling == _full_energy_power_ceiling(prob)
        binding += ceiling < prob.p_max
        v, y = float(rng.uniform(1e-3, 10.0)), float(rng.uniform(0.0, 50.0))
        fun = lambda q: _true_derivative(prob, v, y, q)
        lo = 1e-12 * prob.p_max
        assert _bisect_increasing(fun, lo, ceiling) == _full_bisect_increasing(fun, lo, ceiling)
    assert binding == 300


def _derivative_evaluations(monkeypatch) -> list[int]:
    """Derivative evaluations of each power_control call on binding, rounds
    1-3, S = 1, at the queues 0, 5e-7, ..., 9.5e-6 the balance bound's
    excess reaches in its first rounds there."""
    evaluations = [0]

    def counting_derivative(*args):
        evaluations[0] += 1
        return _true_derivative(*args)

    monkeypatch.setattr(res_solver, "_true_derivative", counting_derivative)
    cfg = load_config(BINDING)
    per_call = []
    for t in (1, 2, 3):
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            for i in range(20):
                evaluations[0] = 0
                power_control(cfg, env, n, 5e-7 * i, cfg.convergence.v_factor, 1)
                per_call.append(evaluations[0])
    return per_call


def test_power_bisection_stops_at_its_fixed_point(monkeypatch):
    # a bracket on (0, 0.5] W reaches its float fixed point within about 55
    # halvings; a loop that runs all 200 steps makes 202 derivative evaluations
    interior = [c for c in _derivative_evaluations(monkeypatch) if c > 2]
    assert len(interior) > 100
    assert max(interior) <= 70


def _threshold(cfg, env, n, n_segments):
    """The C11 power floor p_S of cluster n in this round."""
    return balance_power_threshold(
        cfg.convergence, cfg.n_clusters, cfg.model.n_blocks, n_segments, env.uplink_gain[n], env.uplink_interference_w[n]
    )


def _full_power_control(cfg, env, n, y, v, n_segments, enforce_balance):
    """power_control by the 200-step loop over the whole box, clamped the same way.

    Returns the power and the box [max(floor, 1e-12 P_max), ceiling].
    """
    prob = _problem(cfg, env, n)
    floor = _threshold(cfg, env, n, n_segments) if enforce_balance else 0.0
    ceiling = _energy_power_ceiling(prob)
    lo = max(floor, 1e-12 * prob.p_max)
    p = _full_bisect_increasing(lambda q: _true_derivative(prob, v, y, q), lo, ceiling)
    return min(max(p, floor), ceiling), lo, ceiling


def _assert_derivative_monotone_near(prob, v, y, p, width=64):
    # the exactness of the seeded bracket rests on this: the float derivative
    # never decreases from one float to the next
    qs = [p]
    for _ in range(width):
        qs.insert(0, math.nextafter(qs[0], 0.0))
        qs.append(math.nextafter(qs[-1], math.inf))
    values = [_true_derivative(prob, v, y, q) for q in qs]
    assert all(a <= b for a, b in zip(values, values[1:]))


class _SeededPowerChecker:
    """Runs power_control against the full-bracket reference and tallies its paths."""

    def __init__(self, monkeypatch):
        self.brackets = []
        self.interior = 0
        self.seeded = 0

        def recording(fun, lo, hi):
            self.brackets.append((lo, hi))
            return _bisect_increasing(fun, lo, hi)

        monkeypatch.setattr(res_solver, "_bisect_increasing", recording)

    def check(self, cfg, env, n, y, v, n_segments, enforce_balance):
        self.brackets.clear()
        try:
            got = power_control(cfg, env, n, y, v, n_segments, enforce_balance)
        except InfeasibleError:
            return
        want, lo, ceiling = _full_power_control(cfg, env, n, y, v, n_segments, enforce_balance)
        assert got == want
        if lo < want < ceiling:
            self.interior += 1
            self.seeded += self.brackets == [self.brackets[0]] and self.brackets[0] != (lo, ceiling)
            _assert_derivative_monotone_near(_problem(cfg, env, n), v, y, got)


def test_seeded_power_equals_the_full_bracket_on_binding(monkeypatch):
    cfg = load_config(BINDING)
    checker = _SeededPowerChecker(monkeypatch)
    for t in (1, 2, 3):
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            for y in [0.0] + [10.0**e for e in range(-7, 2)]:
                for enforce_balance in (True, False):
                    checker.check(cfg, env, n, y, cfg.convergence.v_factor, 1, enforce_balance)
    assert checker.interior > 150
    assert checker.seeded >= 0.99 * checker.interior


def test_seeded_power_covers_low_snr_on_binding(monkeypatch):
    # without the balance cap, queues of 0.1-10 put the binding clusters at
    # signal-to-noise ratios of 0.002-0.03, where 1 + p*h/N rounds in steps
    # that move the float root by far more than a few ulps; the bracket's
    # _SEED_STEP/t floor still holds the root
    cfg = load_config(BINDING)
    checker = _SeededPowerChecker(monkeypatch)
    snr = []
    for t in (1, 2, 3):
        env = sample_round_environment(cfg, t)
        for n in range(cfg.n_clusters):
            prob = _problem(cfg, env, n)
            for y in np.logspace(-1, 1, 11):
                args = (cfg, env, n, float(y), cfg.convergence.v_factor, 1, False)
                checker.check(*args)
                snr.append(power_control(*args) * prob.gain / prob.noise_floor)
    assert max(snr) < 0.03
    assert checker.interior == 198
    assert checker.seeded >= 0.99 * checker.interior


def test_seeded_power_equals_the_full_bracket_on_random_problems(monkeypatch):
    # 1,000 random clusters, 20 (queue, V, S, balance) draws each; a third of
    # the clusters get an energy budget that binds inside (0, P_max)
    rng = np.random.default_rng(2024)
    checker = _SeededPowerChecker(monkeypatch)
    floors = ceilings = 0
    for _ in range(1000):
        cfg = build_config(_power_doc(rng))
        env = sample_round_environment(cfg, 1)
        if rng.uniform() < 1 / 3:
            prob = _problem(cfg, env, 0)
            e_limit = prob.param_bits * math.log(2.0) * prob.noise_floor / (prob.bandwidth * prob.gain)
            e_max = float(rng.uniform(e_limit, prob.upload_energy(prob.p_max)))
            cluster = dataclasses.replace(cfg.clusters[0], uplink_energy_budget_j=e_max)
            cfg = dataclasses.replace(cfg, clusters=(cluster,))
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
            checker.check(cfg, env, 0, y, v, s, enforce_balance)
    assert floors > 500 and ceilings > 200
    assert checker.interior > 5000
    assert checker.seeded > 0.95 * checker.interior


def test_seeded_power_control_takes_few_derivative_evaluations(monkeypatch):
    # two endpoint checks and about 7 halvings of a bracket a few ulps wide;
    # bisecting the whole box takes 55-56 evaluations on binding
    interior = [c for c in _derivative_evaluations(monkeypatch) if c > 2]
    assert len(interior) > 100
    assert max(interior) <= 12
