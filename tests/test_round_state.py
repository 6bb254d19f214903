import numpy as np

from edgesched import seg_solver
from edgesched.config import build_config, sample_round_environment
from edgesched.convergence import interference_error
from edgesched.errors import InfeasibleError
from edgesched.res_solver import power_control
from edgesched.round_state import ClusterRound
from edgesched.seg_solver import schedule_segments

from conftest import random_system_doc


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InfeasibleError as exc:
        return type(exc), exc.constraint, str(exc)


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


def test_shared_round_state_equals_fresh_calls():
    # one ClusterRound shared by a sequence of solves, as optimize_round shares
    # it across its sweeps, gives every plan, power and error a fresh state
    # gives, including repeated and interleaved inputs
    rng = np.random.default_rng(15)
    constraints = set()
    solved = 0
    for _ in range(300):
        cfg = _strained_system(rng)
        env = sample_round_environment(cfg, int(rng.integers(1, 5)))
        p_max = cfg.clusters[0].uplink_power_max_w
        v = cfg.convergence.v_factor
        powers = [p_max, float(rng.uniform(0.01, 1.0)) * p_max]
        state = ClusterRound(cfg, env, 0)
        for _ in range(8):
            q = float(rng.choice([0.0, 1e-3, 1.0, 50.0]))
            power = powers[int(rng.integers(0, 2))]
            enforce = bool(rng.uniform() < 0.8)
            s = int(rng.integers(1, cfg.clusters[0].n_devices + 1))
            for fn, args in (
                (schedule_segments, (cfg, env, 0, (q,), v, power, enforce)),
                (power_control, (cfg, env, 0, q, v, s, enforce)),
            ):
                shared = _outcome(fn, *args, state=state)
                assert shared == _outcome(fn, *args)
                if isinstance(shared, tuple):
                    constraints.add(shared[1])
                else:
                    solved += 1
    assert {"C7", "C9'", "C11", "C11'", "C8"} <= constraints
    assert solved > 1000


def _capped_system(rng):
    """A random single-cluster system whose balance cap at the round's P_max
    is one stage, and rises above it at higher powers."""
    doc = random_system_doc(rng)
    conv = doc["convergence"]
    conv["C"] = 1.0
    t = int(rng.integers(1, 5))
    cfg = build_config(doc)
    env = sample_round_environment(cfg, t)
    eps = interference_error(
        cfg.clusters[0].uplink_power_max_w, env.uplink_gain[0], env.uplink_interference_w[0], conv["C"]
    )
    # an error budget of eps + 1.5*phi^2/L leaves S^2 = 1.5 at P_max
    budget = eps + 1.5 * conv["phi"] ** 2 / doc["model"]["L"]
    conv["gamma_max_bound"] = (budget + conv["phi"] ** 2) * conv["beta"] * conv["eta"] ** 2 / 2
    cfg = build_config(doc)
    return cfg, sample_round_environment(cfg, t)


def test_one_stage_frontier_answers_equal_fresh_searches(monkeypatch):
    # from a state's second schedule_segments call under a balance cap of one
    # stage with the same V on, the round's one-stage frontier answers such
    # calls without a partition search; every answer and error equals a fresh
    # state's search. The frontier hands a call back to the search only on a
    # possible rounding tie, which a queue sum of 1e12 or 1e18 brings about
    # between one-stage plans of one run start, and a call has it always
    # found a plan. A power above P_max, or enforce_balance=False, lifts the
    # cap above one stage, and such calls search even once the frontier is
    # built
    replayed, searches = [], []
    frontier_key, partition = seg_solver._frontier_key, seg_solver.optimal_partition

    def recorded(*args):
        replayed.append(frontier_key(*args))
        return replayed[-1]

    def counted(*args, **kwargs):
        searches.append(args)
        return partition(*args, **kwargs)

    monkeypatch.setattr(seg_solver, "_frontier_key", recorded)
    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    rng = np.random.default_rng(16)
    answered = ties = no_plan = beyond_cap = wider = 0
    for i in range(240):
        if i % 3:
            cfg, env = _capped_system(rng)
        else:
            cfg = _strained_system(rng)
            env = sample_round_environment(cfg, int(rng.integers(1, 5)))
        p_max = cfg.clusters[0].uplink_power_max_w
        v_factors = (cfg.convergence.v_factor, float(rng.choice([0.01, 1.0, 10.0])))
        state = ClusterRound(cfg, env, 0)
        one_stage_calls = {v: 0 for v in v_factors}
        for _ in range(24):
            q = float(rng.choice([0.0, 1e-9, 1e-3, 1.0, 50.0, 1e12, 1e18, -1.0]))
            power = p_max * float(rng.choice([0.3, 1.0, 3.0, 100.0]))
            enforce = bool(rng.uniform() < 0.8)
            v = v_factors[int(rng.integers(0, 2))]
            args = (cfg, env, 0, (q,), v, power, enforce)
            cap = _outcome(seg_solver._segment_cap, cfg, env, 0, power, enforce)
            n_replayed, n_searches = len(replayed), len(searches)
            shared = _outcome(schedule_segments, *args, state=state)
            replays, searched = replayed[n_replayed:], len(searches) > n_searches
            assert shared == _outcome(schedule_segments, *args)
            if cap != 1:
                assert not replays
                if one_stage_calls[v] > 1 and isinstance(cap, int):  # past the frontier's build
                    assert searched
                    beyond_cap += power > p_max
                    wider += not isinstance(shared, tuple) and shared.n_segments > 1
                continue
            if one_stage_calls[v] and not seg_solver._one_stage_frontier(ClusterRound(cfg, env, 0), v):
                no_plan += 1  # no run start has a one-stage plan: the search names the error
                assert not replays and isinstance(shared, tuple)
            elif one_stage_calls[v]:
                assert len(replays) == 1
                if replays[0] is None:
                    ties += 1
                    assert searched and not isinstance(shared, tuple)
                else:
                    answered += 1
                    assert not searched
            one_stage_calls[v] += 1
    assert answered > 500
    assert ties > 0 and no_plan > 0 and beyond_cap > 0 and wider > 0
