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


def _searched(monkeypatch, *args):
    """schedule_segments' answer from the partition search alone, on a fresh state."""
    with monkeypatch.context() as patch:
        patch.setattr(seg_solver, "_one_stage_table", lambda state, v_factor: [])
        return _outcome(schedule_segments, *args)


def test_shared_round_state_equals_fresh_calls(monkeypatch):
    # one ClusterRound shared by a sequence of solves, as optimize_round shares
    # it across its sweeps, gives every plan, power and error a fresh state
    # gives, including repeated and interleaved inputs, and every segment plan
    # and error equals the partition search's. A third of the systems have a
    # balance cap of one stage at P_max, where the round's table of one-stage
    # plans answers without a search; queue sums of 1e12 to 1e18 round
    # one-stage plans of different latency to ties, and each of two V values
    # keeps its own table. A power far above P_max, or enforce_balance=False,
    # lifts the cap above one stage, and such calls search
    searches = []
    partition = seg_solver.optimal_partition

    def counted(*args, **kwargs):
        searches.append(args)
        return partition(*args, **kwargs)

    monkeypatch.setattr(seg_solver, "optimal_partition", counted)
    rng = np.random.default_rng(15)
    constraints = set()
    solved = tabled = ties = no_plan = wider = 0
    for i in range(300):
        if i % 3 == 2:
            cfg, env = _capped_system(rng)
        else:
            cfg = _strained_system(rng)
            env = sample_round_environment(cfg, int(rng.integers(1, 5)))
        p_max = cfg.clusters[0].uplink_power_max_w
        v_factors = (cfg.convergence.v_factor, float(rng.choice([0.01, 1.0, 10.0])))
        powers = [p_max, float(rng.uniform(0.01, 1.0)) * p_max, 100.0 * p_max]
        state = ClusterRound(cfg, env, 0)
        for _ in range(8):
            q = float(rng.choice([0.0, 1e-3, 1.0, 50.0, 1e12, 1e16, 1e18, -1.0]))
            power = powers[int(rng.integers(0, 3))]
            enforce = bool(rng.uniform() < 0.8)
            v = v_factors[int(rng.integers(0, 2))]
            s = int(rng.integers(1, cfg.clusters[0].n_devices + 1))
            segment_args = (cfg, env, 0, (q,), v, power, enforce)
            n_searches = len(searches)
            plan = _outcome(schedule_segments, *segment_args, state=state)
            searched = len(searches) > n_searches
            assert plan == _outcome(schedule_segments, *segment_args) == _searched(monkeypatch, *segment_args)
            powered = _outcome(power_control, cfg, env, 0, q, v, s, enforce, state=state)
            assert powered == _outcome(power_control, cfg, env, 0, q, v, s, enforce)
            for outcome in (plan, powered):
                if isinstance(outcome, tuple):
                    constraints.add(outcome[1])
                else:
                    solved += 1
            if _outcome(seg_solver._segment_cap, cfg, env, 0, power, enforce) != 1:
                wider += not isinstance(plan, tuple) and plan.n_segments > 1
                continue
            table = seg_solver._one_stage_table(ClusterRound(cfg, env, 0), v)
            if not table:
                no_plan += 1  # no run start has a one-stage plan: the search names the error
                assert isinstance(plan, tuple)
                continue
            assert not searched and not isinstance(plan, tuple)
            tabled += 1
            least = table[0][0] + q
            ties += len({a for a, _, _ in table if a + q == least}) > 1
    assert {"C7", "C9'", "C11", "C11'", "C8"} <= constraints
    assert solved > 1000
    assert tabled > 300
    assert ties > 0 and no_plan > 0 and wider > 0
