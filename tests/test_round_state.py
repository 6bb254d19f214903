import numpy as np

from edgesched.config import build_config, sample_round_environment
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
