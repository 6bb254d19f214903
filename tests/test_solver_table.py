"""The per-config solver table: the config part of every C11 threshold and the
config-only inputs of the segment solver, built once per config on its first
solve and read by the segment cap, power control's floor and the run-start
bound."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_system_doc
from edgesched import seg_solver
from edgesched.config import build_config, sample_round_environment
from edgesched.convergence import balance_power_threshold
from edgesched.errors import InfeasibleError
from edgesched.orchestrator import run_simulation
from edgesched.res_solver import power_control
from edgesched.seg_solver import _segment_cap


def _threshold_case(rng):
    """A random system whose error budget turns negative near a random
    segment count, and a round of it with a gain and interference drawn over
    several decades."""
    doc = random_system_doc(rng, max_devices=6, max_blocks=12)
    conv = doc["convergence"]
    conv["C"] = float(10 ** rng.uniform(-3, 0))
    conv["phi"] = float(rng.uniform(0.5, 2.0))
    n_blocks = doc["model"]["L"]
    # 2*gamma_max/(beta*eta^2) = phi^2*(1 + s0^2/L): the budget is at most 0 from S = s0 on
    s0 = float(rng.uniform(0.5, n_blocks + 1.5))
    conv["gamma_max_bound"] = conv["phi"] ** 2 * (1 + s0**2 / n_blocks) * conv["beta"] * conv["eta"] ** 2 / 2
    doc["clusters"][0]["E_n_max_j"] = 1e6  # the energy ceiling is P_max: the floor is seen as it is
    cfg = build_config(doc)
    env = sample_round_environment(cfg, int(rng.integers(1, 5)))
    gain, interference_w = float(10 ** rng.uniform(-4, 2)), float(10 ** rng.uniform(-4, 0))
    return cfg, dataclasses.replace(env, uplink_gain=(gain,), uplink_interference_w=(interference_w,))


def _thresholds(cfg, env, s_max):
    params, n_blocks = cfg.convergence, cfg.model.n_blocks
    gain, interference_w = env.uplink_gain[0], env.uplink_interference_w[0]
    return [balance_power_threshold(params, cfg.n_clusters, n_blocks, s, gain, interference_w) for s in range(1, s_max + 1)]


def test_table_read_segment_cap_and_power_floor_equal_balance_power_threshold():
    # the segment cap counts the thresholds p_1..p_min(K, L) at or below the
    # head power, each read from the table, at p_S, the floats beside it, 0,
    # P_max, inf and NaN; power_control's floor at every S up to L is p_S
    # bit for bit, once the stationary power underflows to 0 (V = 5e-324,
    # Y = 1e300). A budget at or below 0 gives an inf threshold (C11)
    rng = np.random.default_rng(45)
    floors = unreachable = capped = 0
    for _ in range(300):
        cfg, env = _threshold_case(rng)
        p_max, n_blocks = cfg.clusters[0].uplink_power_max_w, cfg.model.n_blocks
        thresholds = _thresholds(cfg, env, n_blocks)
        for s, p_s in enumerate(thresholds, start=1):
            if math.isinf(p_s):
                with pytest.raises(InfeasibleError, match="unreachable at any power") as exc:
                    power_control(cfg, env, 0, 1e300, 5e-324, s)
                assert exc.value.constraint == "C11"
                unreachable += 1
            elif 1e-12 * p_max <= p_s <= p_max:
                assert power_control(cfg, env, 0, 1e300, 5e-324, s) == p_s
                floors += 1
        s_max = min(cfg.clusters[0].n_devices, n_blocks)
        powers = [0.0, p_max, math.inf, math.nan] + [
            q for p in thresholds[:s_max] if math.isfinite(p) for q in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))
        ]
        for power in powers:
            want = sum(p <= power for p in thresholds[:s_max])
            if want == 0:
                with pytest.raises(InfeasibleError, match="balance cap unreachable") as exc:
                    _segment_cap(cfg, env, 0, power)
                assert exc.value.constraint == "C11"
            else:
                assert _segment_cap(cfg, env, 0, power) == want
                capped += want < s_max
    assert floors > 300 and unreachable > 900 and capped > 900


def test_a_replaced_config_reads_its_own_table():
    # dataclasses.replace makes a new config, as the CLI's --seed and sweep
    # do; it builds its own table, so another gamma_max or L gives other
    # thresholds, segment caps and run starts
    rng = np.random.default_rng(7)
    cfg, env = _threshold_case(rng)
    table = cfg.solver_table
    assert cfg.solver_table is table
    params = cfg.convergence
    for other in (
        dataclasses.replace(cfg, convergence=dataclasses.replace(params, gamma_max=params.gamma_max * 3.0)),
        dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, n_blocks=cfg.model.n_blocks + 5, batch_items=7)),
    ):
        assert other.solver_table is not table
        n_blocks = other.model.n_blocks
        thresholds = _thresholds(other, env, n_blocks)
        assert thresholds != _thresholds(cfg, env, n_blocks)
        for s, p_s in enumerate(thresholds, start=1):
            if 1e-12 * other.clusters[0].uplink_power_max_w <= p_s <= other.clusters[0].uplink_power_max_w:
                assert power_control(other, env, 0, 1e300, 5e-324, s) == p_s
        s_max = min(other.clusters[0].n_devices, n_blocks)
        for p in thresholds[:s_max]:
            if math.isfinite(p):
                assert _segment_cap(other, env, 0, p) == sum(q <= p for q in thresholds[:s_max])
        assert other.solver_table.starts == seg_solver._micro_batch_run_starts(other.model.batch_items)
    assert cfg.solver_table is table


def test_table_is_built_once_per_config_and_not_by_build_config(monkeypatch):
    built = []

    class Counted(seg_solver.SolverTable):
        def __init__(self, cfg):
            built.append(cfg)
            super().__init__(cfg)

    monkeypatch.setattr(seg_solver, "SolverTable", Counted)
    doc = random_system_doc(np.random.default_rng(11))
    doc["convergence"]["gamma_max_bound"] = 1.0
    cfg = build_config(doc)
    assert built == []
    for _ in range(2):
        assert len(run_simulation(cfg, 6, "lyapunov").rounds) == 6
    assert len(built) == 1 and built[0] is cfg
