import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from edgesched.comm import device_d2d_delay
from edgesched.config import (
    MAX_BATCH_ITEMS,
    MAX_BLOCKS,
    Interval,
    RoundEnvironment,
    build_config,
    db_to_linear,
    dbm_per_hz_to_w_per_hz,
    linear_to_db,
    load_config,
    sample_round_environment,
)
from edgesched.errors import ConfigError

from conftest import TABLE2, minimal_doc


def test_minimal_config_defaults_filled():
    cfg = build_config(minimal_doc())
    assert cfg.n_clusters == 1
    assert cfg.n_channels == 1
    assert cfg.clusters[0].n_devices == 1
    assert cfg.model.n_blocks >= 1
    assert cfg.model.batch_items >= 1
    assert cfg.noise_density_w_per_hz == pytest.approx(1e-3 * 10 ** (-17.4))
    assert cfg.convergence.gamma_max > 0
    assert cfg.convergence.c_interference > 0
    assert cfg.rng_seed == 0


def test_table2_values_echoed(table2_cfg):
    cfg = table2_cfg
    assert cfg.clusters[0].d2d_bandwidth_hz == 0.5e6
    assert all(cl.uplink_power_max_w == 0.5 for cl in cfg.clusters)
    assert cfg.noise_density_w_per_hz == pytest.approx(dbm_per_hz_to_w_per_hz(-174.0))
    assert cfg.convergence.v_factor in (0.01, 10.0, 100.0)
    assert cfg.model.batch_items == 64
    assert cfg.model.fwd_flops == 2e6 and cfg.model.bwd_flops == 2e6
    assert cfg.clusters[0].uplink_gain_db == Interval(-0.12, -0.08)
    assert cfg.clusters[0].d2d_gain_db == Interval(-30.0, -30.0)
    assert cfg.clusters[0].d2d_interference_w == Interval(5e-10, 5e-10)
    assert cfg.clusters[0].devices[0].d2d_power_w == 0.07
    assert cfg.clusters[0].devices[-1].d2d_power_w == 0.1
    assert cfg.clusters[0].devices[0].d2d_power_max_w == 0.18


def test_memory_invariant_violation_names_constraint():
    doc = minimal_doc()
    doc["clusters"][0]["devices"][0] = {"gamma_max_bytes": 1e8, "gamma0_bytes": 2.5e8}
    with pytest.raises(ConfigError, match="C7"):
        build_config(doc)


def test_parse_failure_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(clusters=[]), "clusters"),
        (lambda d: d.update(J=0), "J"),
        (lambda d: d.update(J=2.5), "J"),
        (lambda d: d.update(rng_seed=-1), "rng_seed"),
        (lambda d: d.update(N0_w_per_hz=0.0), "N0_w_per_hz"),
        (lambda d: d["model"].update(L=0), "L"),
        (lambda d: d["model"].update(L=1.5), "L"),
        (lambda d: d["model"].update(b=0), "b"),
        (lambda d: d["model"].update(o_fwd_flops=-1), "o_fwd_flops"),
        (lambda d: d["model"].update(z_seg_bits=0), "z_seg_bits"),
        (lambda d: d["model"].update(theta_enc_bits=-5), "theta_enc_bits"),
        (lambda d: d["convergence"].update(beta=0), "beta"),
        (lambda d: d["convergence"].update(eta=-0.1), "eta"),
        (lambda d: d["convergence"].update(xi=0), "xi"),
        (lambda d: d["convergence"].update(phi=0), "phi"),
        (lambda d: d["convergence"].update(gamma_max_bound=0), "gamma_max_bound"),
        (lambda d: d["convergence"].update(V=0), "V"),
        (lambda d: d["clusters"][0].update(B_up_hz=0), "B_up_hz"),
        (lambda d: d["clusters"][0].update(B_dd_hz=-1), "B_dd_hz"),
        (lambda d: d["clusters"][0].update(P_n_max_w=0), "P_n_max_w"),
        (lambda d: d["clusters"][0].update(E_n_max_j=0), "E_n_max_j"),
        (lambda d: d["clusters"][0].update(I_up_w=-0.1), "I_up_w"),
        (lambda d: d["clusters"][0].update(I_dd_w=[-1e-9, 1e-9]), "I_dd_w"),
        (lambda d: d["clusters"][0].update(h_up_db=[0.5, -0.5]), "h_up_db"),
        (lambda d: d["clusters"][0].update(devices=[]), "devices"),
        (lambda d: d["clusters"][0]["devices"][0].update(phi_flops_per_cycle=0), "phi"),
        (lambda d: d["clusters"][0]["devices"][0].update(f_hz=0), "f_hz"),
        (lambda d: d["clusters"][0]["devices"][0].update(p_dd_w=0), "p_dd_w"),
        (lambda d: d["clusters"][0]["devices"][0].update(p_dd_w=0.5), "p_dd_w>P_k_max"),
        (lambda d: d["clusters"][0]["devices"][0].update(E_k_max_j=0), "E_k_max_j"),
        (lambda d: d["clusters"][0]["devices"][0].update(kappa=0), "kappa"),
    ],
)
def test_every_single_field_violation_rejected(mutate, field):
    doc = {
        "J": 2,
        "model": {},
        "convergence": {},
        "clusters": [{"devices": [{}, {}]}],
    }
    doc = copy.deepcopy(doc)
    mutate(doc)
    with pytest.raises(ConfigError):
        build_config(doc)


@pytest.mark.parametrize("key, limit", [("L", MAX_BLOCKS), ("b", MAX_BATCH_ITEMS)])
def test_model_sizes_are_bounded(key, limit):
    # int() converts 1e308 exactly, so only the upper limit keeps such a size
    # from reaching the solver, whose run-start loop would take about
    # 2*sqrt(b) steps
    doc = minimal_doc()
    doc["clusters"][0]["devices"][0] = {"gamma_max_bytes": 1e15}  # memory for MAX_BLOCKS blocks
    doc["model"] = {key: limit}
    assert getattr(build_config(doc).model, {"L": "n_blocks", "b": "batch_items"}[key]) == limit
    for value in (limit + 1, 1e308):
        doc["model"] = {key: value}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.field == f"model.{key}"
        assert f"[1, {limit}]" in exc.value.reason


def test_block_cap_of_a_vanishing_block_size_is_max_blocks():
    # gamma_max / gamma0 overflows to inf, which int() cannot take
    doc = minimal_doc()
    doc["clusters"][0]["devices"][0] = {"gamma0_bytes": 5e-324}
    assert build_config(doc).clusters[0].devices[0].block_cap == MAX_BLOCKS


def test_db_linear_roundtrip():
    for db in (-30.0, -0.12, -0.08, 0.0, 3.0, 17.5):
        lin = db_to_linear(db)
        assert lin > 0
        assert abs(linear_to_db(lin) - db) <= 1e-12 * max(1.0, abs(db))


def test_environment_determinism(table2_cfg):
    e1 = sample_round_environment(table2_cfg, 17)
    e2 = sample_round_environment(table2_cfg, 17)
    assert e1 == e2
    e3 = sample_round_environment(table2_cfg, 18)
    assert e1 != e3
    with pytest.raises(ValueError):
        sample_round_environment(table2_cfg, 0)


def test_degenerate_intervals_give_point_values(homogeneous_cfg):
    env = sample_round_environment(homogeneous_cfg, 3)
    assert env.uplink_gain == (pytest.approx(db_to_linear(-0.1)),)
    assert env.uplink_interference_w == (0.07,)
    assert all(f == 4.5e8 for f in env.clock_hz[0])
    assert all(g == pytest.approx(db_to_linear(-30.0)) for g in env.d2d_gain[0])


def test_gain_sampling_matches_analytic_mean():
    # mean of 10^(U/10), U ~ Uniform(a, b): (10^(b/10)-10^(a/10)) * 10/((b-a)*ln 10)
    a, b = -0.12, -0.08
    doc = minimal_doc()
    doc["clusters"][0]["h_up_db"] = [a, b]
    doc["rng_seed"] = 1
    cfg = build_config(doc)
    draws = [sample_round_environment(cfg, t).uplink_gain[0] for t in range(1, 5001)]
    analytic = (10 ** (b / 10) - 10 ** (a / 10)) * 10.0 / ((b - a) * math.log(10.0))
    assert abs(np.mean(draws) - analytic) / analytic < 0.01


def _scalar_draw(cfg, t):
    """The round-t environment with one scalar ``rng.uniform`` per non-degenerate interval."""
    rng = np.random.default_rng([cfg.rng_seed, t])

    def draw(iv):
        return iv.lo if iv.lo == iv.hi else float(rng.uniform(iv.lo, iv.hi))

    up_gain, up_intf, dd_intf, clocks, dd_gain = [], [], [], [], []
    for cl in cfg.clusters:
        up_gain.append(db_to_linear(draw(cl.uplink_gain_db)))
        up_intf.append(draw(cl.uplink_interference_w))
        dd_intf.append(draw(cl.d2d_interference_w))
        pairs = [(draw(dev.clock_range_hz), db_to_linear(draw(cl.d2d_gain_db))) for dev in cl.devices]
        clocks.append(tuple(f for f, _ in pairs))
        dd_gain.append(tuple(g for _, g in pairs))
    return RoundEnvironment(
        round_index=t,
        uplink_gain=tuple(up_gain),
        uplink_interference_w=tuple(up_intf),
        d2d_interference_w=tuple(dd_intf),
        clock_hz=tuple(clocks),
        d2d_gain=tuple(dd_gain),
        speed=tuple(
            tuple(dev.flops_per_cycle * f for dev, f in zip(cl.devices, fs)) for cl, fs in zip(cfg.clusters, clocks)
        ),
        hop_s=tuple(
            tuple(device_d2d_delay(cfg, n, k, g, dd_intf[n]) for k, g in enumerate(gains))
            for n, gains in enumerate(dd_gain)
        ),
    )


def _mixed_intervals_doc(rng):
    """Clusters whose every interval is, at random, a point or a [lo, hi] pair."""

    def pick(lo, hi):
        a, b = sorted(float(x) for x in rng.uniform(lo, hi, size=2))
        return a if rng.random() < 0.4 else [a, b]

    clusters = []
    for _ in range(int(rng.integers(1, 4))):
        devices = [{"f_hz": pick(1e8, 8e8)} for _ in range(int(rng.integers(1, 5)))]
        clusters.append(
            {
                "devices": devices,
                "h_up_db": pick(-3.0, 3.0),
                "h_dd_db": pick(-35.0, -25.0),
                "I_up_w": pick(0.0, 0.1),
                "I_dd_w": pick(0.0, 1e-9),
            }
        )
    return {"rng_seed": int(rng.integers(0, 10**6)), "J": len(clusters), "clusters": clusters}


def test_environment_equals_the_scalar_draw_on_mixed_intervals():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        cfg = build_config(_mixed_intervals_doc(rng))
        for t in (1, 2, 7, 59):
            assert sample_round_environment(cfg, t) == _scalar_draw(cfg, t)


def test_replaced_config_draws_from_its_own_intervals(table2_cfg):
    sample_round_environment(table2_cfg, 4)  # the original's layout and fixed hops are built
    changed = dataclasses.replace(
        table2_cfg.clusters[0],
        uplink_gain_db=Interval(-2.0, 2.0),
        d2d_gain_db=Interval(-20.0, -20.0),  # still fixed, at another gain
    )
    cfg = dataclasses.replace(table2_cfg, clusters=(changed,) + table2_cfg.clusters[1:])
    for t in (1, 4):
        assert sample_round_environment(cfg, t) == _scalar_draw(cfg, t)


def test_environment_fields_within_ranges(table2_cfg):
    for t in (1, 5, 99):
        env = sample_round_environment(table2_cfg, t)
        for n, cl in enumerate(table2_cfg.clusters):
            assert cl.uplink_gain_db.contains(linear_to_db(env.uplink_gain[n]))
            assert cl.uplink_interference_w.contains(env.uplink_interference_w[n])
            for k, dev in enumerate(cl.devices):
                assert dev.clock_range_hz.contains(env.clock_hz[n][k])
                assert env.d2d_gain[n][k] > 0


def test_environment_speed_and_hop_rederive_from_draws(table2_cfg):
    # the Shannon hop written out as the oracles write it
    model = table2_cfg.model
    n0 = table2_cfg.noise_density_w_per_hz
    for t in (1, 2, 3):
        env = sample_round_environment(table2_cfg, t)
        for n, cl in enumerate(table2_cfg.clusters):
            for k, dev in enumerate(cl.devices):
                assert env.speed[n][k] == dev.flops_per_cycle * env.clock_hz[n][k]
                sinr = dev.d2d_power_w * env.d2d_gain[n][k] / (env.d2d_interference_w[n] + cl.d2d_bandwidth_hz * n0)
                rate = cl.d2d_bandwidth_hz * math.log(1.0 + sinr) / math.log(2.0)
                hop = (model.act_seg_bits + model.grad_seg_bits) / rate
                assert env.hop_s[n][k] == pytest.approx(hop, rel=1e-12)


def test_seed_env_override(monkeypatch, tmp_path):
    doc = minimal_doc()
    doc["rng_seed"] = 5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_config(str(path)).rng_seed == 5
    monkeypatch.setenv("EDGESCHED_SEED", "99")
    assert load_config(str(path)).rng_seed == 99
    monkeypatch.setenv("EDGESCHED_SEED", "zzz")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_table2_from_disk_matches_fixture(table2_cfg):
    assert load_config(TABLE2) == table2_cfg
