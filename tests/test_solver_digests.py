"""Solver digests: the sha256 of every solver answer over a fixed call battery.

The trace digests (``test_trace_digests.py``) pin whole runs of the shipped
configs at the queues those runs reach, and a one-stage ``table2`` round never
reaches most of the partition sweep. This test calls the solvers directly on
a fixed battery of generated systems and pins every answer. Its sub-batteries:

- ``random``: single clusters of up to 12 devices, 24 blocks and 16 items per
  batch, memory caps of 1 to L blocks; a third with mJ-scale energy budgets,
  a third with budgets that cut block caps at a drawn run start, and half
  with a balance bound that caps the segment count at a drawn value;
- ``tied``: single clusters whose dyadic speeds and hops tie occupancies
  exactly across devices;
- ``table2``, ``encoder`` and ``contended``: rounds of the shapes of the
  shipped table2 config (N=3, K=6, L=6), one wide cluster (K=10, L=16) and
  six two-device clusters on three channels under a tight balance cap,
  built here so that no other module can move them;
- ``wide``: the encoder cluster widened to K=32 devices and L=64 blocks with
  12-block memory caps.

On each system it calls ``schedule_segments`` at P_max and at a drawn power,
``optimal_partition`` at the first run starts, under three segment caps and
five cutoffs around the optimum, ``power_control``, ``allocate_resources``
and ``validate_decision``. A V of 0, which no config allows, is passed to the
single-cluster solves directly. Each answer, or the (class, constraint,
message) of the error raised, is hashed by its ``repr``; there is one sha256
per (function, sub-battery). Every draw comes from ``edgesched.rng``'s
Generator, which is pinned to numpy's bit for bit and so does not move with
the Python version.

A change that is meant to keep decisions must keep this test passing. A
change meant to alter them regenerates the fixture and lists the keys that
changed; the script prints how many changed and which:

    PYTHONPATH=src python tests/test_solver_digests.py
"""

import dataclasses
import hashlib
import json
import math
import os

from edgesched.comm import ChannelAssignment
from edgesched.config import build_config, sample_round_environment
from edgesched.decision import SchedulingDecision, validate_decision
from edgesched.errors import InfeasibleError, StalledLinkError
from edgesched.pipeline import SegmentPlan, device_energy
from edgesched.res_solver import allocate_resources, power_control
from edgesched.rng import Generator
from edgesched.seg_solver import (
    _micro_batch_run_starts,
    _segment_cap,
    cluster_objective,
    optimal_partition,
    schedule_segments,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "solver_digests.json")
SUB_BATTERIES = ("random", "tied", "table2", "encoder", "contended", "wide")
FUNCTIONS = ("schedule_segments", "optimal_partition", "power_control", "allocate_resources", "validate_decision")
V_CHOICES = (0.0, 0.01, 1.0, 10.0)
RUN_STARTS = 3  # optimal_partition runs at the first few run starts


def _pick(rng: Generator, seq):
    return seq[rng.integers(0, len(seq))]


def _log_uniform(rng: Generator, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _random_cluster(rng: Generator):
    """One cluster of 1-12 devices with memory caps of 1 to L blocks.

    Chunk flops span three decades, so hops dominate some clusters and
    compute others. Half get a balance bound whose segment cap at P_max is a
    drawn count. A third get mJ-scale energy budgets, and another third
    budgets between a device's energy at d and d + 1 blocks at a drawn run
    start, d = 1 or 2, which cut the block caps there and more at the run
    starts before it.
    """
    k, l_blocks = rng.integers(1, 13), rng.integers(1, 25)
    s_cap = rng.integers(1, min(k, l_blocks) + 1)
    budgets = rng.integers(0, 3)
    devices = [
        {
            "phi_flops_per_cycle": rng.uniform(5, 30),
            "f_hz": rng.uniform(1e8, 8e8),
            "p_dd_w": rng.uniform(0.03, 0.18),
            "gamma_max_bytes": 2.5e8 * rng.integers(1, l_blocks + 1),
            "gamma0_bytes": 2.5e8,
            "E_k_max_j": _log_uniform(rng, 1e-3, 3e-2) if budgets == 1 else rng.uniform(0.5, 5.0),
            "kappa": _pick(rng, (1e-27, 3e-28)),
        }
        for _ in range(k)
    ]
    # at the default beta = 1, eta = 0.01 and phi = 1 the balance budget at S
    # segments is 2*gamma_max/eta^2 - 1 - S^2/L, which changes sign between
    # s_cap and s_cap + 1
    gamma_max = 5e-5 * (1 + (s_cap**2 + (s_cap + 1) ** 2) / (2 * l_blocks))
    doc = {
        "rng_seed": rng.integers(0, 10**6),
        "J": 1,
        "model": {
            "L": l_blocks,
            "b": rng.integers(1, 17),
            "o_fwd_flops": _log_uniform(rng, 5e5, 5e8),
            "o_bwd_flops": _log_uniform(rng, 5e5, 5e8),
            "z_seg_bits": rng.uniform(5e3, 8e4),
            "g_seg_bits": rng.uniform(5e3, 8e4),
        },
        "convergence": {"gamma_max_bound": 1.0 if rng.random() < 0.5 else gamma_max},
        "clusters": [{"h_dd_db": [-40, -25], "devices": devices}],
    }
    cfg = build_config(doc)
    env = sample_round_environment(cfg, rng.integers(1, 5))
    if budgets == 2:
        m = _pick(rng, _micro_batch_run_starts(cfg.model.batch_items))
        cluster = cfg.clusters[0]
        cut = []
        for j, dev in enumerate(cluster.devices):
            d = rng.integers(1, 3)
            energy = 0.5 * (device_energy(d, m, cfg, env, 0, j) + device_energy(d + 1, m, cfg, env, 0, j))
            cut.append(dataclasses.replace(dev, energy_budget_j=energy))
        cfg = dataclasses.replace(cfg, clusters=(dataclasses.replace(cluster, devices=tuple(cut)),))
    return cfg, env


def _tied_cluster(rng: Generator):
    """One cluster of 2-12 devices and 2-24 blocks, memory caps of L on about a
    third of the devices. Most draws get dyadic speeds and hops, so
    occupancies tie exactly across devices, and zero hops next to a 16 s one
    let the sweep reach a device's d = L occupancy."""
    k, l_blocks = rng.integers(2, 13), rng.integers(2, 25)
    caps = [l_blocks if rng.random() < 0.35 else rng.integers(1, l_blocks + 1) for _ in range(k)]
    doc = {
        "J": 1,
        "model": {"L": l_blocks, "b": rng.integers(1, 9), "o_fwd_flops": 2.0**20, "o_bwd_flops": 2.0**20},
        "convergence": {"gamma_max_bound": 1.0},
        "clusters": [{"devices": [{"gamma_max_bytes": 2.5e8 * cap, "gamma0_bytes": 2.5e8} for cap in caps]}],
    }
    cfg = build_config(doc)
    env = sample_round_environment(cfg, rng.integers(1, 4))
    if rng.random() < 0.8:
        speed = tuple(2.0 ** rng.integers(20, 25) for _ in range(k))
        hop = tuple(_pick(rng, (0.0, 0.0, 0.25, 1.0, 16.0)) for _ in range(k))
        env = dataclasses.replace(env, speed=(speed,), hop_s=(hop,))
    return cfg, env


def _device(phi: float, p_dd: float, f_hz=(1e8, 8e8), cap: int = 6) -> dict:
    return {
        "phi_flops_per_cycle": phi,
        "f_hz": list(f_hz),
        "p_dd_w": p_dd,
        "P_k_max_w": 0.18,
        "gamma_max_bytes": 2.5e8 * cap,
        "gamma0_bytes": 2.5e8,
        "E_k_max_j": 5.0,
    }


def _shape_doc(clusters: list, n_channels: int, model: dict, convergence: dict, seed: int) -> dict:
    base_model = {"L": 6, "b": 64, "o_fwd_flops": 2e6, "o_bwd_flops": 2e6}
    base_model.update(z_seg_bits=3.5e4, g_seg_bits=3.5e4, z_enc_bits=5e5, theta_enc_bits=5e5)
    base_conv = {"C": 0.0559, "gamma_max_bound": 5e-5, "V": 10.0}
    return {
        "rng_seed": seed,
        "J": n_channels,
        "model": dict(base_model, **model),
        "convergence": dict(base_conv, **convergence),
        "clusters": [
            {"B_up_hz": b_up, "B_dd_hz": 5e5, "P_n_max_w": 0.5, "h_dd_db": -30, "I_up_w": list(i_up), "devices": devices}
            for b_up, devices, i_up in clusters
        ],
    }


def _table2(seed: int) -> dict:
    phis, p_dds = (10, 13, 16, 19, 22, 24), (0.07, 0.076, 0.082, 0.088, 0.094, 0.1)
    devices = [_device(phi, p_dd) for phi, p_dd in zip(phis, p_dds)]
    return _shape_doc([(b_up, devices, (0.06, 0.08)) for b_up in (4e5, 5e5, 6e5)], 4, {}, {}, seed)


def _encoder(seed: int, n_devices: int = 10, l_blocks: int = 16, cap: int = 6, gamma_max: float = 1.0) -> dict:
    kinds = [_device(8 + 2 * i, 0.07 + 0.003 * i, (7e8, 8e8), cap) for i in range(10)]
    devices = [kinds[i % 10] for i in range(n_devices)]
    return _shape_doc([(5e5, devices, (0.06, 0.08))], 1, {"L": l_blocks}, {"gamma_max_bound": gamma_max}, seed)


def _contended(seed: int) -> dict:
    clusters = [
        (4e5 + 5e4 * n, [_device(12 + 2 * ((n + k) % 6), 0.07 + 0.005 * k) for k in range(2)], (0.058, 0.058))
        for n in range(6)
    ]
    return _shape_doc(clusters, 3, {"L": 2, "b": 4}, {"gamma_max_bound": 2e-5, "V": 3e-6}, seed)


def _rounds(docs, rounds):
    for doc in docs:
        cfg = build_config(doc)
        for t in rounds:
            yield cfg, sample_round_environment(cfg, t)


def _systems(name: str, rng: Generator):
    """(cfg, env, v) of every system of one sub-battery."""
    if name in ("random", "tied"):
        make = _random_cluster if name == "random" else _tied_cluster
        for _ in range(200 if name == "random" else 120):
            cfg, env = make(rng)
            yield cfg, env, _pick(rng, V_CHOICES)
        return
    if name == "table2":
        systems = _rounds([_table2(1), _table2(2)], range(1, 4))
    elif name == "encoder":
        systems = _rounds([_encoder(1), _encoder(2)], range(1, 3))
    elif name == "contended":
        systems = _rounds([_contended(1)], range(1, 4))
    else:  # wide: a balance bound of 1e-4 caps the plan near the 6 stages memory needs
        systems = _rounds([_encoder(1, 32, 64, 12, gamma_max) for gamma_max in (1.0, 1e-4)], range(1, 3))
    for cfg, env in systems:
        yield cfg, env, cfg.convergence.v_factor


def _outcome(solve, *args, **kwargs):
    """The solver's answer, or the (class, constraint, message) of its error."""
    try:
        return solve(*args, **kwargs)
    except (InfeasibleError, StalledLinkError) as exc:
        return type(exc).__name__, getattr(exc, "constraint", None), str(exc)


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], str)


def _partition_calls(cfg, env, n, v, q, record):
    """optimal_partition at the first run starts, under the balance cap at
    P_max (the device count where it is unreachable), one less and 1, at the
    cutoffs inf, the optimum, one float below it, 1e-9 above it and 1.5 times it."""
    try:
        cap = _segment_cap(cfg, env, n, cfg.clusters[n].uplink_power_max_w)
    except InfeasibleError:
        cap = min(cfg.clusters[n].n_devices, cfg.model.n_blocks)
    for m in _micro_batch_run_starts(cfg.model.batch_items)[:RUN_STARTS]:
        for s_cap in sorted({cap, cap - 1, 1} - {0}):
            best = _outcome(optimal_partition, m, cfg, env, n, v, q, s_cap)
            record("optimal_partition", best)
            if _failed(best):
                continue
            opt = cluster_objective(best[0], m, cfg, env, n, v, q)
            for cutoff in (opt, math.nextafter(opt, -math.inf), opt + 1e-9, 1.5 * opt):
                record("optimal_partition", _outcome(optimal_partition, m, cfg, env, n, v, q, s_cap, cutoff=cutoff))


def _cluster_calls(cfg, env, n, v, rng, record):
    """The segment and power solves of cluster n; returns its plan at P_max
    and zero queues, or the error raised there."""
    cluster = cfg.clusters[n]
    q = _log_uniform(rng, 1e-4, 1.0)
    outcomes = []
    for power in (cluster.uplink_power_max_w, rng.uniform(0.05, 1.0) * cluster.uplink_power_max_w):
        for queue in (0.0, q):
            plan = _outcome(schedule_segments, cfg, env, n, (queue,) + (0.0,) * (cfg.n_clusters - 1), v, power)
            record("schedule_segments", plan if _failed(plan) else (plan.delta, plan.m))
            outcomes.append(plan)
    _partition_calls(cfg, env, n, v, _pick(rng, (0.0, q)), record)
    s_opt = 1 if _failed(outcomes[0]) else outcomes[0].n_segments
    for s in sorted({1, s_opt, min(cluster.n_devices, cfg.model.n_blocks), cfg.model.n_blocks + 1}):
        for y in (0.0, q):
            record("power_control", _outcome(power_control, cfg, env, n, y, v, s))
    record("power_control", _outcome(power_control, cfg, env, n, q, v, s_opt, enforce_balance=False))
    return outcomes[0]


def _system_calls(cfg, env, v, rng, record):
    plans = [_cluster_calls(cfg, env, n, v, rng, record) for n in range(cfg.n_clusters)]
    counts = tuple(1 if _failed(plan) else plan.n_segments for plan in plans)
    # the first clusters transmit at P_max where the resource solver finds no allocation
    on_air = tuple(n if n < cfg.n_channels else None for n in range(cfg.n_clusters))
    assignment = ChannelAssignment(cfg.n_channels, on_air)
    powers = tuple(c.uplink_power_max_w if assignment.is_transmitting(n) else 0.0 for n, c in enumerate(cfg.clusters))
    allocated = False
    for queues in ((0.0,) * cfg.n_clusters, tuple(_log_uniform(rng, 1e-4, 1.0) for _ in cfg.clusters)):
        for enforce in (True, False):
            answer = _outcome(allocate_resources, cfg, env, queues, v, counts, enforce_balance=enforce)
            record("allocate_resources", answer if _failed(answer) else (answer[0].assigned, answer[1]))
            if not allocated and not _failed(answer):
                (assignment, powers), allocated = answer, True

    # the solved decision, with all blocks on the first device where no plan
    # was found, then one with drawn chunk counts and powers up to 1.2 P_max
    solved = tuple(
        SegmentPlan(delta=(cfg.model.n_blocks,) + (0,) * (c.n_devices - 1), m=1) if _failed(plan) else plan
        for plan, c in zip(plans, cfg.clusters)
    )
    drawn = tuple(SegmentPlan(delta=plan.delta, m=rng.integers(1, cfg.model.batch_items + 1)) for plan in solved)
    drawn_powers = tuple(
        rng.uniform(0.0, 1.2) * c.uplink_power_max_w if assignment.is_transmitting(n) else 0.0
        for n, c in enumerate(cfg.clusters)
    )
    for decision in (
        SchedulingDecision(plans=solved, assignment=assignment, powers_w=powers),
        SchedulingDecision(plans=drawn, assignment=assignment, powers_w=drawn_powers),
    ):
        record("validate_decision", _outcome(validate_decision, decision, cfg, env))


def _digests() -> dict:
    out = {}
    for index, name in enumerate(SUB_BATTERIES):
        rng = Generator([19, index])
        hashes = {fn: hashlib.sha256() for fn in FUNCTIONS}

        def record(fn, result):
            hashes[fn].update((repr(result) + "\n").encode())

        for cfg, env, v in _systems(name, rng):
            _system_calls(cfg, env, v, rng, record)
        out.update({f"{fn}/{name}": h.hexdigest() for fn, h in hashes.items()})
    return out


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def _changed(want: dict, got: dict) -> list[str]:
    """Keys whose digest differs, or that only one of the two has, sorted."""
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def test_solver_digests_match_the_fixture():
    want = _load_fixture()
    got = _digests()
    changed = _changed(want, got)
    assert not changed, f"{len(changed)} of {len(want)} solver digests changed: {changed}"


if __name__ == "__main__":
    old = _load_fixture() if os.path.exists(FIXTURE) else {}
    new = _digests()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = _changed(old, new)
    print(f"{len(changed)} of {len(new)} digests changed")
    for key in changed:
        print(f"  {key}")
