"""Checks of a pass's outputs that re-derive every value without edgesched.

Inputs are the generated config document and the files a pass wrote:
``trace.jsonl`` and ``summary.csv`` per policy. The environment of round t is
drawn again here in the documented order, and delays, the balance bound and
the virtual queues are recomputed from the model's closed forms. The
generated documents give every field explicitly, so no package default is
needed.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9  # recomputed values: same formulas, possibly another operation order
EXACT_TOL = 1e-12  # values the trace itself determines (max, mean, queue step)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _interval(value) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return float(value), float(value)
    return float(value[0]), float(value[1])


def _draw(rng: np.random.Generator, value) -> float:
    lo, hi = _interval(value)
    return lo if lo == hi else float(rng.uniform(lo, hi))


def noise_density(doc: dict) -> float:
    return 1e-3 * 10.0 ** (doc["N0_dbm_per_hz"] / 10.0)


def draw_environment(doc: dict, t: int) -> dict:
    """Round-t draws: per cluster uplink gain, uplink and d2d interference,
    then per device clock and d2d gain; degenerate intervals draw nothing."""
    rng = np.random.default_rng([doc["rng_seed"], t])
    env = {"up_gain": [], "up_intf": [], "dd_intf": [], "clock": [], "dd_gain": []}
    for cl in doc["clusters"]:
        env["up_gain"].append(10.0 ** (_draw(rng, cl["h_up_db"]) / 10.0))
        env["up_intf"].append(_draw(rng, cl["I_up_w"]))
        env["dd_intf"].append(_draw(rng, cl["I_dd_w"]))
        clocks, gains = [], []
        for dev in cl["devices"]:
            clocks.append(_draw(rng, dev["f_hz"]))
            gains.append(10.0 ** (_draw(rng, cl["h_dd_db"]) / 10.0))
        env["clock"].append(clocks)
        env["dd_gain"].append(gains)
    return env


def stage_times(doc: dict, env: dict, n: int, delta: list[int], m: int) -> tuple[list[float], list[float]]:
    """Per-chunk compute time and hop time of each scheduled device, in order."""
    model, cl = doc["model"], doc["clusters"][n]
    n0 = noise_density(doc)
    b_hat = -(-model["b"] // m)
    work = b_hat * model["o_fwd_flops"] + model["o_bwd_flops"]
    times, hops = [], []
    for k, d in enumerate(delta):
        if d == 0:
            continue
        dev = cl["devices"][k]
        times.append(d * work / (dev["phi_flops_per_cycle"] * env["clock"][n][k]))
        sinr = dev["p_dd_w"] * env["dd_gain"][n][k] / (env["dd_intf"][n] + cl["B_dd_hz"] * n0)
        hops.append((model["z_seg_bits"] + model["g_seg_bits"]) / (cl["B_dd_hz"] * math.log2(1.0 + sinr)))
    return times, hops


def closed_form_latency(times: list[float], hops: list[float], m: int) -> float:
    """(S+m-1)*max(t+d) - d at the first bottleneck; one stage has no hop."""
    if len(times) == 1:
        return m * times[0]
    occupancy = [t + d for t, d in zip(times, hops)]
    j = occupancy.index(max(occupancy))
    return (len(times) + m - 1) * occupancy[j] - hops[j]


def uplink_delay(doc: dict, env: dict, n: int, power: float) -> float:
    model, cl = doc["model"], doc["clusters"][n]
    sinr = power * env["up_gain"][n] / (env["up_intf"][n] + cl["B_up_hz"] * noise_density(doc))
    return (model["z_enc_bits"] + model["theta_enc_bits"]) / (cl["B_up_hz"] * math.log2(1.0 + sinr))


def balance_bound(doc: dict, env: dict, segments: list[int], powers: list[float]) -> float:
    conv, n_clusters = doc["convergence"], len(doc["clusters"])
    eps = max(conv["C"] / (p * env["up_gain"][n] + env["up_intf"][n]) for n, p in enumerate(powers))
    phi2 = conv["phi"] ** 2
    s_max = max(segments)
    return conv["beta"] * conv["eta"] ** 2 / (2.0 * n_clusters) * (phi2 * s_max**2 / doc["model"]["L"] + eps + phi2)


def check_record(doc: dict, rec: dict, prev_queue: list[float]) -> list[str]:
    """Every violation found in one round record, given the queues before it."""
    errors: list[str] = []
    model, clusters = doc["model"], doc["clusters"]
    n_clusters = len(clusters)
    env = draw_environment(doc, rec["t"])
    channels = rec["channel"]
    taken = [j for j in channels if j is not None]
    if len(set(taken)) != len(taken) or any(not 0 <= j < doc["J"] for j in taken):
        errors.append(f"channels {channels} are not a matching onto {doc['J']} channels")
    totals = []
    for n, cl in enumerate(clusters):
        delta, m, s = rec["delta"][n], rec["m"][n], rec["S"][n]
        if len(delta) != len(cl["devices"]) or any(d < 0 for d in delta) or sum(delta) != model["L"]:
            errors.append(f"cluster {n}: delta {delta} does not conserve {model['L']} blocks")
            continue
        if s != sum(1 for d in delta if d > 0) or not 1 <= s <= len(cl["devices"]):
            errors.append(f"cluster {n}: S={s} does not match delta {delta} or exceeds K")
        if not 1 <= m <= model["b"]:
            errors.append(f"cluster {n}: m={m} outside [1, {model['b']}]")
        for k, d in enumerate(delta):
            dev = cl["devices"][k]
            if d * dev["gamma0_bytes"] > dev["gamma_max_bytes"] * (1 + EXACT_TOL):
                errors.append(f"cluster {n} device {k}: {d} blocks exceed memory")
        p = rec["p_cu_w"][n]
        if not 0.0 <= p <= cl["P_n_max_w"] * (1 + EXACT_TOL):
            errors.append(f"cluster {n}: power {p} outside [0, {cl['P_n_max_w']}]")
        pipe = closed_form_latency(*stage_times(doc, env, n, delta, m), m)
        if not _close(rec["tau_pipe_s"][n], pipe):
            errors.append(f"cluster {n}: tau_pipe {rec['tau_pipe_s'][n]} != recomputed {pipe}")
        up = rec["tau_up_s"][n]
        if channels[n] is None:
            if up is not None:
                errors.append(f"cluster {n}: off the air but has an upload delay")
            totals.append(rec["tau_pipe_s"][n])
        elif p <= 0.0 or up is None or not _close(up, uplink_delay(doc, env, n, p)):
            errors.append(f"cluster {n}: upload delay {up} at power {p} does not match its link")
            totals.append(math.inf)
        else:
            totals.append(rec["tau_pipe_s"][n] + up)
    if totals and not _close(rec["tau_round_s"], max(totals), EXACT_TOL):
        errors.append(f"tau {rec['tau_round_s']} != largest cluster delay {max(totals)}")
    if not errors:
        gamma = balance_bound(doc, env, rec["S"], rec["p_cu_w"])
        if not _close(rec["gamma_t"], gamma):
            errors.append(f"gamma_t {rec['gamma_t']} != recomputed {gamma}")
    cap = doc["convergence"]["gamma_max_bound"]
    expected_q = [max(y + rec["gamma_t"] - cap, 0.0) for y in prev_queue]
    if len(rec["queue_y"]) != n_clusters or any(
        abs(a - b) > EXACT_TOL * max(abs(b), cap) for a, b in zip(rec["queue_y"], expected_q)
    ):
        errors.append(f"queues {rec['queue_y']} do not follow Y <- max(Y + gamma - cap, 0)")
    return errors


def parse_summary(text: str) -> dict[str, str]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "metric,value":
        raise ValueError("summary.csv lacks its header")
    return dict(line.split(",", 1) for line in lines[1:])


def check_policy(doc: dict, policy: str, rounds: int, trace_text: str, summary_text: str):
    """Check one policy's files; returns (records, failed operations, messages).

    Each round with a violation, each round missing from the trace and a
    summary that disagrees with the trace count as one failed operation.
    """
    records = [json.loads(line) for line in trace_text.splitlines() if line.strip()]
    messages: list[str] = []
    rounds_seen = [r.get("t") for r in records]
    if rounds_seen != sorted(set(rounds_seen)) or not set(rounds_seen) <= set(range(1, rounds + 1)):
        return records, rounds, [f"{policy}: round indices {rounds_seen[:10]}... are not increasing in 1..{rounds}"]
    failed = rounds - len(records)
    if failed:
        messages.append(f"{policy}: {failed} of {rounds} rounds missing from the trace")
    queue = [0.0] * len(doc["clusters"])  # a skipped round leaves the queues as they were
    for rec in records:
        errors = check_record(doc, rec, queue)
        if errors:
            failed += 1
            messages.extend(f"{policy} t={rec['t']}: {e}" for e in errors)
        queue = rec["queue_y"]
    try:
        summary = parse_summary(summary_text)
        taus = [r["tau_round_s"] for r in records]
        gammas = [r["gamma_t"] for r in records]
        ok = (
            summary["policy"] == policy
            and int(summary["seed"]) == doc["rng_seed"]
            and int(summary["rounds"]) == len(records)
            and _close(float(summary["avg_tau_s"]), sum(taus) / len(taus), EXACT_TOL)
            and _close(float(summary["cum_tau_s"]), sum(taus), EXACT_TOL)
            and _close(float(summary["avg_gamma"]), sum(gammas) / len(gammas), EXACT_TOL)
        )
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        ok, messages = False, messages + [f"{policy}: unreadable summary ({exc})"]
    if not ok:
        failed += 1
        messages.append(f"{policy}: summary.csv disagrees with trace.jsonl")
    return records, failed, messages
