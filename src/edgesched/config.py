"""Domain types, config ingestion/validation, and per-round environment sampling.

Units are fixed package-wide: data sizes in bits, rates in bits/s, bandwidth in
Hz, power in W, energy in J, delays in seconds, memory in bytes, channel gains
as linear power gains (configs give dB), noise density in W/Hz. Device compute
speed is the product ``flops_per_cycle * clock_hz`` in FLOPs/s; the product is
the contract, the two factors are reported separately only for configuration.
Each round's speeds and D2D hop times are computed once, in
``sample_round_environment``. What does not change between rounds is taken
from the config: the layout of the round's draws, and the D2D gains and hop
times of a cluster whose D2D channel is fixed (both its intervals
degenerate), each computed on a config's first draw.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comm import device_d2d_delay
from .errors import ConfigError, StalledLinkError

SEED_ENV_VAR = "EDGESCHED_SEED"

SCHEMA_VERSION = 1


def check_seed(seed: object, name: str) -> int:
    """The one seed rule, for the config file and every override: an integer >= 0."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(name, f"must be an integer >= 0, got {seed!r}")
    return seed


def check_control_factor(v: float, name: str) -> float:
    """The one V rule, for the config file and the sweep grid: finite and > 0."""
    if not (v > 0 and math.isfinite(v)):
        raise ConfigError(name, f"V must be finite and > 0, got {v!r}")
    return v


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    """Inverse of :func:`db_to_linear`."""
    return 10.0 * math.log10(value)


def dbm_per_hz_to_w_per_hz(dbm: float) -> float:
    """Convert a noise density in dBm/Hz to W/Hz."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) means a point value."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 1e-12) -> bool:
        span = max(abs(self.lo), abs(self.hi), 1.0)
        return self.lo - tol * span <= x <= self.hi + tol * span


@dataclass(frozen=True)
class ModelSpec:
    """Static description of the partitioned encoder workload.

    ``fwd_flops`` is the forward cost per encoder block per batch item;
    ``bwd_flops`` is the backward cost per encoder block per chunk (it does not
    scale with the micro-batch size). Payload sizes are per segment hop
    (activations forward, gradients backward) and per encoder upload.
    """

    n_blocks: int  # encoder blocks available for partitioning (L)
    fwd_flops: float  # o_fwd, FLOPs per block per item
    bwd_flops: float  # o_bwd, FLOPs per block per chunk
    act_seg_bits: float  # z_seg, activation payload per intra-cluster hop
    grad_seg_bits: float  # g_seg, gradient payload per intra-cluster hop
    act_enc_bits: float  # z_enc, encoder-output payload in the uplink
    enc_param_bits: float  # theta_enc, encoder parameter payload in the uplink
    batch_items: int  # b, global batch size

    @property
    def hop_payload_bits(self) -> float:
        """Bits moved per device-to-device hop (activations + gradients)."""
        return self.act_seg_bits + self.grad_seg_bits

    @property
    def uplink_payload_bits(self) -> float:
        """Bits moved per encoder upload (output activations + parameters)."""
        return self.act_enc_bits + self.enc_param_bits


@dataclass(frozen=True)
class DeviceProfile:
    """A worker device inside a cluster."""

    flops_per_cycle: float  # phi_k
    clock_range_hz: Interval  # f_k realization range
    d2d_power_w: float  # p_k, fixed transmit power for intra-cluster hops
    d2d_power_max_w: float  # P_k^max
    mem_budget_bytes: float  # gamma_k^max
    mem_per_block_bytes: float  # gamma_0
    energy_budget_j: float  # E_k^max per round
    kappa: float  # switched-capacitance scale: E_compute = kappa * cycles * f^2

    @cached_property
    def block_cap(self) -> int:
        """Most encoder blocks the memory budget can hold, at most ``MAX_BLOCKS``."""
        return int(min(self.mem_budget_bytes // self.mem_per_block_bytes, MAX_BLOCKS))


@dataclass(frozen=True)
class ClusterProfile:
    """A cluster: its devices plus the head's uplink and the D2D channel."""

    devices: tuple[DeviceProfile, ...]
    uplink_power_max_w: float  # P_n^max, head transmit power bound
    uplink_energy_budget_j: float  # E_n^max per round
    uplink_bandwidth_hz: float  # B_n^U
    d2d_bandwidth_hz: float  # B^dd
    uplink_gain_db: Interval  # h_n realization range, dB
    d2d_gain_db: Interval  # h_dd realization range, dB
    uplink_interference_w: Interval  # I_i realization range
    d2d_interference_w: Interval  # I_dd realization range

    @property
    def n_devices(self) -> int:
        return len(self.devices)


@dataclass(frozen=True)
class ConvergenceParams:
    """Constants of the contraction/bound model and the scheduler weight."""

    beta: float  # smoothness constant
    eta: float  # learning rate
    xi: float  # PL-inequality constant
    phi_bound: float  # gradient-norm bound
    c_interference: float  # numerator constant of the interference error
    gamma_max: float  # per-round balance-bound cap
    v_factor: float  # drift-vs-penalty control weight V
    f0_gap: float = 1.0  # initial optimality gap used by the running bound


@dataclass(frozen=True)
class SystemConfig:
    """Full static description of the system; immutable and share-safe."""

    clusters: tuple[ClusterProfile, ...]
    n_channels: int  # J
    model: ModelSpec
    noise_density_w_per_hz: float  # N_0
    convergence: ConvergenceParams
    rng_seed: int
    loss_proxy_scale: float = 1.0  # baseline loss proxy: a * exp(-t/tau0) * (1+noise)
    loss_proxy_tau0: float = 50.0
    loss_proxy_noise: float = 0.1

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def _draw_layout(self) -> tuple[tuple[float, ...], tuple[tuple[int, float, float], ...]]:
        """A round's intervals in draw order: each one's lower end, and the
        (position, lo, hi - lo) of each non-degenerate one, which takes a draw."""
        intervals = []
        for cl in self.clusters:
            intervals += [cl.uplink_gain_db, cl.uplink_interference_w, cl.d2d_interference_w]
            for dev in cl.devices:
                intervals += [dev.clock_range_hz, cl.d2d_gain_db]
        drawn = tuple((i, iv.lo, iv.hi - iv.lo) for i, iv in enumerate(intervals) if iv.lo != iv.hi)
        return tuple(iv.lo for iv in intervals), drawn

    @cached_property
    def _fixed_d2d(self) -> tuple[tuple[tuple[float, ...], tuple[float, ...]] | None, ...]:
        """Per cluster whose D2D gain and interference are both degenerate, its
        devices' linear D2D gains and hop times, the same in every round; None
        for the others. A fixed link whose hop raises StalledLinkError is None
        too, so that every round raises the error again in cluster order."""
        fixed = []
        for n, cl in enumerate(self.clusters):
            gain_db, intf = cl.d2d_gain_db, cl.d2d_interference_w
            entry = None
            if gain_db.lo == gain_db.hi and intf.lo == intf.hi:
                gain = db_to_linear(gain_db.lo)
                try:
                    hops = tuple(device_d2d_delay(self, n, k, gain, intf.lo) for k in range(cl.n_devices))
                    entry = ((gain,) * cl.n_devices, hops)
                except StalledLinkError:
                    pass
            fixed.append(entry)
        return tuple(fixed)


@dataclass(frozen=True)
class RoundEnvironment:
    """One round's draws and the per-device figures derived from them.

    A pure function of (config, t). ``speed`` and ``hop_s`` are computed once
    here from the config and the draws, and every solver and evaluator reads
    them instead of re-deriving them. Indices: per-cluster sequences follow
    config order; per-device sequences are nested per cluster.
    """

    round_index: int
    uplink_gain: tuple[float, ...]  # linear, per cluster
    uplink_interference_w: tuple[float, ...]  # per cluster
    d2d_interference_w: tuple[float, ...]  # per cluster
    clock_hz: tuple[tuple[float, ...], ...]  # per cluster, per device
    d2d_gain: tuple[tuple[float, ...], ...]  # linear, per cluster, per device
    speed: tuple[tuple[float, ...], ...]  # FLOPs/s, flops_per_cycle * clock, per cluster, per device
    hop_s: tuple[tuple[float, ...], ...]  # D2D hop time at the configured power, per cluster, per device


def sample_round_environment(cfg: SystemConfig, t: int) -> RoundEnvironment:
    """Draw the round-t realization. Deterministic in (cfg, t).

    Gains are drawn uniformly on their configured dB intervals and converted to
    linear; clocks and interference are drawn uniformly on their W/Hz intervals.
    The draw order (clusters in config order; per cluster: uplink gain, uplink
    interference, d2d interference, then per device: clock, d2d gain) is part of
    the determinism contract. A degenerate interval (lo == hi) is its point
    value and takes no draw; the k others take the k values of one
    ``rng.random(k)`` call, in that order, each scaled as numpy's
    ``uniform(lo, hi)`` scales its draw, lo + (hi - lo) * u. Each device's speed
    and hop time are then derived from its draws; a D2D link with zero rate
    raises StalledLinkError. A cluster whose D2D channel is fixed takes its
    gains and hop times from the config, where they are computed once.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    rng = np.random.default_rng([cfg.rng_seed, t])
    points, drawn = cfg._draw_layout
    values = list(points)
    for (i, lo, span), u in zip(drawn, rng.random(len(drawn)).tolist()):
        values[i] = lo + span * u
    up_gain = []
    up_intf = []
    dd_intf = []
    clocks = []
    dd_gain = []
    speeds = []
    hops = []
    at = 0  # a cluster's values: uplink gain, the two interferences, then (clock, d2d gain) per device
    for n, (cl, fixed) in enumerate(zip(cfg.clusters, cfg._fixed_d2d)):
        end = at + 3 + 2 * cl.n_devices
        up_gain.append(db_to_linear(values[at]))
        up_intf.append(values[at + 1])
        dd_intf.append(values[at + 2])
        cl_clocks = tuple(values[at + 3 : end : 2])
        if fixed is None:
            cl_gain = tuple(db_to_linear(g) for g in values[at + 4 : end : 2])
            cl_hops = tuple(device_d2d_delay(cfg, n, k, g, dd_intf[n]) for k, g in enumerate(cl_gain))
        else:
            cl_gain, cl_hops = fixed
        clocks.append(cl_clocks)
        dd_gain.append(cl_gain)
        speeds.append(tuple(dev.flops_per_cycle * f for dev, f in zip(cl.devices, cl_clocks)))
        hops.append(cl_hops)
        at = end
    return RoundEnvironment(
        round_index=t,
        uplink_gain=tuple(up_gain),
        uplink_interference_w=tuple(up_intf),
        d2d_interference_w=tuple(dd_intf),
        clock_hz=tuple(clocks),
        d2d_gain=tuple(dd_gain),
        speed=tuple(speeds),
        hop_s=tuple(hops),
    )


# ---------------------------------------------------------------------------
# Config file ingestion
# ---------------------------------------------------------------------------

_MODEL_DEFAULTS = {
    "L": 6,
    "o_fwd_flops": 2e6,
    "o_bwd_flops": 2e6,
    "z_seg_bits": 3.5e4,
    "g_seg_bits": 3.5e4,
    "z_enc_bits": 5e5,
    "theta_enc_bits": 5e5,
    "b": 64,
}

_DEVICE_DEFAULTS = {
    "phi_flops_per_cycle": 16.0,
    "f_hz": [1e8, 8e8],
    "p_dd_w": 0.085,
    "P_k_max_w": 0.18,
    "gamma_max_bytes": 1.5e9,
    "gamma0_bytes": 2.5e8,  # 0.25 GB per encoder block
    "E_k_max_j": 5.0,
    "kappa": 1e-27,
}

_CLUSTER_DEFAULTS = {
    "P_n_max_w": 0.5,
    "E_n_max_j": 10.0,
    "B_up_hz": 5e5,
    "B_dd_hz": 5e5,
    "h_up_db": [-0.12, -0.08],
    "h_dd_db": -30.0,
    "I_up_w": [0.06, 0.08],
    "I_dd_w": 5e-10,
}

_CONVERGENCE_DEFAULTS = {
    "beta": 1.0,
    "eta": 0.01,
    "xi": 1.0,
    "phi": 1.0,
    # "C" defaults to 0.1 * phi^2 * mean_n(P_n^max * mean-gain + mean-interference)
    "gamma_max_bound": 1.0,
    "V": 10.0,
    "F0_gap": 1.0,
}


def _finite(value, where: str) -> float:
    """The one rule for a config number: an int or float, neither NaN nor infinite."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(where, f"must be finite, got {value!r}")
    return number


def _as_interval(value, where: str) -> Interval:
    if isinstance(value, (int, float)):
        point = _finite(value, where)
        return Interval(point, point)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        lo, hi = _finite(value[0], where), _finite(value[1], where)
        if lo > hi:
            raise ConfigError(where, f"interval lower bound {lo} exceeds upper bound {hi}")
        if not math.isfinite(hi - lo):  # a draw is lo + (hi - lo) * u
            raise ConfigError(where, f"must be finite in width, got [{lo}, {hi}]")
        return Interval(lo, hi)
    raise ConfigError(where, "expected a number or a [lo, hi] pair")


def _from_db(convert, db: float, where: str) -> float:
    """``convert(db)``, a config error where the linear value overflows."""
    try:
        return convert(db)
    except OverflowError:
        raise ConfigError(where, f"must be finite as a linear value, got {db} dB")


def _num(raw: dict, key: str, where: str, defaults: dict | None = None) -> float:
    if key in raw:
        value = raw[key]
    elif defaults is not None and key in defaults:
        value = defaults[key]
    else:
        raise ConfigError(f"{where}.{key}", "required field is missing")
    return _finite(value, f"{where}.{key}")


def _require_positive(value: float, where: str) -> float:
    if not value > 0:
        raise ConfigError(where, f"must be > 0, got {value}")
    return value


def _require_nonnegative_interval(iv: Interval, where: str) -> Interval:
    if iv.lo < 0:
        raise ConfigError(where, f"must be >= 0, got lower bound {iv.lo}")
    return iv


def _parse_device(raw: dict, where: str) -> DeviceProfile:
    phi = _require_positive(_num(raw, "phi_flops_per_cycle", where, _DEVICE_DEFAULTS), f"{where}.phi_flops_per_cycle")
    clock = _as_interval(raw.get("f_hz", _DEVICE_DEFAULTS["f_hz"]), f"{where}.f_hz")
    _require_positive(clock.lo, f"{where}.f_hz")
    p_dd = _require_positive(_num(raw, "p_dd_w", where, _DEVICE_DEFAULTS), f"{where}.p_dd_w")
    p_max = _require_positive(_num(raw, "P_k_max_w", where, _DEVICE_DEFAULTS), f"{where}.P_k_max_w")
    if p_dd > p_max:
        raise ConfigError(f"{where}.p_dd_w", f"d2d power {p_dd} exceeds P_k_max {p_max}")
    mem = _require_positive(_num(raw, "gamma_max_bytes", where, _DEVICE_DEFAULTS), f"{where}.gamma_max_bytes")
    mem0 = _require_positive(_num(raw, "gamma0_bytes", where, _DEVICE_DEFAULTS), f"{where}.gamma0_bytes")
    if mem0 > mem:
        raise ConfigError(
            f"{where}.gamma0_bytes",
            f"per-block memory {mem0} exceeds the device budget {mem} (C7 unsatisfiable)",
        )
    energy = _require_positive(_num(raw, "E_k_max_j", where, _DEVICE_DEFAULTS), f"{where}.E_k_max_j")
    kappa = _require_positive(_num(raw, "kappa", where, _DEVICE_DEFAULTS), f"{where}.kappa")
    return DeviceProfile(
        flops_per_cycle=phi,
        clock_range_hz=clock,
        d2d_power_w=p_dd,
        d2d_power_max_w=p_max,
        mem_budget_bytes=mem,
        mem_per_block_bytes=mem0,
        energy_budget_j=energy,
        kappa=kappa,
    )


def _parse_cluster(raw: dict, where: str) -> ClusterProfile:
    devices_raw = raw.get("devices")
    if not isinstance(devices_raw, list) or not devices_raw:
        raise ConfigError(f"{where}.devices", "at least one device is required")
    devices = tuple(
        _parse_device(d if isinstance(d, dict) else _bad(f"{where}.devices[{i}]"), f"{where}.devices[{i}]")
        for i, d in enumerate(devices_raw)
    )
    p_max = _require_positive(_num(raw, "P_n_max_w", where, _CLUSTER_DEFAULTS), f"{where}.P_n_max_w")
    e_max = _require_positive(_num(raw, "E_n_max_j", where, _CLUSTER_DEFAULTS), f"{where}.E_n_max_j")
    b_up = _require_positive(_num(raw, "B_up_hz", where, _CLUSTER_DEFAULTS), f"{where}.B_up_hz")
    b_dd = _require_positive(_num(raw, "B_dd_hz", where, _CLUSTER_DEFAULTS), f"{where}.B_dd_hz")
    h_up = _as_interval(raw.get("h_up_db", _CLUSTER_DEFAULTS["h_up_db"]), f"{where}.h_up_db")
    h_dd = _as_interval(raw.get("h_dd_db", _CLUSTER_DEFAULTS["h_dd_db"]), f"{where}.h_dd_db")
    for gain_db, key in ((h_up, "h_up_db"), (h_dd, "h_dd_db")):
        _from_db(db_to_linear, gain_db.hi, f"{where}.{key}")
    i_up = _require_nonnegative_interval(
        _as_interval(raw.get("I_up_w", _CLUSTER_DEFAULTS["I_up_w"]), f"{where}.I_up_w"), f"{where}.I_up_w"
    )
    i_dd = _require_nonnegative_interval(
        _as_interval(raw.get("I_dd_w", _CLUSTER_DEFAULTS["I_dd_w"]), f"{where}.I_dd_w"), f"{where}.I_dd_w"
    )
    return ClusterProfile(
        devices=devices,
        uplink_power_max_w=p_max,
        uplink_energy_budget_j=e_max,
        uplink_bandwidth_hz=b_up,
        d2d_bandwidth_hz=b_dd,
        uplink_gain_db=h_up,
        d2d_gain_db=h_dd,
        uplink_interference_w=i_up,
        d2d_interference_w=i_dd,
    )


def _bad(where: str):
    raise ConfigError(where, "expected an object")


# Upper limits on model.L and model.b. A round's segment solve scans O(K*L)
# bottleneck candidates at each of about 2*sqrt(b) micro-batch run starts;
# far larger values, which int() still converts exactly (1e308 does), would
# stall the first round instead of failing.
MAX_BLOCKS = 1024
MAX_BATCH_ITEMS = 65536


def _parse_model(raw: dict) -> ModelSpec:
    where = "model"
    n_blocks = _num(raw, "L", where, _MODEL_DEFAULTS)
    if not 1 <= n_blocks <= MAX_BLOCKS or n_blocks != int(n_blocks):
        raise ConfigError(f"{where}.L", f"must be an integer in [1, {MAX_BLOCKS}], got {n_blocks:g}")
    batch = _num(raw, "b", where, _MODEL_DEFAULTS)
    if not 1 <= batch <= MAX_BATCH_ITEMS or batch != int(batch):
        raise ConfigError(f"{where}.b", f"must be an integer in [1, {MAX_BATCH_ITEMS}], got {batch:g}")
    sizes = {}
    for key in ("o_fwd_flops", "o_bwd_flops", "z_seg_bits", "g_seg_bits", "z_enc_bits", "theta_enc_bits"):
        sizes[key] = _require_positive(_num(raw, key, where, _MODEL_DEFAULTS), f"{where}.{key}")
    return ModelSpec(
        n_blocks=int(n_blocks),
        fwd_flops=sizes["o_fwd_flops"],
        bwd_flops=sizes["o_bwd_flops"],
        act_seg_bits=sizes["z_seg_bits"],
        grad_seg_bits=sizes["g_seg_bits"],
        act_enc_bits=sizes["z_enc_bits"],
        enc_param_bits=sizes["theta_enc_bits"],
        batch_items=int(batch),
    )


def _default_c_interference(clusters: tuple[ClusterProfile, ...], phi_bound: float) -> float:
    # epsilon(P_max) ~= 0.1 * phi^2 at the mean gain/interference operating point
    acc = 0.0
    for cl in clusters:
        mean_gain = db_to_linear(cl.uplink_gain_db.mid)
        acc += cl.uplink_power_max_w * mean_gain + cl.uplink_interference_w.mid
    return 0.1 * phi_bound**2 * acc / len(clusters)


def _parse_convergence(raw: dict, clusters: tuple[ClusterProfile, ...]) -> ConvergenceParams:
    where = "convergence"
    beta = _require_positive(_num(raw, "beta", where, _CONVERGENCE_DEFAULTS), f"{where}.beta")
    eta = _require_positive(_num(raw, "eta", where, _CONVERGENCE_DEFAULTS), f"{where}.eta")
    xi = _require_positive(_num(raw, "xi", where, _CONVERGENCE_DEFAULTS), f"{where}.xi")
    phi = _require_positive(_num(raw, "phi", where, _CONVERGENCE_DEFAULTS), f"{where}.phi")
    if "C" in raw:
        c = _require_positive(_num(raw, "C", where), f"{where}.C")
    else:
        c = _default_c_interference(clusters, phi)
    gamma_max = _require_positive(
        _num(raw, "gamma_max_bound", where, _CONVERGENCE_DEFAULTS), f"{where}.gamma_max_bound"
    )
    v = check_control_factor(_num(raw, "V", where, _CONVERGENCE_DEFAULTS), f"{where}.V")
    f0 = _require_positive(_num(raw, "F0_gap", where, _CONVERGENCE_DEFAULTS), f"{where}.F0_gap")
    return ConvergenceParams(
        beta=beta, eta=eta, xi=xi, phi_bound=phi, c_interference=c, gamma_max=gamma_max, v_factor=v, f0_gap=f0
    )


def build_config(doc: dict) -> SystemConfig:
    """Build and validate a :class:`SystemConfig` from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "top-level document must be an object")
    clusters_raw = doc.get("clusters")
    if not isinstance(clusters_raw, list) or not clusters_raw:
        raise ConfigError("clusters", "at least one cluster is required")
    clusters = tuple(
        _parse_cluster(c if isinstance(c, dict) else _bad(f"clusters[{i}]"), f"clusters[{i}]")
        for i, c in enumerate(clusters_raw)
    )

    if "J" in doc:
        j = _num(doc, "J", "<root>")
        if j < 1 or j != int(j):
            raise ConfigError("J", f"must be an integer >= 1, got {j}")
        n_channels = int(j)
    else:
        n_channels = len(clusters)

    model = _parse_model(doc.get("model", {}) if isinstance(doc.get("model", {}), dict) else _bad("model"))

    if "N0_w_per_hz" in doc:
        n0 = _require_positive(_num(doc, "N0_w_per_hz", "<root>"), "N0_w_per_hz")
    elif "N0_dbm_per_hz" in doc:
        n0 = _from_db(dbm_per_hz_to_w_per_hz, _num(doc, "N0_dbm_per_hz", "<root>"), "N0_dbm_per_hz")
        _require_positive(n0, "N0_dbm_per_hz")  # below about -3205 dBm/Hz it underflows to 0 W/Hz
    else:
        n0 = dbm_per_hz_to_w_per_hz(-174.0)

    conv_raw = doc.get("convergence", {})
    if not isinstance(conv_raw, dict):
        _bad("convergence")
    convergence = _parse_convergence(conv_raw, clusters)

    seed = check_seed(doc.get("rng_seed", 0), "rng_seed")
    seed_raw = os.environ.get(SEED_ENV_VAR)
    if seed_raw is not None:
        try:
            seed = int(seed_raw)
        except ValueError:
            raise ConfigError(SEED_ENV_VAR, f"environment override must be an integer, got {seed_raw!r}")
        check_seed(seed, SEED_ENV_VAR)

    proxy = doc.get("loss_proxy", {})
    if not isinstance(proxy, dict):
        _bad("loss_proxy")

    cfg = SystemConfig(
        clusters=clusters,
        n_channels=n_channels,
        model=model,
        noise_density_w_per_hz=n0,
        convergence=convergence,
        rng_seed=seed,
        loss_proxy_scale=_num(proxy, "scale", "loss_proxy", {"scale": 1.0}),
        loss_proxy_tau0=_require_positive(_num(proxy, "tau0", "loss_proxy", {"tau0": 50.0}), "loss_proxy.tau0"),
        loss_proxy_noise=_num(proxy, "noise", "loss_proxy", {"noise": 0.1}),
    )
    return cfg


def load_config(path: str) -> SystemConfig:
    """Load, default-fill, and validate a JSON system config.

    The ``EDGESCHED_SEED`` environment variable overrides ``rng_seed``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
    return build_config(doc)
