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
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

from .comm import device_d2d_delay
from .errors import ConfigError, StalledLinkError
from .rng import draw


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
    loss_proxy_scale: float  # baseline loss proxy: a * exp(-t/tau0) * (1+noise)
    loss_proxy_tau0: float
    loss_proxy_noise: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def _round_layout(self) -> tuple[tuple[float, ...], tuple[tuple[int, float, float], ...], tuple]:
        """What every round's draw shares, from one walk over the clusters: a
        round's intervals in draw order, each one's lower end and the (position,
        lo, hi - lo) of each non-degenerate one, which takes a draw; and per
        cluster whose D2D gain and interference are both degenerate, its devices'
        linear D2D gains and hop times, the same in every round, None for the
        others. A fixed link whose hop raises StalledLinkError is None too, so
        that every round raises the error again in cluster order."""
        intervals = []
        fixed = []
        for n, cl in enumerate(self.clusters):
            gain_db, intf = cl.d2d_gain_db, cl.d2d_interference_w
            intervals += [cl.uplink_gain_db, cl.uplink_interference_w, intf]
            for dev in cl.devices:
                intervals += [dev.clock_range_hz, gain_db]
            entry = None
            if gain_db.lo == gain_db.hi and intf.lo == intf.hi:
                gain = db_to_linear(gain_db.lo)
                with suppress(StalledLinkError):
                    hops = tuple(device_d2d_delay(self, n, k, gain, intf.lo) for k in range(cl.n_devices))
                    entry = ((gain,) * cl.n_devices, hops)
            fixed.append(entry)
        drawn = tuple((i, iv.lo, iv.hi - iv.lo) for i, iv in enumerate(intervals) if iv.lo != iv.hi)
        return tuple(iv.lo for iv in intervals), drawn, tuple(fixed)

    @cached_property
    def solver_table(self):
        """The solvers' config-only inputs (``seg_solver.SolverTable``), built on the first solve."""
        from .seg_solver import SolverTable  # here: seg_solver imports this module
        return SolverTable(self)


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
    value and takes no draw; the k others take, in that order, the k doubles
    ``rng.draw([rng_seed, t], k)`` returns (numpy's
    ``default_rng([rng_seed, t]).random(k)``, bit for bit, without numpy), each
    scaled as numpy's ``uniform(lo, hi)`` scales its draw, lo + (hi - lo) * u.
    Each device's speed and hop time are then derived from its draws; a D2D
    link with zero rate raises StalledLinkError. A cluster whose D2D channel is
    fixed takes its gains and hop times from the config, where they are
    computed once.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    points, drawn, fixed_d2d = cfg._round_layout
    values = list(points)
    for (i, lo, span), u in zip(drawn, draw([cfg.rng_seed, t], len(drawn))):
        values[i] = lo + span * u
    rows = []  # one per cluster, in RoundEnvironment's field order after round_index
    at = 0  # a cluster's values: uplink gain, the two interferences, then (clock, d2d gain) per device
    for n, (cl, fixed) in enumerate(zip(cfg.clusters, fixed_d2d)):
        end = at + 3 + 2 * cl.n_devices
        up_gain, up_intf, dd_intf = values[at : at + 3]
        clocks = tuple(values[at + 3 : end : 2])
        if fixed is None:
            gains = tuple(db_to_linear(g) for g in values[at + 4 : end : 2])
            hops = tuple(device_d2d_delay(cfg, n, k, g, dd_intf) for k, g in enumerate(gains))
        else:
            gains, hops = fixed
        speeds = tuple(dev.flops_per_cycle * f for dev, f in zip(cl.devices, clocks))
        rows.append((db_to_linear(up_gain), up_intf, dd_intf, clocks, gains, speeds, hops))
        at = end
    return RoundEnvironment(t, *zip(*rows))


# ---------------------------------------------------------------------------
# Config file ingestion
# ---------------------------------------------------------------------------

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


def _positive(value, where: str) -> float:
    number = _finite(value, where)
    if not number > 0:
        raise ConfigError(where, f"must be > 0, got {number}")
    return number


def _clock(value, where: str) -> Interval:
    clock = _as_interval(value, where)
    _positive(clock.lo, where)
    if not clock.hi * clock.hi < math.inf:  # compute_energy squares the clock
        raise ConfigError(where, f"must have a finite square, got upper bound {clock.hi}")
    return clock


def _gain_db(value, where: str) -> Interval:
    gain = _as_interval(value, where)
    _from_db(db_to_linear, gain.hi, where)
    return gain


def _interference(value, where: str) -> Interval:
    iv = _as_interval(value, where)
    if iv.lo < 0:
        raise ConfigError(where, f"must be >= 0, got lower bound {iv.lo}")
    return iv


def _count(limit: int):
    """The check of a size that must be an integer in [1, ``limit``]."""

    def check(value, where: str) -> int:
        n = _finite(value, where)
        if not 1 <= n <= limit or n != int(n):
            raise ConfigError(where, f"must be an integer in [1, {limit}], got {n:g}")
        return int(n)

    return check


# Upper limits on model.L and model.b. A round's segment solve scans O(K*L)
# bottleneck candidates at each of about 2*sqrt(b) micro-batch run starts;
# far larger values, which int() still converts exactly (1e308 does), would
# stall the first round instead of failing.
MAX_BLOCKS = 1024
MAX_BATCH_ITEMS = 65536

# One table per config section, one row per key: (dataclass field, JSON key,
# default, check). A row's check takes the key's value, or its default, and
# the key's dotted path, and returns the field's value or raises ConfigError.
_MODEL_FIELDS = (
    ("n_blocks", "L", 6, _count(MAX_BLOCKS)),
    ("fwd_flops", "o_fwd_flops", 2e6, _positive),
    ("bwd_flops", "o_bwd_flops", 2e6, _positive),
    ("act_seg_bits", "z_seg_bits", 3.5e4, _positive),
    ("grad_seg_bits", "g_seg_bits", 3.5e4, _positive),
    ("act_enc_bits", "z_enc_bits", 5e5, _positive),
    ("enc_param_bits", "theta_enc_bits", 5e5, _positive),
    ("batch_items", "b", 64, _count(MAX_BATCH_ITEMS)),
)

_DEVICE_FIELDS = (
    ("flops_per_cycle", "phi_flops_per_cycle", 16.0, _positive),
    ("clock_range_hz", "f_hz", (1e8, 8e8), _clock),
    ("d2d_power_w", "p_dd_w", 0.085, _positive),
    ("d2d_power_max_w", "P_k_max_w", 0.18, _positive),
    ("mem_budget_bytes", "gamma_max_bytes", 1.5e9, _positive),
    ("mem_per_block_bytes", "gamma0_bytes", 2.5e8, _positive),  # 0.25 GB per encoder block
    ("energy_budget_j", "E_k_max_j", 5.0, _positive),
    ("kappa", "kappa", 1e-27, _positive),
)

_CLUSTER_FIELDS = (
    ("uplink_power_max_w", "P_n_max_w", 0.5, _positive),
    ("uplink_energy_budget_j", "E_n_max_j", 10.0, _positive),
    ("uplink_bandwidth_hz", "B_up_hz", 5e5, _positive),
    ("d2d_bandwidth_hz", "B_dd_hz", 5e5, _positive),
    ("uplink_gain_db", "h_up_db", (-0.12, -0.08), _gain_db),
    ("d2d_gain_db", "h_dd_db", -30.0, _gain_db),
    ("uplink_interference_w", "I_up_w", (0.06, 0.08), _interference),
    ("d2d_interference_w", "I_dd_w", 5e-10, _interference),
)

_CONVERGENCE_FIELDS = (
    ("beta", "beta", 1.0, _positive),
    ("eta", "eta", 0.01, _positive),
    ("xi", "xi", 1.0, _positive),
    ("phi_bound", "phi", 1.0, _positive),
    # "C" defaults to 0.1 * phi^2 * mean_n(P_n^max * mean-gain + mean-interference)
    ("gamma_max", "gamma_max_bound", 1.0, _positive),
    ("v_factor", "V", 10.0, lambda v, where: check_control_factor(_finite(v, where), where)),
    ("f0_gap", "F0_gap", 1.0, _positive),
)

_LOSS_PROXY_FIELDS = (
    ("loss_proxy_scale", "scale", 1.0, _finite),
    ("loss_proxy_tau0", "tau0", 50.0, _positive),
    ("loss_proxy_noise", "noise", 0.1, _finite),
)


def _section(raw, where: str, fields: tuple) -> dict:
    """The dataclass keywords of the section ``raw`` at ``where``: each row's
    check applied to its key's value, or to its default where the key is absent."""
    if not isinstance(raw, dict):
        raise ConfigError(where, "expected an object")
    return {field: check(raw.get(key, default), f"{where}.{key}") for field, key, default, check in fields}


def _parse_device(raw, where: str) -> DeviceProfile:
    dev = DeviceProfile(**_section(raw, where, _DEVICE_FIELDS))
    if dev.d2d_power_w > dev.d2d_power_max_w:
        raise ConfigError(f"{where}.p_dd_w", f"d2d power {dev.d2d_power_w} exceeds P_k_max {dev.d2d_power_max_w}")
    if dev.mem_per_block_bytes > dev.mem_budget_bytes:
        raise ConfigError(
            f"{where}.gamma0_bytes",
            f"per-block memory {dev.mem_per_block_bytes} exceeds the device budget {dev.mem_budget_bytes} "
            "(C7 unsatisfiable)",
        )
    return dev


def _parse_cluster(raw, where: str) -> ClusterProfile:
    fields = _section(raw, where, _CLUSTER_FIELDS)
    devices_raw = raw.get("devices")
    if not isinstance(devices_raw, list) or not devices_raw:
        raise ConfigError(f"{where}.devices", "at least one device is required")
    devices = tuple(_parse_device(d, f"{where}.devices[{i}]") for i, d in enumerate(devices_raw))
    return ClusterProfile(devices=devices, **fields)


def _parse_convergence(raw, clusters: tuple[ClusterProfile, ...]) -> ConvergenceParams:
    where = "convergence"
    fields = _section(raw, where, _CONVERGENCE_FIELDS)
    beta, eta, phi = fields["beta"], fields["eta"], fields["phi_bound"]
    # the convergence bounds square eta and phi, and divide by eta**2, phi**2 and beta*eta**2
    for name, term in (("eta", eta * eta), ("phi", phi * phi), ("beta", beta * (eta * eta))):
        if not 0 < term < math.inf:
            raise ConfigError(
                f"{where}.{name}", f"eta**2, phi**2 and beta*eta**2 must be finite and > 0, got a term of {term}"
            )
    if "C" in raw:
        c = _positive(raw["C"], f"{where}.C")
    else:
        # epsilon(P_max) ~= 0.1 * phi^2 at the mean gain/interference operating point
        acc = 0.0
        for cl in clusters:
            mean_gain = db_to_linear(cl.uplink_gain_db.mid)
            acc += cl.uplink_power_max_w * mean_gain + cl.uplink_interference_w.mid
        c = _positive(0.1 * phi**2 * acc / len(clusters), f"{where}.C")
    return ConvergenceParams(c_interference=c, **fields)


def build_config(doc: dict) -> SystemConfig:
    """Build and validate a :class:`SystemConfig` from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "top-level document must be an object")
    clusters_raw = doc.get("clusters")
    if not isinstance(clusters_raw, list) or not clusters_raw:
        raise ConfigError("clusters", "at least one cluster is required")
    clusters = tuple(_parse_cluster(c, f"clusters[{i}]") for i, c in enumerate(clusters_raw))

    if "J" in doc:
        j = _finite(doc["J"], "J")
        if j < 1 or j != int(j):
            raise ConfigError("J", f"must be an integer >= 1, got {j}")
        n_channels = int(j)
    else:
        n_channels = len(clusters)

    model = ModelSpec(**_section(doc.get("model", {}), "model", _MODEL_FIELDS))

    if "N0_w_per_hz" in doc:
        n0 = _positive(doc["N0_w_per_hz"], "N0_w_per_hz")
    elif "N0_dbm_per_hz" in doc:
        n0 = _from_db(dbm_per_hz_to_w_per_hz, _finite(doc["N0_dbm_per_hz"], "N0_dbm_per_hz"), "N0_dbm_per_hz")
        _positive(n0, "N0_dbm_per_hz")  # below about -3205 dBm/Hz it underflows to 0 W/Hz
    else:
        n0 = dbm_per_hz_to_w_per_hz(-174.0)

    return SystemConfig(
        clusters=clusters,
        n_channels=n_channels,
        model=model,
        noise_density_w_per_hz=n0,
        convergence=_parse_convergence(doc.get("convergence", {}), clusters),
        rng_seed=check_seed(doc.get("rng_seed", 0), "rng_seed"),
        **_section(doc.get("loss_proxy", {}), "loss_proxy", _LOSS_PROXY_FIELDS),
    )


def load_config(path: str) -> SystemConfig:
    """Load, default-fill, and validate a JSON system config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
    return build_config(doc)
