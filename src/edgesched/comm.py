"""Closed-form wireless link quantities: uplink rate/delay/energy and D2D hops.

All functions are pure; the per-round realized gains stand in for channel
expectations, so the optimizer and the evaluator always see the same channel.
Downlink is assumed free (ample base-station bandwidth) and has no model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import StalledLinkError

if TYPE_CHECKING:  # config imports this module to fill in each round's hop times
    from .config import ClusterProfile, ModelSpec, RoundEnvironment, SystemConfig

#: Sentinel delay for a cluster that skips the upload this round.
NOT_TRANSMITTING = math.inf


@dataclass(frozen=True)
class LinkBudget:
    """Inputs of the Shannon-rate computation for one link."""

    bandwidth_hz: float
    tx_power_w: float
    gain: float  # linear power gain
    interference_w: float
    noise_density_w_per_hz: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz}")
        if self.tx_power_w < 0:
            raise ValueError(f"tx power must be >= 0, got {self.tx_power_w}")
        if self.gain <= 0:
            raise ValueError(f"gain must be > 0, got {self.gain}")
        if self.interference_w < 0:
            raise ValueError(f"interference must be >= 0, got {self.interference_w}")


@dataclass(frozen=True)
class ChannelAssignment:
    """Binary cluster-to-channel matching; ``None`` marks a virtual channel.

    Structural rules: entries are 0/1, each channel serves at most one cluster,
    and each transmitting cluster sits on exactly one real channel. Clusters on
    a virtual channel do not transmit this round.
    """

    n_channels: int
    assigned: tuple[int | None, ...]  # per cluster: real channel index or None

    def __post_init__(self):
        taken: set[int] = set()
        for n, j in enumerate(self.assigned):
            if j is None:
                continue
            if not 0 <= j < self.n_channels:
                raise ValueError(f"cluster {n} assigned to nonexistent channel {j}")
            if j in taken:
                raise ValueError(f"channel {j} assigned to more than one cluster")
            taken.add(j)

    @property
    def n_clusters(self) -> int:
        return len(self.assigned)

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix, clusters x channels."""
        m = np.zeros((self.n_clusters, self.n_channels), dtype=np.int8)
        for n, j in enumerate(self.assigned):
            if j is not None:
                m[n, j] = 1
        return m

    def is_transmitting(self, n: int) -> bool:
        return self.assigned[n] is not None


def uplink_rate(link: LinkBudget) -> float:
    """Shannon rate B*log2(1 + p*h / (I + B*N0)) in bits/s. Zero power -> 0."""
    denom = link.interference_w + link.bandwidth_hz * link.noise_density_w_per_hz
    sinr = link.tx_power_w * link.gain / denom
    return link.bandwidth_hz * math.log2(1.0 + sinr)


def cluster_uplink_rate(cluster: ClusterProfile, env: RoundEnvironment, n: int, power_w: float, n0: float) -> float:
    """Uplink rate of cluster n's head at the given power, this round."""
    link = LinkBudget(
        bandwidth_hz=cluster.uplink_bandwidth_hz,
        tx_power_w=power_w,
        gain=env.uplink_gain[n],
        interference_w=env.uplink_interference_w[n],
        noise_density_w_per_hz=n0,
    )
    return uplink_rate(link)


def uplink_delay(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    assignment: ChannelAssignment,
    power_w: float,
) -> float:
    """Upload time of (encoder output + parameters), or NOT_TRANSMITTING.

    Raises StalledLinkError when the cluster holds a channel but its rate is
    zero with a nonzero payload.
    """
    if not assignment.is_transmitting(n):
        return NOT_TRANSMITTING
    payload = cfg.model.uplink_payload_bits
    rate = cluster_uplink_rate(cfg.clusters[n], env, n, power_w, cfg.noise_density_w_per_hz)
    if rate <= 0.0:
        if payload > 0:
            raise StalledLinkError(f"stalled uplink: cluster {n} has zero rate with {payload} bits pending")
        return 0.0
    return payload / rate


def cu_transmit_energy(
    cfg: SystemConfig,
    env: RoundEnvironment,
    n: int,
    assignment: ChannelAssignment,
    power_w: float,
) -> float:
    """Upload energy p * theta_enc / rate. Counts parameters only, not activations."""
    if not assignment.is_transmitting(n) or power_w == 0.0:
        return 0.0
    rate = cluster_uplink_rate(cfg.clusters[n], env, n, power_w, cfg.noise_density_w_per_hz)
    if rate <= 0.0:
        raise StalledLinkError(f"stalled uplink: cluster {n} has zero rate at power {power_w}")
    return power_w * cfg.model.enc_param_bits / rate


def d2d_rate(bandwidth_hz: float, power_w: float, gain: float, interference_w: float, n0: float) -> float:
    """Intra-cluster hop rate in bits/s."""
    return uplink_rate(
        LinkBudget(
            bandwidth_hz=bandwidth_hz,
            tx_power_w=power_w,
            gain=gain,
            interference_w=interference_w,
            noise_density_w_per_hz=n0,
        )
    )


def d2d_delay(
    model: ModelSpec,
    bandwidth_hz: float,
    power_w: float,
    gain: float,
    interference_w: float,
    n0: float,
) -> float:
    """Hop time of (activations + gradients) between pipeline neighbours.

    Raises StalledLinkError when the power is zero or the rate underflows to
    zero.
    """
    if power_w <= 0.0:
        raise StalledLinkError("dead link: d2d power is zero")
    rate = d2d_rate(bandwidth_hz, power_w, gain, interference_w, n0)
    if rate <= 0.0:
        raise StalledLinkError(f"stalled d2d link: zero rate at gain {gain} and power {power_w}")
    return model.hop_payload_bits / rate


def device_d2d_delay(cfg: SystemConfig, n: int, k: int, gain: float, interference_w: float) -> float:
    """Hop time for device k of cluster n at its configured d2d power, given the drawn channel."""
    cl = cfg.clusters[n]
    return d2d_delay(
        cfg.model, cl.d2d_bandwidth_hz, cl.devices[k].d2d_power_w, gain, interference_w, cfg.noise_density_w_per_hz
    )
