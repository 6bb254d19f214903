"""Closed-form wireless link quantities: uplink rate/delay/energy and D2D hops.

One link model serves the uplink, the D2D hops and the power solver:
``spectral_efficiency``, ``transfer_time`` and ``transfer_energy``. A cluster
head's uplink in one round is ``uplink(cfg, env, n)``, an ``Uplink``: the
power solver and the validator both price the upload with it.
All functions are pure; the per-round realized gains stand in for channel
expectations, so the optimizer and the evaluator always see the same channel.
Downlink is assumed free (ample base-station bandwidth) and has no model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import StalledLinkError

if TYPE_CHECKING:  # config imports this module to fill in each round's hop times
    import numpy as np

    from .config import ClusterProfile, ModelSpec, RoundEnvironment, SystemConfig

#: Sentinel delay for a cluster that skips the upload this round.
NOT_TRANSMITTING = math.inf


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
        """Dense 0/1 matrix, clusters x channels (a test tool; loads numpy)."""
        import numpy as np

        m = np.zeros((self.n_clusters, self.n_channels), dtype=np.int8)
        for n, j in enumerate(self.assigned):
            if j is not None:
                m[n, j] = 1
        return m

    def is_transmitting(self, n: int) -> bool:
        return self.assigned[n] is not None


def spectral_efficiency(power_w: float, gain: float, noise_floor_w: float) -> float:
    """Shannon efficiency log2(1 + p*h/(I + B*N0)) in bits/s/Hz. Zero power -> 0.

    ``noise_floor_w`` is the interference plus thermal noise I + B*N0.
    """
    return math.log2(1.0 + power_w * gain / noise_floor_w)


def transfer_time(bits: float, bandwidth_hz: float, efficiency: float) -> float:
    """Time bits/(B*f) to send ``bits`` at efficiency f; inf at a zero rate."""
    rate = bandwidth_hz * efficiency
    return math.inf if rate <= 0.0 else bits / rate


def transfer_energy(power_w: float, bits: float, bandwidth_hz: float, efficiency: float) -> float:
    """Radiated energy p*bits/(B*f) of sending ``bits``; 0 at zero power, inf at a zero rate."""
    # power times transfer time, with p*bits formed first as in p*theta/(B*f)
    return 0.0 if power_w == 0.0 else transfer_time(power_w * bits, bandwidth_hz, efficiency)


class Uplink(NamedTuple):
    """Round-resolved constants of one cluster head's uplink, the one uplink model.

    A ``NamedTuple``, so that building one per cluster and round stays cheap.
    """

    bandwidth: float
    gain: float
    noise_floor: float  # I + B*N0
    payload: float  # z_enc + theta_enc
    param_bits: float  # theta_enc
    p_max: float
    e_max: float

    def delay_and_energy(self, p: float) -> tuple[float, float]:
        """(delay, energy) of the upload at power p, from one spectral efficiency.

        The delay sends encoder output + parameters and is inf at a zero rate;
        the energy p * theta_enc / rate counts the parameters only.
        """
        efficiency = spectral_efficiency(p, self.gain, self.noise_floor)
        return (
            transfer_time(self.payload, self.bandwidth, efficiency),
            transfer_energy(p, self.param_bits, self.bandwidth, efficiency),
        )

    def delay(self, p: float) -> float:
        """The upload time of ``delay_and_energy(p)``."""
        return self.delay_and_energy(p)[0]

    def upload_energy(self, p: float) -> float:
        """The upload energy of ``delay_and_energy(p)``."""
        return self.delay_and_energy(p)[1]


def uplink(cfg: SystemConfig, env: RoundEnvironment, n: int) -> Uplink:
    """Cluster n's uplink this round."""
    cl = cfg.clusters[n]
    # positional, in field order: keywords make the construction half again as slow
    return Uplink(
        cl.uplink_bandwidth_hz,
        env.uplink_gain[n],
        env.uplink_interference_w[n] + cl.uplink_bandwidth_hz * cfg.noise_density_w_per_hz,
        cfg.model.uplink_payload_bits,
        cfg.model.enc_param_bits,
        cl.uplink_power_max_w,
        cl.uplink_energy_budget_j,
    )


def cluster_uplink_rate(cluster: ClusterProfile, env: RoundEnvironment, n: int, power_w: float, n0: float) -> float:
    """Uplink rate B*f of cluster n's head at the given power, this round, in bits/s.

    Derived here on its own, not through ``uplink``, so that tests can check
    the uplink model against it.
    """
    noise_floor = env.uplink_interference_w[n] + cluster.uplink_bandwidth_hz * n0
    return cluster.uplink_bandwidth_hz * spectral_efficiency(power_w, env.uplink_gain[n], noise_floor)


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
    efficiency = spectral_efficiency(power_w, gain, interference_w + bandwidth_hz * n0)
    delay = transfer_time(model.hop_payload_bits, bandwidth_hz, efficiency)
    if math.isinf(delay):
        raise StalledLinkError(f"stalled d2d link: zero rate at gain {gain} and power {power_w}")
    return delay


def device_d2d_delay(cfg: SystemConfig, n: int, k: int, gain: float, interference_w: float) -> float:
    """Hop time for device k of cluster n at its configured d2d power, given the drawn channel."""
    cl = cfg.clusters[n]
    return d2d_delay(
        cfg.model, cl.d2d_bandwidth_hz, cl.devices[k].d2d_power_w, gain, interference_w, cfg.noise_density_w_per_hz
    )
